"""Command-line surface: summary, forward, invariants, gradcheck, ablate, bench.

Exit codes: 0 success, 1 invariant/acceptance failure (including a failed
budget check in `summary` and non-finite logits from `forward`), 2
usage/config error, 3 any other error, which prints one `error: <Type>:
<message>` line instead of a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .accounting import ablation_cost_sweep, count_config
from .errors import HireMlpError, UsageError
from .invariants import (
    FC_SWEEP_ORDERING,
    GRAD_TOLERANCE,
    budget_checks,
    cyclic_order_failure,
    fc_sweep_ordered,
    manner_permutations,
    model_gradcheck,
    pad_crop_failure,
    preserves_cyclic_order,
    run_invariants,
)
from .network import (
    assemble_model,
    build_model,
    first_non_finite_path,
    forward,
    lane_count,
    load_config,
    load_model_weights,
)
from .rearrange import PADDING_MODES, RegionSpec, partition_pad
from .variants import BUDGET_TOLERANCE, FC_SWEEP_REFERENCE, REFERENCE_HW, small_config
from .weights import load_tensors

BENCH_WARMUP = 5


def _human(n: float) -> str:
    if n >= 1e9:
        return f"{n / 1e9:.2f}G"
    if n >= 1e6:
        return f"{n / 1e6:.2f}M"
    if n >= 1e3:
        return f"{n / 1e3:.2f}K"
    return f"{n:.0f}"


def _parse_hwc(spec: str, dims: int = 3) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in spec.lower().split("x"))
    except ValueError:
        raise UsageError(f"cannot parse size '{spec}' (expected e.g. 224x224x3)")
    if len(parts) != dims or any(p < 1 for p in parts):
        raise UsageError(f"cannot parse size '{spec}' (expected {dims} positive dims)")
    return parts


def _regular_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        problem = "is not a regular file" if p.exists() else "not found"
        raise UsageError(f"{what} file {problem}: {path}")
    return p


def _random_input(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Seeded standard-normal float32 input, from a stream apart from the
    weights' default_rng(seed); a shape that cannot be allocated is a UsageError."""
    try:
        return np.random.default_rng([seed, 1]).standard_normal(shape).astype(np.float32)
    except (MemoryError, ValueError) as e:  # numpy raises ValueError past the largest size
        raise UsageError(f"cannot allocate a {'x'.join(map(str, shape))} input: {e}") from None


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def cmd_summary(args) -> int:
    cfg = load_config(_regular_file(args.config, "config"))
    h, w = _parse_hwc(args.hw, 2)
    report = count_config(cfg, h, w)
    payload = {
        "name": cfg.meta.get("name", "?"),
        "resolution": [h, w],
        "depths": [s.depth for s in cfg.stages],
        "channels": [s.channels for s in cfg.stages],
        "regions": [[s.h, s.w] for s in cfg.stages],
        "steps": [s.s for s in cfg.stages],
        "padding": [s.padding for s in cfg.stages],
        "expansion": list(cfg.expansion_ratio),
        "params": report.params,
        "flops": report.flops,
    }
    ref_flops = cfg.meta.get("reference_flops")
    # params do not depend on the input; FLOPs compare only at the published resolution
    flops_unchecked = ref_flops is not None and (h, w) != REFERENCE_HW
    reference = cfg.meta.get("reference_params"), None if flops_unchecked else ref_flops
    checks = budget_checks((report.params, report.flops), reference)
    if checks:
        payload["budget_checks"] = checks
    code = 0 if all(c["pass"] for c in checks) else 1
    if args.json:
        print(json.dumps(payload, indent=2))
        return code
    print(f"config: {payload['name']}  (input {h}x{w})")
    print(f"{'stage':>5}  {'depth':>5}  {'channels':>8}  {'region h/w':>10}  {'step':>4}  {'padding':>9}  {'params':>10}  {'flops':>10}")
    for i, st in enumerate(cfg.stages):
        sp, sf = report.subtotal(f"stage{i + 1}.")
        print(
            f"{i + 1:>5}  {st.depth:>5}  {st.channels:>8}  {f'{st.h}/{st.w}':>10}  "
            f"{st.s:>4}  {st.padding:>9}  {_human(sp):>10}  {_human(sf):>10}"
        )
    print(f"totals: params {report.params:,} ({_human(report.params)})  flops {report.flops:,} ({_human(report.flops)})")
    for c in checks:
        verdict = "PASS" if c["pass"] else "FAIL"
        print(
            f"budget {c['target']}: {_human(c['measured'])} vs reference "
            f"{_human(c['reference'])} ({c['deviation']:+.2%}) ... {verdict}"
        )
    if flops_unchecked:
        ref_h, ref_w = REFERENCE_HW
        print(f"budget flops: not checked at {h}x{w}, because the reference is at {ref_h}x{ref_w}")
    return code


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def cmd_forward(args) -> int:
    cfg = load_config(_regular_file(args.config, "config"))
    if args.weights:
        # every array is overwritten, so assemble with zeros instead of drawing
        model = assemble_model(cfg, lambda shape: np.zeros(shape, dtype=np.float32))
        load_model_weights(model, load_tensors(_regular_file(args.weights, "weights")))
    else:
        model = build_model(cfg, seed=args.seed)
    if args.random:
        x = _random_input(args.seed, (1, *_parse_hwc(args.random)))
    elif args.input:
        tensors = load_tensors(_regular_file(args.input, "input"))
        if len(tensors) != 1:
            raise UsageError(f"input file must hold exactly one tensor, found {len(tensors)}")
        x = next(iter(tensors.values()))
        if x.ndim == 3:
            x = x[None]
    else:
        raise UsageError("forward needs --random HxWxC or --input FILE")
    # finite input and weights can still overflow; the one check on the
    # logits below reports that, so numpy's warnings are silenced
    with np.errstate(all="ignore"):
        logits = np.asarray(forward(model, x))
        if not np.isfinite(logits).all():
            path = first_non_finite_path(model, x)
            print(
                f"error: forward: logits are not finite; the first non-finite output is {path}'s",
                file=sys.stderr,
            )
            return 1
    k = min(args.topk, logits.shape[-1])
    payload = []
    for row in logits:
        top = np.argsort(row)[::-1][:k]
        payload.append([{"index": int(i), "logit": float(row[i])} for i in top])
    if args.json:
        print(json.dumps({"topk": payload}, indent=2))
    else:
        for n, top in enumerate(payload):
            ranked = "  ".join(f"{e['index']}:{e['logit']:+.5f}" for e in top)
            print(f"image {n}: top-{k} {ranked}")
    return 0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    results = run_invariants(args.scope, seeds=args.seeds, seed=args.seed)
    if args.json:
        print(
            json.dumps(
                {
                    "scope": args.scope,
                    "seeds": args.seeds,
                    "results": [dataclasses.asdict(r) for r in results],
                    "passed": all(r.passed for r in results),
                },
                indent=2,
            )
        )
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  [{r.scope}] {r.name}  ({r.detail})")
        n_fail = sum(not r.passed for r in results)
        print(f"{len(results) - n_fail}/{len(results)} invariants hold")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    worst = model_gradcheck(seed=args.seed, coords=args.coords)
    ok = all(v < GRAD_TOLERANCE for v in worst.values())
    if args.json:
        print(json.dumps({"max_rel_error": worst, "tolerance": GRAD_TOLERANCE, "passed": ok}, indent=2))
    else:
        for group, err in sorted(worst.items()):
            print(f"{group:>6}: max rel error {err:.3e}  ({'OK' if err < GRAD_TOLERANCE else 'FAIL'})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def _ablate_padding(args, out: dict) -> bool:
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((1, 7, 7, 4)).astype(np.float32)
    rows = []
    for mode in PADDING_MODES:
        spec = RegionSpec("height", 3, mode)
        xp = np.asarray(partition_pad(x, spec))
        rows.append(
            {
                "mode": mode,
                "padded_extent": xp.shape[1],
                "crop_identity": pad_crop_failure(x, spec) is None,
                "checksum": float(xp.sum()),
            }
        )
    out["rows"] = rows
    if not args.json:
        print(f"{'mode':>10}  {'7 -> padded':>11}  {'crop identity':>13}  {'pad checksum':>14}")
        for r in rows:
            extent = f"7 -> {r['padded_extent']}"
            print(
                f"{r['mode']:>10}  {extent:>11}  "
                f"{str(r['crop_identity']):>13}  {r['checksum']:>14.5f}"
            )
    return all(r["crop_identity"] for r in rows)


def _ablate_manner(args, out: dict) -> bool:
    extent, region = 12, 3
    perms = manner_permutations(extent, region, 2)
    out["rows"] = [
        {"manner": manner, "permutation": perm.tolist(), "preserves_cyclic_order": preserves_cyclic_order(perm)}
        for manner, perm in perms.items()
    ]
    if not args.json:
        print(f"token axis: {extent} tokens, {extent // region} regions of {region}")
        for r in out["rows"]:
            print(
                f"{r['manner']:>8}: perm {r['permutation']}  "
                f"cyclic order {'preserved' if r['preserves_cyclic_order'] else 'BROKEN'}"
            )
    return cyclic_order_failure(perms) is None


def _ablate_shift(args, out: dict) -> bool:
    sweeps = [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2)]
    base = small_config()
    rows, ok = [], True
    for steps in sweeps:
        stages = tuple(dataclasses.replace(s, s=v) for s, v in zip(base.stages, steps))
        cfg = dataclasses.replace(base, stages=stages, meta={})
        rep = count_config(cfg, *REFERENCE_HW)
        comm = "none (no cross-region communication)" if all(v == 0 for v in steps) else "cross-region"
        rows.append({"steps": list(steps), "params": rep.params, "flops": rep.flops, "communication": comm})
    costs = {(r["params"], r["flops"]) for r in rows}
    ok &= len(costs) == 1  # shifting is free: costs must not depend on s
    out["rows"] = rows
    out["cost_invariant_to_step"] = len(costs) == 1
    if not args.json:
        for r in rows:
            print(
                f"s={tuple(r['steps'])}: params {_human(r['params'])}  flops {_human(r['flops'])}  "
                f"communication: {r['communication']}"
            )
        print(f"cost invariant to step: {out['cost_invariant_to_step']}")
    return ok


def _ablate_fc(args, out: dict) -> bool:
    counts = {n: (rep.params, rep.flops) for n, rep in ablation_cost_sweep(small_config())}
    rows, within = [], True
    for n, (params, flops) in counts.items():
        p, f = budget_checks((params, flops), FC_SWEEP_REFERENCE[n])
        within &= p["pass"] and f["pass"]
        rows.append(
            {
                "fc_layers": n,
                "params": params,
                "flops": flops,
                "reference_params": p["reference"],
                "reference_flops": f["reference"],
                "params_deviation": p["deviation"],
                "flops_deviation": f["deviation"],
            }
        )
    ordering = fc_sweep_ordered(counts)
    out["rows"] = rows
    out["ordering_ok"] = ordering
    out["within_tolerance"] = within
    if not args.json:
        print(f"{'FCs':>3}  {'params':>10}  {'vs ref':>8}  {'flops':>10}  {'vs ref':>8}")
        for r in rows:
            print(
                f"{r['fc_layers']:>3}  {_human(r['params']):>10}  {r['params_deviation']:>+8.2%}  "
                f"{_human(r['flops']):>10}  {r['flops_deviation']:>+8.2%}"
            )
        print(f"ordering {FC_SWEEP_ORDERING}: {ordering}")
        print(f"all entries within {BUDGET_TOLERANCE:.0%} of reference: {within}")
    return ordering and within


def cmd_ablate(args) -> int:
    out: dict = {"kind": args.kind}
    runner = {
        "padding": _ablate_padding,
        "manner": _ablate_manner,
        "shift": _ablate_shift,
        "fc": _ablate_fc,
    }[args.kind]
    ok = runner(args, out)
    out["passed"] = ok
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"ablate {args.kind}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _status_mb(field: str) -> float | None:
    """A kB field of /proc/self/status in MiB, VmRSS (resident now) or VmHWM
    (its peak since this program started); None where it cannot be read.
    Unlike ru_maxrss, VmHWM counts no memory of the process that launched it."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith(f"{field}:"):
                    return int(line.split()[1]) / 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _forward_rss_mb(built: float | None, setup_peak: float | None, peak: float | None) -> float | None:
    """The forwards' peak resident size above the size right after the
    build: `peak`, the VmHWM after them, minus `built`. None where a field
    could not be read, or where the peak did not grow during the forwards
    (`setup_peak`, the VmHWM before them, is as high), so that it belongs
    to the imports or the build rather than to the forwards."""
    if None in (built, setup_peak, peak) or peak <= setup_peak:
        return None
    return peak - built


def cmd_bench(args) -> int:
    from .lanes import blas_threads  # the lane machinery loads only where it is used

    cfg = load_config(_regular_file(args.config, "config"))
    t0 = time.perf_counter()
    model = build_model(cfg, seed=args.seed)
    build_s = time.perf_counter() - t0
    built_rss_mb = _status_mb("VmRSS")
    h, w = _parse_hwc(args.hw, 2)
    x = _random_input(args.seed, (args.batch, h, w, 3))
    lanes = lane_count(model, x)
    setup_hwm_mb = _status_mb("VmHWM")

    times = []
    for _ in range(BENCH_WARMUP + args.iters):
        t0 = time.perf_counter()
        logits = np.asarray(forward(model, x))
        times.append(time.perf_counter() - t0)
    peak_rss_mb = _status_mb("VmHWM")
    med = statistics.median(times[BENCH_WARMUP:])
    checksum = float(logits.sum())
    payload = {
        "config": cfg.meta.get("name", "?"),
        "resolution": [h, w],
        "batch": args.batch,
        "iters": args.iters,
        "warmup": BENCH_WARMUP,
        "median_s_per_batch": med,
        "images_per_s": args.batch / med,
        "ms_per_image": 1000.0 * med / args.batch,
        "checksum": checksum,
        "lanes": lanes,
        "blas_threads": blas_threads(),
        "peak_rss_mb": peak_rss_mb,
        "forward_rss_mb": _forward_rss_mb(built_rss_mb, setup_hwm_mb, peak_rss_mb),
        "build_s": build_s,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{payload['config']} @ {h}x{w}, batch {args.batch}: "
            f"{payload['images_per_s']:.2f} images/s "
            f"({payload['ms_per_image']:.1f} ms/image, median of {args.iters}, "
            f"{lanes} lane{'s' if lanes > 1 else ''})  "
            f"checksum {checksum:+.5f}  peak RSS "
            + ("n/a" if peak_rss_mb is None else f"{peak_rss_mb:.1f} MB")
        )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _int_at_least(text: str, low: int, expected: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1  # rejected below, with the same message as an out-of-range value
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {expected}, got '{text}'")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1, else exit 2 with usage."""
    return _int_at_least(text, 1, "a positive integer")


def _nonnegative_int(text: str) -> int:
    """argparse type for seeds: an integer >= 0, as numpy's default_rng
    requires, else exit 2 with usage."""
    return _int_at_least(text, 0, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hiremlp",
        description="Hierarchical token-rearrangement vision MLP: inspection, inference, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="per-stage table, totals, budget checks")
    p.add_argument("--config", required=True)
    p.add_argument("--hw", default="x".join(map(str, REFERENCE_HW)), help="input resolution HxW")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("forward", help="run inference on a raw tensor or seeded noise")
    p.add_argument("--config", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--input", default=None, help="raw tensor file (single unnamed tensor)")
    p.add_argument("--random", default=None, metavar="HxWxC")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--topk", type=_positive_int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("invariants", help="run registered property suites")
    p.add_argument("--scope", default="all", choices=["all", "tensor", "rearrange", "hire", "network", "accounting"])
    p.add_argument("--seeds", type=_positive_int, default=20)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("gradcheck", help="reverse-mode vs finite differences (64-bit)")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--coords", type=_positive_int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="structural/cost ablation comparisons")
    p.add_argument("kind", choices=["padding", "manner", "shift", "fc"])
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("bench", help="throughput benchmark (hardware-dependent, no target)")
    p.add_argument("--config", required=True)
    p.add_argument("--hw", default="224x224")
    p.add_argument("--batch", type=_positive_int, default=1)
    p.add_argument("--iters", type=_positive_int, default=10, help=f"measured calls, after {BENCH_WARMUP} warm-up calls")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except HireMlpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
