"""The repository benchmark: one workload, one seed, closed loop with one caller.

    python3 perfbench/run.py --workload tiny_224_b1 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. From the seed it writes the model weights
and the input images as `.hire` files under `.perfbench_work/`, plus the
float64 reference logits. It then starts fresh processes that use only the
public library API of `src/hiremlp`: SETUP_RUNS - MEASURE_RUNS that only
set up, and MEASURE_RUNS that set up and then call the model back to back
for an equal share of `--seconds`, each call waiting for the previous one.
Every call's output is gated (see `workloads.py`); a failed call is
counted, never dropped.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced calls and prints the per-layer metrics (see `tracing.py`). The
last stdout line is one JSON object; the lines above it give each metric
by name and unit and the recorded environment. The benchmark starts no
threads and sets no thread variable: BLAS runs at the defaults a user gets.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COVERAGE_MIN
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_RUNS = 7  # fresh processes whose set-up times give the median setup_s
# On a shared host some processes run the same calls about 1.5x slower than
# others for their whole life, so the timed calls are pooled over several.
MEASURE_RUNS = 3
BUDGET_S = 170.0  # every child must finish within this many seconds of the start
SETUP_LAYERS = (
    ("setup.import_s", "setup.import_s", 1.0, "s"),
    ("network.build_model_s", "network.build_model_s", 1.0, "s"),
    ("weights.load_tensors_ms", "weights.load_tensors_s", 1e3, "ms"),
    ("network.load_model_weights_ms", "network.load_model_weights_s", 1e3, "ms"),
    ("accounting.count_model_ms", "accounting.count_model_s", 1e3, "ms"),
)


class BenchError(Exception):
    pass


def child(mode: str, args, work: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} did not finish within the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool(runs: list[dict]) -> dict:
    """The measuring processes' calls as if one process had made them all."""
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:5],
        "samples_s": [t for r in runs for t in r["samples_s"]],
        "traced_s": [t for r in runs for t in r["traced_s"]],
        "layers": [c for r in runs for c in r["layers"]],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "env": runs[0]["env"],
    }


def source_revision() -> dict:
    """Git revision when the checkout is a repository, and a hash of src/ always."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def end_to_end(w, res: dict, setups: list[dict]) -> tuple[dict, list[str], list[str]]:
    samples = res["samples_s"]
    n = len(samples)
    items = w.batch if w.kind == "forward" else w.coords
    attempted, failed = res["attempted"], res["failed"]
    setup_s = [s["setup_s"] for s in setups]
    p90 = statistics.quantiles(samples, n=10)[-1] if n > 1 else samples[0]
    # Declared in BENCHMARK.json. On a shared host whose speed shifts from process
    # to process and for minutes at a time, the fastest of the pooled calls moves
    # only with the program; the median and the throughput move with the host as
    # well, so they are printed, not gated.
    metrics = {
        "latency_ms_min": (1e3 * min(samples), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "pass_share": ((attempted - failed) / attempted, "share"),
    }
    shown = {
        "latency_ms_p50": (1e3 * statistics.median(samples), "ms", f"{n} timed calls"),
        "latency_ms_p90": (1e3 * p90, "ms", f"{n} timed calls, {sum(s > p90 for s in samples)} beyond p90"),
        "latency_ms_min": (*metrics["latency_ms_min"], f"{n} timed calls in {MEASURE_RUNS} processes"),
        f"{w.item}_per_s": (items * n / sum(samples), "1/s", f"{items} per call"),
        "setup_s": (*metrics["setup_s"], f"median of {len(setup_s)} fresh processes"),
        "peak_rss_mb": (*metrics["peak_rss_mb"], "max resident set of the measuring processes"),
        "failed_share": (failed / attempted, "share", f"{failed} of {attempted} calls failed the output gate"),
    }
    lines = [f"{k:<18} {v:>12.4f} {u:<6} {note}" for k, (v, u, note) in shown.items()]
    return metrics, lines, []


def per_layer(res: dict, setups: list[dict]) -> tuple[dict, list[str], list[str]]:
    calls = res["layers"]
    metrics = {}
    for name in calls[0]:
        metrics[name] = (statistics.median(c[name][0] for c in calls), calls[0][name][1])
    for name, key, scale, unit in SETUP_LAYERS:
        metrics[name] = (scale * statistics.median(s[key] for s in setups), unit)
    traced, untraced = statistics.median(res["traced_s"]), statistics.median(res["samples_s"])
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "share")
    lines = [f"{k:<40} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"(medians of {len(calls)} traced calls; bytes are computed from array sizes; "
                 f"1 FLOP = 1 multiply-accumulate; set-up layers: median of {len(setups)} processes)")
    problems = []
    worst = max(c["trace.flops_mismatch"][0] for c in calls)
    if worst:
        problems.append(f"traced linear FLOPs differ from count_model by up to {worst}")
    if metrics["trace.coverage_share"][0] < COVERAGE_MIN:
        problems.append(f"per-layer self times cover less than {COVERAGE_MIN} of a traced call")
    return metrics, lines, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hiremlp benchmark (closed loop, one caller)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    for need in (ROOT / "src" / "hiremlp" / "__init__.py", ROOT / "configs" / f"{w.config}.json"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    work = WORK_ROOT / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        child("prepare", args, work, deadline)
        setups = [child("setup", args, work, deadline)["setup"] for _ in range(SETUP_RUNS - MEASURE_RUNS)]
        runs = [child("measure", args, work, deadline,
                      "--seconds", str(args.seconds / MEASURE_RUNS), "--trace", str(args.trace))
                for _ in range(MEASURE_RUNS)]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    setups += [r["setup"] for r in runs]
    res = pool(runs)

    env = {**res["env"], **source_revision(), "workload": w.name, "seed": args.seed}
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {w.name}: {w.config} config, {w.kind}, {w.batch}x{w.height}x{w.width}, "
          f"closed loop with 1 caller, {args.seconds} s")
    summarize = per_layer if args.trace else functools.partial(end_to_end, w)
    metrics, lines, problems = summarize(res, setups)
    for line in lines + [f"FAIL {p}" for p in problems + res["failures"]]:
        print(line)
    correct = res["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
