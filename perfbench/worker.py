"""One fresh interpreter of the benchmark: prepare inputs, set up, or measure.

    python3 perfbench/worker.py prepare --workload W --seed S --work DIR
    python3 perfbench/worker.py setup   --workload W --seed S --work DIR
    python3 perfbench/worker.py measure --workload W --seed S --work DIR --seconds T --trace 0|1

`run.py` starts these; each prints one JSON object as its last line. The
program is driven only through its public library API. Set-up time runs
from the start of this process, before numpy or hiremlp is imported, until
the model is loaded and counted, so nothing heavy is imported above
`_T_START`.
"""

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WARMUP_S = 0.5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def import_program() -> float:
    """Import hiremlp from this checkout's src/; returns seconds since process start."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hiremlp

    elapsed = perf_counter() - _T_START
    if Path(hiremlp.__file__).resolve().parent != (src / "hiremlp").resolve():
        raise SystemExit(f"imported hiremlp from {hiremlp.__file__}, not from {src}")
    return elapsed


def setup(w, work: Path) -> tuple[dict, object, object]:
    """The `forward --weights` path: config, model, weights file, cost count."""
    times = {"setup.import_s": import_program()}
    from hiremlp import accounting, network, weights

    def step(key, fn, *args):
        t = perf_counter()
        out = fn(*args)
        times[key] = perf_counter() - t
        return out

    cfg = step("network.load_config_s", network.load_config, ROOT / "configs" / f"{w.config}.json")
    model = step("network.build_model_s", network.build_model, cfg)
    tensors = step("weights.load_tensors_s", weights.load_tensors, work / "weights.hire")
    step("network.load_model_weights_s", network.load_model_weights, model, tensors)
    report = step("accounting.count_model_s", accounting.count_model, model, w.height, w.width)
    times["setup_s"] = perf_counter() - _T_START
    return times, model, report


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    names = set(THREAD_VARS) | {k for k in os.environ if k.endswith("_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in sorted(names)},
    }


# ---------------------------------------------------------------------------
# prepare: seeded inputs and the float64 reference logits
# ---------------------------------------------------------------------------


def calibrate_norms(model, images) -> dict:
    """Running statistics equal to each norm's batch statistics on `images`.

    This is what training leaves behind: every norm then normalizes the
    activations it actually sees, so activations stay of order one
    through the residual stack instead of growing block by block.
    """
    from hiremlp import network
    from hiremlp import tensor as T

    names = {id(arr): name for name, arr in network.model_tensors(model).items()}
    stats = {}
    original = T.batch_norm

    def recording(x, gamma, beta, **kwargs):
        prefix = names[id(gamma)].removesuffix(".gamma")
        axes = tuple(range(x.ndim - 1))
        stats[f"{prefix}.running_mean"] = x.mean(axis=axes)
        stats[f"{prefix}.running_var"] = x.var(axis=axes)
        return original(x, gamma, beta, **kwargs)

    T.batch_norm = recording  # `apply_norm` looks it up in the tensor module
    try:
        network.forward(network.set_norm_mode(model, "batch"), images)
    finally:
        T.batch_norm = original
    return stats


def prepare(w, seed: int, work: Path) -> dict:
    import_program()
    import numpy as np
    from hiremlp import network, weights

    from workloads import CALIBRATION_IMAGES, generate_images, generate_weights, write_hire

    rng = np.random.default_rng(seed)
    model = network.build_model(network.load_config(ROOT / "configs" / f"{w.config}.json"))
    tensors = generate_weights(rng, {name: arr.shape for name, arr in network.model_tensors(model).items()})
    network.load_model_weights(model, tensors)
    calib = rng.standard_normal((CALIBRATION_IMAGES, w.height, w.width, 3)).astype(np.float32)
    tensors.update(calibrate_norms(model, calib))
    write_hire(work / "weights.hire", tensors)
    write_hire(work / "inputs.hire", {"images": generate_images(rng, w)})
    if w.kind == "forward":
        # computed once, outside every timed region, from the files as written
        network.load_model_weights(model, weights.load_tensors(work / "weights.hire"))
        ref_model = network.cast_model(model, np.float64)
        images = weights.load_tensors(work / "inputs.hire")["images"].astype(np.float64)
        refs = [np.asarray(network.forward(ref_model, b)) for b in _batches(images, w)]
        np.save(work / "refs.npy", np.stack(refs))
    return {"prepared": w.name}


def _batches(images, w) -> list:
    return [images[i * w.batch : (i + 1) * w.batch] for i in range(w.distinct)]


# ---------------------------------------------------------------------------
# measure: closed loop, one caller
# ---------------------------------------------------------------------------


def gradcheck_call(model64, x64, rng, coords: int) -> tuple[float, list[float], int]:
    """Taped forward + backward, then central differences at `coords` sampled coordinates.

    Returns (seconds, relative error per coordinate, tape node count).
    The bound tree's leaves alias the eager model's arrays, so perturbing a
    leaf in place perturbs the eager forward.
    """
    import numpy as np
    from hiremlp import network
    from hiremlp import tensor as T

    from workloads import FD_EPS, grad_rel_error

    t0 = perf_counter()
    tape = T.Tape()
    xv = tape.leaf(x64)
    taped = T.bind_tree(model64, tape)
    leaves = [T.Var(tape, i) for i in range(len(tape.nodes))]  # xv, then every parameter
    grads = T.backward(tape, T.sum_all(network.forward(taped, xv)))
    offsets = np.cumsum([0] + [v.value.size for v in leaves])
    picks = rng.choice(int(offsets[-1]), size=coords, replace=False)
    ad, fd = [], []
    for pick in picks:
        slot = int(np.searchsorted(offsets, pick, side="right") - 1)
        local = int(pick - offsets[slot])
        flat = leaves[slot].value.reshape(-1)
        ad.append(float(grads.wrt(leaves[slot]).reshape(-1)[local]))
        orig = flat[local]
        flat[local] = orig + FD_EPS
        fp = float(T.sum_all(network.forward(model64, x64)))
        flat[local] = orig - FD_EPS
        fm = float(T.sum_all(network.forward(model64, x64)))
        flat[local] = orig
        fd.append((fp - fm) / (2.0 * FD_EPS))
    dt = perf_counter() - t0
    return dt, [grad_rel_error(a, f) for a, f in zip(ad, fd)], len(tape.nodes)


def measure(w, seed: int, work: Path, seconds: float, trace: bool) -> dict:
    setup_times, model, report = setup(w, work)
    import numpy as np
    from hiremlp import network, weights

    from tracing import Tracer, expected_stage_flops
    from workloads import check_grads, check_logits

    images = weights.load_tensors(work / "inputs.hire")["images"]
    if w.kind == "forward":
        batches = _batches(images, w)
        refs = np.load(work / "refs.npy")
        forwards = w.batch

        def call(i: int):
            x = batches[i % w.distinct]
            t0 = perf_counter()
            logits = network.forward(model, x)
            dt = perf_counter() - t0
            return dt, check_logits(logits, refs[i % w.distinct]), 0
    else:
        model64 = network.set_norm_mode(network.cast_model(model, np.float64), "batch")
        x64 = images.astype(np.float64)
        rng = np.random.default_rng([seed, 1])  # a stream apart from the inputs'
        forwards = w.batch * (1 + 2 * w.coords)

        def call(i: int):
            dt, errors, nodes = gradcheck_call(model64, x64, rng, w.coords)
            return dt, check_grads(errors), nodes

    expected = expected_stage_flops(report, forwards)
    tracer = Tracer()
    failures: list[str] = []
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    n = 0

    def run(timed: list | None, with_trace: bool) -> None:
        nonlocal n
        tracer.reset()
        if with_trace:
            with tracer.installed():
                dt, failure, nodes = call(n)
        else:
            dt, failure, nodes = call(n)
        n += 1
        if failure is not None:
            failures.append(f"call {n}: {failure}")
        if timed is not None:
            timed.append(dt)
            if with_trace:
                tracer.tape_nodes = nodes
                layers.append(tracer.metrics(dt, expected))

    warm_end = perf_counter() + WARMUP_S
    while n < w.distinct or perf_counter() < warm_end:
        run(None, trace and n % 2 == 1)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        run(untraced, False)
        if trace:
            run(traced, True)
    return {
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:5],
        "setup": setup_times,
        "samples_s": untraced,
        "traced_s": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["prepare", "setup", "measure"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    if args.mode == "prepare":
        out = prepare(w, args.seed, args.work)
    elif args.mode == "setup":
        out = {"setup": setup(w, args.work)[0]}
    else:
        out = measure(w, args.seed, args.work, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
