"""Per-layer tracing by wrapping the program's public functions from outside.

`Tracer.installed()` replaces each function named in TRACED, in every
loaded `hiremlp` module that binds it, with a timing wrapper, and puts the
originals back on exit. Nothing under `src/` is edited, and outside the
`with` block the program runs its own unwrapped functions.

Each wrapped call is a span. A span's self time is its duration minus the
whole time of the wrapped calls made inside it, wrappers included, so the
tracer's own bookkeeping is never charged to a layer; it is summed apart
(`overhead_s`) and taken out of `network.glue_ms` and of the call time that
`trace.coverage_share` divides by. Coverage is the share of that net call
time spent in the self time of a layer below the forward's own loops: what
it misses is the body of `network.forward`, `forward_features` and
`stage_forward`, and any code outside every span. Counts are taken at the
same boundaries: linear FLOPs come from the shapes `tensor.linear`
receives (one multiply-accumulate = 1 FLOP, the convention of
`accounting.count_model`), and bytes are computed from the sizes of the
arrays each tensor op reads and writes.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

TRACED = {
    "tensor": (
        "linear", "gelu", "relu", "batch_norm", "take", "reshape", "transpose", "add",
        "crop", "pad_zero", "mean_axes", "sum_all", "backward",
    ),
    "rearrange": (
        "cross_rearrange", "cross_restore", "partition_pad", "crop_pad",
        "inner_rearrange", "inner_restore",
    ),
    "hire": ("hire_module", "hire_branch", "bottleneck_mlp"),
    "network": ("forward", "forward_features", "stage_forward", "patch_embed", "hire_block", "channel_mlp"),
}
REPORTED_TENSOR_OPS = (
    "linear", "gelu", "batch_norm", "take", "reshape", "transpose", "add", "crop", "pad_zero", "mean_axes",
)
# the per-layer self times must cover at least this share of a traced call, net of
# the tracer's own time (about 0.999 on a forward; about 0.94 on a gradient check,
# whose own sampling and perturbing code runs outside every span)
COVERAGE_MIN = 0.9
# spans whose self time is loop and validation glue above the layers
_ROOT_SPANS = ("network.forward", "network.forward_features", "network.stage_forward")
_TENSOR_KEYS = frozenset(f"tensor.{op}" for op in TRACED["tensor"] if op != "backward")
STAGES = 4


def _nbytes(arrays) -> int:
    total = 0
    for a in arrays:
        a = getattr(a, "value", a)  # a tape Var holds its array in .value
        if isinstance(a, np.ndarray):
            total += a.nbytes
    return total


class Tracer:
    """Span recorder for one traced call at a time; `reset` between calls."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n == "hiremlp" or n.startswith("hiremlp.")]
        for mod_name, names in TRACED.items():
            owner = sys.modules[f"hiremlp.{mod_name}"]
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s, bytes]
        self.stage_flops = [0] * (STAGES + 1)  # index 0: outside every stage (the head)
        self.stage_s = [0.0] * (STAGES + 1)
        self.part_s = {"height": 0.0, "width": 0.0, "channel": 0.0}
        self.tensor_in_forward_s = 0.0
        self.overhead_s = 0.0  # the wrappers' own time, outside every span's duration
        self.overhead_in_forward_s = 0.0
        self.tape_nodes = 0
        self._stack: list[tuple[str, list]] = []
        self._stage = 0
        self._stage_count = 0
        self._forward_depth = 0

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            self._before(key)
            frame = [0.0]
            self._stack.append((key, frame))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self._after(key, args, dur, frame[0])
            if key in _TENSOR_KEYS:
                self.stats[key][3] += _nbytes(args) + _nbytes((out,))
            self._close(dur, perf_counter() - t_in)
            return out

        return traced

    def _before(self, key: str) -> None:
        if key == "network.forward":
            self._forward_depth += 1
        elif key == "network.forward_features":
            self._stage_count = 0
        elif key == "network.stage_forward":
            self._stage_count += 1
            self._stage = self._stage_count

    def _after(self, key: str, args: tuple, dur: float, child: float) -> None:
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0.0, 0.0, 0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if key in _TENSOR_KEYS:
            if self._forward_depth:
                self.tensor_in_forward_s += dur
            if key == "tensor.linear":
                x, w = (getattr(a, "value", a) for a in args[:2])
                self.stage_flops[self._stage] += (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]
                if parent is not None and parent[0] == "hire.hire_module":
                    self.part_s["channel"] += dur
        elif key == "hire.hire_branch":
            self.part_s[args[1].axis] += dur
        elif key == "network.stage_forward":
            self.stage_s[self._stage] += dur
            self._stage = 0
        elif key == "network.forward":
            self._forward_depth -= 1

    def _close(self, dur: float, whole: float) -> None:
        """Charge a finished span's whole time to its parent; the excess over `dur` is overhead."""
        if self._stack:
            self._stack[-1][1][0] += whole
        self.overhead_s += whole - dur
        if self._forward_depth:
            self.overhead_in_forward_s += whole - dur

    # -- per-call metrics ----------------------------------------------------

    def metrics(self, call_s: float, expected_flops: list[int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the call recorded since the last reset.

        expected_flops[k] is the linear FLOP count the call should do in
        stage k (index 0: outside every stage), from `count_model`.
        """
        out: dict[str, tuple[float, str]] = {}

        def stat(key: str) -> list:
            return self.stats.get(key, [0, 0.0, 0.0, 0])

        for op in REPORTED_TENSOR_OPS:
            calls, _, self_s, nbytes = stat(f"tensor.{op}")
            out[f"tensor.{op}.calls"] = (calls, "count")
            out[f"tensor.{op}.self_ms"] = (1e3 * self_s, "ms")
            out[f"tensor.{op}.share"] = (self_s / call_s, "share")
            out[f"tensor.{op}.bytes"] = (nbytes, "computed_B")
        linear_flops = sum(self.stage_flops)
        linear_s = stat("tensor.linear")[1]
        out["tensor.linear.flops"] = (linear_flops, "FLOP")
        out["tensor.linear.gflops_per_s"] = (linear_flops / linear_s / 1e9 if linear_s else 0.0, "GFLOP/s")
        out["tensor.backward.ms"] = (1e3 * stat("tensor.backward")[1], "ms")
        out["tensor.tape.nodes"] = (self.tape_nodes, "count")
        for name in TRACED["rearrange"]:
            calls, _, self_s, _ = stat(f"rearrange.{name}")
            out[f"rearrange.{name}.calls"] = (calls, "count")
            out[f"rearrange.{name}.self_ms"] = (1e3 * self_s, "ms")
        for key in ("hire.hire_module", "hire.hire_branch", "hire.bottleneck_mlp",
                    "network.patch_embed", "network.hire_block", "network.channel_mlp"):
            _, total_s, self_s, _ = stat(key)
            out[f"{key}.ms"] = (1e3 * total_s, "ms")
            out[f"{key}.self_ms"] = (1e3 * self_s, "ms")
        for part, secs in self.part_s.items():
            out[f"hire.{part}.ms"] = (1e3 * secs, "ms")
        for k in range(1, STAGES + 1):
            secs = self.stage_s[k]
            out[f"network.stage{k}.ms"] = (1e3 * secs, "ms")
            out[f"network.stage{k}.gflops_per_s"] = (expected_flops[k] / secs / 1e9 if secs else 0.0, "GFLOP/s")
        forward_s = stat("network.forward")[1]
        out["network.glue_ms"] = (1e3 * (forward_s - self.tensor_in_forward_s - self.overhead_in_forward_s), "ms")
        covered = sum(s[2] for key, s in self.stats.items() if key not in _ROOT_SPANS)
        out["trace.coverage_share"] = (covered / (call_s - self.overhead_s), "share")
        out["trace.flops_mismatch"] = (flops_mismatch(self.stage_flops, expected_flops), "FLOP")
        return out


def flops_mismatch(observed: list[int], expected: list[int]) -> int:
    """Total absolute difference between traced and counted linear FLOPs, per stage."""
    return sum(abs(int(o) - int(e)) for o, e in zip(observed, expected, strict=True))


def expected_stage_flops(report, forwards: int) -> list[int]:
    """Linear FLOPs of `forwards` single-image forwards, per stage, from a CostReport."""
    per_stage = [report.subtotal("head")[1]]
    per_stage += [report.subtotal(f"stage{k}.")[1] for k in range(1, STAGES + 1)]
    return [forwards * f for f in per_stage]
