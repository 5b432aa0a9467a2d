"""Workload definitions, seeded input generation and the per-call output gates.

Everything here is the benchmark's own code: inputs are written in the
`.hire` container format by a local writer, so a change to the program's
own reader or writer cannot change what the program is fed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# forward logits: max |float32 - float64| <= LOGIT_RTOL * max |float64|
LOGIT_RTOL = 1e-4
# gradient check: the threshold `hiremlp gradcheck` applies
GRAD_RTOL = 1e-4
FD_EPS = 1e-5
# images whose batch statistics become the norms' running statistics
CALIBRATION_IMAGES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file stem under configs/
    kind: str  # "forward" | "gradcheck"
    batch: int  # images per call
    height: int
    width: int
    distinct: int = 1  # distinct input batches, cycled call by call
    coords: int = 0  # finite-difference coordinates per gradcheck call

    @property
    def item(self) -> str:
        return "images" if self.kind == "forward" else "grad_coords"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tiny_224_b1", "tiny", "forward", batch=1, height=224, width=224, distinct=4),
        # batch 2 rather than 8: a 1.6 s call left too few samples per run for a
        # steady fastest call on a shared host.
        Workload("tiny_200x300_b2", "tiny", "forward", batch=2, height=200, width=300, distinct=2),
        # 4 fresh coordinates per call rather than the CLI's 100 in one: a short call
        # gives hundreds of samples per run, so the fastest one is steady on a shared
        # host, and the taped forward and backward are a large share of each call.
        Workload("gradcheck_micro", "micro", "gradcheck", batch=1, height=32, width=32, coords=4),
    )
}


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def write_hire(path: Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float32 tensors in the documented `.hire` layout."""
    with open(path, "wb") as fh:
        fh.write(b"HIRE")
        fh.write(struct.pack("<II", 1, len(tensors)))
        for name, arr in tensors.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)) + enc)
            fh.write(struct.pack(f"<B{data.ndim}Q", data.ndim, *data.shape))
            fh.write(data.tobytes())


def generate_weights(rng: np.random.Generator, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Seeded values for every named parameter and buffer.

    Weights are scaled by 1/sqrt(fan_in), so each layer has about unit
    gain, and norms get non-trivial affines. Running statistics start at
    the identity; `worker.calibrate_norms` replaces them.
    """
    out = {}
    for name, shape in shapes.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "weight" and len(shape) == 2:
            a = rng.standard_normal(shape) / np.sqrt(shape[0])
        elif leaf == "gamma":
            a = 1.0 + 0.1 * rng.standard_normal(shape)
        elif leaf == "running_var":
            a = np.ones(shape)
        elif leaf in ("beta", "bias"):
            a = 0.1 * rng.standard_normal(shape)
        else:
            a = np.zeros(shape)
        out[name] = a.astype(np.float32)
    return out


def generate_images(rng: np.random.Generator, w: Workload) -> np.ndarray:
    """All distinct input batches, stacked: [distinct * batch, H, W, 3]."""
    shape = (w.distinct * w.batch, w.height, w.width, 3)
    return rng.standard_normal(shape).astype(np.float32)


# ---------------------------------------------------------------------------
# Output gates
# ---------------------------------------------------------------------------


def check_logits(logits, ref: np.ndarray) -> str | None:
    """None when float32 logits pass the gate against the float64 reference, else why not."""
    y = np.asarray(logits)
    if y.shape != ref.shape:
        return f"logits shape {y.shape}, expected {ref.shape}"
    if not np.all(np.isfinite(y)):
        return "non-finite logits"
    err = float(np.max(np.abs(y.astype(np.float64) - ref)))
    limit = LOGIT_RTOL * float(np.max(np.abs(ref)))
    if not err <= limit:
        return f"max |float32 - float64| {err:.3e} exceeds {limit:.3e}"
    return None


def grad_rel_error(ad: float, fd: float) -> float:
    """Relative error of one reverse-mode entry against central differences."""
    return abs(ad - fd) / max(abs(ad), abs(fd), 1.0)


def check_grads(errors: list[float]) -> str | None:
    """None when every sampled coordinate is below GRAD_RTOL, else why not."""
    worst = max(errors)
    if not worst < GRAD_RTOL:
        return f"max relative gradient error {worst:.3e} not below {GRAD_RTOL:.0e}"
    return None
