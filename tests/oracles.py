"""Independent oracles used to derive expected test values.

These deliberately avoid the library's vectorized code paths: explicit
loops, explicit index maps, and mpmath for high-precision scalars.
"""

from statistics import NormalDist

import numpy as np

from hiremlp import tensor as T
from hiremlp.invariants import sequential_branch
from hiremlp.network import INIT_STD


def loop_matmul(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Triple-loop affine map over the last axis."""
    x2 = x.reshape(-1, x.shape[-1])
    out = np.zeros((x2.shape[0], w.shape[1]), dtype=np.float64)
    for r in range(x2.shape[0]):
        for j in range(w.shape[1]):
            acc = 0.0
            for i in range(w.shape[0]):
                acc += float(x2[r, i]) * float(w[i, j])
            if b is not None:
                acc += float(b[j])
            out[r, j] = acc
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def erf_gelu(x: float) -> float:
    """mpmath-based exact GELU for scalar inputs."""
    import mpmath

    mpmath.mp.dps = 30
    v = mpmath.mpf("0.5") * x * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2)))
    return float(v)


def inner_rearrange_index_map(x: np.ndarray, axis: str, m: int) -> np.ndarray:
    """Element-by-element reference for inner-region rearrangement."""
    n, h, w, c = x.shape
    if axis == "height":
        assert h % m == 0
        out = np.zeros((n, h // m, w, m * c), dtype=x.dtype)
        for bn in range(n):
            for r in range(h // m):
                for j in range(m):
                    for ww in range(w):
                        for ch in range(c):
                            out[bn, r, ww, j * c + ch] = x[bn, r * m + j, ww, ch]
        return out
    assert w % m == 0
    out = np.zeros((n, h, w // m, m * c), dtype=x.dtype)
    for bn in range(n):
        for hh in range(h):
            for r in range(w // m):
                for j in range(m):
                    for ch in range(c):
                        out[bn, hh, r, j * c + ch] = x[bn, hh, r * m + j, ch]
    return out


def roll_index_map(x: np.ndarray, axis_idx: int, step: int) -> np.ndarray:
    """Modular-index reference for the circular token shift."""
    out = np.zeros_like(x)
    extent = x.shape[axis_idx]
    for i in range(extent):
        src = [slice(None)] * x.ndim
        dst = [slice(None)] * x.ndim
        src[axis_idx] = i
        dst[axis_idx] = (i + step) % extent
        out[tuple(dst)] = x[tuple(src)]
    return out


def shuffle_index_map(x: np.ndarray, axis_idx: int, m: int) -> np.ndarray:
    """Transpose-factorization reference: token r*m+j moves to j*g+r."""
    out = np.zeros_like(x)
    extent = x.shape[axis_idx]
    g = extent // m
    for r in range(g):
        for j in range(m):
            src = [slice(None)] * x.ndim
            dst = [slice(None)] * x.ndim
            src[axis_idx] = r * m + j
            dst[axis_idx] = j * g + r
            out[tuple(dst)] = x[tuple(src)]
    return out


def circular_pad_index(extent: int, target: int) -> list[int]:
    """out[i] = in[i mod extent]."""
    return [i % extent for i in range(target)]


def per_token_mlp(x: np.ndarray, w1, b1, w2, b2, act) -> np.ndarray:
    """Per-token two-layer MLP via explicit loops over tokens."""
    n, h, w, _ = x.shape
    out = np.zeros((n, h, w, w2.shape[1]), dtype=np.float64)
    for bn in range(n):
        for i in range(h):
            for j in range(w):
                hid = act(x[bn, i, j] @ w1 + b1)
                out[bn, i, j] = hid @ w2 + b2
    return out


# ---------------------------------------------------------------------------
# A reference forward: the rearrange primitives one step at a time, the
# explicit (x - mean) invstd gamma + beta batch norm, numpy unfolds
# ---------------------------------------------------------------------------

_NP_PAD = {"zero": "constant", "circular": "wrap", "reflect": "reflect", "replicate": "edge"}


def explicit_batch_norm(x: np.ndarray, p) -> np.ndarray:
    """Running-statistics batch norm as (x - mean) invstd gamma + beta."""
    invstd = 1.0 / np.sqrt(p.running_var + T.BN_EPS)
    return (x - p.running_mean) * invstd * p.gamma + p.beta


def two_pass_batch_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, g: np.ndarray):
    """Batch-statistics batch norm by x.mean and x.var over the leading axes,
    and its adjoint at output gradient g by the textbook formula: returns
    (out, dx, dgamma, dbeta)."""
    axes = tuple(range(x.ndim - 1))
    invstd = 1.0 / np.sqrt(x.var(axis=axes) + T.BN_EPS)
    xhat = (x - x.mean(axis=axes)) * invstd
    dx = (gamma * invstd) * (g - g.mean(axis=axes) - xhat * (g * xhat).mean(axis=axes))
    return xhat * gamma + beta, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def reference_linear(x: np.ndarray, p) -> np.ndarray:
    y = (x.reshape(-1, x.shape[-1]) @ p.weight).reshape(x.shape[:-1] + (p.weight.shape[1],))
    return y + p.bias


def reference_bottleneck(v: np.ndarray, p) -> np.ndarray:
    for i, layer in enumerate(p.layers):
        v = reference_linear(v, layer)
        if i < len(p.layers) - 1:
            if i == 0 and p.norm is not None:
                v = explicit_batch_norm(v, p.norm)
            v = np.asarray(T.gelu(v))
    return v


def reference_patch_embed(x: np.ndarray, p) -> np.ndarray:
    """Unfold by np.pad and a strided sliding-window view, then project."""
    k, st = p.spec.kernel, p.spec.stride
    n, h, w, c = x.shape
    oh, ow = -(-h // st), -(-w // st)
    ph, pw = (oh - 1) * st + k - h, (ow - 1) * st + k - w
    widths = ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0))
    xp = np.pad(x, widths, mode=_NP_PAD[p.padding])
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::st, ::st]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n, oh, ow, k * k * c)
    return reference_linear(cols, p.proj)


def reference_forward(model, x: np.ndarray) -> np.ndarray:
    """Logits of `model` (running-statistics norms) without any composed gather."""
    for stage in model.stages:
        x = reference_patch_embed(x, stage.embed)
        for b in stage.blocks:
            u = explicit_batch_norm(x, b.norm1)
            hire = b.hire
            y = x + sequential_branch(u, hire.width, reference_bottleneck)
            y = y + sequential_branch(u, hire.height, reference_bottleneck)
            y = y + reference_linear(u, hire.channel)
            v = explicit_batch_norm(y, b.norm2)
            mlp = b.channel_mlp
            hidden = np.asarray(T.gelu(reference_linear(v, mlp.fc1)))
            x = y + reference_linear(hidden, mlp.fc2)
    return reference_linear(x.mean(axis=(1, 2)), model.head)


def reference_trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Inverse-CDF truncated normal in float64: one float32 uniform u per
    value, drawn for the whole array at once, mapped to p = Phi(-2) + u (1 -
    2 Phi(-2)) and then to the stdlib's Normal(0, std) quantile (AS241
    PPND16), element by element."""
    u = rng.random(int(np.prod(shape)), dtype=np.float32)
    lo = NormalDist().cdf(-2.0)
    quantile = NormalDist(0.0, std).inv_cdf
    return np.array([quantile(lo + float(v) * (1.0 - 2.0 * lo)) for v in u]).reshape(shape)
