"""Dense-array primitives and a minimal reverse-mode tape.

Feature maps are plain numpy arrays in NHWC layout (row-major, channels
fastest-varying). Every op here but one is pure: it writes into none of
its inputs, nor into a result it has already returned. A result may share
memory with an input, though: `reshape` returns a view whenever numpy can
give one, so a caller that wants to write into a result must own it. The
one exception is `gelu(x, overwrite=True)` on a float32 ndarray, which
writes its result into x; the model passes it only a fresh FC output that
it reads no more. Outside the ops, the blocks sum with `+=` into a map
they own (`hire.hire_module`, `network.hire_block`), a fresh `add` when
either side is a Var; those are the other in-place writes, each one
lowering the forward's peak memory.
Ops accept either numpy arrays (eager) or `Var` handles bound to a
`Tape`; every op returns through `_result`, which records the op when
any input is a `Var` so `backward` can replay adjoints. One tape serves
one forward pass.

Precision is a property of the arrays, not a global switch: float32 for
inference, float64 for gradient checks (central differences are useless
at float32).
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeError, UnsupportedOpError

Array = np.ndarray


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep freed blocks of up to 32 MiB for reuse.

    A forward allocates and frees its activations on every call, about
    12 MB at tiny 224x224. By default glibc maps every block over 128 KiB
    afresh and trims the heap top beyond twice that, raising both limits
    only after the process frees a larger mapped block. A process that has
    freed none re-faults those pages on every call (3.1K minor faults per
    tiny forward). These are the limits glibc's own adjustment stops at.
    Other C libraries have no `mallopt` and are left as they are."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()

# plain Python floats so float32 inputs are not promoted
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# added to every batch-norm variance before the square root
BN_EPS = 1e-5


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class Var:
    """Handle to one node of a tape-recorded computation.

    Ops recognise a Var by its exact type, so Var admits no subclass. A
    `+=` with a Var on either side records one fresh `add` and writes into
    neither operand, so operands bound in part compose as bound ones do."""

    __slots__ = ("tape", "idx")

    def __init_subclass__(cls, **kwargs):
        raise TypeError("Var cannot be subclassed: ops test operands by exact type")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> Array:
        return self.tape.nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __iadd__(self, other: "ArrayLike") -> "ArrayLike":
        return add(self, other)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        # numpy's hook: `a += v` on an ndarray a is add(a, v); every other ufunc of a Var raises TypeError
        if ufunc is np.add and method == "__call__" and not kwargs and out is not None and out[0] is inputs[0]:
            return add(*inputs)
        return NotImplemented

    def __repr__(self) -> str:
        node = self.tape.nodes[self.idx]
        return f"Var(#{self.idx} {node.op} {node.value.shape})"


ArrayLike = Union[Array, Var]


@dataclass(slots=True)
class _Node:
    op: str
    value: Array
    # one entry per op input: node index, or None for a constant input
    parents: tuple[int | None, ...]
    ctx: dict


class Tape:
    """Append-only operation record; node order is topological by construction."""

    def __init__(self) -> None:
        self.nodes: list[_Node] = []

    def leaf(self, value: Array) -> Var:
        """Register an input/parameter array as a differentiable leaf."""
        return self._record("leaf", value if type(value) is np.ndarray else np.asarray(value), (), {})

    def _record(self, op: str, value: Array, parents: tuple[int | None, ...], ctx: dict) -> Var:
        self.nodes.append(_Node(op, value, parents, ctx))
        return Var(self, len(self.nodes) - 1)


def _value(x: ArrayLike) -> Array:
    """The array behind an op operand; only operands that are neither an
    ndarray nor a Var go through np.asarray."""
    kind = type(x)
    if kind is np.ndarray:
        return x
    if kind is Var:
        return x.tape.nodes[x.idx].value
    return np.asarray(x)


def _result(op: str, out: Array, operands: tuple, ctx: dict) -> ArrayLike:
    """What every op returns: `out` itself when no operand is a Var, else
    `out` recorded as one `op` node on the operands' tape, with one parent
    slot per operand, the Var's node index or None for a constant."""
    tape = None
    for x in operands:
        if type(x) is Var:
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise InvalidInputError("operands are bound to different tapes")
    if tape is None:
        return out
    return tape._record(op, out, tuple(x.idx if type(x) is Var else None for x in operands), ctx)


# adjoint registry: op kind -> fn(node, grad_out) -> list[(parent_slot, grad)],
# one entry per slot; backward drops the entries of constant (None) slots
_ADJOINTS: dict[str, Callable[[_Node, Array], list[tuple[int, Array]]]] = {}


def _adjoint(op: str):
    def deco(fn):
        _ADJOINTS[op] = fn
        return fn

    return deco


class Gradients:
    """Result of `backward`: per-leaf gradients keyed by Var."""

    def __init__(self, tape: Tape, grads: list[Array | None]):
        self._tape = tape
        self._grads = grads

    def wrt(self, var: Var) -> Array:
        if var.tape is not self._tape:
            raise InvalidInputError("Var belongs to a different tape")
        g = self._grads[var.idx]
        if g is None:
            # leaf never touched the output: zero gradient by contract
            return np.zeros_like(var.value)
        return g


def backward(tape: Tape, output: Var) -> Gradients:
    """Reverse-accumulate d(output)/d(leaf) for every leaf on the tape.

    `output` must be a scalar (size-1) node recorded on `tape`. Raises
    UnsupportedOpError if a recorded op has no registered adjoint.
    """
    if output.tape is not tape:
        raise InvalidInputError("output Var is not bound to this tape")
    out_node = tape.nodes[output.idx]
    if out_node.value.size != 1:
        raise InvalidInputError(
            f"backward target must be scalar, got shape {out_node.value.shape}"
        )
    grads: list[Array | None] = [None] * len(tape.nodes)
    grads[output.idx] = np.ones_like(out_node.value)
    for idx in range(output.idx, -1, -1):
        g = grads[idx]
        if g is None:
            continue
        node = tape.nodes[idx]
        if node.op == "leaf":
            continue
        adj = _ADJOINTS.get(node.op)
        if adj is None:
            raise UnsupportedOpError(f"no adjoint registered for op '{node.op}'")
        for slot, contrib in adj(node, g):
            pidx = node.parents[slot]
            if pidx is None:
                continue  # a constant operand: the one place its gradient is dropped
            # accumulation always allocates a fresh array, so aliasing g is safe
            if grads[pidx] is None:
                grads[pidx] = contrib
            else:
                grads[pidx] = grads[pidx] + contrib
    return Gradients(tape, grads)


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def add(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Elementwise sum; shapes must match exactly (no broadcasting)."""
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add: shape mismatch {av.shape} vs {bv.shape}")
    return _result("add", av + bv, (a, b), {})


@_adjoint("add")
def _adj_add(node: _Node, g: Array):
    return [(0, g), (1, g)]


# rows per matmul in `linear`. OpenBLAS's working memory grows with a
# product's row count: one 7500x64 @ 64x256 float32 product raised peak RSS
# by 2.0 MB whole and by 0.5 MB in 1K-row blocks, so at large inputs the
# whole-map products, not the model's own maps, set peak RSS. A longer
# product is split into the equal blocks of `row_blocks`, each at least half
# this many rows, and only when the weight holds at least twice this many
# entries. Each block then does over 1e6 multiply-adds and so keeps the
# kernel of the whole product (`keeps_kernel`): every product the model
# makes stays bitwise the whole one. A one-column weight runs gemv
# either way and may round differently. On a 2-CPU Xeon, peak RSS after 30
# tiny forwards at 200x300, batch 2, was 133.4 MB with whole products and
# 126.2, 126.7, 127.3, 128.1 and 131.5 MB with 256, 512, 1K, 2K and 4K
# rows; 256 rows took 5-10% longer, 512 and more were within noise.
_LINEAR_ROWS = 1 << 10
# OpenBLAS (0.3.31) gives a product of at most this many multiply-adds its
# small-matrix kernel, and one of one row gemv; both sum in another order
# than the kernel of a longer product
_SMALL_PRODUCT = 10**6


def row_blocks(m: int, count: int | None = None) -> list[slice]:
    """Slices cutting range(m), in order, into min(count, m) blocks whose
    lengths differ by at most one, the longer first. By default count is
    the fewest blocks of at most `_LINEAR_ROWS` rows: `linear`'s blocks."""
    if count is None:
        count = -(-m // _LINEAR_ROWS)
    count = max(1, min(count, m))
    size, extra = divmod(m, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def keeps_kernel(rows: int, weight: ArrayLike) -> bool:
    """Whether a product of `rows` rows by `weight` runs the kernel that any
    longer product by it runs: it has more than one row and does over
    `_SMALL_PRODUCT` multiply-adds. Cut into such row blocks, a product
    is bitwise the whole one."""
    return rows > 1 and rows * _value(weight).size > _SMALL_PRODUCT


def linear(x: ArrayLike, weight: ArrayLike, bias: ArrayLike | None = None) -> ArrayLike:
    """Affine map on the last axis: out[..., j] = sum_i x[..., i] W[i, j] + b[j].

    A product of more than `_LINEAR_ROWS` rows by a weight of at least twice
    that many entries is computed in equal row blocks.
    """
    xv, wv = _value(x), _value(weight)
    if wv.ndim != 2:
        raise ShapeError(f"linear: weight must be rank-2, got {wv.shape}")
    if xv.shape[-1] != wv.shape[0]:
        raise ShapeError(
            f"linear: input last dim {xv.shape} does not match weight {wv.shape}"
        )
    bv = None
    if bias is not None:
        bv = _value(bias)
        if bv.shape != (wv.shape[1],):
            raise ShapeError(f"linear: bias {bv.shape} does not match weight {wv.shape}")
    x2 = xv.reshape(math.prod(xv.shape[:-1]), xv.shape[-1])  # -1 cannot be inferred when the last axis is 0
    m = x2.shape[0]
    if m <= _LINEAR_ROWS or wv.size < 2 * _LINEAR_ROWS:
        out2 = x2 @ wv
    else:
        out2 = np.empty((m, wv.shape[1]), dtype=np.result_type(x2, wv))
        for s in row_blocks(m):
            np.matmul(x2[s], wv, out=out2[s])
    if bv is not None:
        out2 += bv  # the matmul result is fresh, so the bias goes in place
    out = out2.reshape(xv.shape[:-1] + (wv.shape[1],))
    return _result("linear", out, (x, weight, bias), {"x": xv, "w": wv})


@_adjoint("linear")
def _adj_linear(node: _Node, g: Array):
    xv, wv = node.ctx["x"], node.ctx["w"]
    g2 = g.reshape(math.prod(g.shape[:-1]), g.shape[-1])
    x2 = xv.reshape(math.prod(xv.shape[:-1]), xv.shape[-1])
    return [(0, (g2 @ wv.T).reshape(xv.shape)), (1, x2.T @ g2), (2, g2.sum(axis=0))]


def relu(x: ArrayLike) -> ArrayLike:
    xv = _value(x)
    return _result("relu", np.maximum(xv, 0), (x,), {"x": xv})


@_adjoint("relu")
def _adj_relu(node: _Node, g: Array):
    return [(0, g * (node.ctx["x"] > 0))]


# float32 GELU in logistic form: x Phi(x) = x / (1 + exp(x N(x^2))), where
# N = -P and P(x^2) = logit(Phi(x)) / x. P has degree 6 in x^2 and comes from
# scripts/fit_gelu.py: a least-squares fit on (0, 6] in the scaled variable
# x^2 / 36, weighted by the GELU-output sensitivity x^2 Phi (1 - Phi) and
# reweighted toward minimax (Lawson). Its GELU error is 6.7e-8 in float64;
# evaluated in float32 it is at most 5.9e-7 against the float64 libm GELU,
# over every float32 with 2^-8 <= |x| < 16. P(36 + v) has positive
# coefficients, so past |x| = 6 P rises from 4.03 and the logistic
# saturates on the right side: no clamp.
_GELU32_P = (
    3.6112371e-09, -2.6689301e-07, 7.9382221e-06, -1.1048034e-04,
    -6.6259911e-05, 7.2668567e-02, 1.5957684e+00,
)  # coefficients of x^12 ... x^0
_GELU32_N = tuple(-c for c in _GELU32_P)
# elements per slice: the three or four float32 arrays one slice touches
# (at most 1 MB) stay in L2, so the in-place passes do not stream a large
# map through memory. On a 2-CPU Xeon with 2 MB of L2 per core, in place,
# on four hidden-map sizes of tiny, 64K was the fastest of 16K to 128K at
# three and 1-5% behind 48K at the fourth; 16K and 32K took 8-26% longer.
_GELU32_BLOCK = 1 << 16


def _horner(t2: Array, coeffs: tuple[float, ...], out: Array) -> None:
    """out = sum_k coeffs[k] t2^(K-1-k), evaluated in place."""
    np.multiply(t2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= t2
    out += coeffs[-1]


def _libm_cdf(x: Array) -> Array:
    """Phi(x) = 0.5 (1 + erf(x / sqrt 2)) as a fresh array of x's shape, by
    libm's erf per element, in the dtype of x / sqrt 2."""
    t = np.asarray(x * _INV_SQRT2)
    erf = np.fromiter(map(math.erf, t.ravel().tolist()), np.float64, t.size)
    erf += 1.0  # 0.5 (1 + erf), in place
    erf *= 0.5
    return erf.astype(t.dtype, copy=False).reshape(t.shape)


def _gelu32(x: Array, out: Array, cdf: Array | None = None) -> None:
    """out = x / (1 + exp(x N(x^2))) for flat float32 x, one slice at a time;
    out may be x itself. With cdf, also cdf = Phi(x) = 1 / (1 + exp(x N(x^2))).

    Overflow is how the logistic saturates, so it raises no warning: far
    left, exp gives inf and x / inf = -0; far right, x N(x^2) is very
    negative or -inf (x^2 and the Horner passes overflow first), exp gives
    0 and x / 1 = x."""
    n = max(1, min(x.size, _GELU32_BLOCK))
    buf_t2, buf_d = np.empty(n, np.float32), np.empty(n, np.float32)
    with np.errstate(over="ignore"):
        for start in range(0, x.size, n):
            xs = x[start:start + n]
            t2, d = buf_t2[: xs.size], buf_d[: xs.size]
            np.multiply(xs, xs, out=t2)
            _horner(t2, _GELU32_N, out=d)
            d *= xs
            np.exp(d, out=d)
            d += 1.0
            if cdf is not None:
                np.divide(1.0, d, out=cdf[start:start + n])
            np.divide(xs, d, out=out[start:start + n])


def gelu(x: ArrayLike, *, overwrite: bool = False) -> ArrayLike:
    """GELU: x Phi(x) = 0.5 x (1 + erf(x / sqrt 2)). float32 takes the
    logistic form above, within 2e-6 absolute of the float64 GELU; every
    other dtype takes libm's erf per element. With overwrite, a float32
    ndarray x is overwritten by its GELU, one slice at a time (into a fresh
    flat copy when x's elements cannot be viewed flat). Other dtypes ignore
    the flag: their eager result already goes into the fresh CDF array."""
    xv = _value(x)
    if xv.dtype != np.float32:
        cdf = _libm_cdf(xv)
        if type(x) is Var:
            return _result("gelu", xv * cdf, (x,), {"x": xv, "cdf": cdf})
        cdf *= xv  # eager: no adjoint needs the cdf, so it becomes the result
        return cdf
    flat = xv.reshape(-1)
    if type(x) is Var:
        out, cdf = np.empty_like(flat), np.empty_like(flat)
        _gelu32(flat, out, cdf)
        return _result("gelu", out.reshape(xv.shape), (x,), {"x": xv, "cdf": cdf.reshape(xv.shape)})
    out = flat if overwrite else np.empty_like(flat)
    _gelu32(flat, out)
    return out.reshape(xv.shape)


@_adjoint("gelu")
def _adj_gelu(node: _Node, g: Array):
    xv = node.ctx["x"]
    pdf = np.exp(-0.5 * xv * xv) * _INV_SQRT2PI
    return [(0, g * (node.ctx["cdf"] + xv * pdf))]


def batch_norm(
    x: ArrayLike,
    gamma: ArrayLike,
    beta: ArrayLike,
    *,
    mode: str,
    running_mean: Array | None = None,
    running_var: Array | None = None,
) -> ArrayLike:
    """Per-channel normalization over all leading axes (channels last).

    mode="batch" normalizes with statistics of x itself (the differentiable
    path); mode="running" applies the stored statistics (inference only —
    recording it on a tape and calling backward raises UnsupportedOpError,
    since no adjoint is registered for it). Batch mode works on the (M, C)
    view of x: one sum gives the mean, the centred map gives the variance
    (the same two-pass sums numpy's mean and var take), and the centred map
    is then normalized in place. Running mode folds the
    statistics and the affine into a per-channel scale s = gamma / sqrt(var
    + BN_EPS) and shift t = beta - mean s, and makes two passes: x s into
    a fresh array, then + t in place. Neither mode writes into x.
    """
    xv = _value(x)
    gv, bv = _value(gamma), _value(beta)
    c = xv.shape[-1]
    if gv.shape != (c,) or bv.shape != (c,):
        raise ShapeError(
            f"batch_norm: gamma/beta {gv.shape}/{bv.shape} do not match channels {c}"
        )
    if mode == "batch":
        if xv.size == 0:
            raise InvalidInputError("batch_norm: zero-size batch in batch-statistics mode")
        x2 = xv.reshape(-1, c)
        count = x2.shape[0]
        xhat = x2 - x2.sum(axis=0) / count
        invstd = 1.0 / np.sqrt((xhat * xhat).sum(axis=0) / count + BN_EPS)
        xhat *= invstd
        out = xhat * gv
        out += bv
        out = out.reshape(xv.shape)
        ctx = {"xhat": xhat, "invstd": invstd, "gamma": gv}
    elif mode == "running":
        if running_mean is None or running_var is None:
            raise ConfigError("batch_norm: running mode requires stored statistics")
        # stored statistics are buffers, never differentiated
        scale = gv / np.sqrt(_value(running_var) + BN_EPS)
        out = xv * scale
        out += bv - _value(running_mean) * scale
        ctx = {}
    else:
        raise ConfigError(f"batch_norm: unknown mode '{mode}'")
    return _result("batch_norm" if mode == "batch" else "batch_norm_running", out, (x, gamma, beta), ctx)


@_adjoint("batch_norm")
def _adj_batch_norm(node: _Node, g: Array):
    # standard batch-statistics adjoint on the (M, C) view, whose two
    # reductions serve dx, dgamma and dbeta; running mode intentionally unregistered
    xhat, invstd, gv = node.ctx["xhat"], node.ctx["invstd"], node.ctx["gamma"]
    count = xhat.shape[0]
    g2 = g.reshape(xhat.shape)
    g_sum = g2.sum(axis=0)
    gx_sum = (g2 * xhat).sum(axis=0)
    dx = g2 - g_sum / count
    dx -= xhat * (gx_sum / count)
    dx *= gv * invstd
    return [(0, dx.reshape(g.shape)), (1, gx_sum), (2, g_sum)]


def reshape(x: ArrayLike, shape: Sequence[int]) -> ArrayLike:
    xv = _value(x)
    shape = tuple(shape)
    try:
        out = xv.reshape(shape)  # a view whenever numpy can give one
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {xv.shape} as {shape}: {e}") from None
    return _result("reshape", out, (x,), {"in_shape": xv.shape})


@_adjoint("reshape")
def _adj_reshape(node: _Node, g: Array):
    return [(0, g.reshape(node.ctx["in_shape"]))]


def transpose(x: ArrayLike, perm: Sequence[int]) -> ArrayLike:
    xv = _value(x)
    perm = tuple(perm)
    return _result("transpose", np.ascontiguousarray(xv.transpose(perm)), (x,), {"perm": perm})


@_adjoint("transpose")
def _adj_transpose(node: _Node, g: Array):
    perm = node.ctx["perm"]
    inv = np.argsort(perm)
    return [(0, np.ascontiguousarray(g.transpose(inv)))]


@dataclass(frozen=True, eq=False)
class IndexMap:
    """Gather positions along an axis of `extent`, checked in range once, here.

    `value` is a read-only intp array; `take` checks only that the axis it
    gathers from has this extent. `frozen` builds one from a fresh array.
    """

    value: Array
    extent: int

    def __post_init__(self):
        idx = self.value
        if type(idx) is not np.ndarray or idx.dtype != np.intp or idx.flags.writeable:
            raise InvalidInputError("IndexMap: positions must be a read-only intp array")
        if idx.size and (idx.min() < 0 or idx.max() >= self.extent):
            raise InvalidInputError(f"IndexMap: position out of range for extent {self.extent}")

    @classmethod
    def frozen(cls, idx: Array, extent: int) -> IndexMap:
        """The IndexMap of a fresh intp array that the caller hands over and
        writes no more: the array itself is made read-only, not copied."""
        idx.setflags(write=False)
        return cls(idx, extent)


def take(x: ArrayLike, idx: IndexMap, axis: int) -> ArrayLike:
    """Gather along one axis: out[..., i, ...] = x[..., idx.value[i], ...].

    idx may repeat entries (the adjoint scatter-adds), which is how the
    circular/reflect/replicate paddings and all token permutations are built.
    idx must be an IndexMap built for the extent of that axis; its entries
    were checked when it was built.
    """
    if type(idx) is not IndexMap:
        raise InvalidInputError(f"take: expected an IndexMap, got {type(idx).__name__}")
    xv = _value(x)
    extent = xv.shape[axis]
    if idx.extent != extent:
        raise InvalidInputError(
            f"take: index map built for extent {idx.extent}, not {extent}, along axis {axis}"
        )
    idx = idx.value
    return _result("take", xv.take(idx, axis=axis), (x,), {"idx": idx, "axis": axis, "in_shape": xv.shape})


@_adjoint("take")
def _adj_take(node: _Node, g: Array):
    idx, axis, in_shape = node.ctx["idx"], node.ctx["axis"], node.ctx["in_shape"]
    gx = np.zeros(in_shape, dtype=g.dtype)
    # both arrays get the same axis order, so each gradient entry sums the
    # same terms in the same order as with moveaxis
    np.add.at(gx.swapaxes(0, axis), idx, g.swapaxes(0, axis))
    return [(0, gx)]


def pad_zero(x: ArrayLike, axis: int, before: int, after: int) -> ArrayLike:
    xv = _value(x)
    if before < 0 or after < 0:
        raise InvalidInputError("pad_zero: negative pad")
    widths = [(0, 0)] * xv.ndim
    widths[axis] = (before, after)
    out = np.pad(xv, widths, mode="constant")
    return _result("pad_zero", out, (x,), {"axis": axis, "before": before, "extent": xv.shape[axis]})


@_adjoint("pad_zero")
def _adj_pad_zero(node: _Node, g: Array):
    axis, before, extent = node.ctx["axis"], node.ctx["before"], node.ctx["extent"]
    sl = [slice(None)] * g.ndim
    sl[axis] = slice(before, before + extent)
    return [(0, np.ascontiguousarray(g[tuple(sl)]))]


def crop(x: ArrayLike, axis: int, start: int, stop: int) -> ArrayLike:
    xv = _value(x)
    extent = xv.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise ShapeError(f"crop: [{start}:{stop}] out of range for extent {extent}")
    sl = [slice(None)] * xv.ndim
    sl[axis] = slice(start, stop)
    out = np.ascontiguousarray(xv[tuple(sl)])
    return _result("crop", out, (x,), {"axis": axis, "start": start, "in_shape": xv.shape})


@_adjoint("crop")
def _adj_crop(node: _Node, g: Array):
    axis, start, in_shape = node.ctx["axis"], node.ctx["start"], node.ctx["in_shape"]
    gx = np.zeros(in_shape, dtype=g.dtype)
    sl = [slice(None)] * g.ndim
    sl[axis] = slice(start, start + g.shape[axis])
    gx[tuple(sl)] = g
    return [(0, gx)]


def mean_axes(x: ArrayLike, axes: tuple[int, ...]) -> ArrayLike:
    xv = _value(x)
    return _result("mean_axes", xv.mean(axis=axes), (x,), {"axes": axes, "in_shape": xv.shape})


@_adjoint("mean_axes")
def _adj_mean_axes(node: _Node, g: Array):
    axes, in_shape = node.ctx["axes"], node.ctx["in_shape"]
    count = 1
    ge = g
    for a in sorted(axes):
        ge = np.expand_dims(ge, a)
        count *= in_shape[a]
    return [(0, np.broadcast_to(ge / count, in_shape).copy())]


def sum_all(x: ArrayLike) -> ArrayLike:
    xv = _value(x)
    return _result("sum_all", np.asarray(xv.sum()), (x,), {"in_shape": xv.shape, "dtype": xv.dtype})


@_adjoint("sum_all")
def _adj_sum_all(node: _Node, g: Array):
    return [(0, np.full(node.ctx["in_shape"], g, dtype=node.ctx["dtype"]))]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass
class LinearParams:
    """Weight [in_dim, out_dim] and bias [out_dim]."""

    weight: ArrayLike
    bias: ArrayLike

    def __post_init__(self):
        w, b = _value(self.weight), _value(self.bias)
        if w.ndim != 2:
            raise ConfigError(f"LinearParams: weight must be rank-2, got {w.shape}")
        if b.shape != (w.shape[1],):
            raise ConfigError(f"LinearParams: bias {b.shape} inconsistent with weight {w.shape}")

    @property
    def in_dim(self) -> int:
        return _value(self.weight).shape[0]

    @property
    def out_dim(self) -> int:
        return _value(self.weight).shape[1]


@dataclass
class NormParams:
    """Batch-norm state: affine (gamma, beta), running stats, mode (see batch_norm)."""

    gamma: ArrayLike
    beta: ArrayLike
    running_mean: Array
    running_var: Array
    mode: str = "running"  # "batch" | "running"

    def __post_init__(self):
        if (_value(self.running_var) < 0).any():
            raise ConfigError("NormParams: running variance must be nonnegative")
        if self.mode not in ("batch", "running"):
            raise ConfigError(f"NormParams: unknown mode '{self.mode}'")

    @property
    def channels(self) -> int:
        return _value(self.gamma).shape[0]


def identity_norm(channels: int, dtype=np.float32, mode: str = "running") -> NormParams:
    return NormParams(
        gamma=np.ones(channels, dtype=dtype),
        beta=np.zeros(channels, dtype=dtype),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
        mode=mode,
    )


def apply_linear(x: ArrayLike, p: LinearParams) -> ArrayLike:
    return linear(x, p.weight, p.bias)


def apply_norm(x: ArrayLike, p: NormParams) -> ArrayLike:
    # batch_norm by its module-level name, so a patched batch_norm is the one called
    return batch_norm(x, p.gamma, p.beta, mode=p.mode, running_mean=p.running_mean, running_var=p.running_var)


# ---------------------------------------------------------------------------
# Parameter-tree utilities
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _field_names(cls: type) -> tuple[str, ...] | None:
    """A dataclass type's field names, in order; None for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def map_tree(obj, fn: Callable[[str, object], object], path: str = "", *, check: bool = True):
    """Rebuild a nested dataclass/list/tuple structure through fn.

    fn(path, node) sees every node, outermost first, with its dotted path,
    and returns the node's replacement; when it returns the node itself,
    the walk descends into it. A container whose children all come back
    unchanged is returned as is, so untouched arrays and subtrees are
    shared with the input, never copied. A rebuilt dataclass goes through
    its constructor and so its checks; with check=False its fields are
    set directly, for a fn whose every replacement passes the same checks
    as the node it replaces.
    """
    new = fn(path, obj)
    if new is not obj:
        return new
    if isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        names = _field_names(type(obj))
        if names is None:
            return obj
        items = [(name, getattr(obj, name)) for name in names]
    prefix = f"{path}." if path else ""
    out = {}
    changed = False
    for k, v in items:
        out[k] = child = map_tree(v, fn, f"{prefix}{k}", check=check)
        changed |= child is not v
    if not changed:
        return obj
    if isinstance(obj, (list, tuple)):
        return type(obj)(out.values())
    if check:
        return obj.__class__(**out)
    new = object.__new__(obj.__class__)
    for k, v in out.items():
        object.__setattr__(new, k, v)  # also sets the fields of a frozen dataclass
    return new


def map_arrays(obj, fn: Callable[[Array], ArrayLike]):
    """Rebuild a parameter tree with fn applied to every array (a Var's value).

    fn must keep what the dataclass checks read, each array's shape and the
    sign of its entries: the rebuild skips those checks (map_tree's
    check=False), which the tree passed when it was built. A cast and a
    tape leaf keep both."""

    def visit(_path: str, node):
        if isinstance(node, np.ndarray):
            return fn(node)
        return fn(node.value) if isinstance(node, Var) else node

    return map_tree(obj, visit, check=False)


def iter_arrays(obj) -> list[tuple[str, Array]]:
    """(dotted_path, array) for every array (a Var's value) in a parameter tree."""
    found = []

    def visit(path: str, node):
        if isinstance(node, (np.ndarray, Var)):
            found.append((path, _value(node)))
        return node

    map_tree(obj, visit)
    return found


def holds_var(obj) -> bool:
    """Whether any array of a parameter tree is a Var (see `bind_tree`)."""
    if type(obj) is Var:
        return True
    if isinstance(obj, (list, tuple)):
        return any(holds_var(v) for v in obj)
    names = _field_names(type(obj))
    return names is not None and any(holds_var(getattr(obj, name)) for name in names)


def cast_tree(obj, dtype):
    """Copy a parameter tree with every array cast to dtype."""
    return map_arrays(obj, lambda a: a.astype(dtype))


def bind_tree(obj, tape: Tape):
    """Copy a parameter tree with every array replaced by a tape leaf that aliases it."""
    return map_arrays(obj, tape.leaf)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


# central-difference step. Its error is truncation, O(step^2), plus float64
# round-off, O(1e-16 / step). Over model_gradcheck seeds 0-39 the worst error
# was 1.4e-5, 1.4e-7, 1.4e-9 and 1.3e-10 at steps 1e-4, 1e-5, 1e-6 and 1e-7
# (truncation), while over block_gradcheck seeds 0-9 it was 2.8e-9 at 1e-5,
# then 2.6e-8 and 2.7e-7 at 1e-6 and 1e-7 (round-off). 1e-6 keeps both far
# below GRAD_TOLERANCE (1e-4).
FD_EPS = 1e-6


def finite_difference_grad(
    f: Callable[[Array], float], x: Array, coords: Sequence[int] | None = None
) -> Array:
    """Central-difference gradient estimate of a scalar function of x, step FD_EPS.

    x is perturbed in place and restored. With coords (flat indices), only
    those entries are estimated, as a 1-D array in coords order; otherwise
    the whole gradient, in the shape of x.
    """
    x = np.asarray(x)
    flat = x.reshape(-1)
    picks = range(flat.size) if coords is None else coords
    out = np.zeros(len(picks), dtype=np.float64)
    for k, i in enumerate(picks):
        orig = flat[i]
        flat[i] = orig + FD_EPS
        fp = float(f(x))
        flat[i] = orig - FD_EPS
        fm = float(f(x))
        flat[i] = orig
        out[k] = (fp - fm) / (2.0 * FD_EPS)
    return out.reshape(x.shape) if coords is None else out
