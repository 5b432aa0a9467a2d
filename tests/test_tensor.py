"""tensor core: primitive ops, tape backward, finite differences, serialization."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiremlp import tensor as T
from hiremlp.errors import (
    ConfigError,
    InvalidInputError,
    ShapeError,
    UnsupportedOpError,
)
from hiremlp.invariants import (
    GRAD_TOLERANCE,
    check_backward_vs_fd,
    input_grad_error,
    op_grad_cases,
    rel_error,
)
from hiremlp.weights import load_tensors, save_tensors

from oracles import erf_gelu, explicit_batch_norm, loop_matmul, two_pass_batch_norm


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def test_linear_identity_weights():
    out = T.linear(np.array([1.0, 0.0]), np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(out, [1.0, 0.0])


def test_linear_bias_shift():
    out = T.linear(np.array([2.0, 3.0]), np.eye(2), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(out, [3.0, 4.0])


def test_linear_matches_loop_oracle(rng):
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((5, 3))
    b = rng.standard_normal(3)
    got = T.linear(x, w, b)
    want = loop_matmul(x, w, b)
    assert rel_error(got, want) < 1e-6


def test_linear_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError) as e:
        T.linear(np.zeros((2, 3)), np.zeros((4, 5)))
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


@pytest.mark.parametrize("x_shape, w_shape", [((1, 0), (0, 1)), ((2, 3), (3, 0))], ids=["zero-in", "zero-out"])
def test_linear_zero_width_forward_and_backward(rng, x_shape, w_shape):
    x0, w0, b0 = rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(w_shape[1])
    want = x0 @ w0 + b0
    np.testing.assert_array_equal(T.linear(x0, w0, b0), want)
    tape = T.Tape()
    x, w, b = tape.leaf(x0), tape.leaf(w0), tape.leaf(b0)
    out = T.linear(x, w, b)
    np.testing.assert_array_equal(out.value, want)
    g = T.backward(tape, T.sum_all(out))
    np.testing.assert_array_equal(g.wrt(x), np.ones(want.shape) @ w0.T)
    np.testing.assert_array_equal(g.wrt(w), x0.T @ np.ones(want.shape))
    np.testing.assert_array_equal(g.wrt(b), np.full(w_shape[1], x_shape[0]))


_R = T._LINEAR_ROWS
_BLOCK_ROWS = [0, 1, _R - 1, _R, _R + 1, 2 * _R + 3]


def _plain_linear(x, w, b=None):
    """One whole-map `x2 @ w`, then the bias in place, as linear did unblocked."""
    out = x.reshape(math.prod(x.shape[:-1]), x.shape[-1]) @ w
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ndim", [2, 4])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("rows", _BLOCK_ROWS)
def test_linear_row_blocks_bitwise_equal_one_plain_product(rng, rows, dtype, bias, ndim):
    # 64 x 48 holds at least 2 * _LINEAR_ROWS entries, so longer products are blocked
    x = rng.standard_normal((rows, 64) if ndim == 2 else (1, 1, rows, 64)).astype(dtype)
    w = rng.standard_normal((64, 48)).astype(dtype)
    b = rng.standard_normal(48).astype(dtype) if bias else None
    assert _bitwise_equal(T.linear(x, w, b), _plain_linear(x, w, b))


@pytest.mark.parametrize(
    "rows, blocks", [(_R, []), (_R + 1, [_R // 2 + 1, _R // 2]), (2 * _R + 3, [684, 684, 683])]
)
def test_linear_splits_into_the_fewest_equal_blocks(rng, monkeypatch, rows, blocks):
    seen = []
    matmul = np.matmul

    def spy(a, b, **kw):
        seen.append(a.shape[0])
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", spy)
    T.linear(rng.standard_normal((rows, 64)), rng.standard_normal((64, 48)))
    assert seen == blocks


@pytest.mark.parametrize(
    "m, count, lengths",
    [(10, 4, [3, 3, 2, 2]), (3, 5, [1, 1, 1]), (7, 1, [7]), (_R, None, [_R]), (_R + 1, None, [_R // 2 + 1, _R // 2])],
)
def test_row_blocks_differ_in_length_by_at_most_one(m, count, lengths):
    blocks = T.row_blocks(m, count)
    assert [b.stop - b.start for b in blocks] == lengths
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


def test_a_product_keeps_its_kernel_past_a_million_multiply_adds_on_two_rows_or_more():
    w = np.zeros((1000, 10))
    assert T.keeps_kernel(101, w) and not T.keeps_kernel(100, w)
    assert not T.keeps_kernel(1, np.zeros((2000, 1000)))  # one row runs gemv


def test_linear_row_blocks_on_a_tape_equal_the_plain_product(rng):
    rows = 2 * _R + 3
    x0 = rng.standard_normal((1, 1, rows, 64))
    w0, b0 = rng.standard_normal((64, 48)), rng.standard_normal(48)
    tape = T.Tape()
    x, w, b = tape.leaf(x0), tape.leaf(w0), tape.leaf(b0)
    out = T.linear(x, w, b)
    assert _bitwise_equal(out.value, _plain_linear(x0, w0, b0))
    g = T.backward(tape, T.sum_all(out))
    ones = np.ones((rows, 48))
    assert _bitwise_equal(g.wrt(x), (ones @ w0.T).reshape(x0.shape))
    assert _bitwise_equal(g.wrt(w), x0.reshape(rows, 64).T @ ones)
    assert _bitwise_equal(g.wrt(b), ones.sum(axis=0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("rows", [_R + 1, 20 * _R])
@pytest.mark.parametrize("k, n", [(40, 40), (24, 12), (147, 8)])
def test_linear_keeps_a_thin_product_whole(rng, k, n, rows, dtype):
    # a weight under 2 * _LINEAR_ROWS entries is never split: split, some of
    # these products sent blocks to OpenBLAS's small-matrix kernel, which
    # rounds differently from the kernel of the whole product
    x = rng.standard_normal((rows, k)).astype(dtype)
    w = rng.standard_normal((k, n)).astype(dtype)
    assert _bitwise_equal(T.linear(x, w), _plain_linear(x, w))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_linear_one_column_blocks_within_rounding_of_the_plain_product(rng, dtype):
    # a one-column weight is split but runs gemv either way, which may round
    # differently; each result is within k eps (|x| @ |w|), the error bound
    # of two length-k sums, of the plain product
    k = 2 * _R
    x = rng.standard_normal((_R + 1, k)).astype(dtype)
    w = rng.standard_normal((k, 1)).astype(dtype)
    bound = k * np.finfo(dtype).eps * (np.abs(x) @ np.abs(w))
    assert np.all(np.abs(T.linear(x, w) - _plain_linear(x, w)) <= bound)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 6),
    m=st.integers(1, 6),
    rows=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_linear_is_linear_in_x(k, m, rows, seed):
    r = np.random.default_rng(seed)
    w = r.standard_normal((k, m))
    b = r.standard_normal(m)
    x, y = r.standard_normal((rows, k)), r.standard_normal((rows, k))
    a1, a2 = r.standard_normal(2)
    lhs = T.linear(a1 * x + a2 * y, w, b)
    rhs = a1 * T.linear(x, w) + a2 * T.linear(y, w) + b
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


def test_batch_norm_constant_input_gives_zeros():
    x = np.full((2, 3, 3, 4), 7.0)
    p = T.identity_norm(4, dtype=np.float64, mode="batch")
    out = T.apply_norm(x, p)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_batch_norm_running_identity():
    x = np.random.default_rng(0).standard_normal((2, 3, 3, 4))
    p = T.NormParams(
        gamma=np.ones(4),
        beta=np.zeros(4),
        running_mean=np.zeros(4),
        running_var=np.ones(4),
        mode="running",
    )
    np.testing.assert_allclose(T.apply_norm(x, p), x / np.sqrt(1 + T.BN_EPS), rtol=1e-9)


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
def test_batch_norm_running_scale_shift_matches_explicit_form(rng, dtype, rtol):
    c = 5
    p = T.NormParams(
        gamma=(1 + 0.5 * rng.standard_normal(c)).astype(dtype),
        beta=rng.standard_normal(c).astype(dtype),
        running_mean=rng.standard_normal(c).astype(dtype),
        running_var=(0.1 + rng.random(c)).astype(dtype),
    )
    x = (3 * rng.standard_normal((2, 4, 3, c))).astype(dtype)
    got = np.asarray(T.apply_norm(x, p))
    want = explicit_batch_norm(x, p)
    assert got.dtype == dtype
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_batch_norm_statistics(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    p = T.identity_norm(3, dtype=np.float64, mode="batch")
    y = np.asarray(T.apply_norm(x, p))
    mean = y.mean(axis=(0, 1, 2))
    var = y.var(axis=(0, 1, 2))
    assert np.abs(mean).max() < 1e-5
    assert np.all(var > 1 - 1e-3) and np.all(var < 1 + 1e-3)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.one_of(
        st.tuples(st.integers(1, 40)),  # (N, C)
        st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),  # (N, H, W, C)
    ),
    c=st.integers(1, 12),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_statistics_norm_and_adjoint_equal_two_pass_reference(lead, c, dtype, seed):
    # tolerance zero: the one-pass form takes the same sums in the same order
    rng = np.random.default_rng(seed)
    shape = (*lead, c)
    x = (5 * rng.standard_normal(shape) + rng.standard_normal(c)).astype(dtype)
    gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in range(2))
    g = rng.standard_normal(shape).astype(dtype)
    tape = T.Tape()
    out = T.batch_norm(tape.leaf(x), tape.leaf(gamma), tape.leaf(beta), mode="batch")
    grads = dict(T._ADJOINTS["batch_norm"](tape.nodes[out.idx], g))
    got = (out.value, grads[0], grads[1], grads[2])
    want = two_pass_batch_norm(x, gamma, beta, g)
    for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
        assert a.shape == b.shape and a.dtype == dtype, name
        assert np.array_equal(a, b), name


def test_batch_norm_zero_batch_rejected():
    p = T.identity_norm(3, mode="batch")
    with pytest.raises(InvalidInputError):
        T.apply_norm(np.zeros((0, 2, 2, 3)), p)
    with pytest.raises(InvalidInputError):
        T.apply_norm(np.zeros((2, 0)), T.identity_norm(0, mode="batch"))


def test_norm_params_validation():
    with pytest.raises(ConfigError):
        T.NormParams(np.ones(3), np.zeros(3), np.zeros(3), -np.ones(3))
    with pytest.raises(ConfigError):
        T.NormParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), mode="train")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_relu_values():
    np.testing.assert_array_equal(T.relu(np.array([-1.0, 2.0])), [0.0, 2.0])


def test_gelu_zero():
    assert float(T.gelu(np.array(0.0))) == 0.0


# frozen from the mpmath erf oracle (oracles.erf_gelu)
GELU_TABLE = {
    -3.0: -0.00404969409489028358,
    -1.0: -0.15865525393145705141,
    1.0: 0.84134474606854294859,
    3.0: 2.9959503059051097164,
}


@pytest.mark.parametrize("x,expected", sorted(GELU_TABLE.items()))
def test_gelu_matches_erf_oracle(x, expected):
    got = float(T.gelu(np.array(x)))
    assert abs(got - expected) < 1e-6
    assert abs(got - erf_gelu(x)) < 1e-6  # oracle stays live


def _libm_gelu(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.astype(np.float64).tolist()])


def _gelu_grid() -> np.ndarray:
    """10^6 + 1 float32 points on [-15, 15], plus +-0 and |x| = 4 sqrt 2, where
    an earlier rational float32 erf was clamped."""
    edges = [0.0, -0.0, 4 * math.sqrt(2.0), -4 * math.sqrt(2.0)]
    return np.concatenate([np.linspace(-15.0, 15.0, 10**6 + 1), edges]).astype(np.float32)


def test_gelu_float32_within_2e6_of_float64_erf():
    x = _gelu_grid()
    before = x.tobytes()
    got = T.gelu(x)
    assert x.tobytes() == before  # the in-place passes write only scratch and output
    assert got.dtype == np.float32
    assert np.abs(got.astype(np.float64) - _libm_gelu(x)).max() <= 2e-6


def test_gelu_float64_matches_libm_erf():
    x = _gelu_grid().astype(np.float64)
    got = T.gelu(x)
    assert got.dtype == np.float64
    assert np.abs(got - _libm_gelu(x)).max() <= 1e-15


# float32 GELU error bound, from measurement: over every float32 with
# 2^-8 <= |x| < 16 the largest error against the float64 GELU is 5.87e-7, at
# x = 4.9855294. Past 16 the logistic has saturated to x or -0, and below
# 2^-8 the GELU is about x / 2, a few ulp of a small value.
GELU32_ERROR = 6e-7
GELU32_WORST_X = 4.9855294


def test_gelu_float32_within_6e7_of_the_mpmath_gelu_on_a_grid():
    x = np.append(np.linspace(-15.0, 15.0, 6001), GELU32_WORST_X).astype(np.float32)
    want = np.array([erf_gelu(v) for v in x.astype(np.float64).tolist()])
    assert np.abs(T.gelu(x).astype(np.float64) - want).max() <= GELU32_ERROR


@settings(max_examples=300, deadline=None)
@given(st.floats(-20.0, 20.0, width=32))
def test_gelu_float32_within_6e7_of_the_mpmath_gelu(v):
    assert abs(float(T.gelu(np.array([v], np.float32))[0]) - erf_gelu(v)) <= GELU32_ERROR


def test_gelu_float32_polynomial_rises_past_its_fit_interval():
    p = np.polynomial.Polynomial(T._GELU32_P[::-1])
    # P(36 + v) with no negative coefficient: P rises for x^2 >= 36, so the
    # logistic saturates to the right side without a clamp
    assert (p(np.polynomial.Polynomial([36.0, 1.0])).coef >= 0).all()
    # logit(Phi(x)) / x -> 4 phi(0) = 2 sqrt(2 / pi) as x -> 0
    assert abs(p(0.0) - 2.0 * math.sqrt(2.0 / math.pi)) < 1e-6


def test_gelu_float32_coefficients_are_the_fit_scripts():
    spec = importlib.util.spec_from_file_location("fit_gelu", Path(__file__).resolve().parent.parent / "scripts" / "fit_gelu.py")
    fit_gelu = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit_gelu)
    # the committed tuple is the script's, printed to 8 significant digits
    np.testing.assert_allclose(T._GELU32_P, fit_gelu.fit(), rtol=1e-6)


def _gelu32_every_path(x: np.ndarray) -> list[np.ndarray]:
    """float32 GELU by the eager default, with overwrite, and on a tape."""
    tape = T.Tape()
    return [T.gelu(x), T.gelu(x.copy(), overwrite=True), T.gelu(tape.leaf(x)).value]


def test_gelu_float32_saturates_at_finite_extremes_without_a_warning():
    x = np.array([3e38, -3e38, 1e10, -1e10, *range(-11, -101, -1)], np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = _gelu32_every_path(x)
    for got in results:
        assert got.tobytes() == results[0].tobytes()
    got = results[0]
    assert got[0] == np.float32(3e38) and got[2] == np.float32(1e10)
    assert got[1] == 0.0 and np.signbit(got[1])
    assert np.abs(got[3:].astype(np.float64) - _libm_gelu(x[3:])).max() <= GELU32_ERROR


def test_gelu_float32_of_inf_and_nan():
    x = np.array([np.inf, -np.inf, np.nan], np.float32)
    with np.errstate(invalid="ignore"):  # -inf / inf is NaN
        for got in _gelu32_every_path(x):
            assert got[0] == np.inf and np.isnan(got[1:]).all()


# ---------------------------------------------------------------------------
# tape / backward
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones(rng):
    x0 = rng.standard_normal((3, 4))
    tape = T.Tape()
    x = tape.leaf(x0)
    g = T.backward(tape, T.sum_all(x))
    np.testing.assert_array_equal(g.wrt(x), np.ones_like(x0))


def test_backward_linear_bias_gradient(rng):
    x0 = rng.standard_normal((5, 3))
    tape = T.Tape()
    w = tape.leaf(rng.standard_normal((3, 2)))
    b = tape.leaf(rng.standard_normal(2))
    out = T.sum_all(T.linear(x0, w, b))
    g = T.backward(tape, out)
    np.testing.assert_allclose(g.wrt(b), np.full(2, 5.0))


def test_backward_unused_leaf_gets_zero(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal((2, 2)))
    unused = tape.leaf(rng.standard_normal(4))
    g = T.backward(tape, T.sum_all(x))
    np.testing.assert_array_equal(g.wrt(unused), np.zeros(4))


def test_backward_requires_scalar(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal((2, 2)))
    with pytest.raises(InvalidInputError):
        T.backward(tape, x)


def test_backward_unregistered_op_raises(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal((2, 2, 2, 3)))
    p = T.identity_norm(3, dtype=np.float64, mode="running")
    out = T.sum_all(T.apply_norm(x, p))  # running mode has no adjoint on purpose
    with pytest.raises(UnsupportedOpError):
        T.backward(tape, out)


def test_tape_topological_order(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal((2, 2)))
    y = T.add(x, x)
    z = T.sum_all(y)
    for i, node in enumerate(tape.nodes):
        for p in node.parents:
            assert p is None or p < i


def test_mixed_tapes_rejected(rng):
    t1, t2 = T.Tape(), T.Tape()
    a = t1.leaf(rng.standard_normal((2, 2)))
    b = t2.leaf(rng.standard_normal((2, 2)))
    with pytest.raises(InvalidInputError):
        T.add(a, b)


def test_backward_vs_fd_every_op():
    passed, detail = check_backward_vs_fd(30, np.random.default_rng(5))
    assert passed, detail


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_op_adjoints_randomized(seed):
    r = np.random.default_rng(seed)
    cases = op_grad_cases(r)
    name, leaf, fn = cases[seed % len(cases)]
    assert input_grad_error(fn, leaf) < GRAD_TOLERANCE, name


# ---------------------------------------------------------------------------
# take and index maps
# ---------------------------------------------------------------------------


def _read_only(idx, dtype=np.intp) -> np.ndarray:
    out = np.array(idx, dtype=dtype)
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("read_only", [False, True], ids=["writeable", "read-only"])
def test_take_rejects_a_plain_index_array(read_only):
    x = np.zeros((2, 3))
    index = _read_only([0, 2]) if read_only else np.array([0, 2])
    with pytest.raises(InvalidInputError, match="expected an IndexMap, got ndarray"):
        T.take(x, index, 1)
    with pytest.raises(InvalidInputError, match="expected an IndexMap, got list"):
        T.take(x, [0, 2], 1)


@pytest.mark.parametrize("read_only", [False, True], ids=["writeable", "read-only"])
@pytest.mark.parametrize("idx", [[0, 3], [-1, 0]], ids=["past-end", "negative"])
def test_take_checks_every_entry_of_a_plain_index_array(idx, read_only):
    # A plain array never reaches the gather; wrapping it in the IndexMap that
    # take requires is where every entry is checked against the extent.
    x = np.zeros((2, 3))
    index = _read_only(idx) if read_only else np.array(idx)
    with pytest.raises(InvalidInputError, match="expected an IndexMap, got ndarray"):
        T.take(x, index, 1)
    with pytest.raises(InvalidInputError, match="out of range for extent 3"):
        T.take(x, T.IndexMap.frozen(index, 3), 1)


def test_index_map_frozen_makes_the_handed_array_read_only():
    idx = np.array([2, 0, 2])
    index = T.IndexMap.frozen(idx, 3)
    assert index.value is idx and not idx.flags.writeable
    with pytest.raises(InvalidInputError, match="out of range for extent 2"):
        T.IndexMap.frozen(np.array([2, 0]), 2)


def test_index_map_on_an_axis_of_another_extent_is_rejected():
    index = T.IndexMap(_read_only([0, 2]), 3)
    for x in (np.zeros((2, 4)), np.zeros((2, 2))):  # every position fits the first
        with pytest.raises(InvalidInputError, match="built for extent 3"):
            T.take(x, index, 1)


@pytest.mark.parametrize(
    "idx, problem",
    [
        (_read_only([0, 3]), "out of range"),
        (_read_only([-1]), "out of range"),
        (np.array([0, 1], dtype=np.intp), "read-only intp"),
        (_read_only([0, 1], np.int32), "read-only intp"),
        (_read_only([0, 1], np.float64), "read-only intp"),
        ([0, 1], "read-only intp"),
    ],
    ids=["past-end", "negative", "writeable", "int32", "float", "list"],
)
def test_index_map_construction_rejects_a_bad_map(idx, problem):
    with pytest.raises(InvalidInputError, match=problem):
        T.IndexMap(idx, 3)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_take_and_adjoint_bitwise_equal_np_take_and_add_at(data):
    ndim = data.draw(st.integers(1, 4))
    shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=ndim, max_size=ndim)))
    axis = data.draw(st.integers(-ndim, ndim - 1))
    extent = shape[axis]
    positions = data.draw(st.lists(st.integers(0, extent - 1), max_size=2 * extent + 2))
    r = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = r.standard_normal(shape)
    idx = np.array(positions, dtype=np.intp)
    want = np.take(x, idx, axis)
    g = r.standard_normal(want.shape)
    want_gx = np.zeros_like(x)
    np.add.at(np.moveaxis(want_gx, axis, 0), idx, np.moveaxis(g, axis, 0))
    index = T.IndexMap(_read_only(idx), extent)
    got = T.take(x, index, axis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if not idx.size:
        return  # linear takes no empty operand
    tape = T.Tape()
    xv = tape.leaf(x)
    flat = T.reshape(T.take(xv, index, axis), (1, g.size))
    # sum(out * g) as a 1 x 1 product, whose adjoint hands take exactly g
    loss = T.sum_all(T.linear(flat, g.reshape(g.size, 1)))
    gx = T.backward(tape, loss).wrt(xv)
    assert gx.tobytes() == want_gx.tobytes()


# ---------------------------------------------------------------------------
# operand dispatch
# ---------------------------------------------------------------------------


class _Subclass(np.ndarray):
    pass


def _other_forms(a: np.ndarray) -> list:
    return [a.view(_Subclass), a.tolist()]


def test_ndarray_subclass_and_list_operands_equal_ndarray_operands(rng):
    x, x2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    w, b = rng.standard_normal((3, 2)), rng.standard_normal(2)
    gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
    mean, var = rng.standard_normal(3), rng.random(3) + 0.5

    def same(got, want):
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()

    for a in _other_forms(x):
        for c in _other_forms(x2):
            same(T.add(a, c), T.add(x, x2))
        for wf in _other_forms(w):
            for bf in _other_forms(b):
                same(T.linear(a, wf, bf), T.linear(x, w, b))
        for gf in _other_forms(gamma):
            for bf in _other_forms(beta):
                same(T.batch_norm(a, gf, bf, mode="batch"), T.batch_norm(x, gamma, beta, mode="batch"))
                same(
                    T.batch_norm(a, gf, bf, mode="running", running_mean=mean.tolist(), running_var=var.view(_Subclass)),
                    T.batch_norm(x, gamma, beta, mode="running", running_mean=mean, running_var=var),
                )


def test_scalar_operands(rng):
    assert T.add(1.5, 2.25) == 3.75
    assert T.add(np.float64(1.5), 2.25) == 3.75
    with pytest.raises(ShapeError, match="bias"):
        T.linear(rng.standard_normal((2, 3)), rng.standard_normal((3, 1)), 0.5)
    with pytest.raises(ShapeError, match="gamma/beta"):
        T.batch_norm(rng.standard_normal((2, 3)), 1.0, np.zeros(3), mode="batch")


def test_var_operands_record_the_expected_tape(rng):
    x0, w0, b0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)
    other, gamma, beta0 = rng.standard_normal((4, 2)), rng.standard_normal(2), rng.standard_normal(2)
    tape = T.Tape()
    x, w = tape.leaf(x0), tape.leaf(w0)
    y = T.linear(x, w, b0.tolist())
    z = T.add(y, other.view(_Subclass))
    beta = tape.leaf(beta0)
    T.batch_norm(z, list(gamma), beta, mode="batch")
    recorded = [(node.op, node.parents, sorted(node.ctx)) for node in tape.nodes]
    assert recorded == [
        ("leaf", (), []),
        ("leaf", (), []),
        ("linear", (0, 1, None), ["w", "x"]),
        ("add", (2, None), []),
        ("leaf", (), []),
        ("batch_norm", (3, None, 4), ["gamma", "invstd", "xhat"]),
    ]
    assert tape.nodes[0].value is x0 and tape.nodes[2].ctx["w"] is w0
    np.testing.assert_array_equal(tape.nodes[3].value, T.add(T.linear(x0, w0, b0), other))


def _running_norm_case(rng):
    x4 = rng.standard_normal((2, 3, 4, 5))
    gamma, beta, mean, var = (rng.standard_normal(5) for _ in range(4))
    norm = lambda v: T.batch_norm(v, gamma, beta, mode="running", running_mean=mean, running_var=np.abs(var))
    return [("batch_norm_running", x4, norm)]


# each op's operands, in the order of its parent slots
_OPERANDS = {
    "add": ("a", "b"),
    "linear": ("x", "weight", "bias"),
    "batch_norm": ("x", "gamma", "beta"),
    "batch_norm_running": ("x", "gamma", "beta"),
}
_CASE_NAMES = [name for name, _, _ in op_grad_cases(np.random.default_rng(0)) + _running_norm_case(np.random.default_rng(0))]


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_each_taped_op_records_one_node_equal_to_its_eager_result(rng, name):
    leaf, fn = {n: (a, f) for n, a, f in op_grad_cases(rng) + _running_norm_case(rng)}[name]
    op, _, operand = name.partition("/")
    slots = _OPERANDS.get(op, ("x",))
    tape = T.Tape()
    got = fn(tape.leaf(leaf))
    parents = tuple(0 if s == (operand or slots[0]) else None for s in slots)
    assert [(node.op, node.parents) for node in tape.nodes[1:]] == [(op, parents)]
    assert got.idx == 1
    want = fn(leaf)
    assert type(want) is np.ndarray
    assert (got.value.dtype, got.value.shape, got.value.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_backward_drops_the_gradients_of_constant_operands(rng):
    x0, w0, b0 = rng.standard_normal((5, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)
    tape = T.Tape()
    x = tape.leaf(x0)
    untouched = tape.leaf(rng.standard_normal(4))
    y = T.linear(x, w0, b0)
    loss = T.sum_all(y)
    g = T.backward(tape, loss)
    assert [i for i, grad in enumerate(g._grads) if grad is not None] == [x.idx, y.idx, loss.idx]
    assert g.wrt(x).tobytes() == (np.ones((5, 2)) @ w0.T).tobytes()
    np.testing.assert_array_equal(g.wrt(untouched), np.zeros(4))


# ---------------------------------------------------------------------------
# overwrite: the float32 GELU written into an operand the caller owns
# ---------------------------------------------------------------------------


def _overwrite_cases(rng) -> dict:
    """name -> (operand, fn(operand, overwrite), whether an owned operand holds the result)."""
    # 6*33*140*4 elements: more than one float32 GELU slice, the last one partial
    x = rng.standard_normal((6, 33, 140, 4)).astype(np.float32) * 4
    assert T._GELU32_BLOCK < x.size < 2 * T._GELU32_BLOCK

    def fn(v, o):
        return T.gelu(v, overwrite=o)

    return {
        "gelu/float32": (x, fn, True),
        # no flat view of x exists, so the GELU goes into a fresh flat copy
        "gelu/float32-non-contiguous": (x.transpose(0, 2, 1, 3), fn, False),
        # the flag is ignored: the eager result goes into the fresh CDF array
        "gelu/float64": (x[:1, :4].astype(np.float64), fn, False),
    }


_OVERWRITE_NAMES = list(_overwrite_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("name", _OVERWRITE_NAMES)
def test_overwrite_bitwise_equals_the_default(rng, name):
    operand, fn, owned = _overwrite_cases(rng)[name]
    kept = operand.copy()
    want = fn(operand, False)
    assert operand.tobytes() == kept.tobytes()  # the default writes into no operand
    got = fn(operand, True)
    assert type(got) is np.ndarray
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert np.shares_memory(got, operand) is owned


@pytest.mark.parametrize("name", _OVERWRITE_NAMES)
def test_overwrite_leaves_a_var_operand_unchanged_and_records_the_same_nodes(rng, name):
    operand, fn, _ = _overwrite_cases(rng)[name]
    recorded = []
    for flag in (False, True):
        leaf = operand.copy()
        tape = T.Tape()
        fn(tape.leaf(leaf), flag)
        assert leaf.tobytes() == operand.tobytes()
        recorded.append([
            (node.op, node.parents, {k: np.asarray(v).tobytes() for k, v in node.ctx.items()}, node.value.tobytes())
            for node in tape.nodes
        ])
    assert recorded[0] == recorded[1]


def test_overwrite_of_a_read_only_operand_raises(rng):
    x = rng.standard_normal((4, 3)).astype(np.float32)
    x.setflags(write=False)
    with pytest.raises(ValueError, match="read-only"):
        T.gelu(x, overwrite=True)


SRC = Path(__file__).resolve().parent.parent / "src"


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _calls_in_src(name: str | None) -> list[tuple[str, ast.Call]]:
    """(module.enclosing.scope, call) for every call in src/ of a function or
    method `name`, or for every call when name is None."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and name in (None, _callee(child)):
                found.append((scope, child))
            visit(child, inner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_ops_record_only_through_result_under_registered_op_names():
    assert {scope for scope, _ in _calls_in_src("_record")} == {"tensor._result", "tensor.Tape.leaf"}
    ops = []
    for scope, call in _calls_in_src("_result"):
        arg = call.args[0]
        names = [arg.body, arg.orelse] if isinstance(arg, ast.IfExp) else [arg]
        assert all(isinstance(n, ast.Constant) and isinstance(n.value, str) for n in names), (
            f"{scope}: the op name passed to _result is not a string literal"
        )
        ops += [n.value for n in names]
    # running-mode batch norm is recorded but, by contract, has no adjoint
    assert set(ops) == set(T._ADJOINTS) | {"batch_norm_running"}


def test_overwrite_is_passed_only_to_gelu():
    # the float32 GELU's in-place write is the one measured to lower peak memory
    passed = [call for _, call in _calls_in_src(None) if any(k.arg == "overwrite" for k in call.keywords)]
    assert passed and {_callee(call) for call in passed} == {"gelu"}


def test_var_admits_no_subclass():
    with pytest.raises(TypeError, match="exact type"):
        type("SubVar", (T.Var,), {})


@pytest.mark.parametrize("taped_other", [False, True])
def test_var_iadd_records_one_fresh_add_that_backpropagates_as_add(rng, taped_other):
    a0, b0, w0 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    before = (a0.tobytes(), b0.tobytes())
    grads = []
    for use_iadd in (True, False):
        tape = T.Tape()
        a = tape.leaf(a0)
        b = tape.leaf(b0) if taped_other else b0
        v = a
        if use_iadd:
            v += b
        else:
            v = T.add(a, b)
        assert type(v) is T.Var and v is not a and v.idx == len(tape.nodes) - 1
        assert [(n.op, n.parents) for n in tape.nodes if n.op != "leaf"] == [("add", (0, 1 if taped_other else None))]
        assert v.value.tobytes() == (a0 + b0).tobytes()
        assert tape.nodes[a.idx].value is a0 and (a0.tobytes(), b0.tobytes()) == before
        g = T.backward(tape, T.sum_all(T.linear(v, w0)))
        grads.append([g.wrt(a).tobytes()] + ([g.wrt(b).tobytes()] if taped_other else []))
    assert grads[0] == grads[1]
    # an ndarray left operand: numpy hands `u += v` to the Var, which records
    # add(u, v) and writes into neither; u then names the fresh node
    grads = []
    for use_iadd in (True, False):
        tape = T.Tape()
        v = tape.leaf(b0)
        u = a0.copy()
        owner = u
        if use_iadd:
            u += v
        else:
            u = T.add(u, v)
        assert type(u) is T.Var and [(n.op, n.parents) for n in tape.nodes if n.op != "leaf"] == [("add", (None, 0))]
        assert u.value.tobytes() == (a0 + b0).tobytes()
        assert (owner.tobytes(), b0.tobytes()) == before and tape.nodes[v.idx].value is b0
        grads.append(T.backward(tape, T.sum_all(T.linear(u, w0))).wrt(v).tobytes())
    assert grads[0] == grads[1]
    # numpy hands a Var no other ufunc, in place or not
    for other_ufunc in (lambda a: a + v, lambda a: np.multiply(a, v, out=a)):
        with pytest.raises(TypeError):
            other_ufunc(a0.copy())


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_of_sum_is_ones(rng):
    x = rng.standard_normal((2, 3))
    g = T.finite_difference_grad(lambda a: float(a.sum()), x)
    np.testing.assert_allclose(g, 1.0, atol=1e-8)


def test_fd_quadratic():
    x = np.array([1.0, 2.0])
    g = T.finite_difference_grad(lambda a: float((a**2).sum()), x)
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)


# ---------------------------------------------------------------------------
# purity / dtype
# ---------------------------------------------------------------------------


def test_ops_do_not_mutate_inputs(rng):
    x = rng.standard_normal((2, 5, 4, 3))
    before = x.tobytes()
    w = rng.standard_normal((3, 7))
    T.linear(x, w)
    T.gelu(x)
    T.relu(x)
    T.take(x, T.IndexMap.frozen(np.array([0, 0, 1]), 5), 1)
    T.pad_zero(x, 2, 1, 1)
    T.crop(x, 1, 1, 4)
    T.transpose(x, (0, 2, 1, 3))
    T.mean_axes(x, (1, 2))
    T.reshape(x, (2, 20, 3))
    other = rng.standard_normal(x.shape)
    kept = other.tobytes()
    fresh = [T.add(x, other), T.add(other, x)]
    fresh += [T.apply_norm(x, T.identity_norm(3, dtype=np.float64, mode=m)) for m in ("running", "batch")]
    assert x.tobytes() == before and other.tobytes() == kept
    # the sum and the norm are fresh arrays: neither shares memory with an operand
    for out in fresh:
        assert not np.shares_memory(out, x) and not np.shares_memory(out, other)


def test_reshape_is_a_view_when_numpy_can_give_one(rng):
    x = rng.standard_normal((2, 6, 4, 3))
    assert np.shares_memory(T.reshape(x, (2, 6, 2, 6)), x)
    y = x.transpose(0, 2, 1, 3)  # not contiguous: merging its axes copies
    z = T.reshape(y, (2, 24, 3))
    assert not np.shares_memory(z, y)
    np.testing.assert_array_equal(z, y.reshape(2, 24, 3))


def test_dtype_is_preserved(rng):
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, 3)).astype(dtype)
        w = rng.standard_normal((3, 2)).astype(dtype)
        assert np.asarray(T.linear(x, w)).dtype == dtype
        assert np.asarray(T.gelu(x)).dtype == dtype


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_weight_roundtrip(tmp_path, rng):
    tensors = {
        "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "b.bias": rng.standard_normal(7).astype(np.float32),
        "": rng.standard_normal((2, 2, 2, 2)).astype(np.float32),
    }
    path = tmp_path / "w.bin"
    save_tensors(path, tensors)
    back = load_tensors(path)
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])


def test_weight_lookup_reads_one_fresh_aligned_read_only_array(tmp_path, rng, monkeypatch):
    tensors = {
        "w": rng.standard_normal((3, 5)).astype(np.float32),
        "odd": rng.standard_normal(3).astype(np.float32),  # its 3-byte name leaves this payload unaligned
        "b": rng.standard_normal(7).astype(np.float32),
        "empty": np.zeros((0, 2), dtype=np.float32),
    }
    path = tmp_path / "w.hire"
    save_tensors(path, tensors)
    read = []
    pread, preadv = os.pread, os.preadv
    monkeypatch.setattr(os, "pread", lambda fd, n, off: read.append(len(data := pread(fd, n, off))) or data)
    monkeypatch.setattr(os, "preadv", lambda fd, bufs, off: read.append(got := preadv(fd, bufs, off)) or got)
    back = load_tensors(path)
    payload = sum(a.nbytes for a in tensors.values())
    assert sum(read) == path.stat().st_size - payload  # the header, and nothing else
    calls = len(read)
    assert len(back) == 4 and "odd" in back and "x" not in back and list(back) == list(tensors)
    assert len(read) == calls  # len, in and iteration read nothing
    for name, want in tensors.items():
        arr = back[name]
        assert arr.dtype == np.float32 and arr.flags.c_contiguous and not arr.flags.writeable, name
        assert arr.ctypes.data % arr.itemsize == 0, name
        assert arr.shape == want.shape and arr.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError):
            arr[...] = 0
        again = back[name]
        assert again is not arr
        np.testing.assert_array_equal(again, arr)
    assert sum(read) == path.stat().st_size + payload  # each lookup read its own tensor once


def test_weight_lookup_rejects_a_non_finite_value_naming_path_tensor_and_index(tmp_path, rng):
    bad = rng.standard_normal((3, 5)).astype(np.float32)
    bad[1, 2], bad[2, 0] = -np.inf, np.nan
    good = rng.standard_normal(4).astype(np.float32)
    path = tmp_path / "w.hire"
    save_tensors(path, {"bad": bad, "good": good})
    back = load_tensors(path)
    with pytest.raises(InvalidInputError) as e:
        back["bad"]
    assert str(e.value) == f"{path}: tensor 'bad': non-finite value -inf at flat index 7"
    assert back["good"].tobytes() == good.tobytes()


def test_weight_read_into_fills_the_callers_buffer_or_rejects_it(tmp_path, rng):
    w = rng.standard_normal((3, 5)).astype(np.float32)
    bad = np.array([1.0, np.nan], dtype=np.float32)
    path = tmp_path / "w.hire"
    save_tensors(path, {"w": w, "bad": bad})
    back = load_tensors(path)
    buf = np.full(20, -1.0, dtype=np.float32)
    got = back.read_into("w", buf)
    assert got.shape == (3, 5) and np.shares_memory(got, buf) and got.tobytes() == w.tobytes()
    assert (buf[15:] == -1).all()  # only the leading elements are written
    for unfit in (np.empty(14, np.float32), np.empty(15, np.float64), np.empty(30, np.float32)[::2]):
        with pytest.raises(ValueError, match="does not fit"):
            back.read_into("w", unfit)
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}: tensor 'bad': non-finite value nan at flat index 1")):
        back.read_into("bad", buf)


def test_weight_lookup_after_the_file_shrinks_names_path_and_offset(tmp_path):
    path = _damaged(tmp_path, _valid_blob(tmp_path))
    back = load_tensors(path)
    path.write_bytes(path.read_bytes()[:-3])  # truncates the open file in place
    np.testing.assert_array_equal(back["w"], np.ones((2, 3)))
    with pytest.raises(InvalidInputError) as e:
        back["b"]
    assert str(e.value) == f"{path}: byte 68: data of 'b' (4,) needs 16 bytes, 13 remain"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files through /proc")
def test_dropping_the_weight_mapping_closes_its_file(tmp_path):
    path = tmp_path / "w.hire"
    save_tensors(path, {"w": np.ones((2, 3), dtype=np.float32)})
    script = (
        "import gc, os, sys\n"
        "from hiremlp.weights import load_tensors\n"
        "before = len(os.listdir('/proc/self/fd'))\n"
        "back = load_tensors(sys.argv[1])\n"
        "assert back['w'].sum() == 6\n"
        "del back\n"
        "gc.collect()\n"
        "assert len(os.listdir('/proc/self/fd')) == before\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script, str(path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_weight_header_layout(tmp_path):
    path = tmp_path / "w.bin"
    save_tensors(path, {"x": np.zeros((2, 3), dtype=np.float32)})
    blob = path.read_bytes()
    assert blob[:4] == b"HIRE"
    assert int.from_bytes(blob[4:8], "little") == 1  # version
    assert int.from_bytes(blob[8:12], "little") == 1  # tensor count
    assert int.from_bytes(blob[12:14], "little") == 1  # name length
    assert blob[14:15] == b"x"
    assert blob[15] == 2  # rank
    dims = np.frombuffer(blob[16:32], dtype="<u8")
    np.testing.assert_array_equal(dims, [2, 3])


def _damaged(tmp_path, blob: bytes):
    path = tmp_path / "damaged.hire"
    path.write_bytes(blob)
    return path


def _valid_blob(tmp_path) -> bytes:
    path = tmp_path / "valid.hire"
    save_tensors(path, {"w": np.ones((2, 3), dtype=np.float32), "b": np.zeros(4, dtype=np.float32)})
    return path.read_bytes()


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda b: b[:-3], "byte 68: data of 'b' (4,) needs 16 bytes, 13 remain"),
        (lambda b: b[:6], "byte 0: header needs 12 bytes, 6 remain"),
        (lambda b: b[:14] + b"\xff" + b[15:], "byte 14: name is not UTF-8"),
        (
            lambda b: b[:16] + (1 << 40).to_bytes(8, "little") + b[24:],
            "byte 32: data of 'w' (1099511627776, 3) needs",
        ),
        (lambda b: b[:15] + bytes([9]) + b[16:], "byte 15: rank 9 of 'w' exceeds 8"),
        (
            lambda b: b[:16] + bytes(8) + (1 << 62).to_bytes(8, "little") + b[32:],
            "byte 16: dims (0, 4611686018427387904) of 'w' are too large",
        ),
        (lambda b: b[:58] + b"w" + b[59:], "byte 58: duplicate tensor name 'w'"),
        (lambda b: b + b"\0", "byte 84: 1 trailing bytes"),
    ],
    ids=[
        "truncated", "six-bytes", "non-utf8-name", "dim-2^40", "rank-9", "empty-dims-2^62",
        "duplicate-name", "trailing",
    ],
)
def test_weight_damaged_header_names_path_and_offset(tmp_path, damage, message):
    path = _damaged(tmp_path, damage(_valid_blob(tmp_path)))
    with pytest.raises(InvalidInputError) as e:
        load_tensors(path)
    assert str(e.value).startswith(f"{path}: {message}")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_weight_truncated_or_mutated_loads_or_raises_invalid_input(tmp_path_factory, data):
    shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)
    tensors = {
        name: np.zeros(shape, dtype=np.float32)
        for name, shape in data.draw(st.dictionaries(st.text(max_size=4), shapes, max_size=3)).items()
    }
    path = tmp_path_factory.mktemp("hire") / "w.hire"
    save_tensors(path, tensors)
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(blob))
    try:
        back = load_tensors(path)
    except InvalidInputError:
        return
    assert all(isinstance(a, np.ndarray) and a.dtype == np.float32 for a in back.values())


def test_weight_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InvalidInputError):
        load_tensors(path)
