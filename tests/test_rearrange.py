"""rearrange: padding, inner/cross rearrangement, inverses, group laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiremlp.errors import ConfigError, InvalidInputError, ShapeError
from hiremlp.invariants import (
    cross_roundtrip_failure,
    cyclic_order_failure,
    inner_roundtrip_failure,
    manner_permutations,
    pad_crop_failure,
    roundtrip_failure,
)
from hiremlp.rearrange import (
    AXIS_INDEX,
    PADDING_MODES,
    RegionSpec,
    ShiftSpec,
    cross_rearrange,
    cross_restore,
    crop_pad,
    inner_rearrange,
    inner_restore,
    partition_pad,
)

from oracles import (
    circular_pad_index,
    inner_rearrange_index_map,
    roll_index_map,
    shuffle_index_map,
)


def fmap(rng, n=1, h=4, w=4, c=2, dtype=np.float32):
    return rng.standard_normal((n, h, w, c)).astype(dtype)


# ---------------------------------------------------------------------------
# partition_pad
# ---------------------------------------------------------------------------


def test_pad_divisible_is_noop(rng):
    x = fmap(rng, h=8)
    xp = partition_pad(x, RegionSpec("height", 4, "circular"))
    assert xp is x
    assert crop_pad(xp, "height", 8) is xp


def test_pad_circular_wraps(rng):
    x = fmap(rng, h=7)
    xp = partition_pad(x, RegionSpec("height", 2, "circular"))
    assert np.asarray(xp).shape[1] == 8
    # derived from the index oracle out[i] = in[i mod 7]
    idx = circular_pad_index(7, 8)
    assert idx[-1] == 0
    np.testing.assert_array_equal(np.asarray(xp)[:, -1], x[:, 0])
    np.testing.assert_array_equal(np.asarray(xp), x[:, idx])


def test_pad_zero_fills_zeros(rng):
    x = fmap(rng, h=7)
    xp = partition_pad(x, RegionSpec("height", 2, "zero"))
    np.testing.assert_array_equal(np.asarray(xp)[:, -1], 0.0)
    np.testing.assert_array_equal(np.asarray(xp)[:, :7], x)


def test_pad_reflect_mirrors_without_edge(rng):
    x = fmap(rng, h=3)
    xp = partition_pad(x, RegionSpec("height", 5, "reflect"))
    # reflect of [0,1,2] to length 5 -> [0,1,2,1,0]
    np.testing.assert_array_equal(np.asarray(xp)[:, 3], x[:, 1])
    np.testing.assert_array_equal(np.asarray(xp)[:, 4], x[:, 0])


def test_pad_replicate_repeats_edge(rng):
    x = fmap(rng, w=3)
    xp = partition_pad(x, RegionSpec("width", 2, "replicate"))
    np.testing.assert_array_equal(np.asarray(xp)[:, :, 3], x[:, :, 2])


def test_pad_reflect_extent_one_rejected(rng):
    x = fmap(rng, h=1)
    with pytest.raises(InvalidInputError):
        partition_pad(x, RegionSpec("height", 2, "reflect"))


def test_crop_pad_shape_check(rng):
    x = fmap(rng, h=6)
    with pytest.raises(ShapeError):
        crop_pad(x, "height", 8)  # more tokens than the map has


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 12),
    m=st.integers(1, 6),
    mode=st.sampled_from(PADDING_MODES),
    seed=st.integers(0, 10_000),
)
def test_pad_then_crop_is_identity(h, m, mode, seed):
    x = fmap(np.random.default_rng(seed), h=h)
    assert pad_crop_failure(x, RegionSpec("height", m, mode)) is None


# ---------------------------------------------------------------------------
# inner rearrangement
# ---------------------------------------------------------------------------


def test_inner_h1_is_identity(rng):
    x = fmap(rng)
    spec = RegionSpec("height", 1)
    np.testing.assert_array_equal(inner_rearrange(x, spec), x)


def test_inner_example_frozen():
    # x[0, i, w, 0] = 10 i + w on a 1x4x2x1 map, regions of 2
    x = np.zeros((1, 4, 2, 1), dtype=np.float64)
    for i in range(4):
        for w in range(2):
            x[0, i, w, 0] = 10 * i + w
    out = np.asarray(inner_rearrange(x, RegionSpec("height", 2)))
    assert out.shape == (1, 2, 2, 2)
    np.testing.assert_array_equal(out[0, 0, 0], [0.0, 10.0])
    np.testing.assert_array_equal(out[0, 1, 1], [21.0, 31.0])
    # full 8-element index-map oracle
    np.testing.assert_array_equal(out, inner_rearrange_index_map(x, "height", 2))


@pytest.mark.parametrize("axis", ["height", "width"])
def test_inner_matches_index_map_oracle(axis, rng):
    x = fmap(rng, h=6, w=6, c=3, dtype=np.float64)
    for m in (1, 2, 3):
        got = np.asarray(inner_rearrange(x, RegionSpec(axis, m)))
        np.testing.assert_array_equal(got, inner_rearrange_index_map(x, axis, m))


def test_inner_requires_divisible(rng):
    x = fmap(rng, h=7)
    with pytest.raises(InvalidInputError) as e:
        inner_rearrange(x, RegionSpec("height", 2))
    assert "height" in str(e.value)


def test_inner_restore_is_exact_inverse_6_5_3(rng):
    assert inner_roundtrip_failure(fmap(rng, h=6, w=5, c=3), RegionSpec("height", 3)) is None


def test_inner_restore_zeros(rng):
    spec = RegionSpec("width", 2)
    y = np.zeros((1, 3, 2, 4), dtype=np.float32)
    out = np.asarray(inner_restore(y, spec))
    assert out.shape == (1, 3, 4, 2)
    np.testing.assert_array_equal(out, 0.0)


def test_inner_restore_shape_error(rng):
    with pytest.raises(ShapeError):
        inner_restore(fmap(rng, c=3), RegionSpec("height", 2))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 2),
    h=st.integers(1, 10),
    w=st.integers(1, 10),
    c=st.integers(1, 5),
    m=st.integers(1, 5),
    axis=st.sampled_from(["height", "width"]),
    seed=st.integers(0, 10_000),
)
def test_inner_roundtrip_random_shapes(n, h, w, c, m, axis, seed):
    x = fmap(np.random.default_rng(seed), n=n, h=h, w=w, c=c)
    assert inner_roundtrip_failure(x, RegionSpec(axis, m, "circular")) is None


def test_roundtrip_claim_fails_on_a_map_that_duplicates_a_token(rng):
    x = fmap(rng, h=5)
    duplicate = [0, 0, 2, 3, 4]  # token 1 is lost, token 0 appears twice
    failure = roundtrip_failure(x, lambda v: v[:, duplicate], lambda v: v)
    assert failure == "rearrangement changed the element multiset"


# ---------------------------------------------------------------------------
# cross rearrangement
# ---------------------------------------------------------------------------


def test_cross_s0_identity(rng):
    x = fmap(rng)
    np.testing.assert_array_equal(cross_rearrange(x, "height", ShiftSpec(0)), x)


def test_cross_full_cycle_via_unit_shifts(rng):
    x = fmap(rng, h=5)
    y = x
    for _ in range(5):
        y = cross_rearrange(y, "height", ShiftSpec(1))
    np.testing.assert_array_equal(y, x)


def test_cross_shift_moves_rows():
    # H=4, s=1: rows [a,b,c,d] -> [d,a,b,c], from the modular-index oracle
    x = np.arange(4, dtype=np.float64).reshape(1, 4, 1, 1)
    got = np.asarray(cross_rearrange(x, "height", ShiftSpec(1)))
    np.testing.assert_array_equal(got.ravel(), [3.0, 0.0, 1.0, 2.0])
    np.testing.assert_array_equal(got, roll_index_map(x, 1, 1))


@pytest.mark.parametrize("axis,axis_idx", [("height", 1), ("width", 2)])
def test_cross_matches_roll_oracle(axis, axis_idx, rng):
    x = fmap(rng, h=6, w=7, dtype=np.float64)
    for s in range(x.shape[axis_idx]):
        got = np.asarray(cross_rearrange(x, axis, ShiftSpec(s)))
        np.testing.assert_array_equal(got, roll_index_map(x, axis_idx, s))


def test_cross_step_is_taken_modulo_extent(rng):
    # step s + k * extent is the same permutation as step s, and the round
    # trip at that step is still the identity, bitwise
    x = fmap(rng, h=5, w=4, dtype=np.float64)
    for axis in ("height", "width"):
        extent = x.shape[AXIS_INDEX[axis]]
        for s in range(extent):
            y = np.asarray(cross_rearrange(x, axis, ShiftSpec(s)))
            back = np.asarray(cross_restore(y, axis, ShiftSpec(s)))
            for k in (1, 2, 3):
                big = ShiftSpec(s + k * extent)
                y_big = np.asarray(cross_rearrange(x, axis, big))
                assert y_big.tobytes() == y.tobytes(), (axis, s, k)
                assert np.asarray(cross_restore(y, axis, big)).tobytes() == back.tobytes(), (axis, s, k)
                assert np.asarray(cross_restore(y_big, axis, big)).tobytes() == x.tobytes(), (axis, s, k)


def test_cross_restore_inverse_all_steps(rng):
    x = fmap(rng, h=6)
    for s in range(6):
        assert cross_roundtrip_failure(x, "height", ShiftSpec(s), 1) is None


def test_cross_restore_s0_identity(rng):
    x = fmap(rng)
    np.testing.assert_array_equal(cross_restore(x, "width", ShiftSpec(0)), x)


def test_shuffle_matches_transpose_oracle(rng):
    x = fmap(rng, h=6, dtype=np.float64)
    spec = ShiftSpec(0, "shuffle")
    got = np.asarray(cross_rearrange(x, "height", spec, 2))
    np.testing.assert_array_equal(got, shuffle_index_map(x, 1, 2))


def test_shuffle_roundtrip_h6_m2(rng):
    assert cross_roundtrip_failure(fmap(rng, h=6), "height", ShiftSpec(0, "shuffle"), 2) is None


def test_shuffle_needs_divisible_extent(rng):
    x = fmap(rng, h=7)
    with pytest.raises(InvalidInputError):
        cross_rearrange(x, "height", ShiftSpec(0, "shuffle"), 2)


@settings(max_examples=100, deadline=None)
@given(
    h=st.integers(1, 12),
    s1=st.integers(0, 11),
    s2=st.integers(0, 11),
    seed=st.integers(0, 10_000),
)
def test_cross_group_law(h, s1, s2, seed):
    r = np.random.default_rng(seed)
    x = fmap(r, h=h)
    s1, s2 = s1 % h, s2 % h
    lhs = cross_rearrange(cross_rearrange(x, "height", ShiftSpec(s2)), "height", ShiftSpec(s1))
    rhs = cross_rearrange(x, "height", ShiftSpec((s1 + s2) % h))
    np.testing.assert_array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# order preservation (shifted vs shuffle)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(g=st.integers(2, 5), m=st.integers(2, 5), s=st.integers(0, 24))
def test_shifted_preserves_cyclic_order_shuffle_breaks_it(g, m, s):
    extent = g * m
    perms = manner_permutations(extent, m, s % extent)
    assert cyclic_order_failure(perms) is None
    # the claim fails on an order-reversing map, and on a shuffle that keeps order
    reversed_order = {**perms, "shifted": perms["shifted"][::-1]}
    assert cyclic_order_failure(reversed_order) == "shifted manner broke cyclic order"
    assert cyclic_order_failure({**perms, "shuffle": perms["shifted"]}) == "shuffle manner preserved cyclic order"


def test_spec_validation():
    with pytest.raises(ConfigError):
        RegionSpec("depth", 2)
    with pytest.raises(ConfigError):
        RegionSpec("height", 0)
    with pytest.raises(ConfigError):
        RegionSpec("height", 2, "mirror")
    with pytest.raises(ConfigError):
        ShiftSpec(-1)
    with pytest.raises(ConfigError):
        ShiftSpec(1, "random")
