"""hire module: bottleneck MLP, branch pipeline, three-branch summation, gradients."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiremlp import tensor as T
from hiremlp.errors import ConfigError
from hiremlp.hire import (
    BottleneckMlpParams,
    HireBranchConfig,
    HireModuleParams,
    bottleneck_mlp,
    bottleneck_widths,
    hire_branch,
    hire_module,
)
from hiremlp.invariants import (
    GRAD_TOLERANCE,
    check_composed_gathers,
    input_grad_error,
    rel_error,
)
from hiremlp.rearrange import RegionSpec, ShiftSpec

from oracles import loop_matmul


def make_branch(
    rng, axis, c, m, shift=None, n_layers=2, dtype=np.float64, padding="circular",
    norm_mode="running",
):
    dims = [m * c] + bottleneck_widths(m, c, n_layers) + [m * c]
    layers = [
        T.LinearParams(
            rng.standard_normal((a, b)).astype(dtype) * 0.2,
            rng.standard_normal(b).astype(dtype) * 0.2,
        )
        for a, b in zip(dims, dims[1:])
    ]
    norm = T.identity_norm(dims[1], dtype=dtype, mode=norm_mode) if n_layers >= 2 else None
    return HireBranchConfig(
        region=RegionSpec(axis, m, padding),
        mlp=BottleneckMlpParams(layers=layers, norm=norm),
        shift=shift,
    )


# ---------------------------------------------------------------------------
# bottleneck MLP
# ---------------------------------------------------------------------------


def test_bottleneck_zero_weights_zero_output(rng):
    p = BottleneckMlpParams(
        layers=[
            T.LinearParams(np.zeros((8, 2)), np.zeros(2)),
            T.LinearParams(np.zeros((2, 8)), np.zeros(8)),
        ]
    )
    out = bottleneck_mlp(rng.standard_normal((5, 8)), p)
    np.testing.assert_array_equal(out, 0.0)


def test_bottleneck_dims_contract():
    # h=2, C=4: the two-FC stack runs 8 -> 2 -> 8
    widths = bottleneck_widths(2, 4, 2)
    assert widths == [2]
    p = BottleneckMlpParams(
        layers=[
            T.LinearParams(np.zeros((8, 2)), np.zeros(2)),
            T.LinearParams(np.zeros((2, 8)), np.zeros(8)),
        ]
    )
    assert p.layers[0].in_dim == 8
    out = np.asarray(bottleneck_mlp(np.ones((3, 8)), p))
    assert out.shape == (3, 8)


def test_bottleneck_single_layer_matches_linear_oracle(rng):
    w = rng.standard_normal((8, 8))
    b = rng.standard_normal(8)
    p = BottleneckMlpParams(layers=[T.LinearParams(w, b)])
    x = rng.standard_normal((4, 8))
    got = np.asarray(bottleneck_mlp(x, p))
    assert rel_error(got, loop_matmul(x, w, b)) < 1e-6


def test_bottleneck_chain_mismatch_raises_at_construction():
    with pytest.raises(ConfigError):
        BottleneckMlpParams(
            layers=[
                T.LinearParams(np.zeros((8, 2)), np.zeros(2)),
                T.LinearParams(np.zeros((3, 8)), np.zeros(8)),
            ]
        )
    with pytest.raises(ConfigError):
        # in/out dims must agree
        BottleneckMlpParams(layers=[T.LinearParams(np.zeros((8, 4)), np.zeros(4))])


def test_bottleneck_one_layer_stack_rejects_a_norm():
    # the forward never applies it, so its arrays would only pad a weight file
    layer = T.LinearParams(np.zeros((4, 4)), np.zeros(4))
    for channels in (4, 7):
        with pytest.raises(ConfigError, match="one-layer stack"):
            BottleneckMlpParams(layers=[layer], norm=T.identity_norm(channels))


def test_bottleneck_widths_scheme():
    assert bottleneck_widths(3, 64, 1) == []
    assert bottleneck_widths(3, 64, 2) == [32]
    assert bottleneck_widths(3, 64, 3) == [32, 24]
    assert bottleneck_widths(3, 64, 4) == [32, 24, 24]
    with pytest.raises(ConfigError):
        bottleneck_widths(3, 64, 0)


# ---------------------------------------------------------------------------
# hire branch
# ---------------------------------------------------------------------------


def test_branch_identity_collapse(rng):
    # no shift, regions of one, identity single-layer MLP: all stages collapse
    c = 4
    p = BottleneckMlpParams(layers=[T.LinearParams(np.eye(c), np.zeros(c))])
    cfg = HireBranchConfig(region=RegionSpec("height", 1), mlp=p)
    x = rng.standard_normal((2, 5, 3, c))
    np.testing.assert_allclose(hire_branch(x, cfg), x, atol=1e-12)


def test_branch_shape_contract_7x7_regions_3(rng):
    cfg = make_branch(rng, "height", 4, 3)
    x = rng.standard_normal((1, 7, 7, 4))
    out = np.asarray(hire_branch(x, cfg))
    assert out.shape == (1, 7, 7, 4)


@settings(max_examples=50, deadline=None)
@given(
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    m=st.integers(1, 5),
    s=st.integers(0, 8),
    axis=st.sampled_from(["height", "width"]),
    mode=st.sampled_from(["zero", "circular", "replicate"]),
    seed=st.integers(0, 10_000),
)
def test_branch_shape_preserved_any_extent(h, w, m, s, axis, mode, seed):
    r = np.random.default_rng(seed)
    c = 4
    extent = h if axis == "height" else w
    cfg = make_branch(r, axis, c, m, ShiftSpec(s % max(1, extent)), padding=mode)
    x = r.standard_normal((1, h, w, c))
    assert np.asarray(hire_branch(x, cfg)).shape == x.shape


def test_composed_gathers_equal_sequential_primitives(rng):
    passed, detail = check_composed_gathers(10, rng)
    assert passed, detail


def test_branch_gradient_matches_fd(rng):
    c = 4
    cfg64 = make_branch(rng, "height", c, 3, ShiftSpec(2), norm_mode="batch")
    x0 = rng.standard_normal((1, 7, 5, c))
    assert input_grad_error(hire_branch, x0, cfg64) < GRAD_TOLERANCE


# ---------------------------------------------------------------------------
# hire module
# ---------------------------------------------------------------------------


def zero_branch(branch: HireBranchConfig) -> HireBranchConfig:
    """The branch with every weight and bias of its MLP set to zero."""
    layers = [T.LinearParams(np.zeros_like(fc.weight), np.zeros_like(fc.bias)) for fc in branch.mlp.layers]
    return dataclasses.replace(branch, mlp=dataclasses.replace(branch.mlp, layers=layers))


def test_module_channel_identity(rng):
    # zero-weight spatial branches contribute exact zeros, so an identity
    # channel FC passes the input through
    c = 4
    p = HireModuleParams(
        height=zero_branch(make_branch(rng, "height", c, 2, ShiftSpec(1))),
        width=zero_branch(make_branch(rng, "width", c, 3)),
        channel=T.LinearParams(np.eye(c), np.zeros(c)),
    )
    x = rng.standard_normal((2, 3, 4, c))
    np.testing.assert_allclose(hire_module(x, p), x, atol=1e-12)


def test_module_recomposition_oracle(rng):
    # zero channel branch: module output equals H-branch + W-branch
    c = 4
    hb = make_branch(rng, "height", c, 2, ShiftSpec(1))
    wb = make_branch(rng, "width", c, 3)
    p = HireModuleParams(
        height=hb, width=wb, channel=T.LinearParams(np.zeros((c, c)), np.zeros(c))
    )
    x = rng.standard_normal((1, 5, 7, c))
    combined = np.asarray(hire_module(x, p))
    separate = np.asarray(hire_branch(x, hb)) + np.asarray(hire_branch(x, wb))
    np.testing.assert_allclose(combined, separate, rtol=1e-6, atol=1e-12)


def test_module_branch_additivity(rng):
    c = 4
    hb = make_branch(rng, "height", c, 2, ShiftSpec(1))
    wb = make_branch(rng, "width", c, 2, ShiftSpec(2))
    ch = T.LinearParams(rng.standard_normal((c, c)), rng.standard_normal(c))
    p = HireModuleParams(height=hb, width=wb, channel=ch)
    x = rng.standard_normal((1, 6, 6, c))
    lhs = np.asarray(hire_module(x, p))
    rhs = (
        np.asarray(hire_branch(x, wb))
        + np.asarray(hire_branch(x, hb))
        + np.asarray(T.apply_linear(x, ch))
    )
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


def test_module_validation(rng):
    c = 4
    hb, wb = make_branch(rng, "height", c, 2), make_branch(rng, "width", c, 2)
    with pytest.raises(ConfigError, match="square"):
        HireModuleParams(
            height=hb, width=wb, channel=T.LinearParams(np.zeros((c, c + 1)), np.zeros(c + 1))
        )
    square = T.LinearParams(np.zeros((c, c)), np.zeros(c))
    with pytest.raises(ConfigError, match="height axis"):
        HireModuleParams(height=wb, width=hb, channel=square)
    with pytest.raises(ConfigError, match="width axis"):
        HireModuleParams(height=hb, width=hb, channel=square)


# ---------------------------------------------------------------------------
# structural ablation: no cross-region shift
# ---------------------------------------------------------------------------


def test_zero_step_bitwise_equals_disabled_cross(rng):
    c = 4
    base = make_branch(rng, "height", c, 2, None, dtype=np.float32)
    zero_step = dataclasses.replace(base, shift=ShiftSpec(0))
    x = rng.standard_normal((1, 7, 5, c)).astype(np.float32)
    a = np.asarray(hire_branch(x, zero_step))
    b = np.asarray(hire_branch(x, base))
    assert np.array_equal(a, b)

