"""network: blocks, patch embedding, full pyramid, config I/O, builder."""

import ctypes
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiremlp import hire, network
from hiremlp.hire import row_tiles
from hiremlp import tensor as T
from hiremlp.accounting import count_config, count_model
from hiremlp.errors import ConfigError, InvalidInputError, ShapeError
from hiremlp.invariants import (
    GRAD_TOLERANCE,
    block_gradcheck,
    check_tiled_blocks,
    check_translation_equivariance,
    input_grad_error,
    rel_error,
    sequential_block,
)
from hiremlp.network import (
    INIT_STD,
    TRUNC_NORMAL_BLOCK,
    ChannelMlpParams,
    ModelConfig,
    PatchEmbedParams,
    PatchEmbedSpec,
    StageConfig,
    assemble_model,
    build_model,
    channel_mlp,
    config_from_dict,
    config_to_dict,
    disable_cross,
    forward,
    forward_features,
    hire_block,
    load_config,
    load_model_weights,
    model_checksum,
    model_tensors,
    patch_embed,
    save_config,
    set_norm_mode,
    stage_forward,
    trunc_normal,
)
from hiremlp.rearrange import PADDING_MODES
from hiremlp.variants import micro_config, small_config, tiny_config
from hiremlp.weights import TensorFile, load_tensors, save_tensors

from oracles import (
    erf_gelu,
    per_token_mlp,
    reference_forward,
    reference_patch_embed,
    reference_trunc_normal,
)


def micro_model(seed=0):
    return build_model(micro_config(), seed=seed)


# ---------------------------------------------------------------------------
# channel MLP
# ---------------------------------------------------------------------------


def test_channel_mlp_zero_weights(rng):
    c = 4
    p = ChannelMlpParams(
        fc1=T.LinearParams(np.zeros((c, 2 * c)), np.zeros(2 * c)),
        fc2=T.LinearParams(np.zeros((2 * c, c)), np.zeros(c)),
    )
    out = channel_mlp(rng.standard_normal((1, 3, 3, c)), p)
    np.testing.assert_array_equal(out, 0.0)


def test_channel_mlp_expansion_arithmetic():
    c, r = 64, 4
    p = ChannelMlpParams(
        fc1=T.LinearParams(np.zeros((c, r * c)), np.zeros(r * c)),
        fc2=T.LinearParams(np.zeros((r * c, c)), np.zeros(c)),
    )
    assert p.fc1.out_dim == 256


def test_channel_mlp_matches_per_token_oracle(rng):
    c = 3
    w1, b1 = rng.standard_normal((c, 2 * c)), rng.standard_normal(2 * c)
    w2, b2 = rng.standard_normal((2 * c, c)), rng.standard_normal(c)
    p = ChannelMlpParams(fc1=T.LinearParams(w1, b1), fc2=T.LinearParams(w2, b2))
    x = rng.standard_normal((1, 2, 3, c))
    got = np.asarray(channel_mlp(x, p))
    want = per_token_mlp(x, w1, b1, w2, b2, np.vectorize(erf_gelu))
    assert rel_error(got, want) < 1e-6


def test_channel_mlp_dim_mismatch_is_config_error():
    with pytest.raises(ConfigError):
        ChannelMlpParams(
            fc1=T.LinearParams(np.zeros((4, 8)), np.zeros(8)),
            fc2=T.LinearParams(np.zeros((8, 5)), np.zeros(5)),
        )


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------


def test_block_pure_residual_when_zeroed(rng):
    model = micro_model()
    block = model.stages[0].blocks[0]
    for name, arr in T.iter_arrays(block):
        if ".hire." in f".{name}." or "channel_mlp" in name:
            arr[...] = 0.0
    x = rng.standard_normal((1, 6, 6, 8)).astype(np.float32)
    out = np.asarray(hire_block(x, block))
    np.testing.assert_allclose(out, x, rtol=1e-6, atol=1e-7)


def _every_stage(cfg, **changes):
    return dataclasses.replace(cfg, stages=tuple(dataclasses.replace(st, **changes) for st in cfg.stages))


_OWN_WRITES_CASES = {
    "tiny-224x224-b1": (lambda: build_model(tiny_config(), seed=0), (1, 224, 224)),
    "tiny-200x300-b2": (lambda: build_model(tiny_config(), seed=0), (2, 200, 300)),
    "micro-zero-padding": (lambda: build_model(_every_stage(micro_config(), padding="zero"), seed=1), (1, 37, 41)),
    # 96 gives stage extents 24, 12, 6, 3, each a multiple of its region size
    "micro-shuffle": (lambda: build_model(_every_stage(micro_config(), manner="shuffle"), seed=2), (1, 96, 96)),
    "micro-disable-cross": (lambda: disable_cross(micro_model(seed=3)), (1, 37, 41)),
}


@pytest.mark.parametrize("case", list(_OWN_WRITES_CASES))
def test_eager_forward_writes_only_its_own_intermediates(rng, case):
    """With every model array and the input read-only, a write into any of
    them raises; the eager forward, which overwrites its own intermediates,
    equals the taped forward, which overwrites nothing, bitwise."""
    build, (n, h, w) = _OWN_WRITES_CASES[case]
    model = build()
    x = rng.standard_normal((n, h, w, 3)).astype(np.float32)
    for arr in [x] + [a for _, a in T.iter_arrays(model)]:
        arr.setflags(write=False)
    eager = forward(model, x)
    tape = T.Tape()
    taped = forward(T.bind_tree(model, tape), tape.leaf(x)).value
    assert type(eager) is np.ndarray
    assert (eager.dtype, eager.shape, eager.tobytes()) == (taped.dtype, taped.shape, taped.tobytes())


def test_block_shape_contract(rng):
    cfg = micro_config()
    cfg = dataclasses.replace(
        cfg, stages=tuple(dataclasses.replace(s, channels=64) for s in cfg.stages)
    )
    block = build_model(cfg, seed=0).stages[0].blocks[0]
    x = rng.standard_normal((1, 14, 14, 64)).astype(np.float32)
    assert np.asarray(hire_block(x, block)).shape == (1, 14, 14, 64)


def test_block_gradient_matches_fd():
    errors = block_gradcheck(seed=1234)
    assert set(errors) == {"block", "hire", "channel_mlp"}
    for unit, err in errors.items():
        assert err < GRAD_TOLERANCE, unit


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_block_gradcheck_catches_a_tenth_of_a_percent_adjoint_error(monkeypatch, eps):
    # block_gradcheck's docstring claim, at steps 1e-5 and 1e-6 (FD_EPS)
    adjoint = T._ADJOINTS["gelu"]
    monkeypatch.setitem(T._ADJOINTS, "gelu", lambda node, g: [(0, 1.001 * d) for _, d in adjoint(node, g)])
    monkeypatch.setattr(T, "FD_EPS", eps)
    errors = block_gradcheck(seed=1234)
    assert errors["hire"] >= GRAD_TOLERANCE and errors["channel_mlp"] >= GRAD_TOLERANCE


def test_row_tiled_blocks_bitwise_equal_the_plain_composition(rng):
    passed, detail = check_tiled_blocks(1, rng)
    assert passed, detail


def test_tiled_block_rejects_first_along_the_height_like_the_plain_composition(rng):
    # at 204x300 both stage-1 extents (51, 75) reject the shuffle manner's
    # 2-token regions; every sum runs the height branch first
    model = build_model(_every_stage(micro_config(), manner="shuffle"), seed=1)
    x = patch_embed(rng.standard_normal((1, 204, 300, 3)).astype(np.float32), model.stages[0].embed)
    messages = []
    for fn in (hire_block, sequential_block):
        with pytest.raises(InvalidInputError) as e:
            fn(x, model.stages[0].blocks[0])
        messages.append(str(e.value))
    assert messages[0] == messages[1] and "extent 51 " in messages[0]


def test_a_map_both_branches_reject_raises_one_message_from_module_block_and_plain_composition(rng):
    # at 32x32 micro's stage-4 map is one token, which reflect padding cannot
    # pad to a 2-token region along either axis
    model = build_model(_every_stage(micro_config(), padding="reflect", h=2, w=2), seed=1)
    x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
    for stage in model.stages[:3]:
        x = stage_forward(x, stage)
    x = patch_embed(x, model.stages[3].embed)
    block = model.stages[3].blocks[0]
    assert x.shape[1:3] == (1, 1)
    messages = []
    for fn in (lambda v, p: hire.hire_module(v, p.hire), hire_block, sequential_block):
        with pytest.raises(InvalidInputError) as e:
            fn(x, block)
        messages.append(str(e.value))
    assert messages == [messages[0]] * 3 and "extent 1" in messages[0]


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls.append(name if name != "hire_branch" else args[1].axis)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("mode", ["running", "batch"])
def test_a_block_runs_in_the_tiles_of_linear_unless_a_norm_takes_batch_statistics(monkeypatch, rng, mode):
    # 2x50x75 tokens: 7,500, so ceil(7500 / 1024) = 8 tiles; the width
    # branch's 100 rows along (N, H) go in 8 tiles of 12 or 13 rows
    assert len(T.row_blocks(7500)) == 8 and len(T.row_blocks(100, 8)) == 8
    block = set_norm_mode(build_model(tiny_config(), seed=0), mode).stages[0].blocks[1]
    x = rng.standard_normal((2, 50, 75, 64)).astype(np.float32)
    want = sequential_block(x, block)
    calls = []
    _count_calls(monkeypatch, network, "channel_mlp", calls)
    _count_calls(monkeypatch, hire, "hire_branch", calls)
    got = hire_block(x, block)
    tiles = 8 if mode == "running" else 1
    assert (calls.count("height"), calls.count("width"), calls.count("channel_mlp")) == (1, tiles, tiles)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_products_too_thin_to_keep_their_kernel_are_not_tiled(rng):
    # micro's stage-1 products (8x8 to 16x8 weights) do under 1e6
    # multiply-adds in a tile of 1,024 rows, so its blocks run whole
    block = micro_model().stages[0].blocks[0]
    fc = [block.channel_mlp.fc1, block.channel_mlp.fc2]
    assert row_tiles(200 * 304, fc) == [slice(0, 200 * 304)]
    assert row_tiles(200 * 304, [block.hire.channel]) == [slice(0, 200 * 304)]
    tiny = build_model(tiny_config(), seed=0).stages[0].blocks[0]
    assert len(row_tiles(200 * 304, [tiny.channel_mlp.fc1, tiny.channel_mlp.fc2])) == 60
    assert row_tiles(200 * 304, [tiny.channel_mlp.fc1], set_norm_mode(tiny, "batch").norm2) == [slice(0, 200 * 304)]


def test_a_tiled_block_holds_one_tile_of_the_hidden_map(rng):
    # a stage-1 tiny block at 800x1216 input: 200x304 tokens, whose whole
    # 4C-wide hidden map alone is 62 MB
    block = build_model(tiny_config(), seed=0).stages[0].blocks[1]
    x = rng.standard_normal((1, 200, 304, 64)).astype(np.float32)
    peaks, outs = [], []
    for fn in (hire_block, sequential_block):
        tracemalloc.start()
        try:
            outs.append(fn(x, block))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.75 * peaks[1], [f"{p / 2**20:.1f} MiB" for p in peaks]
    assert outs[0].tobytes() == outs[1].tobytes()


def _bound_call(fn, x, block, taped_input):
    """The output value of fn on x and `block` bound to a fresh tape, and
    the bytes of d sum(output) / d weight for every weight, in tree order."""
    tape = T.Tape()
    p = T.bind_tree(block, tape)
    weights = [T.Var(tape, i) for i in range(len(tape.nodes))]  # one leaf per array
    out = fn(tape.leaf(x) if taped_input else x, p)
    assert type(out) is T.Var
    grads = T.backward(tape, T.sum_all(out))
    return out.value, [grads.wrt(v).tobytes() for v in weights]


@pytest.mark.parametrize("unit", ["hire_module", "hire_block"])
@pytest.mark.parametrize(
    "config, shape",
    # micro's 19x25 stage-1 map is one tile; tiny's 2x50x75 is 7,500 tokens,
    # a tiled size for an eager map with ndarray weights
    [(micro_config, (1, 19, 25)), (tiny_config, (2, 50, 75))],
    ids=["micro-one-tile", "tiny-tiled-size"],
)
def test_an_eager_map_through_bound_weights_equals_the_all_taped_call(rng, unit, config, shape):
    # a gradient with respect to the weights only: the map stays an ndarray;
    # batch-statistics norms, as running-mode norms have no adjoint
    block = set_norm_mode(build_model(config(), seed=0), "batch").stages[0].blocks[-1]
    x = rng.standard_normal(shape + (block.norm1.channels,)).astype(np.float32)
    fn = hire_block if unit == "hire_block" else lambda v, p: hire.hire_module(v, p.hire)
    got, got_grads = _bound_call(fn, x, block, taped_input=False)
    want, want_grads = _bound_call(fn, x, block, taped_input=True)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert len(got_grads) == len(want_grads) > 0 and got_grads == want_grads


def _bind_part(block, part, tape):
    """`block` with only `part` (a Hire branch or `channel_mlp`) bound to `tape`."""
    if part == "channel_mlp":
        return dataclasses.replace(block, channel_mlp=T.bind_tree(block.channel_mlp, tape))
    branch = T.bind_tree(getattr(block.hire, part), tape)
    return dataclasses.replace(block, hire=dataclasses.replace(block.hire, **{part: branch}))


@pytest.mark.parametrize(
    "unit, part",
    [("hire_module", "height"), ("hire_module", "width"), ("hire_block", "height"), ("hire_block", "width"),
     ("hire_block", "channel_mlp")],
)
@pytest.mark.parametrize(
    "config, shape", [(micro_config, (1, 19, 25)), (tiny_config, (2, 50, 75))], ids=["micro-one-tile", "tiny-tiled-size"]
)
def test_weights_bound_in_part_give_the_eager_value_and_the_taped_gradients(rng, unit, part, config, shape):
    # the eager call sums tiny's 7,500 tokens in row tiles, a call on a
    # bound branch whole; batch-statistics norms, as in the test above
    block = set_norm_mode(build_model(config(), seed=0), "batch").stages[0].blocks[-1]
    x = rng.standard_normal(shape + (block.norm1.channels,)).astype(np.float32)
    fn = hire_block if unit == "hire_block" else lambda v, p: hire.hire_module(v, p.hire)
    want = fn(x, block)
    tape = T.Tape()
    p = _bind_part(block, part, tape)
    weights = [T.Var(tape, i) for i in range(len(tape.nodes))]  # one leaf per array of the part
    out = fn(x, p)
    assert type(out) is T.Var
    assert (out.value.dtype, out.shape, out.value.tobytes()) == (want.dtype, want.shape, want.tobytes())
    grads = T.backward(tape, T.sum_all(out))
    _, taped_grads = _bound_call(fn, x, block, taped_input=True)
    prefix = part + "." if part == "channel_mlp" else f"hire.{part}."
    want_grads = [g for (path, _), g in zip(T.iter_arrays(block), taped_grads) if path.startswith(prefix)]
    assert len(weights) == len(want_grads) > 0
    assert [grads.wrt(v).tobytes() for v in weights] == want_grads


# ---------------------------------------------------------------------------
# patch embed
# ---------------------------------------------------------------------------


def test_patch_embed_stride4_output_grid(rng):
    model = micro_model()
    x = rng.standard_normal((1, 224, 224, 3)).astype(np.float32)
    out = np.asarray(patch_embed(x, model.stages[0].embed))
    assert out.shape[:3] == (1, 56, 56)


def test_patch_embed_stride_chain_224():
    # 224 -> 56 -> 28 -> 14 -> 7 through the four strides (4, 2, 2, 2)
    model = build_model(small_config(), seed=0)
    x = np.zeros((1, 224, 224, 3), dtype=np.float32)
    feats = forward_features(model, x)
    assert [np.asarray(f).shape[1] for f in feats] == [56, 28, 14, 7]


def test_patch_embed_non_overlapping_equals_reshape_oracle(rng):
    # k == st with an identity-block projection reduces to plain patch flatten
    k = 2
    c = 3
    proj = T.LinearParams(np.eye(k * k * c), np.zeros(k * k * c))
    p = PatchEmbedParams(spec=PatchEmbedSpec(kernel=k, stride=k), padding="zero", proj=proj)
    x = rng.standard_normal((1, 6, 4, c)).astype(np.float64)
    got = np.asarray(patch_embed(x, p))
    want = x.reshape(1, 3, k, 2, k, c).transpose(0, 1, 3, 2, 4, 5).reshape(1, 3, 2, k * k * c)
    np.testing.assert_allclose(got, want, atol=1e-12)


def identity_embed(kernel, stride, padding, c=2):
    """Patch embedding whose projection is the identity, so its output is
    the gathered windows themselves, bit for bit."""
    k2c = kernel * kernel * c
    proj = T.LinearParams(np.eye(k2c), np.zeros(k2c))
    return PatchEmbedParams(spec=PatchEmbedSpec(kernel=kernel, stride=stride), padding=padding, proj=proj)


@settings(max_examples=80, deadline=None)
@given(
    h=st.integers(1, 20),
    w=st.integers(1, 20),
    stride=st.integers(1, 4),
    overlap=st.integers(0, 4),
    padding=st.sampled_from(PADDING_MODES),
)
def test_patch_embed_bitwise_equals_sliding_window_oracle(h, w, stride, overlap, padding):
    kernel = stride + overlap
    p = identity_embed(kernel, stride, padding)
    x = np.random.default_rng(h * 32 + w).standard_normal((2, h, w, 2))
    # each axis's total padding, as reference_patch_embed pads
    pads = [(-(-extent // stride) - 1) * stride + kernel - extent for extent in (h, w)]
    if padding == "reflect" and any(extent == 1 and pad for extent, pad in zip((h, w), pads)):
        with pytest.raises(InvalidInputError):
            patch_embed(x, p)
        return
    want = reference_patch_embed(x, p)
    for _ in range(2):  # the first call may build the gathers, the second reads the cache
        got = np.asarray(patch_embed(x, p))
        assert got.shape == want.shape and np.array_equal(got, want)


def test_embed_gathers_are_cached_and_read_only():
    for padding in PADDING_MODES:
        maps = network._embed_gathers(7, 9, 7, 4, padding)
        assert network._embed_gathers(7, 9, 7, 4, padding) is maps
        pad_h, pad_w, rows, cols = maps
        assert (pad_h, pad_w) == (4, 6)
        # zero padding pads first, so the maps read the padded axes
        w_pad = 9 + pad_w if padding == "zero" else 9
        assert rows.extent == (7 + pad_h if padding == "zero" else 7)
        assert cols.extent == 7 * w_pad
        assert rows.value.size == 2 * 7 and cols.value.size == 3 * 7 * 7
        for m in (rows, cols):
            with pytest.raises(ValueError):
                m.value[0] = 1


@pytest.mark.parametrize("padding", PADDING_MODES)
def test_patch_embed_gradient_matches_fd(padding, rng):
    # kernel 3 > stride 2, so windows overlap, and the odd extents pad both axes
    k, s, c = 3, 2, 2
    w = rng.standard_normal((k * k * c, 4)) / np.sqrt(k * k * c)
    p = PatchEmbedParams(PatchEmbedSpec(kernel=k, stride=s), padding, T.LinearParams(w, rng.standard_normal(4)))
    x0 = rng.standard_normal((2, 7, 5, c))
    assert input_grad_error(patch_embed, x0, p) < GRAD_TOLERANCE
    tape = T.Tape()
    patch_embed(tape.leaf(x0), T.bind_tree(p, tape))
    ops = [node.op for node in tape.nodes if node.op != "leaf"]
    pads = ["pad_zero"] * 2 if padding == "zero" else []
    assert ops == pads + ["take", "reshape", "take", "reshape", "linear"]


def test_patch_embed_ceil_division(rng):
    model = micro_model()
    x = rng.standard_normal((1, 57, 50, 3)).astype(np.float32)
    out = np.asarray(patch_embed(x, model.stages[0].embed))
    assert out.shape[:3] == (1, 15, 13)  # ceil(57/4), ceil(50/4)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_logits_shape(rng):
    model = micro_model()
    out = np.asarray(forward(model, rng.standard_normal((2, 48, 48, 3)).astype(np.float32)))
    assert out.shape == (2, 2)
    assert np.isfinite(out).all()


def test_forward_non_square(rng):
    model = micro_model()
    out = np.asarray(forward(model, rng.standard_normal((1, 64, 48, 3)).astype(np.float32)))
    assert out.shape == (1, 2)


@pytest.mark.parametrize(
    "make_config, hw", [(micro_config, (224, 224)), (tiny_config, (200, 300))], ids=["micro", "tiny"]
)
def test_row_blocked_products_leave_the_forward_bitwise_unchanged(monkeypatch, make_config, hw):
    # tiny's stage-1 products are split into row blocks; micro's 3136-row
    # patch embedding is a thin product, which split would round differently
    model = build_model(make_config(), seed=0)
    x = np.random.default_rng(0).standard_normal((1, *hw, 3)).astype(np.float32)

    def outputs():
        return [np.asarray(a) for a in forward_features(model, x)] + [np.asarray(forward(model, x))]

    blocked = outputs()
    monkeypatch.setattr(T, "_LINEAR_ROWS", 1 << 30)  # every product whole
    for got, want in zip(blocked, outputs()):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make_config", [micro_config, tiny_config, small_config], ids=["micro", "tiny", "small"]
)
def test_forward_matches_sequential_reference(make_config):
    # float32 logits of the composed gathers, reshape views and folded
    # running norms against the rearrange primitives one step at a time and
    # the explicit (x - mean) invstd gamma + beta norm
    rng = np.random.default_rng(5)
    model = assemble_model(
        make_config(), lambda shape: (rng.standard_normal(shape) / np.sqrt(shape[0])).astype(np.float32)
    )
    for name, arr in model_tensors(model).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            arr[...] = 1.0 + 0.1 * rng.standard_normal(arr.shape)
        elif leaf in ("beta", "bias", "running_mean"):
            arr[...] = 0.1 * rng.standard_normal(arr.shape)
        elif leaf == "running_var":
            arr[...] = 0.5 + rng.random(arr.shape)
    for n, h, w in ((1, 224, 224), (2, 200, 300)):
        x = rng.standard_normal((n, h, w, 3)).astype(np.float32)
        got = np.asarray(forward(model, x))
        want = reference_forward(model, x)
        assert got.dtype == want.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_input(rng, bad):
    model = micro_model()
    x = rng.standard_normal((2, 40, 40, 3)).astype(np.float32)
    x[1, 3, 4, 2] = bad
    x[1, 5, 0, 0] = bad
    with pytest.raises(InvalidInputError, match=r"2 non-finite values, the first at index \(1, 3, 4, 2\)"):
        forward(model, x)


def test_forward_undersized_rejected(rng):
    model = micro_model()
    with pytest.raises(InvalidInputError):
        forward(model, rng.standard_normal((1, 16, 16, 3)).astype(np.float32))


FAULTS_PER_FORWARD = """
import resource
import numpy as np
from hiremlp.network import assemble_model, forward
from hiremlp.variants import tiny_config
model = assemble_model(tiny_config(), lambda shape: np.zeros(shape, dtype=np.float32))
x = np.zeros((1, 224, 224, 3), dtype=np.float32)
forward(model, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    forward(model, x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallopt"), reason="glibc malloc only"
)
def test_repeated_forward_reuses_freed_memory():
    # a fresh process that has freed no large block: without the allocator
    # limits set on import, every tiny 224x224 call re-faulted about 3.5K pages
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_FORWARD],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


def test_forward_batch_determinism(rng):
    # identical rows in, identical logits out (running-statistics norms)
    model = micro_model()
    one = rng.standard_normal((1, 40, 40, 3)).astype(np.float32)
    two = np.concatenate([one, one], axis=0)
    out = np.asarray(forward(model, two))
    np.testing.assert_array_equal(out[0], out[1])


@settings(max_examples=15, deadline=None)
@given(h=st.integers(32, 97), w=st.integers(32, 97), seed=st.integers(0, 100))
def test_forward_resolution_sweep(h, w, seed):
    model = micro_model()
    r = np.random.default_rng(seed)
    out = np.asarray(forward(model, r.standard_normal((1, h, w, 3)).astype(np.float32)))
    assert out.shape == (1, 2)
    assert np.isfinite(out).all()


def test_stage_resolutions_are_ceil_divisions(rng):
    model = micro_model()
    h, w = 70, 45
    feats = forward_features(model, rng.standard_normal((1, h, w, 3)).astype(np.float32))
    for f, div in zip(feats, (4, 8, 16, 32)):
        assert np.asarray(f).shape[1] == -(-h // div)
        assert np.asarray(f).shape[2] == -(-w // div)


# ---------------------------------------------------------------------------
# builder / config
# ---------------------------------------------------------------------------


def test_build_same_seed_identical():
    assert model_checksum(micro_model(seed=5)) == model_checksum(micro_model(seed=5))
    assert model_checksum(micro_model(seed=5)) != model_checksum(micro_model(seed=6))


B = TRUNC_NORMAL_BLOCK


# std 1.0 as well as INIT_STD: the float32 quantile must track the float64 one
# whatever scale is folded into its coefficients. The name is kept from the
# rejection sampler this replaced, whose draws this test matched bit for bit.
@pytest.mark.parametrize("std", [0.02, 1.0])
@pytest.mark.parametrize(
    "shape",
    [(0, 5), (1,), (37, 41), (B,), (128, B // 128), (2, B), (3, B + 5), (7 * B // 3,)],
    ids=["empty", "one", "below", "flat-block", "block", "two-blocks", "above", "non-multiple"],
)
def test_trunc_normal_bitwise_equals_whole_array_reference(shape, std, monkeypatch):
    monkeypatch.setattr(network, "INIT_STD", std)
    for seed in (0, 1, 7, 2024):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = trunc_normal(rng, shape)
        want = reference_trunc_normal(ref_rng, shape, std)
        assert got.dtype == np.float32 and got.shape == want.shape
        # float32 arithmetic on PPND7's 7 digits; measured 1.6e-8 at std 0.02
        err = np.abs(got - want).max(initial=0.0)
        assert err <= 3e-8 * (std / 0.02), (seed, err)
        # one uniform per value: the next FC's draws continue from the same point
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


def test_trunc_normal_matches_exact_truncated_distribution():
    """2^20 weights per seed: mean and std within 4 standard errors of the
    exact +/- 2 std truncated normal's, and the Kolmogorov-Smirnov distance
    to its CDF below the 1% critical value 1.63 / sqrt(n)."""
    a, n = 2.0, 1 << 20
    mass = math.erf(a / math.sqrt(2.0))  # Phi(a) - Phi(-a)
    tail = 2.0 * math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi) / mass  # 2 phi(a) / mass
    m2 = 1.0 - a * tail  # E[x^2] of the unit truncated normal
    m4 = 3.0 * m2 - a**3 * tail  # E[x^4], by parts
    std = INIT_STD * math.sqrt(m2)
    se_mean = std / math.sqrt(n)
    se_std = INIT_STD * math.sqrt((m4 - m2 * m2) / n) / (2.0 * math.sqrt(m2))
    lo = 0.5 * (1.0 - mass)  # Phi(-a)
    cdf = np.frompyfunc(lambda x: (0.5 * (1.0 + math.erf(x / (INIT_STD * math.sqrt(2.0)))) - lo) / mass, 1, 1)
    for seed in range(4):
        w = np.sort(trunc_normal(np.random.default_rng(seed), (n,)).astype(np.float64))
        assert abs(w.mean()) <= 4 * se_mean, seed
        assert abs(w.std() - std) <= 4 * se_std, seed
        f = cdf(w).astype(np.float64)
        ks = max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
        assert ks < 1.63 / math.sqrt(n), (seed, ks)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.lists(st.integers(0, 60), min_size=1, max_size=3).map(tuple),
        st.integers(B - 2, 2 * B + 2).map(lambda n: (n,)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_trunc_normal_is_float32_of_shape_within_two_std(shape, seed):
    w = trunc_normal(np.random.default_rng(seed), shape)
    assert w.dtype == np.float32 and w.shape == shape
    # rounding to float32 is monotone, so |v| <= 2 std in float64 gives this
    assert np.all(np.abs(w) <= np.float32(2.0 * INIT_STD))


@pytest.mark.parametrize(
    "make_config, seed, digest",
    [
        (micro_config, 0, "7f94f6bff9aaa7706831320589b70dde7e7bf37f87b369244fdc007baaad252d"),
        (micro_config, 7, "c78d30e8cc067b14745956b515d0f1330397a945c81ab434c169342edaf1ba7e"),
        (tiny_config, 0, "df9a91e635be506881814630c0fd437a8253a15b6127e076d496b98b4264fef2"),
    ],
    ids=["micro-0", "micro-7", "tiny-0"],
)
def test_seeded_build_checksum_is_pinned(make_config, seed, digest):
    assert model_checksum(build_model(make_config(), seed=seed)) == digest


def test_build_small_depths():
    cfg = small_config()
    assert tuple(s.depth for s in cfg.stages) == (3, 4, 10, 3)
    assert tuple(s.h for s in cfg.stages) == (4, 3, 3, 2)
    assert tuple(s.s for s in cfg.stages) == (2, 2, 1, 1)


def test_config_roundtrip(tmp_path):
    from hiremlp.variants import VARIANTS

    micro = micro_config()
    non_default = dataclasses.replace(
        micro,
        stages=tuple(dataclasses.replace(st, padding="reflect", manner="shuffle") for st in micro.stages),
        num_classes=7,
        bottleneck_fcs=3,
        meta={},
    )
    path = tmp_path / "cfg.json"
    for cfg in [factory() for factory in VARIANTS.values()] + [non_default]:
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg and back.meta == cfg.meta


def test_config_absent_keys_take_the_dataclass_defaults():
    d = config_to_dict(micro_config())
    for st in d["stages"]:
        del st["padding"], st["manner"]
    for key in ("num_classes", "bottleneck_fcs", "shift_phase", "meta"):
        del d[key]
    cfg = config_from_dict(d)
    want = ModelConfig(cfg.stages, cfg.patch_embed, cfg.expansion_ratio)
    assert cfg == want and cfg.meta == {}
    assert all(st == StageConfig(st.depth, st.channels, st.h, st.w, st.s) for st in cfg.stages)


def test_config_meta_stays_free_form():
    d = config_to_dict(micro_config())
    d["meta"]["notes"] = {"any": ["json", 1]}
    cfg = config_from_dict(d)
    assert cfg == micro_config() and cfg.meta == {"name": "micro", "notes": {"any": ["json", 1]}}


def test_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps({"stages": []}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_validation_lists_violations():
    d = config_to_dict(micro_config())
    d["stages"][1]["depth"] = 0
    d["stages"][2]["padding"] = "wat"
    with pytest.raises(ConfigError) as e:
        config_from_dict(d)
    msg = str(e.value)
    assert "depth" in msg and "padding" in msg


@pytest.mark.parametrize(
    "edit, where, message",
    [
        (lambda d: d.update(stages=5), "stages", "expected an array, got an integer"),
        (lambda d: d["stages"][2].update(channels="wide"), "stages[2].channels",
         "expected an integer, got a string"),
        (lambda d: d["stages"][2].update(channels=[64]), "stages[2].channels",
         "expected an integer, got an array"),
        (lambda d: d["stages"][0].pop("depth"), "stages[0].depth", "missing"),
        (lambda d: d["patch_embed"].__setitem__(1, 3), "patch_embed[1]",
         "expected an object, got an integer"),
        (lambda d: d.update(expansion_ratio=[2, 2, True, 2]), "expansion_ratio[2]",
         "expected an integer, got a boolean"),
        (lambda d: d.update(meta="x"), "meta", "expected an object, got a string"),
        (lambda d: d.update(meta={"reference_params": "12"}), "meta.reference_params",
         "expected a number, got a string"),
        (lambda d: d.update(meta={"reference_flops": 0}), "meta.reference_flops",
         "expected a positive finite number, got 0"),
        (lambda d: d.update(meta={"name": ["x"]}), "meta.name", "expected a string, got an array"),
        (lambda d: d.update(bottleneck_fc=1), "bottleneck_fc", "unknown key"),
        (lambda d: d.update(stage=[]), "stage", "unknown key"),
        (lambda d: d["stages"][0].update(paddng="zero"), "stages[0].paddng", "unknown key"),
        (lambda d: d["patch_embed"][3].update(kernal=3), "patch_embed[3].kernal", "unknown key"),
    ],
    ids=[
        "stages-int", "channels-str", "channels-list", "depth-missing", "embed-int", "ratio-bool",
        "meta-str", "reference-params-str", "reference-flops-0", "name-list",
        "unknown-top-level", "unknown-top-level-array", "unknown-in-stage", "unknown-in-patch-embed",
    ],
)
def test_config_type_error_names_file_and_json_path(tmp_path, edit, where, message):
    d = config_to_dict(micro_config())
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert str(e.value) == f"{path}: {where}: {message}"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: [s.update(channels=0) for s in d["stages"]], "stage 0: channels must be >= 1, got 0"),
        (lambda d: d["stages"][1].update(channels=-3), "stage 1: channels must be >= 1, got -3"),
        (lambda d: d.update(expansion_ratio=-1), "expansion_ratio: expected an array, got an integer"),
        (lambda d: d.update(expansion_ratio=[2, 0, 2, 2]), "stage 1: expansion_ratio must be >= 1, got 0"),
    ],
    ids=["all-channels-0", "channels-negative", "ratio-scalar-negative", "ratio-entry-0"],
)
def test_config_rejects_sizes_below_one(edit, message):
    d = config_to_dict(micro_config())
    edit(d)
    with pytest.raises(ConfigError) as e:
        config_from_dict(d)
    assert message in str(e.value)
    assert "nondecreasing" not in str(e.value)


def test_config_scalar_expansion_ratio():
    # the ratio is a per-stage array; a scalar is not broadcast
    d = config_to_dict(micro_config())
    d["expansion_ratio"] = 4
    with pytest.raises(ConfigError) as e:
        config_from_dict(d)
    assert str(e.value) == "expansion_ratio: expected an array, got an integer"


def test_checked_in_configs_match_variants(tmp_path):
    # configs/*.json must not drift from the programmatic definitions
    from pathlib import Path

    from hiremlp.variants import VARIANTS

    cfg_dir = Path(__file__).resolve().parent.parent / "configs"
    for name, factory in VARIANTS.items():
        on_disk = load_config(cfg_dir / f"{name}.json")
        assert on_disk == factory() and on_disk.meta == factory().meta, name
        # byte-equal too, so a hand edit that still loads the same is caught
        save_config(factory(), tmp_path / f"{name}.json")
        assert (cfg_dir / f"{name}.json").read_bytes() == (tmp_path / f"{name}.json").read_bytes(), name


def test_shift_parity_default_odd_blocks():
    model = build_model(small_config(), seed=0)
    blocks = model.stages[0].blocks
    assert blocks[0].hire.height.shift is None
    assert blocks[1].hire.height.shift is not None
    assert blocks[2].hire.height.shift is None
    assert blocks[1].hire.height.shift.step == 2


@pytest.mark.parametrize("make_config", [micro_config, tiny_config], ids=["micro", "tiny"])
def test_count_config_equals_count_of_seeded_model(make_config):
    cfg = make_config()
    model = build_model(cfg, seed=3)
    for h, w in ((224, 224), (200, 300)):
        want = count_model(model, h, w)
        got = count_config(cfg, h, w)
        assert got.breakdown == want.breakdown
        assert (got.params, got.flops) == (want.params, want.flops)


def test_bind_tree_one_aliasing_leaf_per_model_tensor():
    model = micro_model()
    tape = T.Tape()
    T.bind_tree(model, tape)
    arrays = list(model_tensors(model).values())
    assert len(tape.nodes) == len(arrays)
    for i, arr in enumerate(arrays):
        assert tape.nodes[i].op == "leaf"
        assert T.Var(tape, i).value is arr


def test_map_tree_rebuild_checks_shapes_and_shares_untouched_subtrees():
    model = micro_model()
    bias = "stages.0.blocks.0.channel_mlp.fc2.bias"

    def replace(value):
        return lambda path, node: value if path == bias else node

    for _ in range(2):  # the second walk reads the cached field names
        with pytest.raises(ConfigError, match="LinearParams: bias"):
            T.map_tree(model, replace(np.zeros(3, dtype=np.float32)))
        # check=False sets the fields as given, for a fn that keeps what the checks read
        unchecked = T.map_tree(model, replace(np.zeros(3, dtype=np.float32)), check=False)
        assert model_tensors(unchecked)[bias].shape == (3,)
        good = np.ones_like(model_tensors(model)[bias])
        new = T.map_tree(model, replace(good))
        assert model_tensors(new)[bias] is good
        assert new.stages[0].blocks[0].hire is model.stages[0].blocks[0].hire
        assert new.stages[0].embed is model.stages[0].embed
        assert new.stages[1] is model.stages[1] and new.head is model.head
        assert T.map_tree(model, lambda path, node: node) is model


def test_set_norm_mode_keeps_every_array_object():
    model = micro_model()
    batch = set_norm_mode(model, "batch")
    before, after = model_tensors(model), model_tensors(batch)
    assert list(after) == list(before)
    assert all(after[name] is arr for name, arr in before.items())
    assert {b.norm1.mode for s in batch.stages for b in s.blocks} == {"batch"}


# ---------------------------------------------------------------------------
# weights I/O on a full model
# ---------------------------------------------------------------------------


def test_model_weight_roundtrip(tmp_path, rng):
    m1 = micro_model(seed=11)
    path = tmp_path / "m.hire"
    save_tensors(path, model_tensors(m1))
    m2 = micro_model(seed=99)
    load_model_weights(m2, load_tensors(path))
    assert model_checksum(m1) == model_checksum(m2)
    x = rng.standard_normal((1, 37, 41, 3)).astype(np.float32)
    np.testing.assert_array_equal(np.asarray(forward(m1, x)), np.asarray(forward(m2, x)))


def test_model_weight_mismatch_detected(tmp_path):
    m1 = micro_model()
    tensors = model_tensors(m1)
    tensors.pop(next(iter(tensors)))
    path = tmp_path / "m.hire"
    save_tensors(path, tensors)
    with pytest.raises(ConfigError):
        load_model_weights(micro_model(), load_tensors(path))


@pytest.mark.parametrize("source", ["file", "dict"])
@pytest.mark.parametrize("fault", ["last-shape", "negative-variance"])
def test_failing_weight_load_leaves_the_model_unchanged(tmp_path, fault, source):
    tensors = model_tensors(micro_model(seed=11))
    if fault == "last-shape":
        name = list(tensors)[-1]  # copied last, after every other array
        tensors[name] = np.zeros(tensors[name].shape + (1,), dtype=np.float32)
        error = ShapeError
    else:
        name = [n for n in tensors if n.endswith(".running_var")][-1]
        tensors[name] = tensors[name].copy()
        tensors[name][-1] = -0.5
        error = InvalidInputError
    if source == "file":
        save_tensors(tmp_path / "m.hire", tensors)
        tensors = load_tensors(tmp_path / "m.hire")
    model = micro_model()
    before = model_checksum(model)
    with pytest.raises(error, match=re.escape(f"weight '{name}'")):
        load_model_weights(model, tensors)
    assert model_checksum(model) == before


def test_non_finite_last_tensor_leaves_the_model_unchanged(tmp_path):
    tensors = model_tensors(micro_model(seed=11))
    name = list(tensors)[-1]  # copied last, after every other array
    tensors[name] = tensors[name].copy()
    tensors[name].flat[-1] = np.nan
    save_tensors(tmp_path / "m.hire", tensors)
    model = micro_model()
    before = model_checksum(model)
    with pytest.raises(InvalidInputError, match=re.escape(f"tensor '{name}': non-finite value nan")):
        load_model_weights(model, load_tensors(tmp_path / "m.hire"))
    assert model_checksum(model) == before


def test_weight_load_reads_a_file_into_one_buffer_then_into_the_model(tmp_path, monkeypatch):
    save_tensors(tmp_path / "m.hire", model_tensors(micro_model(seed=11)))
    model = micro_model()
    own = list(model_tensors(model).values())
    bufs = []
    read = TensorFile.read_into
    monkeypatch.setattr(TensorFile, "read_into", lambda self, name, buf: bufs.append(buf) or read(self, name, buf))
    load_model_weights(model, load_tensors(tmp_path / "m.hire"))
    assert len(bufs) == 2 * len(own)
    assert all(b is bufs[0] for b in bufs[: len(own)])  # the checks reuse one buffer
    assert all(b is a for b, a in zip(bufs[len(own) :], own))  # then each tensor goes straight in
    assert model_checksum(model) == model_checksum(micro_model(seed=11))


def test_weight_load_reports_the_first_failing_tensor_in_model_order(tmp_path):
    tensors = model_tensors(micro_model(seed=11))
    first, last = list(tensors)[0], list(tensors)[-1]
    tensors[first] = tensors[first].copy()
    tensors[first].flat[0] = np.inf
    tensors[last] = np.zeros(tensors[last].shape + (1,), dtype=np.float32)
    save_tensors(tmp_path / "m.hire", tensors)
    with pytest.raises(InvalidInputError, match=re.escape(f"tensor '{first}': non-finite value inf")):
        load_model_weights(micro_model(), load_tensors(tmp_path / "m.hire"))


# ---------------------------------------------------------------------------
# translation equivariance (all-circular pipeline)
# ---------------------------------------------------------------------------


def test_translation_equivariance_32px(rng):
    passed, detail = check_translation_equivariance(1, rng)
    assert passed, detail


def test_disable_cross_helper(rng):
    model = micro_model()
    nocross = disable_cross(model)
    for stage in nocross.stages:
        for block in stage.blocks:
            assert block.hire.height.shift is None
            assert block.hire.width.shift is None
    # weights are shared, not copied
    assert model_checksum(nocross) == model_checksum(model)
