"""network: blocks, patch embedding, full pyramid, config I/O, builder."""

import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiremlp import network
from hiremlp import tensor as T
from hiremlp.accounting import count_config, count_model
from hiremlp.errors import ConfigError, InvalidInputError
from hiremlp.invariants import (
    GRAD_TOLERANCE,
    block_gradcheck,
    check_translation_equivariance,
    rel_error,
)
from hiremlp.network import (
    INIT_STD,
    TRUNC_NORMAL_BLOCK,
    ChannelMlpParams,
    PatchEmbedParams,
    PatchEmbedSpec,
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
    trunc_normal,
)
from hiremlp.rearrange import PADDING_MODES
from hiremlp.variants import micro_config, small_config, tiny_config
from hiremlp.weights import load_tensors, save_tensors

from oracles import erf_gelu, per_token_mlp, reference_forward, reference_trunc_normal, unfold_one_axis


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


@settings(max_examples=60, deadline=None)
@given(
    extent=st.integers(1, 20),
    stride=st.integers(1, 4),
    overlap=st.integers(0, 4),
    axis=st.sampled_from([1, 2]),
    padding=st.sampled_from(PADDING_MODES),
)
def test_unfold_bitwise_equals_uncached_oracle(extent, stride, overlap, axis, padding):
    kernel, out = stride + overlap, -(-extent // stride)  # as patch_embed calls it
    shape = [2, 3, 3, 4]
    shape[axis] = extent
    x = np.random.default_rng(extent).standard_normal(shape)
    if padding == "reflect" and extent == 1 and (out - 1) * stride + kernel > 1:
        with pytest.raises(InvalidInputError):
            network._unfold(x, axis, out, kernel, stride, padding)
        return
    want = unfold_one_axis(x, axis, out, kernel, stride, padding)
    for _ in range(2):  # the first call may build the window, the second reads the cache
        got = network._unfold(x, axis, out, kernel, stride, padding)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_unfold_window_cache_is_read_only():
    for padding in PADDING_MODES:
        _pad, window = network._unfold_window(7, 2, 7, 4, padding)
        assert network._unfold_window(7, 2, 7, 4, padding)[1] is window
        with pytest.raises(ValueError):
            window[0] = 1


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


# std 1.0 as well as INIT_STD: the blocked draw must stay bitwise equal to the
# whole-array form whatever the scale the float64 values are rounded at
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
        assert got.tobytes() == want.tobytes(), seed
        # the next FC's draws continue from the same point of the stream
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


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
        (micro_config, 0, "a3616ad02d92574862482bf6c8c27b79fb10dafccf0e24a56113182855b8f856"),
        (micro_config, 7, "d75d29c2244abc9d414d1c399185b106d38b02c921ecbe6edb585873ec99987a"),
        (tiny_config, 0, "768a10ec6b1235513d6c4a123cb3826eced72cbf7e2c3086dacbbf757497ae24"),
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
    cfg = small_config()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


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
    ],
    ids=[
        "stages-int", "channels-str", "channels-list", "depth-missing", "embed-int", "ratio-bool",
        "meta-str", "reference-params-str", "reference-flops-0", "name-list",
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
        (lambda d: d.update(expansion_ratio=-1), "stage 0: expansion_ratio must be >= 1, got -1"),
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
    d = config_to_dict(micro_config())
    d["expansion_ratio"] = 4
    cfg = config_from_dict(d)
    assert cfg.expansion_ratio == (4, 4, 4, 4)


def test_checked_in_configs_match_variants(tmp_path):
    # configs/*.json must not drift from the programmatic definitions
    from pathlib import Path

    from hiremlp.variants import VARIANTS

    cfg_dir = Path(__file__).resolve().parent.parent / "configs"
    for name, factory in VARIANTS.items():
        on_disk = load_config(cfg_dir / f"{name}.json")
        assert on_disk == factory(), name


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
