"""Full network assembly: blocks, patch embeddings, four-stage pyramid.

A block is two residual sub-units,
    Y = HireModule(BN(X)) + X
    Z = ChannelMLP(BN(Y)) + Y,
stacked inside four stages whose resolution drops from H/4 to H/32 while
channels grow. Patch embeddings are overlapping-window unfolds followed
by a linear projection, padded in the stage's padding mode so any input
of at least 32x32 pixels flows through (remainders are absorbed by
ceil-division). The classifier head is global average pooling plus one
linear layer.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ConfigError, InvalidInputError, ShapeError
from .hire import (
    BottleneckMlpParams,
    HireBranchConfig,
    HireModuleParams,
    bottleneck_widths,
    hire_module,
)
from .rearrange import PADDING_MODES, RegionSpec, ShiftSpec, pad_axis, pad_index

MIN_INPUT = 32


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageConfig:
    depth: int
    channels: int
    h: int  # region size along height
    w: int  # region size along width
    s: int  # cross-region step
    padding: str = "circular"
    manner: str = "shifted"


@dataclass(frozen=True)
class PatchEmbedSpec:
    kernel: int
    stride: int


@dataclass(frozen=True)
class ModelConfig:
    stages: tuple[StageConfig, ...]
    patch_embed: tuple[PatchEmbedSpec, ...]
    expansion_ratio: tuple[int, ...]  # channel-MLP expansion per stage
    num_classes: int = 1000
    bottleneck_fcs: int = 2  # FC count in the spatial-branch bottleneck
    shift_phase: int = 1  # blocks with index % 2 == shift_phase carry the shift
    meta: dict = field(default_factory=dict, compare=False)

    def validate(self) -> None:
        problems = []
        if len(self.stages) != 4:
            problems.append(f"expected 4 stages, got {len(self.stages)}")
        if len(self.patch_embed) != len(self.stages):
            problems.append(
                f"patch_embed count {len(self.patch_embed)} != stage count {len(self.stages)}"
            )
        if len(self.expansion_ratio) != len(self.stages):
            problems.append(
                f"expansion_ratio count {len(self.expansion_ratio)} != stage count"
            )
        prev_c = 0
        for i, st in enumerate(self.stages):
            if st.depth < 1:
                problems.append(f"stage {i}: depth must be >= 1")
            if st.channels < 1:
                problems.append(f"stage {i}: channels must be >= 1, got {st.channels}")
            elif st.channels < prev_c:
                problems.append(f"stage {i}: channels must be nondecreasing")
            prev_c = st.channels
            if st.h < 1 or st.w < 1:
                problems.append(f"stage {i}: region sizes must be >= 1")
            if st.s < 0:
                problems.append(f"stage {i}: step must be >= 0")
            if st.padding not in PADDING_MODES:
                problems.append(f"stage {i}: unknown padding '{st.padding}'")
            if st.manner not in ("shifted", "shuffle"):
                problems.append(f"stage {i}: unknown manner '{st.manner}'")
        for i, r in enumerate(self.expansion_ratio):
            if r < 1:
                problems.append(f"stage {i}: expansion_ratio must be >= 1, got {r}")
        for i, pe in enumerate(self.patch_embed):
            if pe.stride < 1:
                problems.append(f"patch_embed {i}: stride must be >= 1")
            if pe.kernel < pe.stride:
                problems.append(f"patch_embed {i}: kernel must be >= stride (overlapping)")
        if self.num_classes < 1:
            problems.append("num_classes must be >= 1")
        if self.bottleneck_fcs < 1:
            problems.append("bottleneck_fcs must be >= 1")
        if self.shift_phase not in (0, 1):
            problems.append("shift_phase must be 0 or 1")
        if problems:
            raise ConfigError("invalid model config: " + "; ".join(problems))


def config_to_dict(cfg: ModelConfig) -> dict:
    d = {
        "stages": [
            {
                "depth": st.depth,
                "channels": st.channels,
                "h": st.h,
                "w": st.w,
                "s": st.s,
                "padding": st.padding,
                **({"manner": st.manner} if st.manner != "shifted" else {}),
            }
            for st in cfg.stages
        ],
        "expansion_ratio": list(cfg.expansion_ratio),
        "num_classes": cfg.num_classes,
        "patch_embed": [{"kernel": pe.kernel, "stride": pe.stride} for pe in cfg.patch_embed],
    }
    if cfg.bottleneck_fcs != 2:
        d["bottleneck_fcs"] = cfg.bottleneck_fcs
    if cfg.shift_phase != 1:
        d["shift_phase"] = cfg.shift_phase
    if cfg.meta:
        d["meta"] = cfg.meta
    return d


_REQUIRED = object()
_JSON_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object", type(None): "null",
}


def _typed(v, kind: type, where: str):
    """v when it is of the JSON kind `kind` (int, float, str, list or dict),
    else a ConfigError naming `where`; an integral float counts as an int,
    and an int as a number (float)."""
    if kind is int and isinstance(v, float) and v.is_integer():
        return int(v)
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        return v
    if not isinstance(v, kind) or (kind is int and isinstance(v, bool)):
        got = _JSON_NAMES.get(type(v), type(v).__name__)
        raise ConfigError(f"{where}: expected {_JSON_NAMES[kind]}, got {got}")
    return v


def _field(obj: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """obj[key] checked by _typed; `where` is the JSON path of obj."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing")
        return default
    return _typed(obj[key], kind, path)


def _meta(d: dict) -> dict:
    """d's optional meta object, checked where the CLI reads it: a string
    name, and reference budgets that are positive and fit a float."""
    meta = dict(_field(d, "meta", dict, "", {}))
    _field(meta, "name", str, "meta", "")
    for key in ("reference_params", "reference_flops"):
        if key in meta and not 0 < _typed(meta[key], float, f"meta.{key}") <= sys.float_info.max:
            raise ConfigError(f"meta.{key}: expected a positive finite number, got {meta[key]}")
    return meta


def _objects(d: dict, key: str) -> list[tuple[dict, str]]:
    """(object, JSON path) of every entry of the array d[key]."""
    items = _field(d, key, list, "")
    return [(_typed(v, dict, f"{key}[{i}]"), f"{key}[{i}]") for i, v in enumerate(items)]


def config_from_dict(d: dict) -> ModelConfig:
    """Config from its JSON form; a type error names the JSON path, as in
    `stages[2].channels: expected an integer, got a string`."""
    d = _typed(d, dict, "top level")
    stages = tuple(
        StageConfig(
            **{k: _field(s, k, int, where) for k in ("depth", "channels", "h", "w", "s")},
            padding=_field(s, "padding", str, where, "circular"),
            manner=_field(s, "manner", str, where, "shifted"),
        )
        for s, where in _objects(d, "stages")
    )
    embeds = tuple(
        PatchEmbedSpec(**{k: _field(p, k, int, where) for k in ("kernel", "stride")})
        for p, where in _objects(d, "patch_embed")
    )
    ratio = d.get("expansion_ratio")
    if isinstance(ratio, list):
        ratio = tuple(_typed(r, int, f"expansion_ratio[{i}]") for i, r in enumerate(ratio))
    else:
        ratio = (_field(d, "expansion_ratio", int, ""),) * len(stages)
    cfg = ModelConfig(
        stages=stages,
        patch_embed=embeds,
        expansion_ratio=ratio,
        num_classes=_field(d, "num_classes", int, "", 1000),
        bottleneck_fcs=_field(d, "bottleneck_fcs", int, "", 2),
        shift_phase=_field(d, "shift_phase", int, "", 1),
        meta=_meta(d),
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ModelConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 at byte {e.start}: {e.reason}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: not valid JSON: {e.msg}") from None
    try:
        return config_from_dict(data)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def save_config(cfg: ModelConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class ChannelMlpParams:
    """Per-token two-layer MLP with expansion (C -> r*C -> GELU -> C)."""

    fc1: T.LinearParams
    fc2: T.LinearParams

    def __post_init__(self):
        if self.fc1.out_dim != self.fc2.in_dim or self.fc1.in_dim != self.fc2.out_dim:
            raise ConfigError(
                f"ChannelMlpParams: dims do not chain C->rC->C "
                f"({self.fc1.in_dim}->{self.fc1.out_dim}->{self.fc2.out_dim})"
            )


@dataclass
class BlockParams:
    norm1: T.NormParams
    hire: HireModuleParams
    norm2: T.NormParams
    channel_mlp: ChannelMlpParams


@dataclass
class PatchEmbedParams:
    spec: PatchEmbedSpec
    padding: str
    proj: T.LinearParams  # [k*k*C_in, C_out]


@dataclass
class StageParams:
    embed: PatchEmbedParams
    blocks: list[BlockParams]


@dataclass
class Model:
    stages: list[StageParams]
    head: T.LinearParams


# ---------------------------------------------------------------------------
# Forward ops
# ---------------------------------------------------------------------------


def channel_mlp(x: T.ArrayLike, p: ChannelMlpParams) -> T.ArrayLike:
    y = T.apply_linear(x, p.fc1)
    y = T.gelu(y)
    return T.apply_linear(y, p.fc2)


def hire_block(x: T.ArrayLike, p: BlockParams) -> T.ArrayLike:
    """Two residual sub-units: Y = Hire(BN(X)) + X, Z = ChannelMLP(BN(Y)) + Y."""
    y = T.add(hire_module(T.apply_norm(x, p.norm1), p.hire), x)
    return T.add(channel_mlp(T.apply_norm(y, p.norm2), p.channel_mlp), y)


@functools.lru_cache(maxsize=256)
def _unfold_window(extent: int, out: int, kernel: int, stride: int, padding: str) -> tuple[int, np.ndarray]:
    """(pad, window) of `_unfold`: the axis's total padding and its gather.

    The gather composes a non-zero padding; with zero padding it indexes
    the padded axis. The window is cached, so it is read-only."""
    pad = max(0, (out - 1) * stride + kernel - extent)
    window = (np.arange(out)[:, None] * stride + np.arange(kernel)[None, :]).ravel()
    if padding != "zero" and pad:
        window = pad_index(extent, pad // 2, pad - pad // 2, padding)[window]
    window.setflags(write=False)
    return pad, window


def _unfold(x: T.ArrayLike, axis: int, out: int, kernel: int, stride: int, padding: str) -> T.ArrayLike:
    """Gather `out` overlapping windows of one axis, window after window.

    Window o covers positions [o*stride, o*stride + kernel) of the axis
    padded, split evenly before and after, until the last window fits. A
    non-zero padding is composed into the gather; zero padding pads first.
    """
    pad, window = _unfold_window(T._value(x).shape[axis], out, kernel, stride, padding)
    if padding == "zero":
        x = pad_axis(x, axis, pad // 2, pad - pad // 2, padding)
    return T.take(x, window, axis)


def patch_embed(x: T.ArrayLike, p: PatchEmbedParams) -> T.ArrayLike:
    """Overlapping-window unfold + linear projection.

    Output spatial extents are ceil(extent / stride); windows that overrun
    the input read padded tokens (stage padding mode). The windows cost one
    gather per axis and one transpose; the reshapes are views.
    """
    xv = T._value(x)
    if xv.ndim != 4:
        raise ShapeError(f"patch_embed: expected NHWC input, got {xv.shape}")
    n, h, w, c = xv.shape
    if h < 1 or w < 1:
        raise InvalidInputError("patch_embed: input has no tokens")
    k, st = p.spec.kernel, p.spec.stride
    oh = -(-h // st)
    ow = -(-w // st)
    x = _unfold(x, 1, oh, k, st, p.padding)  # [N, oh*k, W, C]
    x = T.reshape(x, (n, oh, k, w, c))
    x = _unfold(x, 3, ow, k, st, p.padding)  # [N, oh, k, ow*k, C]
    x = T.reshape(x, (n, oh, k, ow, k, c))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    x = T.reshape(x, (n, oh, ow, k * k * c))
    return T.apply_linear(x, p.proj)


def stage_forward(x: T.ArrayLike, stage: StageParams) -> T.ArrayLike:
    x = patch_embed(x, stage.embed)
    for block in stage.blocks:
        x = hire_block(x, block)
    return x


def forward_features(model: Model, image: T.ArrayLike) -> list[T.ArrayLike]:
    """Run all stages; returns each stage's output feature map."""
    xv = T._value(image)
    embed = model.stages[0].embed
    channels = embed.proj.in_dim // embed.spec.kernel ** 2
    if xv.ndim != 4 or xv.shape[-1] != channels:
        raise ShapeError(f"forward: expected NHWC input with {channels} channels, got {xv.shape}")
    if xv.shape[1] < MIN_INPUT or xv.shape[2] < MIN_INPUT:
        raise InvalidInputError(
            f"forward: input {xv.shape[1]}x{xv.shape[2]} is smaller than "
            f"{MIN_INPUT}x{MIN_INPUT}"
        )
    finite = np.isfinite(xv)
    if not finite.all():
        bad = np.argwhere(~finite)
        raise InvalidInputError(
            f"forward: input has {len(bad)} non-finite values, the first at index {tuple(bad[0].tolist())}"
        )
    feats = []
    x = image
    for stage in model.stages:
        x = stage_forward(x, stage)
        feats.append(x)
    return feats


def forward(model: Model, image: T.ArrayLike) -> T.ArrayLike:
    """Image [N, H, W, 3] -> logits [N, num_classes]."""
    feats = forward_features(model, image)
    pooled = T.mean_axes(feats[-1], (1, 2))
    return T.apply_linear(pooled, model.head)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


TRUNC_NORMAL_BLOCK = 1 << 15  # float64 draws per block: 256 KiB, cache-sized
INIT_STD = 0.02  # standard deviation of every initial FC weight


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """float32 Normal(0, INIT_STD) resampled to +/- 2 INIT_STD.

    The first pass draws the whole array in flat order, one block at a time,
    and records where |value| > 2 INIT_STD; each later round redraws only those
    positions, in flat order. The generator is consumed exactly as by one
    whole-array draw followed by masked redraws, so every value is
    bit-identical to that plain form, with no float64 copy of the weight."""
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    bound = 2.0 * INIT_STD
    buf = np.empty(min(TRUNC_NORMAL_BLOCK, flat.size), dtype=np.float64)
    outside = []
    for start in range(0, flat.size, TRUNC_NORMAL_BLOCK):
        block = buf[: min(TRUNC_NORMAL_BLOCK, flat.size - start)]
        rng.standard_normal(out=block)
        block *= INIT_STD
        outside.append(np.flatnonzero(np.abs(block) > bound) + start)
        flat[start : start + block.size] = block
    idx = np.concatenate(outside) if outside else np.empty(0, dtype=np.intp)
    while idx.size:
        values = rng.standard_normal(idx.size) * INIT_STD
        flat[idx] = values
        idx = idx[np.abs(values) > bound]
    return out


def _init_linear(weight, in_dim: int, out_dim: int) -> T.LinearParams:
    try:
        w, b = weight((in_dim, out_dim)), np.zeros(out_dim, dtype=np.float32)
    except (MemoryError, ValueError) as e:  # numpy raises ValueError past the largest size
        raise ConfigError(f"cannot allocate the model's ({in_dim}, {out_dim}) weight: {e}") from None
    return T.LinearParams(weight=w, bias=b)


def _build_bottleneck(weight, region_size: int, channels: int, n_layers: int) -> BottleneckMlpParams:
    dims = [region_size * channels] + bottleneck_widths(region_size, channels, n_layers) + [
        region_size * channels
    ]
    layers = [_init_linear(weight, a, b) for a, b in zip(dims, dims[1:])]
    norm = None
    if n_layers >= 2:
        norm = T.identity_norm(dims[1])
    return BottleneckMlpParams(layers=layers, norm=norm)


def _build_block(weight, st: StageConfig, ratio: int, n_fcs: int, shifted: bool) -> BlockParams:
    c = st.channels
    shift_h = ShiftSpec(st.s, st.manner) if shifted else None
    shift_w = ShiftSpec(st.s, st.manner) if shifted else None
    hire = HireModuleParams(
        height=HireBranchConfig(
            region=RegionSpec("height", st.h, st.padding),
            mlp=_build_bottleneck(weight, st.h, c, n_fcs),
            shift=shift_h,
        ),
        width=HireBranchConfig(
            region=RegionSpec("width", st.w, st.padding),
            mlp=_build_bottleneck(weight, st.w, c, n_fcs),
            shift=shift_w,
        ),
        channel=_init_linear(weight, c, c),
    )
    return BlockParams(
        norm1=T.identity_norm(c),
        hire=hire,
        norm2=T.identity_norm(c),
        channel_mlp=ChannelMlpParams(
            fc1=_init_linear(weight, c, ratio * c),
            fc2=_init_linear(weight, ratio * c, c),
        ),
    )


def assemble_model(config: ModelConfig, weight: Callable[[tuple[int, int]], np.ndarray]) -> Model:
    """Model of `config` whose float32 FC weights come from weight(shape),
    called once per FC in a fixed order; biases start at zero and norms at
    the identity. An FC too large to allocate is a ConfigError naming its
    weight's shape."""
    config.validate()
    stages = []
    in_c = 3
    for i, st in enumerate(config.stages):
        pe = config.patch_embed[i]
        embed = PatchEmbedParams(
            spec=pe,
            padding=st.padding,
            proj=_init_linear(weight, pe.kernel * pe.kernel * in_c, st.channels),
        )
        blocks = []
        for b in range(st.depth):
            # parity blocks carry the cross-shift even at s=0 (identity), so the
            # s=0 and cross-disabled configurations stay structurally distinct
            shifted = b % 2 == config.shift_phase
            blocks.append(
                _build_block(weight, st, config.expansion_ratio[i], config.bottleneck_fcs, shifted)
            )
        stages.append(StageParams(embed=embed, blocks=blocks))
        in_c = st.channels
    head = _init_linear(weight, in_c, config.num_classes)
    return Model(stages=stages, head=head)


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    """Instantiate a model with reproducible seeded initialization."""
    rng = np.random.default_rng(seed)
    return assemble_model(config, lambda shape: trunc_normal(rng, shape))


def model_tensors(model: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every parameter and buffer."""
    return dict(T.iter_arrays(model))


def load_model_weights(model: Model, tensors: dict[str, np.ndarray]) -> None:
    """Fill a built model's arrays in place from a name -> array mapping."""
    own = model_tensors(model)
    missing = sorted(set(own) - set(tensors))
    extra = sorted(set(tensors) - set(own))
    if missing or extra:
        raise ConfigError(
            f"weight mismatch: missing {missing[:3]}{'...' if len(missing) > 3 else ''}, "
            f"unexpected {extra[:3]}{'...' if len(extra) > 3 else ''}"
        )
    for name, arr in own.items():
        src = tensors[name]
        if src.shape != arr.shape:
            raise ShapeError(f"weight '{name}': file {src.shape} vs model {arr.shape}")
        arr[...] = src


def model_checksum(model: Model) -> str:
    import hashlib

    tensors = model_tensors(model)
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensors[name]).tobytes())
    return h.hexdigest()


def cast_model(model: Model, dtype) -> Model:
    """Copy of the model with all arrays in the given dtype."""
    return T.cast_tree(model, dtype)


def set_norm_mode(model: Model, mode: str) -> Model:
    """Copy of the model with every NormParams switched to `mode`."""
    return T.map_tree(
        model, lambda _, o: dataclasses.replace(o, mode=mode) if isinstance(o, T.NormParams) else o
    )


def disable_cross(model: Model) -> Model:
    """Structural ablation: drop cross-region rearrange and restore entirely."""
    return T.map_tree(
        model,
        lambda _, o: dataclasses.replace(o, shift=None) if isinstance(o, HireBranchConfig) else o,
    )
