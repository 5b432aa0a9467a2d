"""Full network assembly: blocks, patch embeddings, four-stage pyramid.

A block is two residual sub-units,
    Y = HireModule(BN(X)) + X
    Z = ChannelMLP(BN(Y)) + Y,
stacked inside four stages whose resolution drops from H/4 to H/32 while
channels grow. Patch embeddings are overlapping-window unfolds followed
by a linear projection, padded in the stage's padding mode so any input
of at least 32x32 pixels flows through (remainders are absorbed by
ceil-division), except that reflect padding cannot pad a one-token axis.
The classifier head is global average pooling plus one linear layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import tensor as T
from .errors import ConfigError, InvalidInputError, ShapeError
from .hire import (
    BottleneckMlpParams,
    HireBranchConfig,
    HireModuleParams,
    bottleneck_widths,
    eager_map,
    hire_module,
    per_token,
    row_tiles,
)
from .rearrange import MANNERS, PADDING_MODES, RegionSpec, ShiftSpec, pad_axis, pad_index
from .weights import load_checked

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
            if st.manner not in MANNERS:
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
    """cfg's JSON form: every field, in declaration order."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(cfg).items()}


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


def _field(obj: dict, key: str, kind: type, where: str, default=dataclasses.MISSING):
    """obj[key] checked by _typed; an absent key gives `default`, or a
    ConfigError when that is MISSING. `where` is the JSON path of obj."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        if default is dataclasses.MISSING:
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


_KINDS = {"int": int, "str": str}  # field annotation (a string here) -> JSON scalar kind


def _scalars(cls: type, obj: dict, where: str) -> dict:
    """The int and str fields of dataclass `cls` read from obj by _field,
    each with its declared default; a key of obj that names no field of
    `cls` is a ConfigError. `where` is the JSON path of obj."""
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    for key in obj:
        if key not in known:
            raise ConfigError(f"{where + '.' if where else ''}{key}: unknown key")
    return {f.name: _field(obj, f.name, _KINDS[f.type], where, f.default) for f in fields if f.type in _KINDS}


def config_from_dict(d: dict) -> ModelConfig:
    """Config from its JSON form; a type error names the JSON path, as in
    `stages[2].channels: expected an integer, got a string`, and so does a
    key that names no field."""
    d = _typed(d, dict, "top level")
    stages, embeds = (
        tuple(cls(**_scalars(cls, obj, where)) for obj, where in _objects(d, key))
        for cls, key in ((StageConfig, "stages"), (PatchEmbedSpec, "patch_embed"))
    )
    ratio = _field(d, "expansion_ratio", list, "")
    ratio = tuple(_typed(r, int, f"expansion_ratio[{i}]") for i, r in enumerate(ratio))
    cfg = ModelConfig(stages, embeds, ratio, **_scalars(ModelConfig, d, ""), meta=_meta(d))
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
    """fc1 -> GELU -> fc2. Rebinding x drops a map passed as a temporary
    before the hidden map exists, and the GELU overwrites fc1's fresh output."""
    x = T.apply_linear(x, p.fc1)
    x = T.gelu(x, overwrite=True)
    return T.apply_linear(x, p.fc2)


def hire_block(x: T.ArrayLike, p: BlockParams) -> T.ArrayLike:
    """Two residual sub-units: Y = Hire(BN(X)) + X, Z = ChannelMLP(BN(Y)) + Y.

    Each sum is a `+=` into the module's output, which the block owns (in
    place, or a fresh `add` once either side is a Var). A `hire.eager_map`
    Y whose second norm and channel MLP hold no Var becomes Z in the token
    tiles of `row_tiles`, so one tile's hidden map is alive at a time,
    bitwise the whole sum; a norm that takes batch statistics makes that
    one tile. Any other Y takes the channel MLP whole."""
    y = hire_module(T.apply_norm(x, p.norm1), p.hire)
    y += x
    if not eager_map(y) or T.holds_var(p.norm2) or T.holds_var(p.channel_mlp):
        y += channel_mlp(T.apply_norm(y, p.norm2), p.channel_mlp)
        return y
    tokens = y.reshape(-1, y.shape[-1])  # a view: the module's map is fresh and C-contiguous
    for t in row_tiles(len(tokens), [p.channel_mlp.fc1, p.channel_mlp.fc2], p.norm2):
        tokens[t] += channel_mlp(T.apply_norm(tokens[t], p.norm2), p.channel_mlp)
    return y


@functools.lru_cache(maxsize=256)
def _embed_gathers(h: int, w: int, kernel: int, stride: int, padding: str) -> tuple[int, int, T.IndexMap, T.IndexMap]:
    """(pad_h, pad_w, rows, cols) of `patch_embed` on an h x w map.

    Window o of an axis covers positions [o*stride, o*stride + kernel) of
    the axis padded, split evenly before and after, until the last window
    fits. `rows` gathers every window's kernel rows along H; `cols` reads
    the (kernel row, W') axis of the row-gathered map at
    kh * W' + col_window[ow, kw], so windows come out in (ow, kh, kw) order.
    A non-zero padding is composed into both maps; with zero padding they
    index the padded axes. The maps are cached, so they are read-only
    IndexMaps, checked once, here; they hold oh*k and ow*k*k entries.
    """
    axes = []
    for extent in (h, w):
        out = -(-extent // stride)
        pad = max(0, (out - 1) * stride + kernel - extent)
        window = np.arange(out)[:, None] * stride + np.arange(kernel)
        if padding == "zero":
            extent += pad
        elif pad:
            window = pad_index(extent, pad // 2, pad - pad // 2, padding)[window]
        axes.append((pad, window, extent))
    (pad_h, rows, h_read), (pad_w, cols, w_read) = axes
    cols = np.arange(kernel)[:, None] * w_read + cols[:, None, :]
    rows, cols = T.IndexMap.frozen(rows.ravel(), h_read), T.IndexMap.frozen(cols.ravel(), kernel * w_read)
    return pad_h, pad_w, rows, cols


def patch_embed(x: T.ArrayLike, p: PatchEmbedParams) -> T.ArrayLike:
    """Overlapping-window unfold + linear projection.

    Output spatial extents are ceil(extent / stride); windows that overrun
    the input read padded tokens (stage padding mode). The windows cost two
    gathers, rows along H and then (kernel row, column) pairs, which leave
    them in (oh, ow, kh, kw) order; the reshapes are views.
    """
    xv = T._value(x)
    if xv.ndim != 4:
        raise ShapeError(f"patch_embed: expected NHWC input, got {xv.shape}")
    n, h, w, c = xv.shape
    if h < 1 or w < 1:
        raise InvalidInputError("patch_embed: input has no tokens")
    k, st = p.spec.kernel, p.spec.stride
    oh, ow = -(-h // st), -(-w // st)
    pad_h, pad_w, rows, cols = _embed_gathers(h, w, k, st, p.padding)
    if p.padding == "zero":
        x = pad_axis(x, 1, pad_h // 2, pad_h - pad_h // 2, "zero")
        x = pad_axis(x, 2, pad_w // 2, pad_w - pad_w // 2, "zero")
    x = T.take(x, rows, 1)  # [N, oh*k, W', C]
    x = T.reshape(x, (n, oh, cols.extent, c))
    x = T.take(x, cols, 2)  # [N, oh, ow*k*k, C]
    x = T.reshape(x, (n, oh, ow, k * k * c))
    return T.apply_linear(x, p.proj)


def _stage_body(x: T.ArrayLike, stage: StageParams) -> T.ArrayLike:
    x = patch_embed(x, stage.embed)
    for block in stage.blocks:
        x = hire_block(x, block)
    return x


def stage_forward(x: T.ArrayLike, stage: StageParams, lanes: int = 1) -> T.ArrayLike:
    """Patch embedding, then the stage's blocks. With lanes > 1 (an eager
    batch, from `forward_features` under the lane pin), they run on that many
    contiguous image lanes, each on its own thread, joined into one map here."""
    if lanes > 1:
        from .lanes import run

        return run(lanes, x, functools.partial(_stage_body, stage=stage))
    return _stage_body(x, stage)


def forward_features(model: Model, image: T.ArrayLike) -> list[T.ArrayLike]:
    """Run all stages; returns each stage's output feature map."""
    xv = T._value(image)
    embed = model.stages[0].embed
    channels = embed.proj.in_dim // embed.spec.kernel ** 2
    if xv.ndim != 4 or xv.shape[-1] != channels:
        raise ShapeError(f"forward: expected NHWC input with {channels} channels, got {xv.shape}")
    if xv.shape[0] == 0:
        raise ShapeError(f"forward: expected at least one image, got {xv.shape}")
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
    with _lane_pin(model, image) as lanes:
        for stage in model.stages:
            x = stage_forward(x, stage, lanes)
            feats.append(x)
    return feats


def forward(model: Model, image: T.ArrayLike) -> T.ArrayLike:
    """Image [N, H, W, 3] -> logits [N, num_classes].

    A call that runs lanes (see `_lane_pin`) keeps OpenBLAS on one thread
    through the head's product as well."""
    with _lane_pin(model, image):
        feats = forward_features(model, image)
        pooled = T.mean_axes(feats[-1], (1, 2))
        return T.apply_linear(pooled, model.head)


def _running_norms(model: Model) -> bool:
    """Whether every norm of the model applies stored statistics, so that no
    image of a batch reads another before the head."""
    return all(
        per_token(norm)
        for stage in model.stages
        for b in stage.blocks
        for norm in (b.norm1, b.norm2, b.hire.height.mlp.norm, b.hire.width.mlp.norm)
    )


def _lane_pin(model: Model, image: T.ArrayLike):
    """Context giving the image lanes of a forward (see `lanes.pinned`).

    Only an eager ndarray batch of at least two images through a model whose
    norms all apply stored statistics can run lanes; anything else gets 1
    lane without loading the lane machinery."""
    if type(image) is not np.ndarray or image.ndim != 4 or image.shape[0] < 2 or not _running_norms(model):
        return contextlib.nullcontext(1)
    from . import lanes

    return lanes.pinned(image.shape[0])


def lane_count(model: Model, image: T.ArrayLike) -> int:
    """The number of image lanes `forward(model, image)` runs on, when no
    other thread holds the lanes."""
    with _lane_pin(model, image) as lanes:
        return lanes


def first_non_finite_path(model: Model, image: T.ArrayLike) -> str:
    """For an image whose logits are not finite: the first cost-report path,
    `stageN.embed`, `stageN.blockB` or `head`, whose output is not finite.

    Re-runs the forward one path at a time and checks each output, so the
    plain forward pays nothing for it. The head is named when every stage
    output is finite."""
    x = image
    for i, stage in enumerate(model.stages):
        x = patch_embed(x, stage.embed)
        if not np.isfinite(T._value(x)).all():
            return f"stage{i + 1}.embed"
        for b, block in enumerate(stage.blocks):
            x = hire_block(x, block)
            if not np.isfinite(T._value(x)).all():
                return f"stage{i + 1}.block{b}"
    return "head"


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


TRUNC_NORMAL_BLOCK = 1 << 15  # float32 weights per slice: four 128 KiB arrays, L2-sized
INIT_STD = 0.02  # standard deviation of every initial FC weight
_TRUNC_MASS = math.erf(math.sqrt(2.0))  # 1 - 2 Phi(-2): the normal's mass within +/- 2 std

# AS241 PPND7 (M. J. Wichura, "The percentage points of the normal
# distribution", Applied Statistics 37, 1988): the standard normal quantile
# to about 1e-7. Central form, |q| <= 0.425 with q = p - 1/2:
#   q A(r) / B(r),  r = 0.180625 - q^2;
# tail form, min(p, 1 - p) >= Phi(-2) > exp(-25), so only the middle region:
#   C(t) / D(t),  t = sqrt(-log(min(p, 1 - p))) - 1.6, with the sign of q.
# Coefficients run from the highest degree down, as tensor._horner takes them.
_PPND7_A = (5.9109374720e01, 1.5929113202e02, 5.0434271938e01, 3.3871327179e00)
_PPND7_B = (6.7187563600e01, 7.8757757664e01, 1.7895169469e01, 1.0)
_PPND7_C = (1.7023821103e-01, 1.3067284816e00, 2.7568153900e00, 1.4234372777e00)
_PPND7_D = (1.2021132975e-01, 7.3700164250e-01, 1.0)


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """float32 Normal(0, INIT_STD) truncated to +/- 2 INIT_STD, by inverse CDF.

    Each weight is INIT_STD * PPND7(p) of one float32 uniform u, drawn in flat
    order, with p = Phi(-2) + u (1 - 2 Phi(-2)): the generator advances exactly
    as by rng.random(size, dtype=np.float32), and nothing is redrawn. The
    arithmetic is float32, one slice at a time; it is within 3e-8 * INIT_STD /
    0.02 of the float64 quantile of the same p. Only the tail form can round
    past the bound, so only it is clamped to float32(2 INIT_STD)."""
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    a = tuple(k * INIT_STD for k in _PPND7_A)  # INIT_STD read per call, not frozen at import
    c = tuple(k * INIT_STD for k in _PPND7_C)
    bound = np.float32(2.0 * INIT_STD)
    n = max(1, min(flat.size, TRUNC_NORMAL_BLOCK))
    buf_q, buf_r, buf_d = (np.empty(n, np.float32) for _ in range(3))
    for start in range(0, flat.size, n):
        w = flat[start : start + n]
        q, r, d = buf_q[: w.size], buf_r[: w.size], buf_d[: w.size]
        rng.random(out=q, dtype=np.float32)
        q -= 0.5  # q = p - 1/2 = (u - 1/2)(1 - 2 Phi(-2)), in place
        q *= _TRUNC_MASS
        np.multiply(q, q, out=r)
        np.subtract(0.180625, r, out=r)
        T._horner(r, a, out=w)
        T._horner(r, _PPND7_B, out=d)
        w *= q
        w /= d
        tail = np.flatnonzero(r < 0)  # |q| > 0.425: about 11% of weights
        if tail.size:
            qt = q[tail]
            t = np.sqrt(-np.log(0.5 - np.abs(qt))) - 1.6
            num, den = np.empty_like(t), np.empty_like(t)
            T._horner(t, c, out=num)
            T._horner(t, _PPND7_D, out=den)
            num /= den
            np.copysign(num, qt, out=num)
            w[tail] = np.clip(num, -bound, bound, out=num)
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


def load_model_weights(model: Model, tensors: Mapping[str, np.ndarray]) -> None:
    """Fill a built model's arrays in place from a name -> array mapping.

    Every name is checked, then `weights.load_checked` copies the tensors
    in, after every one has been looked up in model order and its shape and,
    for a running variance, its sign checked: a mismatch, a negative running
    variance or a value the mapping rejects on lookup (a `TensorFile`'s
    non-finite check) leaves the model as it was. Of several faults, the
    one reported is that of the first failing tensor in model order.
    """
    own = model_tensors(model)
    missing = sorted(set(own) - set(tensors))
    extra = sorted(set(tensors) - set(own))
    if missing or extra:
        raise ConfigError(
            f"weight mismatch: missing {missing[:3]}{'...' if len(missing) > 3 else ''}, "
            f"unexpected {extra[:3]}{'...' if len(extra) > 3 else ''}"
        )

    def check(name: str, value: np.ndarray) -> None:
        if name.endswith(".running_var") and (value < 0).any():
            i = int(np.argmax(value.reshape(-1) < 0))
            raise InvalidInputError(
                f"weight '{name}': running variance {value.flat[i]} at flat index {i} is negative"
            )

    load_checked(tensors, own, check)


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
