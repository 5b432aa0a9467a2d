"""Hire module: height branch + width branch + channel FC, summed.

Each spatial branch runs
    cross_rearrange -> partition_pad -> inner_rearrange -> bottleneck MLP
    -> inner_restore -> crop -> cross_restore
so its output shape always equals its input shape, divisible extent or
not. Shift then pad runs as one gather, and crop then restore as another,
composed from the rearrange index maps. The channel branch is a single
FC. Every module has all three branches, and every MLP activation is
GELU. A branch without a shift (the unshifted blocks, and every block
after `network.disable_cross`) skips both cross steps; that is the only
structural variant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, InvalidInputError
from .rearrange import (
    AXIS_INDEX,
    RegionSpec,
    ShiftSpec,
    crop_pad,
    cross_index,
    cross_restore_index,
    inner_rearrange,
    inner_restore,
    pad_axis,
    pad_index,
    padded_extent,
)


@dataclass
class BottleneckMlpParams:
    """FC stack applied to rearranged regions; in/out dims must both equal region_size*C."""

    layers: list[T.LinearParams]
    norm: T.NormParams | None = None  # applied after the first projection; None with one layer

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("BottleneckMlpParams: needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ConfigError(
                    f"BottleneckMlpParams: chained dims mismatch "
                    f"({a.out_dim} -> {b.in_dim})"
                )
        if self.layers[0].in_dim != self.layers[-1].out_dim:
            raise ConfigError(
                "BottleneckMlpParams: first in_dim must equal last out_dim "
                f"({self.layers[0].in_dim} vs {self.layers[-1].out_dim})"
            )
        if self.norm is not None:
            if len(self.layers) == 1:
                raise ConfigError(
                    "BottleneckMlpParams: a one-layer stack has no hidden layer, so it takes no norm"
                )
            if self.norm.channels != self.layers[0].out_dim:
                raise ConfigError(
                    f"BottleneckMlpParams: norm channels {self.norm.channels} "
                    f"do not match first hidden dim {self.layers[0].out_dim}"
                )


def bottleneck_mlp(v: T.ArrayLike, p: BottleneckMlpParams) -> T.ArrayLike:
    """linear -> [norm] -> GELU -> ... -> linear on the last axis.

    Rebinding v drops each map after its last read, the input included when
    the caller passed it as a temporary; the GELU overwrites the fresh map
    it is given (a float32 one; see tensor.gelu)."""
    n = len(p.layers)
    for i, layer in enumerate(p.layers):
        v = T.apply_linear(v, layer)
        if i < n - 1:
            if i == 0 and p.norm is not None:
                v = T.apply_norm(v, p.norm)
            v = T.gelu(v, overwrite=True)
    return v


@dataclass
class HireBranchConfig:
    """One spatial branch: region partition, optional cross-shift, bottleneck MLP."""

    region: RegionSpec
    mlp: BottleneckMlpParams
    shift: ShiftSpec | None = None  # absent on unshifted blocks

    @property
    def axis(self) -> str:
        return self.region.axis


@functools.lru_cache(maxsize=256)
def _branch_gathers(
    extent: int, region: RegionSpec, shift: ShiftSpec | None
) -> tuple[T.IndexMap | None, int, T.IndexMap | None]:
    """(gather in, padded extent, gather out) of a branch along an axis of `extent`.

    Gather in is the shift composed with a non-zero padding: position i of
    the padded axis reads x[shift[pad[i]]]; it is None with neither. Gather
    out reads the restored tokens straight from the padded axis, so it
    crops as it restores; it is None without a shift, and the branch then
    only crops. The maps are cached, so they are read-only IndexMaps,
    checked against the extent each one reads once, here.
    """
    padded = padded_extent(extent, region.region_size)
    gather_in = None if shift is None else cross_index(extent, shift, region.region_size)
    if padded > extent and region.padding_mode != "zero":
        pad = pad_index(extent, 0, padded - extent, region.padding_mode)
        gather_in = pad if gather_in is None else gather_in[pad]
    gather_out = None if shift is None else cross_restore_index(extent, shift, region.region_size)
    return _index_map(gather_in, extent), padded, _index_map(gather_out, padded)


def _index_map(idx: np.ndarray | None, extent: int) -> T.IndexMap | None:
    return None if idx is None else T.IndexMap.frozen(idx, extent)


def hire_branch(x: T.ArrayLike, cfg: HireBranchConfig) -> T.ArrayLike:
    """Apply one spatial branch; output shape equals input shape exactly."""
    ax = AXIS_INDEX[cfg.axis]
    xv = T._value(x)
    if xv.size == 0:
        raise InvalidInputError("hire_branch: empty input")
    extent = xv.shape[ax]
    gather_in, padded, gather_out = _branch_gathers(extent, cfg.region, cfg.shift)
    if gather_in is not None:
        x = T.take(x, gather_in, ax)
    if cfg.region.padding_mode == "zero":
        x = pad_axis(x, ax, 0, padded - extent, "zero")
    y = bottleneck_mlp(inner_rearrange(x, cfg.region), cfg.mlp)
    y = inner_restore(y, cfg.region)
    if gather_out is not None:
        return T.take(y, gather_out, ax)
    return crop_pad(y, cfg.axis, extent)


@dataclass
class HireModuleParams:
    """The three branches whose outputs the module sums."""

    height: HireBranchConfig
    width: HireBranchConfig
    channel: T.LinearParams

    def __post_init__(self):
        if self.height.axis != "height":
            raise ConfigError("HireModuleParams: height branch must act on the height axis")
        if self.width.axis != "width":
            raise ConfigError("HireModuleParams: width branch must act on the width axis")
        if self.channel.in_dim != self.channel.out_dim:
            raise ConfigError(
                f"HireModuleParams: channel FC must be square, got "
                f"{self.channel.in_dim}x{self.channel.out_dim}"
            )


def eager_map(x: T.ArrayLike) -> bool:
    """Whether x is a non-empty eager NHWC ndarray, whose sums the module
    and the block write in place, in row tiles (a tape has no slice op)."""
    return type(x) is np.ndarray and x.ndim == 4 and x.size > 0


def per_token(norm: T.NormParams | None) -> bool:
    """Whether `norm` (None: no norm) acts on each token alone, so that a map
    it reads can be cut into tiles."""
    return norm is None or norm.mode == "running"


def row_tiles(
    m: int, layers: list[T.LinearParams], norm: T.NormParams | None = None, count: int | None = None, rows: int = 1
) -> list[slice]:
    """Tiles of m units, each unit `rows` rows of the products by `layers`
    read through `norm`: `T.row_blocks(m, count)` where the norm acts per
    token and every tile's products keep the kernel of the whole ones
    (`T.keeps_kernel`), so that the tiles are bitwise the whole map; else
    one tile."""
    tiles = T.row_blocks(m, count)
    fewest = m // len(tiles) * rows
    if len(tiles) == 1 or per_token(norm) and all(T.keeps_kernel(fewest, layer.weight) for layer in layers):
        return tiles
    return [slice(0, m)]


def hire_module(x: T.ArrayLike, p: HireModuleParams) -> T.ArrayLike:
    """Sum of the branch outputs: (width + height) + channel.

    A taped input gets each sum as a fresh array. An `eager_map` of m tokens
    gets one output map, whose sums go in place. At most 1,024 tokens, one
    `linear` row block, it is the width branch's fresh result. A larger map
    takes the height branch's fresh result, and the width branch is added
    into it in k = ceil(m / 1024) row tiles along (N, H), whose rows it
    mixes in no way, and the channel FC in the `row_tiles` of the m tokens.
    So no whole-map width or channel result exists. Each element is still
    (width + height) + channel, and one IEEE addition commutes, so the sums
    are bitwise the fresh ones."""
    if not eager_map(x):
        spatial = T.add(hire_branch(x, p.width), hire_branch(x, p.height))
        return T.add(spatial, T.apply_linear(x, p.channel))
    n, h, w, c = x.shape
    k = len(T.row_blocks(n * h * w))
    if k == 1:
        out = hire_branch(x, p.width)
        out += hire_branch(x, p.height)
        out += T.apply_linear(x, p.channel)
        return out
    region = p.width.region
    _branch_gathers(w, region, p.width.shift)  # the width branch rejects an input first, as above
    out = hire_branch(x, p.height)  # fresh and C-contiguous, so its reshapes below are views
    rows, out_rows = x.reshape(1, n * h, w, c), out.reshape(1, n * h, w, c)
    regions = padded_extent(w, region.region_size) // region.region_size  # product rows per row of the map
    for t in row_tiles(n * h, p.width.mlp.layers, p.width.mlp.norm, k, regions):
        out_rows[:, t] += hire_branch(rows[:, t], p.width)
    tokens, out_tokens = x.reshape(-1, c), out.reshape(-1, c)
    for t in row_tiles(n * h * w, [p.channel]):
        out_tokens[t] += T.apply_linear(tokens[t], p.channel)
    return out


def bottleneck_widths(region_size: int, channels: int, n_layers: int) -> list[int]:
    """Hidden widths of the n-layer bottleneck variants.

    1 layer: direct region_size*C -> region_size*C. 2 layers: one C/2
    bottleneck. Deeper stacks keep the C/2 entry and continue at 3C/8,
    which lands the 3/4-layer budgets on the published totals and keeps
    the 2-layer variant strictly larger than the 3-layer one.
    """
    if n_layers < 1:
        raise ConfigError(f"bottleneck_widths: need >= 1 layer, got {n_layers}")
    if n_layers == 1:
        return []
    widths = [max(1, channels // 2)]
    widths += [max(1, (3 * channels) // 8)] * (n_layers - 2)
    return widths
