"""Token rearrangement as pure, invertible index transforms.

Two levels operate on NHWC feature maps along a chosen spatial axis:

* inner-region: split the axis into contiguous regions of `region_size`
  tokens and concatenate each region's tokens along the channel axis
  (one FC can then mix them); `inner_restore` is the exact inverse.
* cross-region: move every token by a circular step (`shifted` manner,
  order-preserving) or transpose the (regions x offset) factorization of
  the axis (`shuffle` manner); the restore applies the exact inverse. A
  step is taken modulo the axis extent, so any step suits any extent.

`partition_pad` extends the axis to the next multiple of the region size
so inner-region rearrangement always sees a divisible extent; `crop_pad`
undoes it. `pad_axis`, shared with the patch embeddings, is the one
padding routine. Padding by nothing returns the input itself, and so does
`crop_pad` when nothing was padded, which is safe because no op mutates
its inputs. The width-axis inner rearrangement and restore are reshape
views; every other transform is an index-mapped copy. All of them record
on a tape when handed Vars.

The gathers are built by `pad_index`, `cross_index` and
`cross_restore_index`, so a caller can compose them: `hire.hire_branch`
runs shift then pad as one gather, and crop then restore as another.
The primitives here stay the step-by-step reference those gathers are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, InvalidInputError, ShapeError

AXIS_INDEX = {"height": 1, "width": 2}
PADDING_MODES = ("zero", "circular", "reflect", "replicate")
_NP_PAD_MODE = {"circular": "wrap", "reflect": "reflect", "replicate": "edge"}


@dataclass(frozen=True)
class RegionSpec:
    """Region partition along one spatial axis."""

    axis: str  # "height" | "width"
    region_size: int
    padding_mode: str = "circular"

    def __post_init__(self):
        if self.axis not in AXIS_INDEX:
            raise ConfigError(f"RegionSpec: axis must be height|width, got '{self.axis}'")
        if self.region_size < 1:
            raise ConfigError(f"RegionSpec: region_size must be >= 1, got {self.region_size}")
        if self.padding_mode not in PADDING_MODES:
            raise ConfigError(f"RegionSpec: unknown padding mode '{self.padding_mode}'")


@dataclass(frozen=True)
class ShiftSpec:
    """Cross-region communication: circular step, or group-transpose shuffle."""

    step: int
    manner: str = "shifted"  # "shifted" | "shuffle"

    def __post_init__(self):
        if self.step < 0:
            raise ConfigError(f"ShiftSpec: step must be nonnegative, got {self.step}")
        if self.manner not in ("shifted", "shuffle"):
            raise ConfigError(f"ShiftSpec: unknown manner '{self.manner}'")


def padded_extent(extent: int, region_size: int) -> int:
    """Least multiple of region_size that is >= extent."""
    return -(-extent // region_size) * region_size


def pad_index(extent: int, before: int, after: int, mode: str) -> np.ndarray:
    """Source position of every token of an axis padded in a non-zero mode.

    circular wraps from the opposite edge, reflect mirrors without repeating
    the edge, replicate repeats the edge.
    """
    if mode == "reflect" and extent == 1 and before + after:
        raise InvalidInputError("reflect padding undefined for extent 1")
    return np.pad(np.arange(extent), (before, after), mode=_NP_PAD_MODE[mode])


def pad_axis(x: T.ArrayLike, axis: int, before: int, after: int, mode: str) -> T.ArrayLike:
    """Pad x along axis with `before` and `after` new tokens in a padding mode
    (see pad_index; zero fills zeros). Returns x itself when nothing is added.
    """
    if before == 0 and after == 0:
        return x
    if mode == "zero":
        return T.pad_zero(x, axis, before, after)
    return T.take(x, pad_index(T._value(x).shape[axis], before, after, mode), axis)


def partition_pad(x: T.ArrayLike, spec: RegionSpec) -> T.ArrayLike:
    """Pad x at the end of spec.axis up to a multiple of the region size,
    in spec.padding_mode (see pad_axis)."""
    xv = T._value(x)
    if xv.size == 0:
        raise InvalidInputError("partition_pad: empty input")
    axis = AXIS_INDEX[spec.axis]
    extent = xv.shape[axis]
    return pad_axis(x, axis, 0, padded_extent(extent, spec.region_size) - extent, spec.padding_mode)


def crop_pad(x: T.ArrayLike, axis: str, extent: int) -> T.ArrayLike:
    """Crop the padded `axis` back to its first `extent` tokens; returns x
    itself when it has exactly that many, and T.crop's ShapeError when it
    has fewer."""
    ax = AXIS_INDEX[axis]
    if T._value(x).shape[ax] == extent:
        return x
    return T.crop(x, ax, 0, extent)


def inner_rearrange(x: T.ArrayLike, spec: RegionSpec) -> T.ArrayLike:
    """Concatenate each region's tokens along the channel axis.

    Height axis: [N, H, W, C] -> [N, H/h, W, h*C] with
    out[n, r, w, j*C + c] = x[n, r*h + j, w, c]. Width axis is symmetric.
    """
    xv = T._value(x)
    if xv.ndim != 4:
        raise ShapeError(f"inner_rearrange: expected rank-4 input, got {xv.shape}")
    n, h, w, c = xv.shape
    m = spec.region_size
    axis = AXIS_INDEX[spec.axis]
    extent = xv.shape[axis]
    if extent % m != 0:
        raise InvalidInputError(
            f"inner_rearrange: {spec.axis} extent {extent} not divisible by region size {m}"
        )
    g = extent // m
    if spec.axis == "height":
        y = T.reshape(x, (n, g, m, w, c))
        y = T.transpose(y, (0, 1, 3, 2, 4))  # [N, g, W, m, C]
        return T.reshape(y, (n, g, w, m * c))
    # width: the (m, C) axes are already adjacent in memory order
    y = T.reshape(x, (n, h, g, m, c))
    return T.reshape(y, (n, h, g, m * c))


def inner_restore(y: T.ArrayLike, spec: RegionSpec) -> T.ArrayLike:
    """Exact inverse permutation of inner_rearrange."""
    yv = T._value(y)
    if yv.ndim != 4:
        raise ShapeError(f"inner_restore: expected rank-4 input, got {yv.shape}")
    m = spec.region_size
    n, d1, d2, mc = yv.shape
    if mc % m != 0:
        raise ShapeError(
            f"inner_restore: channel dim {mc} not divisible by region size {m}"
        )
    c = mc // m
    if spec.axis == "height":
        z = T.reshape(y, (n, d1, d2, m, c))
        z = T.transpose(z, (0, 1, 3, 2, 4))  # [N, g, m, W, C]
        return T.reshape(z, (n, d1 * m, d2, c))
    z = T.reshape(y, (n, d1, d2, m, c))
    return T.reshape(z, (n, d1, d2 * m, c))


def cross_index(extent: int, shift: ShiftSpec, region_size: int | None = None) -> np.ndarray:
    """Source position of every token after cross_rearrange along an axis of `extent`.

    A shifted manner's step is taken modulo extent (a full cycle is the
    identity); the shuffle manner needs a region size that divides extent.
    """
    if shift.manner == "shifted":
        if extent < 1:
            raise InvalidInputError("cross_rearrange: cannot shift an empty axis")
        # token i moves to (i + step) mod extent, so position i reads i - step
        return (np.arange(extent) - shift.step % extent) % extent
    if region_size is None:
        raise ConfigError("cross_rearrange: shuffle manner needs a region size")
    if extent % region_size != 0:
        raise InvalidInputError(
            f"cross_rearrange: extent {extent} not divisible by region size "
            f"{region_size} (shuffle manner)"
        )
    return np.arange(extent).reshape(extent // region_size, region_size).T.ravel()


def cross_restore_index(extent: int, shift: ShiftSpec, region_size: int | None = None) -> np.ndarray:
    """Source position of every token after cross_restore: the inverse permutation of cross_index."""
    idx = cross_index(extent, shift, region_size)
    inverse = np.empty_like(idx)
    inverse[idx] = np.arange(extent)
    return inverse


def cross_rearrange(
    x: T.ArrayLike, axis: str, shift: ShiftSpec, region_size: int | None = None
) -> T.ArrayLike:
    """Move tokens between regions along an axis.

    shifted: circular shift by `step` (token i -> i + step mod extent, for
    any step), preserving relative cyclic order. shuffle: re-read the
    (regions x offset) factorization transposed, interleaving regions.
    """
    ax = AXIS_INDEX[axis]
    return T.take(x, cross_index(T._value(x).shape[ax], shift, region_size), ax)


def cross_restore(
    x: T.ArrayLike, axis: str, shift: ShiftSpec, region_size: int | None = None
) -> T.ArrayLike:
    """Exact inverse of cross_rearrange."""
    ax = AXIS_INDEX[axis]
    return T.take(x, cross_restore_index(T._value(x).shape[ax], shift, region_size), ax)
