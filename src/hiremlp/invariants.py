"""Registered invariant suites, runnable from the CLI and reused by tests.

Each check draws `seeds` randomized cases from a seeded generator and
returns (passed, detail). Scopes mirror the module layout: tensor,
rearrange, hire, network, accounting.

Each claim of the paper has one per-case function here, which the checks,
the CLI and the acceptance suite call: `roundtrip_failure`,
`cyclic_order_failure`, `pad_crop_failure`, `budget_checks` and
`fc_sweep_ordered`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .accounting import count_config, hire_module_closed_form
from .errors import ConfigError, InvalidInputError
from .hire import (
    BottleneckMlpParams,
    HireBranchConfig,
    HireModuleParams,
    bottleneck_mlp,
    hire_branch,
    hire_module,
)
from .network import (
    BlockParams,
    Model,
    ModelConfig,
    PatchEmbedSpec,
    StageConfig,
    assemble_model,
    build_model,
    cast_model,
    channel_mlp,
    forward,
    forward_features,
    hire_block,
    patch_embed,
    set_norm_mode,
)
from .rearrange import (
    AXIS_INDEX,
    MANNERS,
    PADDING_MODES,
    RegionSpec,
    ShiftSpec,
    cross_rearrange,
    cross_restore,
    crop_pad,
    inner_rearrange,
    inner_restore,
    padded_extent,
    partition_pad,
)
from .variants import BUDGET_TOLERANCE, micro_config, tiny_config


@dataclass
class CheckResult:
    scope: str
    name: str
    passed: bool
    detail: str


def _rand_map(rng, n=None, h=None, w=None, c=None, dtype=np.float32):
    n = n or int(rng.integers(1, 3))
    h = h or int(rng.integers(1, 13))
    w = w or int(rng.integers(1, 13))
    c = c or int(rng.integers(1, 7))
    return rng.standard_normal((n, h, w, c)).astype(dtype)


# ---------------------------------------------------------------------------
# rearrange scope
# ---------------------------------------------------------------------------


def roundtrip_failure(x: np.ndarray, rearrange: Callable, restore: Callable) -> str | None:
    """Bijection claim on one case: rearrange only moves x's elements (it keeps
    their multiset) and restore(rearrange(x)) == x bitwise. None when both
    hold, else what failed."""
    y = np.asarray(rearrange(x))
    if not np.array_equal(np.sort(y, axis=None), np.sort(np.asarray(x), axis=None)):
        return "rearrangement changed the element multiset"
    if not np.array_equal(restore(y), x):
        return "restore o rearrange is not the identity"
    return None


def inner_roundtrip_failure(x: np.ndarray, spec: RegionSpec) -> str | None:
    """The bijection claim for the inner-region level, padding included: the
    pad/crop claim on x, then roundtrip_failure on the padded map."""
    return pad_crop_failure(x, spec) or roundtrip_failure(
        partition_pad(x, spec), lambda v: inner_rearrange(v, spec), lambda v: inner_restore(v, spec)
    )


def cross_roundtrip_failure(x: np.ndarray, axis: str, shift: ShiftSpec, region_size: int) -> str | None:
    """The bijection claim for the cross-region level (roundtrip_failure); the
    shifted manner ignores region_size."""
    return roundtrip_failure(
        x, lambda v: cross_rearrange(v, axis, shift, region_size), lambda v: cross_restore(v, axis, shift, region_size)
    )


def padding_defined(extent: int, region_size: int, mode: str) -> bool:
    """False only where partition_pad must reject the input: reflect padding
    of a one-token axis that needs padding."""
    return not (mode == "reflect" and extent == 1 and extent % region_size)


def pad_crop_failure(x: np.ndarray, spec: RegionSpec) -> str | None:
    """Pad/crop claim on one case: partition_pad extends spec.axis to the next
    multiple of the region size and crop_pad takes it back to x bitwise.
    Where padding is undefined (padding_defined), partition_pad must raise
    InvalidInputError instead. None when that holds, else what failed."""
    ax, mode = AXIS_INDEX[spec.axis], spec.padding_mode
    extent = x.shape[ax]
    if not padding_defined(extent, spec.region_size, mode):
        try:
            partition_pad(x, spec)
        except InvalidInputError:
            return None
        return f"{mode} padding of a one-token axis was not rejected"
    xp = partition_pad(x, spec)
    if np.asarray(xp).shape[ax] != padded_extent(extent, spec.region_size):
        return f"padded extent mismatch ({mode})"
    if not np.array_equal(crop_pad(xp, spec.axis, extent), x):
        return f"pad/crop not identity ({mode})"
    return None


def check_inner_roundtrip(seeds: int, rng) -> tuple[bool, str]:
    """restore(rearrange(x)) == x bitwise, with padding handled outside."""
    for _ in range(seeds):
        x = _rand_map(rng)
        axis = rng.choice(["height", "width"])
        m = int(rng.integers(1, 6))
        mode = rng.choice(PADDING_MODES)
        if not padding_defined(x.shape[AXIS_INDEX[axis]], m, mode):
            mode = "circular"
        failure = inner_roundtrip_failure(x, RegionSpec(axis, m, mode))
        if failure:
            return False, f"{failure} (axis={axis} m={m} mode={mode})"
    return True, f"{seeds} draws"


def check_cross_roundtrip(seeds: int, rng) -> tuple[bool, str]:
    """cross_restore(cross_rearrange(x)) == x bitwise for both manners."""
    for _ in range(seeds):
        x = _rand_map(rng)
        axis = rng.choice(["height", "width"])
        extent = x.shape[AXIS_INDEX[axis]]
        s = int(rng.integers(0, extent))
        m = int(rng.choice([d for d in range(1, extent + 1) if extent % d == 0]))
        for shift in (ShiftSpec(s, "shifted"), ShiftSpec(0, "shuffle")):
            failure = cross_roundtrip_failure(x, axis, shift, m)
            if failure:
                return False, f"{failure} ({shift}, m={m}, extent={extent})"
    return True, f"{seeds} draws"


def check_shift_group_law(seeds: int, rng) -> tuple[bool, str]:
    """shift(s1) o shift(s2) == shift((s1+s2) mod extent)."""
    for _ in range(seeds):
        x = _rand_map(rng)
        axis = rng.choice(["height", "width"])
        extent = x.shape[1 if axis == "height" else 2]
        s1, s2 = int(rng.integers(0, extent)), int(rng.integers(0, extent))
        lhs = cross_rearrange(
            cross_rearrange(x, axis, ShiftSpec(s2)), axis, ShiftSpec(s1)
        )
        rhs = cross_rearrange(x, axis, ShiftSpec((s1 + s2) % extent))
        if not np.array_equal(lhs, rhs):
            return False, f"group law failed (s1={s1}, s2={s2}, extent={extent})"
    return True, f"{seeds} draws"


def preserves_cyclic_order(perm: np.ndarray) -> bool:
    """successor(i) must land on successor(image(i)) modulo the extent."""
    return np.array_equal(np.roll(perm, -1), (perm + 1) % len(perm))


def manner_permutations(extent: int, region_size: int, step: int) -> dict[str, np.ndarray]:
    """The image of each token of an axis of `extent` tokens in regions of
    region_size, read off cross_rearrange for each manner: shifted by
    `step`, and shuffle."""
    tokens = np.arange(extent, dtype=np.float64).reshape(1, extent, 1, 1)
    perms = {}
    for manner, s in (("shifted", step), ("shuffle", 0)):
        moved = np.asarray(cross_rearrange(tokens, "height", ShiftSpec(s, manner), region_size))
        perms[manner] = np.empty(extent, dtype=int)
        perms[manner][moved.reshape(extent).astype(int)] = np.arange(extent)
    return perms


def cyclic_order_failure(perms: dict[str, np.ndarray]) -> str | None:
    """Cyclic-order claim on one case of manner_permutations: the shifted
    manner keeps cyclic token order and the shuffle manner breaks it (given
    two or more regions of two or more tokens). None if so, else what failed."""
    if not preserves_cyclic_order(perms["shifted"]):
        return "shifted manner broke cyclic order"
    if preserves_cyclic_order(perms["shuffle"]):
        return "shuffle manner preserved cyclic order"
    return None


def check_order_preservation(seeds: int, rng) -> tuple[bool, str]:
    """Shifted manner preserves cyclic token order; shuffle breaks it."""
    for _ in range(seeds):
        m = int(rng.integers(2, 5))
        g = int(rng.integers(2, 5))
        s = int(rng.integers(0, g * m))
        failure = cyclic_order_failure(manner_permutations(g * m, m, s))
        if failure:
            return False, f"{failure} (g={g}, m={m}, s={s})"
    return True, f"{seeds} draws (g,h > 1)"


def check_pad_crop_identity(seeds: int, rng) -> tuple[bool, str]:
    """crop(partition_pad(x)) == x for every padding mode."""
    for _ in range(seeds):
        x = _rand_map(rng)
        axis = rng.choice(["height", "width"])
        m = int(rng.integers(1, 6))
        for mode in PADDING_MODES:
            failure = pad_crop_failure(x, RegionSpec(axis, m, mode))
            if failure:
                return False, f"{failure} (axis={axis} m={m} extent={x.shape[AXIS_INDEX[axis]]})"
    return True, f"{seeds} draws x 4 modes"


# ---------------------------------------------------------------------------
# tensor scope
# ---------------------------------------------------------------------------


def check_linear_linearity(seeds: int, rng) -> tuple[bool, str]:
    """linear(ax + by) == a linear_nobias(x) + b linear_nobias(y) + bias."""
    for _ in range(seeds):
        k, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        w = rng.standard_normal((k, m))
        b = rng.standard_normal(m)
        x, y = rng.standard_normal((5, k)), rng.standard_normal((5, k))
        a1, a2 = rng.standard_normal(2)
        lhs = T.linear(a1 * x + a2 * y, w, b)
        rhs = a1 * T.linear(x, w) + a2 * T.linear(y, w) + b
        if not np.allclose(lhs, rhs, rtol=1e-6, atol=1e-9):
            return False, "linearity violated"
    return True, f"{seeds} draws"


def check_batch_norm_statistics(seeds: int, rng) -> tuple[bool, str]:
    """Batch mode with identity affine leaves per-channel mean ~0, var ~1."""
    for _ in range(seeds):
        x = _rand_map(rng, n=2, h=4, w=4, c=3, dtype=np.float64)
        p = T.identity_norm(3, dtype=np.float64, mode="batch")
        y = np.asarray(T.apply_norm(x, p))
        mean = y.mean(axis=(0, 1, 2))
        var = y.var(axis=(0, 1, 2))
        if np.abs(mean).max() >= 1e-5:
            return False, f"channel mean {np.abs(mean).max():.2e}"
        if not np.all((var > 1 - 1e-3) & (var < 1 + 1e-3)):
            return False, f"channel variance off: {var}"
    return True, f"{seeds} draws"


def check_gelu_float32(seeds: int, rng) -> tuple[bool, str]:
    """The float32 logistic-form GELU stays within 2e-6 of the float64 libm-erf GELU."""
    worst = 0.0
    for _ in range(seeds):
        x = _rand_map(rng) * 4  # tails past |x| = 6, where the logistic saturates
        fast = T.gelu(x)
        if fast.dtype != np.float32:
            return False, f"float32 input gave {fast.dtype}"
        worst = max(worst, float(np.abs(fast - T.gelu(x.astype(np.float64))).max()))
        if worst > 2e-6:
            return False, f"max abs err {worst:.2e}"
    return True, f"max abs err {worst:.2e}"


def op_grad_cases(rng) -> list[tuple[str, np.ndarray, Callable]]:
    """(name, leaf array, forward fn) per primitive op; non-leaf operands are
    captured as constants so each case differentiates one input at a time."""
    n, h, w, c = 2, int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(1, 7))
    x4 = rng.standard_normal((n, h, w, c))
    wt = rng.standard_normal((c, 5))
    b = rng.standard_normal(5)
    gamma = rng.standard_normal(c) + 1.5
    beta = rng.standard_normal(c)
    idx = T.IndexMap.frozen(rng.integers(0, h, size=h + 2), h)
    other = rng.standard_normal(x4.shape)
    # keep relu inputs away from the kink, where central differences are one-sided
    x_relu = np.where(np.abs(x4) < 0.05, x4 + 0.5, x4)
    return [
        ("linear/x", x4, lambda v: T.linear(v, wt, b)),
        ("linear/weight", wt, lambda v: T.linear(x4, v, b)),
        ("linear/bias", b, lambda v: T.linear(x4, wt, v)),
        ("batch_norm/x", x4, lambda v: T.batch_norm(v, gamma, beta, mode="batch")),
        ("batch_norm/gamma", gamma, lambda v: T.batch_norm(x4, v, beta, mode="batch")),
        ("batch_norm/beta", beta, lambda v: T.batch_norm(x4, gamma, v, mode="batch")),
        ("gelu", x4, T.gelu),
        ("relu", x_relu, T.relu),
        ("reshape", x4, lambda v: T.reshape(v, (n, h * w, c))),
        ("transpose", x4, lambda v: T.transpose(v, (0, 2, 1, 3))),
        ("take", x4, lambda v: T.take(v, idx, 1)),
        ("pad_zero", x4, lambda v: T.pad_zero(v, 1, 1, 2)),
        ("crop", x4, lambda v: T.crop(v, 1, 1, h)),
        ("mean_axes", x4, lambda v: T.mean_axes(v, (1, 2))),
        ("add", x4, lambda v: T.add(v, other)),
    ]


# max relative error (see rel_error) every gradient check must stay below
GRAD_TOLERANCE = 1e-4


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error with a unit floor (gradients here are O(1))."""
    denom = np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(b, dtype=np.float64)])
    return float((np.abs(a - b) / denom).max())


def input_grad_error(fn: Callable, x: np.ndarray, *params) -> float:
    """rel_error of the taped d sum(fn(x, *params))/dx against central differences.

    The taped pass binds x and then every array of params as tape leaves;
    the finite differences perturb a copy of x through eager calls.
    """
    tape = T.Tape()
    xv = tape.leaf(x)
    grads = T.backward(tape, T.sum_all(fn(xv, *T.bind_tree(params, tape))))
    fd = T.finite_difference_grad(lambda a: float(np.asarray(T.sum_all(fn(a, *params)))), x.copy())
    return rel_error(grads.wrt(xv), fd)


def check_backward_vs_fd(seeds: int, rng) -> tuple[bool, str]:
    """Every registered op's adjoint agrees with central differences (64-bit)."""
    worst = 0.0
    rounds = max(1, seeds // 15)
    for _ in range(rounds):
        for name, leaf, fn in op_grad_cases(rng):
            err = input_grad_error(fn, leaf)
            worst = max(worst, err)
            if err >= GRAD_TOLERANCE:
                return False, f"op {name}: max rel err {err:.2e}"
    return True, f"max rel err {worst:.2e}"


def block_gradcheck(seed: int = 0) -> dict[str, float]:
    """input_grad_error of the stage-3 micro block and of its two
    residual-free sub-units, `hire_module`(norm1) and `channel_mlp`(norm2).

    The block is float64 with batch-statistics norms and unit-gain weights
    (N(0, 1) / sqrt(fan_in)), so every branch adjoint is O(1) and a 0.1%
    error in one of them lands above GRAD_TOLERANCE; the residual's unit
    gradient would swamp it in the whole block alone. The 1x5x5x16 input
    (x ~ N(0, 1) seeded by `seed`) pads every 2x2-region branch.
    """
    w = np.random.default_rng(2)
    model = assemble_model(micro_config(), lambda shape: w.standard_normal(shape) / np.sqrt(shape[0]))
    block = set_norm_mode(cast_model(model, np.float64), "batch").stages[2].blocks[0]
    x0 = np.random.default_rng(seed).standard_normal((1, 5, 5, 16))
    units = {
        "block": hire_block,
        "hire": lambda x, p: hire_module(T.apply_norm(x, p.norm1), p.hire),
        "channel_mlp": lambda x, p: channel_mlp(T.apply_norm(x, p.norm2), p.channel_mlp),
    }
    return {name: input_grad_error(fn, x0, block) for name, fn in units.items()}


def model_gradcheck(seed: int = 0, coords: int = 100) -> dict[str, float]:
    """Full micro-model reverse mode vs central differences at 64-bit.

    Samples `coords` coordinates uniformly across the input and every
    parameter leaf; returns the max relative error per group ("input",
    "params") that a sample landed in. Passing means every value is below
    GRAD_TOLERANCE.
    """
    rng = np.random.default_rng([seed, 1])  # a stream apart from the weights'
    model = set_norm_mode(cast_model(build_model(micro_config(), seed=seed), np.float64), "batch")
    x0 = rng.standard_normal((1, 32, 32, 3))

    tape = T.Tape()
    xv = tape.leaf(x0)
    taped = T.bind_tree(model, tape)
    # the input, then one leaf per parameter array; each aliases the eager
    # array, so finite differences can perturb it in place
    leaves = [T.Var(tape, i) for i in range(len(tape.nodes))]
    grads = T.backward(tape, T.sum_all(forward(taped, xv)))

    sizes = np.array([v.value.size for v in leaves])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(coords, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def loss(_):
        return float(np.asarray(T.sum_all(forward(model, x0))))

    ad: dict[str, list[float]] = {}
    fd: dict[str, list[float]] = {}
    for pick in picks:
        slot = int(np.searchsorted(offsets, pick, side="right") - 1)
        local = int(pick - offsets[slot])
        group = "input" if slot == 0 else "params"
        ad.setdefault(group, []).append(float(grads.wrt(leaves[slot]).reshape(-1)[local]))
        fd.setdefault(group, []).append(
            T.finite_difference_grad(loss, leaves[slot].value, [local])[0]
        )
    return {g: rel_error(np.array(ad[g]), np.array(fd[g])) for g in ad}


def check_no_mutation(seeds: int, rng) -> tuple[bool, str]:
    """No op mutates its inputs (checksum equality before/after)."""
    for _ in range(seeds):
        x = _rand_map(rng, dtype=np.float64)
        before = x.tobytes()
        w = rng.standard_normal((x.shape[-1], 4))
        wb = w.tobytes()
        T.linear(x, w, np.zeros(4))
        T.gelu(x)
        T.relu(x)
        for mode in ("batch", "running"):
            T.apply_norm(x, T.identity_norm(x.shape[-1], dtype=np.float64, mode=mode))
        T.add(x, x[::-1].copy())
        spec = RegionSpec("height", 2, "circular")
        inner_restore(inner_rearrange(partition_pad(x, spec), spec), spec)
        cross_rearrange(x, "width", ShiftSpec(1 % x.shape[2]))
        if x.tobytes() != before or w.tobytes() != wb:
            return False, "input bytes changed"
    return True, f"{seeds} draws"


def check_finiteness(seeds: int, rng) -> tuple[bool, str]:
    """Finite inputs stay finite through a full micro-model forward."""
    model = build_model(micro_config(), seed=3)
    for i in range(max(1, seeds // 10)):
        x = rng.standard_normal((1, 32 + i, 35, 3)).astype(np.float32) * 10
        out = np.asarray(forward(model, x))
        if not np.isfinite(out).all():
            return False, "non-finite logits"
    return True, "finite logits"


# ---------------------------------------------------------------------------
# hire scope
# ---------------------------------------------------------------------------


def _rand_branch(rng, axis: str, c: int, m: int, shift=None, dtype=np.float64, padding="circular"):
    dims = [m * c, max(1, c // 2), m * c]
    layers = [
        T.LinearParams(
            rng.standard_normal((a, b)).astype(dtype) * 0.1,
            rng.standard_normal(b).astype(dtype) * 0.1,
        )
        for a, b in zip(dims, dims[1:])
    ]
    return HireBranchConfig(
        region=RegionSpec(axis, m, padding),
        mlp=BottleneckMlpParams(layers=layers, norm=None),
        shift=shift,
    )


def check_hire_shape_preservation(seeds: int, rng) -> tuple[bool, str]:
    """hire_module output shape equals input shape for arbitrary extents."""
    for _ in range(seeds):
        c = int(rng.integers(2, 7)) * 2
        x = _rand_map(rng, c=c, dtype=np.float64)
        mh, mw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        sh = ShiftSpec(int(rng.integers(0, x.shape[1])))
        sw = ShiftSpec(int(rng.integers(0, x.shape[2])))
        p = HireModuleParams(
            height=_rand_branch(rng, "height", c, mh, sh),
            width=_rand_branch(rng, "width", c, mw, sw),
            channel=T.LinearParams(np.eye(c), np.zeros(c)),
        )
        y = hire_module(x, p)
        if np.asarray(y).shape != x.shape:
            return False, f"shape {np.asarray(y).shape} != {x.shape}"
    return True, f"{seeds} draws incl. prime extents"


def check_branch_additivity(seeds: int, rng) -> tuple[bool, str]:
    """hire_module equals the sum of independently computed branches."""
    for _ in range(seeds):
        c = 4
        x = _rand_map(rng, c=c, dtype=np.float64)
        hb = _rand_branch(rng, "height", c, 2, ShiftSpec(1 % x.shape[1]))
        wb = _rand_branch(rng, "width", c, 3)
        ch = T.LinearParams(
            rng.standard_normal((c, c)) * 0.1, rng.standard_normal(c) * 0.1
        )
        p = HireModuleParams(height=hb, width=wb, channel=ch)
        combined = np.asarray(hire_module(x, p))
        parts = (
            np.asarray(hire_branch(x, wb))
            + np.asarray(hire_branch(x, hb))
            + np.asarray(T.apply_linear(x, ch))
        )
        if not np.allclose(combined, parts, rtol=1e-6, atol=1e-12):
            return False, "branch sum mismatch"
    return True, f"{seeds} draws"


def check_zero_step_equivalence(seeds: int, rng) -> tuple[bool, str]:
    """shift.step = 0 is bitwise-identical to cross disabled."""
    for _ in range(seeds):
        c = 4
        x = _rand_map(rng, c=c, dtype=np.float32)
        base = _rand_branch(rng, "height", c, 2, None, dtype=np.float32)
        with_zero = dataclasses.replace(base, shift=ShiftSpec(0))
        a = np.asarray(hire_branch(x, with_zero))
        b = np.asarray(hire_branch(x, base))
        if not np.array_equal(a, b):
            return False, "outputs differ bitwise"
    return True, f"{seeds} draws"


def sequential_branch(x: T.ArrayLike, cfg: HireBranchConfig, mlp: Callable = bottleneck_mlp) -> T.ArrayLike:
    """hire_branch as the chain of rearrange primitives, one copy per step:
    the reference for its composed gathers. mlp(v, cfg.mlp) stands in for
    the bottleneck MLP."""
    extent = T._value(x).shape[AXIS_INDEX[cfg.axis]]
    shift, m = cfg.shift, cfg.region.region_size
    if shift is not None:
        x = cross_rearrange(x, cfg.axis, shift, m)
    x = partition_pad(x, cfg.region)
    y = inner_restore(mlp(inner_rearrange(x, cfg.region), cfg.mlp), cfg.region)
    y = crop_pad(y, cfg.axis, extent)
    if shift is not None:
        y = cross_restore(y, cfg.axis, shift, m)
    return y


def _outcome(fn, *args):
    try:
        return np.asarray(fn(*args))
    except InvalidInputError as e:
        return str(e)


def _same(got, want) -> bool:
    """Whether two `_outcome`s are the same message, or arrays of the same
    dtype, shape and bytes."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def check_composed_gathers(seeds: int, rng) -> tuple[bool, str]:
    """hire_branch bitwise-equals sequential_branch: every padding mode and
    manner, divisible and non-divisible extents, shift on and off, float32
    and float64. Where the primitives reject the input, the branch must
    reject it with the same message."""
    cases = 0
    combos = itertools.product(
        PADDING_MODES, MANNERS, (True, False), (True, False), (np.float32, np.float64)
    )
    for mode, manner, divisible, shifted, dtype in list(combos) * max(1, seeds // 10):
        axis = str(rng.choice(["height", "width"]))
        m, c = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        g = int(rng.integers(1, 4)) if divisible else int(rng.integers(0, 3))
        extent = m * g + (0 if divisible else int(rng.integers(1, m)))
        shape = [int(rng.integers(1, 3)), int(rng.integers(1, 6)), int(rng.integers(1, 6)), c]
        shape[AXIS_INDEX[axis]] = extent
        x = rng.standard_normal(shape).astype(dtype)
        shift = None
        if shifted:
            shift = ShiftSpec(int(rng.integers(0, 2 * extent)) if manner == "shifted" else 0, manner)
        cfg = _rand_branch(rng, axis, c, m, shift, dtype, mode)
        got, want = _outcome(hire_branch, x, cfg), _outcome(sequential_branch, x, cfg)
        if not _same(got, want):
            return False, (
                f"{mode}/{manner} extent {extent} m={m} shift={shift} "
                f"{np.dtype(dtype).name}: composed {got!r:.60} != sequential {want!r:.60}"
            )
        cases += 1
    return True, f"{cases} cases, bitwise"


# ---------------------------------------------------------------------------
# network scope
# ---------------------------------------------------------------------------


def sequential_block(x: T.ArrayLike, p: BlockParams) -> T.ArrayLike:
    """hire_block as the plain composition, every norm and sum a fresh
    array, summed (width + height) + channel, + X, then ChannelMLP + Y: the
    reference for its row tiles."""
    h = T.apply_norm(x, p.norm1)
    spatial = T.add(hire_branch(h, p.hire.width), hire_branch(h, p.hire.height))
    y = T.add(T.add(spatial, T.apply_linear(h, p.hire.channel)), x)
    return T.add(channel_mlp(T.apply_norm(y, p.norm2), p.channel_mlp), y)


def tiled_block_failure(model: Model, image: np.ndarray) -> str | None:
    """None when, through a forward of `image`, every block's hire_block
    output bitwise-equals its sequential_block output, or both reject the
    block's input with the same message (which ends the forward); else the
    first block that differs, and how. Each block reads the output of the
    blocks before it."""
    x = image
    for i, stage in enumerate(model.stages):
        x = patch_embed(x, stage.embed)
        for b, block in enumerate(stage.blocks):
            got, want = _outcome(hire_block, x, block), _outcome(sequential_block, x, block)
            if not _same(got, want):
                return f"stage{i + 1}.block{b}: tiled {got!r:.60} != plain {want!r:.60}"
            if isinstance(got, str):
                return None
            x = got
    return None


def check_tiled_blocks(seeds: int, rng) -> tuple[bool, str]:
    """Row-tiled blocks bitwise-equal sequential_block: tiny at 224x224,
    batch 1, and at 200x300, batch 2; micro at 200x300 in every padding mode
    and manner, where the shuffle manner's stage-1 width extent (75) rejects
    the input, and must do so with the plain composition's message; and
    micro at 800x1216, whose products are too thin to tile (see
    `hire.row_tiles`), yet too long for OpenBLAS's small-matrix kernel."""
    tiny = build_model(tiny_config(), seed=0)
    cases = [(f"tiny {n}x{h}x{w}", tiny, (n, h, w)) for n, h, w in ((1, 224, 224), (2, 200, 300))]
    micro = micro_config()
    for mode, manner in itertools.product(PADDING_MODES, MANNERS):
        stages = tuple(dataclasses.replace(st, padding=mode, manner=manner) for st in micro.stages)
        model = build_model(dataclasses.replace(micro, stages=stages), seed=1)
        cases.append((f"micro {mode}/{manner} 1x200x300", model, (1, 200, 300)))
    cases.append(("micro 1x800x1216", build_model(micro, seed=1), (1, 800, 1216)))
    for name, model, shape in cases:
        failure = tiled_block_failure(model, rng.standard_normal(shape + (3,)).astype(np.float32))
        if failure is not None:
            return False, f"{name}: {failure}"
    return True, f"{len(cases)} cases, bitwise"


def check_resolution_flexibility(seeds: int, rng) -> tuple[bool, str]:
    """forward succeeds with fixed-size logits across random resolutions."""
    model = build_model(micro_config(), seed=0)
    n_cases = max(1, min(seeds, 20))
    for _ in range(n_cases):
        h = int(rng.integers(32, 97))
        w = int(rng.integers(32, 97))
        out = np.asarray(forward(model, rng.standard_normal((1, h, w, 3)).astype(np.float32)))
        if out.shape != (1, model.head.out_dim):
            return False, f"logits shape {out.shape} at {h}x{w}"
        if not np.isfinite(out).all():
            return False, f"non-finite logits at {h}x{w}"
    return True, f"{n_cases} resolutions"


def check_residual_identity(seeds: int, rng) -> tuple[bool, str]:
    """Zeroed hire + channel-MLP weights make stages identity up to embeds."""
    model = build_model(micro_config(), seed=0)

    def zero_blocks(obj):
        for name, arr in T.iter_arrays(obj):
            if ".hire." in name or ".channel_mlp." in name:
                arr[...] = 0
        return obj

    for stage in model.stages:
        zero_blocks(stage.blocks)
    x = rng.standard_normal((1, 40, 40, 3)).astype(np.float32)
    feats = forward_features(model, x)
    # recompute with blocks skipped entirely: embed-only pipeline
    from .network import patch_embed

    y = x
    for i, stage in enumerate(model.stages):
        y = patch_embed(y, stage.embed)
        if not np.allclose(np.asarray(feats[i]), np.asarray(y), rtol=1e-5, atol=1e-6):
            return False, f"stage {i + 1} is not an identity over the embed"
    return True, "all stages collapse to patch embeds"


def check_translation_equivariance(seeds: int, rng) -> tuple[bool, str]:
    """A 32-px input roll rolls the all-circular pipeline's stage-4 map by 1 token."""
    # stride 32 turns 32 px into 1 stage-4 token, and every stage's region
    # size divides that stage's token shift, so the region grids realign
    cfg = ModelConfig(
        stages=(
            StageConfig(depth=1, channels=8, h=2, w=2, s=1, padding="circular"),
            StageConfig(depth=1, channels=12, h=2, w=2, s=1, padding="circular"),
            StageConfig(depth=1, channels=16, h=2, w=2, s=1, padding="circular"),
            StageConfig(depth=1, channels=20, h=1, w=1, s=1, padding="circular"),
        ),
        patch_embed=(
            PatchEmbedSpec(7, 4),
            PatchEmbedSpec(3, 2),
            PatchEmbedSpec(3, 2),
            PatchEmbedSpec(3, 2),
        ),
        expansion_ratio=(2, 2, 2, 2),
        num_classes=2,
        shift_phase=0,
    )
    model = build_model(cfg, seed=4)  # running-statistics norms by default
    worst = 0.0
    for _ in range(seeds):
        x = rng.standard_normal((1, 64, 64, 3)).astype(np.float32)
        base = np.asarray(forward_features(model, x)[-1])
        rolled = np.asarray(forward_features(model, np.roll(x, 32, axis=1))[-1])
        worst = max(worst, float(np.abs(rolled - np.roll(base, 1, axis=1)).max()))
        if worst >= 1e-5:
            return False, f"stage-4 deviation {worst:.2e} (>= 1e-5)"
    return True, f"{seeds} inputs, max stage-4 deviation {worst:.2e} < 1e-5"


def check_build_determinism(seeds: int, rng) -> tuple[bool, str]:
    from .network import model_checksum

    a = model_checksum(build_model(micro_config(), seed=7))
    b = model_checksum(build_model(micro_config(), seed=7))
    c = model_checksum(build_model(micro_config(), seed=8))
    if a != b:
        return False, "same seed produced different weights"
    if a == c:
        return False, "different seeds produced identical weights"
    return True, "seeded build reproducible"


# ---------------------------------------------------------------------------
# accounting scope
# ---------------------------------------------------------------------------


def probe_config(mh: int, mw: int, c: int) -> ModelConfig:
    """Four one-block stages at C = c whose stride-1 embeddings keep the
    input extents; stage 1 has regions mh x mw, the others 1 x 1."""
    return ModelConfig(
        stages=(
            StageConfig(depth=1, channels=c, h=mh, w=mw, s=0),
            StageConfig(depth=1, channels=c, h=1, w=1, s=0),
            StageConfig(depth=1, channels=c, h=1, w=1, s=0),
            StageConfig(depth=1, channels=c, h=1, w=1, s=0),
        ),
        patch_embed=tuple(PatchEmbedSpec(1, 1) for _ in range(4)),
        expansion_ratio=(1, 1, 1, 1),
        num_classes=2,
    )


def hire_counts_both_routes(
    mh: int, mw: int, c: int, height: int, width: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(traversal, closed form) (params, flops) of the stage-1 hire module of
    probe_config(mh, mw, c) on a height x width input. The traversal counts
    padding tokens, so the two agree only on divisible extents."""
    rep = count_config(probe_config(mh, mw, c), height, width, weights_only=True)
    return rep.subtotal("stage1.block0.hire"), hire_module_closed_form(mh, mw, c, height, width)


def check_closed_form_reconciliation(seeds: int, rng) -> tuple[bool, str]:
    """Traversal hire-module counts equal the closed form exactly."""
    for _ in range(seeds):
        mh, mw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c = int(rng.integers(1, 6)) * 2
        gh, gw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        hh, ww = mh * gh, mw * gw  # divisible extents only
        got, want = hire_counts_both_routes(mh, mw, c, hh, ww)
        if got != want:
            return False, f"h={mh} w={mw} C={c} H={hh} W={ww}: traversal {got} != closed form {want}"
    return True, f"{seeds} divisible configs, integer equality"


def budget_checks(measured: tuple[int, int], reference: tuple[float | None, float | None]) -> list[dict]:
    """Budget claim on one case: measured (params, flops) each within
    BUDGET_TOLERANCE of the published (params, flops). One record per
    target whose reference is not None, with its relative deviation and
    whether it passes."""
    checks = []
    for target, got, ref in zip(("params", "flops"), measured, reference):
        if ref is None:
            continue
        dev = got / ref - 1
        checks.append(
            {"target": target, "reference": ref, "measured": got, "deviation": dev, "pass": abs(dev) <= BUDGET_TOLERANCE}
        )
    return checks


FC_SWEEP_ORDERING = "params(1) > params(4) >= params(2) > params(3) and flops(1) > flops(2)"


def fc_sweep_ordered(counts: dict[int, tuple[int, int]]) -> bool:
    """FC-sweep claim: the (params, flops) of a variant with 1 to 4
    bottleneck FCs, keyed by FC count, are ordered as FC_SWEEP_ORDERING
    states, as in the published Small sweep."""
    (p1, f1), (p2, f2), (p3, _), (p4, _) = (counts[n] for n in (1, 2, 3, 4))
    return p1 > p4 >= p2 > p3 and f1 > f2


def check_resolution_scaling(seeds: int, rng) -> tuple[bool, str]:
    """Params are resolution-independent; block flops scale with H."""
    cfg = micro_config()
    a = count_config(cfg, 224, 224)
    b = count_config(cfg, 256, 256)
    if a.params != b.params:
        return False, "params changed with resolution"
    c = count_config(cfg, 448, 224)
    for e_a, e_c in zip(a.breakdown, c.breakdown):
        if "channel_mlp" in e_a.path and e_c.flops != 2 * e_a.flops:
            return False, f"{e_a.path}: flops not doubled with H"
    return True, "params fixed, flops scale"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES: dict[str, list[tuple[str, Callable]]] = {
    "rearrange": [
        ("inner rearrange/restore roundtrip (bitwise)", check_inner_roundtrip),
        ("cross rearrange/restore roundtrip (bitwise)", check_cross_roundtrip),
        ("shift composition group law", check_shift_group_law),
        ("shifted preserves cyclic order, shuffle breaks it", check_order_preservation),
        ("partition_pad then crop is identity (all modes)", check_pad_crop_identity),
    ],
    "tensor": [
        ("linear is additive and homogeneous", check_linear_linearity),
        ("batch-norm batch statistics", check_batch_norm_statistics),
        ("float32 GELU within 2e-6 of the float64 GELU", check_gelu_float32),
        ("backward matches finite differences per op", check_backward_vs_fd),
        ("ops never mutate inputs", check_no_mutation),
        ("finite in, finite out", check_finiteness),
    ],
    "hire": [
        ("hire module preserves shape at any extent", check_hire_shape_preservation),
        ("module equals sum of branches", check_branch_additivity),
        ("step 0 bitwise-equals cross disabled", check_zero_step_equivalence),
        ("composed branch gathers equal the sequential primitives (bitwise)", check_composed_gathers),
    ],
    "network": [
        ("resolution flexibility", check_resolution_flexibility),
        ("residual identity with zeroed blocks", check_residual_identity),
        ("seeded build determinism", check_build_determinism),
        ("32-px roll rolls stage 4 by 1 token (all circular)", check_translation_equivariance),
        ("row-tiled block bitwise-equals the plain composition", check_tiled_blocks),
    ],
    "accounting": [
        ("traversal equals closed form on hire modules", check_closed_form_reconciliation),
        ("cost scaling with resolution", check_resolution_scaling),
    ],
}


def run_invariants(scope: str, seeds: int = 20, seed: int = 0) -> list[CheckResult]:
    """Run one scope ('all' for everything); results in registry order."""
    if scope == "all":
        scopes = list(SUITES)
    elif scope in SUITES:
        scopes = [scope]
    else:
        raise ConfigError(f"unknown scope '{scope}'; valid: all, {', '.join(SUITES)}")
    results = []
    for sc in scopes:
        for name, fn in SUITES[sc]:
            rng = np.random.default_rng(seed)
            try:
                passed, detail = fn(seeds, rng)
            except Exception as e:  # a crash is a failure, not an abort
                passed, detail = False, f"raised {type(e).__name__}: {e}"
            results.append(CheckResult(sc, name, passed, detail))
    return results
