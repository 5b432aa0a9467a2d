"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and measured runtimes.
"""

import dataclasses
import time

import numpy as np

from hiremlp.accounting import ablation_cost_sweep, count_config
from hiremlp.invariants import (
    GRAD_TOLERANCE,
    block_gradcheck,
    check_closed_form_reconciliation,
    check_translation_equivariance,
    model_gradcheck,
    preserves_cyclic_order,
    token_permutation,
)
from hiremlp.network import build_model, disable_cross, forward
from hiremlp.rearrange import (
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
from hiremlp.variants import (
    BUDGET_TOLERANCE,
    FC_SWEEP_REFERENCE,
    REFERENCE_BUDGETS,
    VARIANTS,
    micro_config,
    small_config,
    tiny_config,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. permutation suite
# ---------------------------------------------------------------------------


def test_criterion_1_permutation_suite():
    rng = np.random.default_rng(11)
    draws = 200
    t0 = time.perf_counter()
    for _ in range(draws):
        n = int(rng.integers(1, 3))
        hh = int(rng.integers(1, 13))
        ww = int(rng.integers(1, 13))
        c = int(rng.integers(1, 6))
        x = rng.standard_normal((n, hh, ww, c)).astype(np.float32)
        axis = str(rng.choice(["height", "width"]))
        extent = hh if axis == "height" else ww
        m = int(rng.integers(1, 6))
        s = int(rng.integers(0, extent))
        mode = str(rng.choice(PADDING_MODES))
        if mode == "reflect" and extent == 1 and extent % m:
            mode = "circular"
        spec = RegionSpec(axis, m, mode)

        # inner level (with padding handled around it)
        xp = partition_pad(x, spec)
        y = inner_rearrange(xp, spec)
        assert np.array_equal(
            np.sort(np.asarray(y), axis=None), np.sort(np.asarray(xp), axis=None)
        ), "element multiset not preserved (inner)"
        assert np.array_equal(crop_pad(inner_restore(y, spec), axis, extent), x), "inner roundtrip"

        # cross level, shifted manner
        sh = ShiftSpec(s)
        z = cross_rearrange(x, axis, sh)
        assert np.array_equal(
            np.sort(np.asarray(z), axis=None), np.sort(x, axis=None)
        ), "element multiset not preserved (cross)"
        assert np.array_equal(cross_restore(z, axis, sh), x), "cross roundtrip"

        # cross level, shuffle manner (divisible factorizations only)
        divisors = [d for d in range(1, extent + 1) if extent % d == 0]
        md = int(rng.choice(divisors))
        sp = ShiftSpec(0, "shuffle")
        z2 = cross_rearrange(x, axis, sp, md)
        assert np.array_equal(cross_restore(z2, axis, sp, md), x), "shuffle roundtrip"
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 10.0,
        f"{draws} randomized draws, restore o rearrange == identity bitwise, "
        f"multiset preserved, {elapsed:.2f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 2. closed-form reconciliation
# ---------------------------------------------------------------------------


def test_criterion_2_closed_form_reconciliation():
    t0 = time.perf_counter()
    passed, detail = check_closed_form_reconciliation(50, np.random.default_rng(7))
    elapsed = time.perf_counter() - t0
    report(2, passed and elapsed < 1.0, f"traversal == closed form: {detail}, {elapsed:.3f}s (< 1s)")


# ---------------------------------------------------------------------------
# 3. budget reproduction
# ---------------------------------------------------------------------------


def test_criterion_3_budget_reproduction():
    lines = []
    ok = True
    for name in ("small", "base", "large", "tiny"):
        cfg = VARIANTS[name]()
        assert cfg.meta.get("provenance") == "reconstructed"
        rep = count_config(cfg, 224, 224)
        ref_p, ref_f = REFERENCE_BUDGETS[name]
        dp, df = rep.params / ref_p - 1, rep.flops / ref_f - 1
        ok &= abs(dp) <= BUDGET_TOLERANCE and abs(df) <= BUDGET_TOLERANCE
        lines.append(f"{name} params {dp:+.2%} flops {df:+.2%}")
    report(3, ok, "reconstructed configs vs published budgets at 224x224: " + ", ".join(lines))


# ---------------------------------------------------------------------------
# 4. FC-sweep ordering
# ---------------------------------------------------------------------------


def test_criterion_4_fc_sweep():
    sweep = dict(ablation_cost_sweep(small_config()))
    ok = True
    lines = []
    for n, (ref_p, ref_f) in FC_SWEEP_REFERENCE.items():
        dp = sweep[n].params / ref_p - 1
        df = sweep[n].flops / ref_f - 1
        ok &= abs(dp) <= BUDGET_TOLERANCE and abs(df) <= BUDGET_TOLERANCE
        lines.append(f"{n}FC {dp:+.2%}/{df:+.2%}")
    p = {n: rep.params for n, rep in sweep.items()}
    ordering = p[1] > p[4] >= p[2] > p[3]
    ok &= ordering
    report(
        4,
        ok,
        f"params ordering 1FC > 4FC >= 2FC > 3FC: {ordering}; deviations " + ", ".join(lines),
    )


# ---------------------------------------------------------------------------
# 5. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()

    # unit-gain stage-3 micro block at 1x5x5x16 and its two residual-free
    # sub-units, float64, batch statistics
    block_err = max(block_gradcheck(seed=3).values())

    # full micro model, 1x32x32x3 input, 2-class head, 100-coordinate sample
    worst = model_gradcheck(seed=0, coords=100)
    model_err = max(worst.values())

    elapsed = time.perf_counter() - t0
    ok = block_err < GRAD_TOLERANCE and model_err < GRAD_TOLERANCE and elapsed < 60.0
    report(
        5,
        ok,
        f"block and sub-unit max rel err {block_err:.2e}, model max rel err {model_err:.2e} "
        f"(100-coordinate sample incl. parameters), {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 6. resolution flexibility
# ---------------------------------------------------------------------------


def test_criterion_6_resolution_flexibility():
    rng = np.random.default_rng(5)
    model = build_model(tiny_config(), seed=0)
    t0 = time.perf_counter()
    cases = [(32, 32), (257, 257), (211, 33), (127, 251)]  # corners, primes, non-square
    while len(cases) < 100:
        cases.append((int(rng.integers(32, 258)), int(rng.integers(32, 258))))
    for h, w in cases:
        x = rng.standard_normal((1, h, w, 3)).astype(np.float32)
        out = np.asarray(forward(model, x))
        assert out.shape == (1, 1000), f"logits {out.shape} at {h}x{w}"
        assert np.isfinite(out).all(), f"non-finite logits at {h}x{w}"
    elapsed = time.perf_counter() - t0
    report(
        6,
        elapsed < 300.0,
        f"{len(cases)} resolutions in [32, 257]^2 incl. primes/non-square -> "
        f"fixed-size logits, {elapsed:.1f}s (< 5min)",
    )


# ---------------------------------------------------------------------------
# 7. structural ablation contracts
# ---------------------------------------------------------------------------


def test_criterion_7_structural_ablations():
    rng = np.random.default_rng(9)

    # s=0 everywhere vs cross disabled entirely: bitwise-equal logits
    cfg = micro_config()
    cfg_s0 = dataclasses.replace(
        cfg, stages=tuple(dataclasses.replace(s, s=0) for s in cfg.stages)
    )
    model_s0 = build_model(cfg_s0, seed=6)
    model_nocross = disable_cross(model_s0)
    x = rng.standard_normal((1, 48, 40, 3)).astype(np.float32)
    bitwise = np.array_equal(
        np.asarray(forward(model_s0, x)), np.asarray(forward(model_nocross, x))
    )

    # shifted manner preserves cyclic order; shuffle manner provably does not
    order_ok = True
    for g, m in ((2, 2), (3, 4), (4, 3)):
        extent = g * m
        for s in range(extent):
            perm = token_permutation(
                extent, lambda v, s=s: cross_rearrange(v, "height", ShiftSpec(s), m)
            )
            order_ok &= preserves_cyclic_order(perm)
        shuffled = token_permutation(
            extent, lambda v: cross_rearrange(v, "height", ShiftSpec(0, "shuffle"), m)
        )
        order_ok &= not preserves_cyclic_order(shuffled)

    report(
        7,
        bitwise and order_ok,
        f"s=0 config bitwise-equals cross-disabled config: {bitwise}; shifted "
        f"manner order-preserving and shuffle manner order-breaking: {order_ok}",
    )


# ---------------------------------------------------------------------------
# 8. translation equivariance
# ---------------------------------------------------------------------------


def test_criterion_8_translation_equivariance():
    passed, detail = check_translation_equivariance(1, np.random.default_rng(21))
    report(8, passed, f"32-px input roll -> stage-4 features rolled by 1 token: {detail}")


# ---------------------------------------------------------------------------
# 9. explicitly out of desk-scale scope
# ---------------------------------------------------------------------------


def test_criterion_9_accuracy_not_reproduced():
    # accuracy/throughput columns are not modeled anywhere: budgets carry only
    # params/flops, and the bench command reports measurements without targets
    for name, ref in REFERENCE_BUDGETS.items():
        assert len(ref) == 2, name  # (params, flops) only, no accuracy column
    from hiremlp import cli

    assert not hasattr(cli, "THROUGHPUT_TARGET")
    report(
        9,
        True,
        "dataset accuracy (classification/detection/segmentation) and published "
        "throughput are NOT reproduced at desk scale; criteria 1-8 stand in for "
        "them, and bench reports hardware-dependent numbers without a target",
    )
