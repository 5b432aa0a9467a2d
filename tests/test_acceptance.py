"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and measured runtimes.
"""

import dataclasses
import time

import numpy as np

from hiremlp.accounting import ablation_cost_sweep, count_config
from hiremlp.invariants import (
    FC_SWEEP_ORDERING,
    GRAD_TOLERANCE,
    block_gradcheck,
    budget_checks,
    check_closed_form_reconciliation,
    check_translation_equivariance,
    cross_roundtrip_failure,
    cyclic_order_failure,
    fc_sweep_ordered,
    inner_roundtrip_failure,
    manner_permutations,
    model_gradcheck,
    padding_defined,
)
from hiremlp.network import build_model, disable_cross, forward
from hiremlp.rearrange import PADDING_MODES, RegionSpec, ShiftSpec
from hiremlp.variants import (
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
        if not padding_defined(extent, m, mode):
            mode = "circular"
        # shuffle manner: divisible factorizations only
        md = int(rng.choice([d for d in range(1, extent + 1) if extent % d == 0]))
        failure = (
            inner_roundtrip_failure(x, RegionSpec(axis, m, mode))
            or cross_roundtrip_failure(x, axis, ShiftSpec(s), md)
            or cross_roundtrip_failure(x, axis, ShiftSpec(0, "shuffle"), md)
        )
        assert failure is None, f"{failure} (axis={axis} m={m} mode={mode} s={s} shuffle m={md})"
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
        dp, df = budget_checks((rep.params, rep.flops), REFERENCE_BUDGETS[name])
        ok &= dp["pass"] and df["pass"]
        lines.append(f"{name} params {dp['deviation']:+.2%} flops {df['deviation']:+.2%}")
    report(3, ok, "reconstructed configs vs published budgets at 224x224: " + ", ".join(lines))


# ---------------------------------------------------------------------------
# 4. FC-sweep ordering
# ---------------------------------------------------------------------------


def test_criterion_4_fc_sweep():
    sweep = {n: (rep.params, rep.flops) for n, rep in ablation_cost_sweep(small_config())}
    ok = ordering = fc_sweep_ordered(sweep)
    lines = []
    for n, counts in sweep.items():
        dp, df = budget_checks(counts, FC_SWEEP_REFERENCE[n])
        ok &= dp["pass"] and df["pass"]
        lines.append(f"{n}FC {dp['deviation']:+.2%}/{df['deviation']:+.2%}")
    report(4, ok, f"ordering {FC_SWEEP_ORDERING}: {ordering}; deviations " + ", ".join(lines))


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
    order_ok = all(
        cyclic_order_failure(manner_permutations(g * m, m, s)) is None
        for g, m in ((2, 2), (3, 4), (4, 3))
        for s in range(g * m)
    )

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
