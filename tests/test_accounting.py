"""accounting: closed form, traversal, reconciliation, published budgets."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiremlp.accounting import (
    ablation_cost_sweep,
    count_config,
    count_model,
    hire_module_closed_form,
)
from hiremlp.errors import ConfigError
from hiremlp.invariants import budget_checks, fc_sweep_ordered, hire_counts_both_routes, probe_config
from hiremlp.network import build_model
from hiremlp.variants import (
    FC_SWEEP_REFERENCE,
    REFERENCE_BUDGETS,
    VARIANTS,
    micro_config,
    small_config,
)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_closed_form_symmetric_instance():
    # h=w=2, C=4, H=W=8: params 2*2*16 + 16 = 80, flops 3*64*16 = 3072
    assert hire_module_closed_form(2, 2, 4, 8, 8) == (80, 3072)


def test_closed_form_unit_case():
    assert hire_module_closed_form(1, 1, 1, 1, 1) == (3, 3)


def test_closed_form_asymmetric_matches_per_matrix_enumeration():
    h, w, c = 4, 2, 8
    params, _ = hire_module_closed_form(h, w, c, 8, 8)
    # enumerate the weight matrices of the three branches independently
    height_fcs = h * c * (c // 2) + (c // 2) * (h * c)
    width_fcs = w * c * (c // 2) + (c // 2) * (w * c)
    channel_fc = c * c
    assert height_fcs + width_fcs + channel_fc == params == 448


def test_closed_form_rejects_nonpositive():
    with pytest.raises(ConfigError):
        hire_module_closed_form(0, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def test_single_linear_convention():
    # one C->C linear over HxW tokens: params C^2 + C, flops H*W*C^2
    c, hh, ww = 6, 10, 14
    model = build_model(probe_config(1, 1, c), seed=0)
    rep = count_model(model, hh, ww)
    entry = next(e for e in rep.breakdown if e.path == "stage1.block0.hire.channel")
    assert entry.params == c * c + c
    assert entry.flops == hh * ww * c * c


def test_breakdown_sums_equal_totals():
    rep = count_config(micro_config(), 224, 224)
    assert rep.params == sum(e.params for e in rep.breakdown)
    assert rep.flops == sum(e.flops for e in rep.breakdown)


def test_norms_and_biases_in_params_not_flops():
    rep = count_config(micro_config(), 64, 64)
    norm_entries = [e for e in rep.breakdown if ".norm" in e.path]
    assert norm_entries and all(e.flops == 0 for e in norm_entries)
    assert all(e.params > 0 for e in norm_entries)
    lean = count_config(micro_config(), 64, 64, weights_only=True)
    assert lean.params < rep.params
    assert lean.flops == rep.flops


@settings(max_examples=50, deadline=None)
@given(
    mh=st.integers(1, 4),
    mw=st.integers(1, 4),
    half_c=st.integers(1, 5),
    gh=st.integers(1, 4),
    gw=st.integers(1, 4),
)
def test_reconciliation_closed_form_vs_traversal(mh, mw, half_c, gh, gw):
    got, want = hire_counts_both_routes(mh, mw, 2 * half_c, mh * gh, mw * gw)
    assert got == want


def test_padding_tokens_are_counted():
    # 7x7 with regions of 2 pads to 8: traversal must exceed the closed form
    (_, flops), (_, closed) = hire_counts_both_routes(2, 2, 4, 7, 7)
    assert flops > closed


def test_params_resolution_independent():
    a = count_config(micro_config(), 224, 224)
    b = count_config(micro_config(), 256, 256)
    assert a.params == b.params


def test_flops_double_with_height():
    a = count_config(micro_config(), 224, 224)
    b = count_config(micro_config(), 448, 224)
    for ea, eb in zip(a.breakdown, b.breakdown):
        if "channel_mlp" in ea.path or ".hire.channel" in ea.path:
            assert eb.flops == 2 * ea.flops, ea.path


# ---------------------------------------------------------------------------
# published budgets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["tiny", "small", "base", "large"])
def test_reconstructed_budgets_within_tolerance(name):
    rep = count_config(VARIANTS[name](), 224, 224)
    checks = budget_checks((rep.params, rep.flops), REFERENCE_BUDGETS[name])
    assert all(c["pass"] for c in checks), checks
    # the claim fails on a 6% deviation
    over = tuple(ref * 1.06 for ref in REFERENCE_BUDGETS[name])
    assert not any(c["pass"] for c in budget_checks(over, REFERENCE_BUDGETS[name]))


def test_configs_are_labeled_reconstructed():
    for name in ("tiny", "small", "base", "large"):
        assert VARIANTS[name]().meta.get("provenance") == "reconstructed"


def test_fc_sweep_against_published_totals():
    sweep = {n: (rep.params, rep.flops) for n, rep in ablation_cost_sweep(small_config())}
    for n, counts in sweep.items():
        checks = budget_checks(counts, FC_SWEEP_REFERENCE[n])
        assert all(c["pass"] for c in checks), (n, checks)
    assert fc_sweep_ordered(sweep)
    # the claim fails on a sweep whose 2-FC variant outweighs its 4-FC one
    assert not fc_sweep_ordered({**sweep, 2: (sweep[4][0] + 1, sweep[2][1])})


def test_report_json_shape():
    rep = count_config(micro_config(), 64, 64)
    data = json.loads(rep.to_json())
    assert set(data) == {"params", "flops", "breakdown"}
    assert data["params"] == rep.params
    assert all(set(e) == {"path", "params", "flops"} for e in data["breakdown"])


def test_report_text_contains_total():
    rep = count_config(micro_config(), 64, 64)
    text = rep.to_text()
    assert "TOTAL" in text and f"{rep.params:,}" in text
