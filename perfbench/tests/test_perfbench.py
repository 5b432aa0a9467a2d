"""Tests of the benchmark itself: output gates, FLOP reconciliation, wrapper hygiene.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from hiremlp import accounting, network  # noqa: E402
from hiremlp import tensor as T  # noqa: E402


def micro_model():
    model = network.build_model(network.load_config(ROOT / "configs" / "micro.json"), seed=3)
    tensors = workloads.generate_weights(
        np.random.default_rng(3), {n: a.shape for n, a in network.model_tensors(model).items()}
    )
    network.load_model_weights(model, tensors)
    return model


def hiremlp_namespaces() -> dict:
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "hiremlp" or name.startswith("hiremlp.")
    }


# -- output gates -------------------------------------------------------------


def test_logit_gate_passes_float32_rounding_and_fails_a_perturbed_vector():
    ref = 3.0 * np.random.default_rng(0).standard_normal((2, 1000))
    assert workloads.check_logits(ref.astype(np.float32), ref) is None
    bad = ref.copy()
    bad[1, 17] += 0.01 * np.abs(ref).max()
    assert workloads.check_logits(bad, ref) is not None
    nan = ref.copy()
    nan[0, 0] = np.nan
    assert workloads.check_logits(nan, ref) is not None
    assert workloads.check_logits(ref[:1], ref) is not None


def test_gradient_gate_fails_an_error_above_the_cli_threshold():
    assert workloads.check_grads([workloads.grad_rel_error(2.0, 2.0 * (1 + 5e-5))]) is None
    off = workloads.grad_rel_error(2.0, 2.0 * (1 + 2e-4))
    assert workloads.check_grads([0.0, off, 0.0]) is not None


def test_gradcheck_call_passes_and_catches_a_wrong_adjoint(monkeypatch):
    model64 = network.set_norm_mode(network.cast_model(micro_model(), np.float64), "batch")
    x64 = np.random.default_rng(4).standard_normal((1, 32, 32, 3))
    _, errors, nodes = worker.gradcheck_call(model64, x64, np.random.default_rng(5), 20)
    assert workloads.check_grads(errors) is None
    assert nodes > 0

    right = T._ADJOINTS["gelu"]
    monkeypatch.setitem(T._ADJOINTS, "gelu", lambda node, g: [(0, 1.01 * right(node, g)[0][1])])
    _, errors, _ = worker.gradcheck_call(model64, x64, np.random.default_rng(5), 200)
    assert workloads.check_grads(errors) is not None


# -- tracing ------------------------------------------------------------------


def traced_forward(model, x):
    tracer = tracing.Tracer()
    with tracer.installed():
        logits = network.forward(model, x)
    return tracer, logits


def test_traced_flops_equal_count_model_and_a_mismatch_is_flagged():
    model = micro_model()
    h, w = 40, 56  # not multiples of the region sizes, so every stage pads
    tracer, _ = traced_forward(model, np.random.default_rng(0).standard_normal((2, h, w, 3)).astype(np.float32))
    right = tracing.expected_stage_flops(accounting.count_model(model, h, w), forwards=2)
    assert tracing.flops_mismatch(tracer.stage_flops, right) == 0
    assert tracer.metrics(1.0, right)["trace.flops_mismatch"][0] == 0

    wrong = tracing.expected_stage_flops(accounting.count_model(model, h + 8, w), forwards=2)
    assert tracing.flops_mismatch(tracer.stage_flops, wrong) > 0
    assert tracer.metrics(1.0, wrong)["trace.flops_mismatch"][0] > 0


def test_every_wrapper_is_restored_after_a_traced_call():
    model = micro_model()
    x = np.random.default_rng(1).standard_normal((1, 32, 32, 3)).astype(np.float32)
    before = hiremlp_namespaces()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for mod, names in tracing.TRACED.items():
                for name in names:
                    assert getattr(sys.modules[f"hiremlp.{mod}"], name) is not before[f"hiremlp.{mod}"][name]
            # network binds hire_module by name, so it must be wrapped there too
            assert network.hire_module is not before["hiremlp.network"]["hire_module"]
            raise RuntimeError("a failing traced call still restores the originals")
    after = hiremlp_namespaces()
    for name, ns in before.items():
        assert all(after[name][k] is v for k, v in ns.items()), name

    tracer.reset()
    untraced = network.forward(model, x)
    assert tracer.stats == {}
    _, traced = traced_forward(model, x)
    np.testing.assert_array_equal(traced, untraced)


def test_self_times_cover_a_traced_call():
    model = micro_model()
    x = np.random.default_rng(2).standard_normal((1, 48, 48, 3)).astype(np.float32)
    tracer, _ = traced_forward(model, x)  # warm
    tracer.reset()
    with tracer.installed():
        t0 = tracing.perf_counter()
        network.forward(model, x)
        call_s = tracing.perf_counter() - t0
    m = tracer.metrics(call_s, tracing.expected_stage_flops(accounting.count_model(model, 48, 48), 1))
    assert m["trace.coverage_share"][0] <= 1.0
    assert m["tensor.linear.calls"][0] == 4 * 7 + 4 + 1  # 7 per block, 1 per embed, the head
    assert sum(m[f"network.stage{k}.ms"][0] for k in range(1, 5)) <= 1e3 * call_s


def test_wrapper_overhead_is_kept_out_of_self_times():
    model = micro_model()
    x = np.random.default_rng(2).standard_normal((1, 40, 40, 3)).astype(np.float32)
    tracer, _ = traced_forward(model, x)
    forward_s = tracer.stats["network.forward"][1]
    self_s = sum(s[2] for s in tracer.stats.values())
    # the forward's duration splits exactly into self times and the wrappers' own time
    assert tracer.overhead_in_forward_s > 0
    assert abs(self_s + tracer.overhead_in_forward_s - forward_s) < 1e-9


def test_work_outside_every_layer_fails_the_coverage_check():
    model = micro_model()
    x = np.random.default_rng(2).standard_normal((1, 48, 48, 3)).astype(np.float32)
    expected = tracing.expected_stage_flops(accounting.count_model(model, 48, 48), 1)
    tracer, _ = traced_forward(model, x)
    tracer.reset()
    with tracer.installed():
        t0 = tracing.perf_counter()
        network.forward(model, x)
        forward_s = tracing.perf_counter() - t0
        time.sleep(forward_s)  # as long again, in no layer
        call_s = tracing.perf_counter() - t0
    assert tracer.metrics(call_s, expected)["trace.coverage_share"][0] < tracing.COVERAGE_MIN


# -- the command --------------------------------------------------------------


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck_micro", "--seed", "7", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, group):
    proc = run_bench(ROOT, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[group]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not (ROOT / ".perfbench_work").exists()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
