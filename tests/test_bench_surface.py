"""The library names the benchmark under perfbench/ resolves at run time.

The tracer wraps every function named in its TRACED table by identity, and
the worker drives the program through the public API. Removing or
re-signing one of those names breaks the benchmark, so it fails here too.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from hiremlp import network
from hiremlp.accounting import count_model
from hiremlp.variants import micro_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# worker.py's local names for the hiremlp modules it imports
WORKER_MODULES = {
    "network": "hiremlp.network",
    "accounting": "hiremlp.accounting",
    "weights": "hiremlp.weights",
    "T": "hiremlp.tensor",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_names():
    return [(mod, name) for mod, names in _tracing().TRACED.items() for name in names]


def _worker_uses():
    """(module, name, call node or None) for every `mod.name` in worker.py."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return [
        (WORKER_MODULES[n.value.id], n.attr, calls.get(id(n)))
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id in WORKER_MODULES
    ]


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"hiremlp.{module}"), name))


def test_worker_calls_resolve_with_their_arguments():
    uses = _worker_uses()
    assert {name for _, name, _ in uses} >= {"build_model", "load_model_weights", "bind_tree"}
    for module, name, call in uses:
        fn = getattr(importlib.import_module(module), name)
        if call is not None:
            # binds the call's positional count and keyword names, or raises TypeError
            inspect.signature(fn).bind(*call.args, **{k.arg: None for k in call.keywords})


def test_traced_forward_counts_every_flop_inside_a_layer():
    # every matmul goes through tensor.linear, and the forward's own loops
    # (the root spans) hold no work: what the benchmark's --trace 1 gates
    tracing = _tracing()
    model = network.build_model(micro_config(), seed=0)
    x = np.random.default_rng(0).standard_normal((1, 200, 300, 3)).astype(np.float32)
    expected = tracing.expected_stage_flops(count_model(model, 200, 300), forwards=1)
    network.forward(model, x)  # warm-up, untraced
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = perf_counter()
        network.forward(model, x)
        call_s = perf_counter() - t0
    metrics = tracer.metrics(call_s, expected)
    assert metrics["trace.flops_mismatch"][0] == 0
    assert metrics["trace.coverage_share"][0] >= tracing.COVERAGE_MIN
