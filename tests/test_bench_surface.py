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

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# worker.py's local names for the hiremlp modules it imports
WORKER_MODULES = {
    "network": "hiremlp.network",
    "accounting": "hiremlp.accounting",
    "weights": "hiremlp.weights",
    "T": "hiremlp.tensor",
}


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(mod, name) for mod, names in tracing.TRACED.items() for name in names]


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
