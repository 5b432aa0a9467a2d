import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class FakeThreads:
    """A BLAS thread control that records every count it is set to."""

    def __init__(self, threads: int = 2):
        self.threads = threads
        self.sets: list[int] = []

    def get(self) -> int:
        return self.threads

    def set(self, n: int) -> None:
        self.sets.append(n)
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    """A fake two-thread BLAS control in place of the process's, so that
    batched forwards run lanes on any host and the pin can be read."""
    from hiremlp import lanes

    control = FakeThreads(2)
    monkeypatch.setattr(lanes, "blas_control", lambda: control)
    return control
