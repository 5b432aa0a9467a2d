"""lanes: batched eager forwards on one image lane per BLAS thread.

Lanes run only under a BLAS thread control. The `fake_blas` fixture
(conftest) stands in for OpenBLAS's, so the lanes run on any host and the
tests can read the pin; the real OpenBLAS keeps its own thread count.
"""

import dataclasses
import os
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from hiremlp import lanes
from hiremlp import tensor as T
from hiremlp.errors import HireMlpError
from hiremlp.network import build_model, forward, forward_features, lane_count, set_norm_mode
from hiremlp.rearrange import PADDING_MODES
from hiremlp.variants import micro_config, tiny_config

EPS32 = float(np.finfo(np.float32).eps)


def micro_model(padding="circular", **stage4):
    cfg = micro_config()
    stages = [dataclasses.replace(st, padding=padding) for st in cfg.stages]
    stages[3] = dataclasses.replace(stages[3], **stage4)
    return build_model(dataclasses.replace(cfg, stages=tuple(stages)), seed=0)


def images(n, h=37, w=41, seed=0):
    return np.random.default_rng(seed).standard_normal((n, h, w, 3)).astype(np.float32)


def outputs(model, x):
    """Every forward_features map, then the logits."""
    return [np.asarray(a) for a in forward_features(model, x)] + [np.asarray(forward(model, x))]


def plain_outputs(monkeypatch, model, x):
    with monkeypatch.context() as m:
        m.setattr(lanes, "blas_control", lambda: None)
        return outputs(model, x)


# ---------------------------------------------------------------------------
# lanes against the plain path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [2, 3])
@pytest.mark.parametrize("padding", PADDING_MODES)
def test_lanes_match_the_plain_path_on_micro(monkeypatch, fake_blas, padding, batch):
    # At batch 2 each lane holds one image, and some of its stage-2 products
    # (5 or 6 rows by a 36x6 weight) take another OpenBLAS kernel than the
    # two-image product: measured within 0.26 eps * max|plain| (reflect, the
    # worst mode). At batch 3 (lanes of 2 and 1 images) every output was bitwise.
    model, x = micro_model(padding), images(batch)
    want = plain_outputs(monkeypatch, model, x)
    got = outputs(model, x)
    assert fake_blas.sets == [1, 2, 1, 2]  # pinned once by forward_features, once by forward
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype
        if batch == 3:
            assert g.tobytes() == w.tobytes()
        else:
            assert np.abs(g - w).max() <= EPS32 * np.abs(w).max()


def test_lanes_are_bitwise_the_plain_path_on_tiny(monkeypatch, fake_blas):
    model, x = build_model(tiny_config(), seed=0), images(2, 200, 300)
    want = plain_outputs(monkeypatch, model, x)
    for g, w in zip(outputs(model, x), want, strict=True):
        assert g.tobytes() == w.tobytes()


def test_forward_runs_lanes_pinned_through_the_head(monkeypatch, fake_blas):
    seen, callers = [], set()
    linear = T.linear

    def recording(*args):
        seen.append(fake_blas.threads)
        callers.add(threading.get_ident())
        return linear(*args)

    monkeypatch.setattr(T, "linear", recording)
    forward(micro_model(), images(2))
    assert len(callers) == 2  # the caller's lane and one worker's
    assert seen and set(seen) == {1}  # every product, the head's last, ran pinned
    assert fake_blas.sets == [1, 2] and fake_blas.threads == 2


@pytest.mark.parametrize("batch, threads, want", [(2, 2, 2), (3, 2, 2), (3, 4, 3), (5, 4, 4), (2, 1, 1), (1, 2, 1)])
def test_lane_count_is_the_batch_capped_by_the_blas_threads(fake_blas, batch, threads, want):
    fake_blas.threads = threads
    assert lane_count(micro_model(), images(batch, 32, 32)) == want
    assert fake_blas.threads == threads


@contextmanager
def lanes_held_by_another_thread():
    held, release = threading.Event(), threading.Event()

    def holder():
        with lanes.pinned(2):
            held.set()
            release.wait(30)

    t = threading.Thread(target=holder)
    t.start()
    try:
        assert held.wait(30)
        yield
    finally:
        release.set()
        t.join(30)
    assert not t.is_alive()


@pytest.mark.parametrize(
    "case", ["batch-1", "var-input", "batch-norm", "no-control", "one-thread", "held-by-another-thread"]
)
def test_ineligible_calls_take_the_plain_path(monkeypatch, fake_blas, case):
    model, x = micro_model(), images(1 if case == "batch-1" else 2)
    want = plain_outputs(monkeypatch, build_model(micro_config(), seed=0), x)[-1]
    if case == "batch-norm":
        model = set_norm_mode(model, "batch")
    elif case == "no-control":
        monkeypatch.setattr(lanes, "blas_control", lambda: None)
    elif case == "one-thread":
        fake_blas.threads = 1
    if case == "var-input":
        x = T.Tape().leaf(x)

    def no_lanes(*args):
        raise AssertionError("lanes ran")

    monkeypatch.setattr(lanes, "run", no_lanes)
    with lanes_held_by_another_thread() if case == "held-by-another-thread" else nullcontext():
        assert lane_count(model, x) == 1
        got = T._value(forward(model, x))
        if case != "batch-norm":
            assert got.tobytes() == want.tobytes()
    expected_sets = [1, 2] if case == "held-by-another-thread" else []  # the holder's own pin
    assert fake_blas.sets == expected_sets and fake_blas.threads == (1 if case == "one-thread" else 2)


def test_any_one_batch_mode_norm_takes_the_plain_path(fake_blas):
    model, x = micro_model(), images(2, 32, 32)
    paths = []

    def collect(path, node):
        if isinstance(node, T.NormParams):
            paths.append(path)
        return node

    T.map_tree(model, collect)
    assert len(paths) == 16  # norm1, norm2 and two bottleneck norms per block
    for target in paths:
        one = T.map_tree(
            model,
            lambda path, node: dataclasses.replace(node, mode="batch") if path == target else node,
        )
        assert lane_count(one, x) == 1, target
    assert lane_count(model, x) == 2


def test_a_batch_one_forward_does_not_load_the_lanes():
    script = (
        "import sys, numpy as np\n"
        "from hiremlp import network\n"
        "from hiremlp.variants import micro_config\n"
        "m = network.build_model(micro_config(), seed=0)\n"
        "network.forward(m, np.zeros((1, 32, 32, 3), np.float32))\n"
        "print('hiremlp.lanes' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_a_lane_error_restores_the_threads_and_reads_as_the_plain_one(monkeypatch, fake_blas):
    # a reflect-padded stage 4 with 2-token regions cannot pad its one-token axes at 32x32
    model, x = micro_model("reflect", h=2, w=2), images(2, 32, 32)
    with monkeypatch.context() as m:
        m.setattr(lanes, "blas_control", lambda: None)
        with pytest.raises(HireMlpError) as plain:
            forward(model, x)
    with pytest.raises(HireMlpError) as laned:
        forward(model, x)
    assert type(laned.value) is type(plain.value)
    assert str(laned.value) == str(plain.value)
    assert "reflect" in str(plain.value)
    assert fake_blas.sets == [1, 2] and fake_blas.threads == 2


@pytest.mark.parametrize("failing, raised", [((0, 1, 2), 0), ((1, 2), 1), ((2,), 2)])
def test_a_lane_error_is_raised_after_every_lane_finished(failing, raised):
    finished = []

    def lane(part):
        k = int(part[0])
        if k != 0:
            time.sleep(0.05 * (3 - k))  # the later lanes finish first
        finished.append(k)
        if k in failing:
            raise ValueError(f"lane {k}")
        return part

    with pytest.raises(ValueError, match=f"lane {raised}"):
        lanes.run(3, np.arange(3), lane)
    assert sorted(finished) == [0, 1, 2]


def test_run_joins_contiguous_lanes_in_order():
    parts = []

    def lane(part):
        parts.append(part.tolist())
        return part * 10

    out = lanes.run(2, np.arange(5), lane)
    assert out.tolist() == [0, 10, 20, 30, 40]
    assert sorted(parts) == [[0, 1, 2], [3, 4]]


# ---------------------------------------------------------------------------
# concurrency and fork
# ---------------------------------------------------------------------------


def test_concurrent_forwards_match_sequential_ones(fake_blas):
    # more callers than CPUs, switching often: one at a time holds the lanes,
    # the others, finding them held, run plain (bitwise the same at batch 3,
    # see test_lanes_match_the_plain_path_on_micro)
    model, callers = micro_model(), 4
    xs = [images(3, seed=k) for k in range(callers)]
    want = [np.asarray(forward(model, x)) for x in xs]
    fake_blas.sets.clear()
    got = [[] for _ in range(callers)]

    def caller(k):
        for _ in range(5):
            got[k].append(np.asarray(forward(model, xs[k])))

    threads = [threading.Thread(target=caller, args=(k,)) for k in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(callers):
        assert len(got[k]) == 5
        assert all(g.tobytes() == want[k].tobytes() for g in got[k])
    assert fake_blas.sets and fake_blas.sets == [1, 2] * (len(fake_blas.sets) // 2)  # one pin at a time
    assert fake_blas.threads == 2 and lanes._pin.owner is None


def test_the_real_thread_control_is_restored():
    control = lanes.blas_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    before = control.get()
    forward(micro_model(), images(2))
    assert control.get() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("held", [False, True], ids=["pin-free", "pin-held-by-another-thread"])
def test_a_forked_child_runs_lanes(fake_blas, held):
    model, x = micro_model(), images(2)
    want = np.asarray(forward(model, x))  # starts the parent's worker thread
    assert lanes._pin.pool is not None
    read, write = os.pipe()
    with lanes_held_by_another_thread() if held else nullcontext():
        pid = os.fork()
        if pid == 0:  # the child: report one byte and leave without pytest's teardown
            ok = b"0"
            try:
                # a pin held by a parent thread is reset to the count it saved
                restored = fake_blas.threads == 2 and fake_blas.sets[-1] == 2
                before = len(fake_blas.sets)
                got = np.asarray(forward(model, x))
                ran = fake_blas.sets[before:] == [1, 2]
                ok = b"1" if restored and ran and got.tobytes() == want.tobytes() else b"0"
            finally:
                os.write(write, ok)
                os._exit(0)
    os.close(write)
    # a child left with the parent's worker pool waits forever on a thread it
    # does not have, and one left with a held lock runs no lanes
    ready, _, _ = select.select([read], [], [], 60)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    assert ready, "the forked child's lane forward did not finish"
    assert os.read(read, 1) == b"1"
    os.close(read)
