"""cli: exit codes, determinism, JSON output, error paths."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiremlp import cli
from hiremlp.cli import _random_input, main
from hiremlp.errors import ConfigError
from hiremlp.invariants import run_invariants
from hiremlp.network import build_model, forward, load_config, model_tensors, save_config
from hiremlp.variants import micro_config
from hiremlp.weights import save_tensors

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@pytest.fixture
def micro_cfg_path(tmp_path):
    path = tmp_path / "micro.json"
    save_config(micro_config(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def test_summary_base_prints_depths(capsys):
    code, out, _ = run(capsys, "summary", "--config", str(CONFIGS / "base.json"))
    assert code == 0
    depths = [line.split()[1] for line in out.splitlines() if line.strip().startswith(("1 ", "2 ", "3 ", "4 "))]
    assert depths == ["4", "6", "24", "3"]


def test_summary_small_budget_pass(capsys):
    code, out, _ = run(capsys, "summary", "--config", str(CONFIGS / "small.json"))
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_summary_failed_budget_check_exits_1(capsys, tmp_path, as_json):
    doc = json.loads((CONFIGS / "tiny.json").read_text())
    doc["meta"]["reference_params"] = 12
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "summary", "--config", str(cfg), *(["--json"] if as_json else []))
    assert code == 1 and err == ""
    if as_json:
        verdicts = {c["target"]: c["pass"] for c in json.loads(out)["budget_checks"]}
        assert verdicts == {"params": False, "flops": True}
    else:
        assert out.count("FAIL") == 1 and out.count("PASS") == 1


@pytest.mark.parametrize("kept", ["reference_params", "reference_flops"])
def test_summary_checks_each_budget_whose_reference_is_given(capsys, tmp_path, kept):
    doc = json.loads((CONFIGS / "tiny.json").read_text())
    del doc["meta"]["reference_params"], doc["meta"]["reference_flops"]
    doc["meta"][kept] = 12
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "summary", "--config", str(cfg))
    assert code == 1 and err == ""
    assert out.count("FAIL") == 1 and "PASS" not in out
    code, out, err = run(capsys, "summary", "--config", str(cfg), "--json")
    assert code == 1 and err == ""
    checks = [(c["target"], c["pass"]) for c in json.loads(out)["budget_checks"]]
    assert checks == [(kept.removeprefix("reference_"), False)]


@pytest.mark.parametrize("hw", ["256x256", "800x1333"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_summary_checks_flops_only_at_the_reference_resolution(capsys, hw, as_json):
    code, out, err = run(capsys, "summary", "--config", str(CONFIGS / "tiny.json"), "--hw", hw, *(["--json"] if as_json else []))
    assert code == 0 and err == ""
    if as_json:
        assert [c["target"] for c in json.loads(out)["budget_checks"]] == ["params"]
    else:
        assert out.count("PASS") == 1 and "FAIL" not in out
        assert f"budget flops: not checked at {hw}, because the reference is at 224x224\n" in out


def test_summary_empty_file_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = run(capsys, "summary", "--config", str(empty))
    assert code == 2
    assert "error" in err


def test_summary_json(capsys, micro_cfg_path):
    code, out, _ = run(capsys, "summary", "--config", micro_cfg_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["depths"] == [1, 1, 1, 1]
    assert data["params"] > 0


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_deterministic(capsys, micro_cfg_path):
    args = ("forward", "--config", micro_cfg_path, "--random", "64x64x3", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_random_input_is_drawn_apart_from_the_weights():
    # build_model(cfg, seed) draws the weights from default_rng(seed); an input
    # from that same stream would reuse the weights' random bits
    shape = (1, 40, 40, 3)
    x = _random_input(7, shape)
    assert x.shape == shape and x.dtype == np.float32
    assert not np.array_equal(x, np.random.default_rng(7).standard_normal(shape).astype(np.float32))


def test_forward_flexible_resolution(capsys, micro_cfg_path):
    code, out, _ = run(capsys, "forward", "--config", micro_cfg_path, "--random", "250x198x3")
    assert code == 0
    assert "top-2" in out


def test_forward_undersized_exits_2(capsys, micro_cfg_path):
    code, _, err = run(capsys, "forward", "--config", micro_cfg_path, "--random", "16x16x3")
    assert code == 2
    assert "smaller" in err


def test_forward_weights_file_matches_library_forward(capsys, micro_cfg_path, tmp_path):
    model = build_model(micro_config(), seed=5)
    weights, image = tmp_path / "w.hire", tmp_path / "x.hire"
    save_tensors(weights, model_tensors(model))
    x = np.random.default_rng(0).standard_normal((40, 40, 3)).astype(np.float32)
    save_tensors(image, {"": x})
    code, out, _ = run(
        capsys, "forward", "--config", micro_cfg_path, "--weights", str(weights),
        "--input", str(image), "--json",
    )
    assert code == 0
    logits = np.asarray(forward(model, x[None]))[0]
    want = [{"index": int(i), "logit": float(logits[i])} for i in np.argsort(logits)[::-1]]
    assert json.loads(out)["topk"] == [want]


def test_forward_tensor_file_input(capsys, micro_cfg_path, tmp_path):
    x = np.random.default_rng(0).standard_normal((40, 40, 3)).astype(np.float32)
    path = tmp_path / "input.hire"
    save_tensors(path, {"": x})
    code, out, _ = run(capsys, "forward", "--config", micro_cfg_path, "--input", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["topk"][0]) == 2


def test_forward_non_finite_input_exits_2(capsys, micro_cfg_path, tmp_path):
    x = np.full((40, 40, 3), np.nan, dtype=np.float32)
    path = tmp_path / "nan.hire"
    save_tensors(path, {"": x})
    code, out, err = run(capsys, "forward", "--config", micro_cfg_path, "--input", str(path))
    assert code == 2
    assert out == ""
    # the input file's lookup rejects the value before the forward's own check sees it
    assert err == f"error: {path}: tensor '': non-finite value nan at flat index 0\n"


@pytest.mark.parametrize(
    "name, index, value",
    [("stages.1.blocks.0.hire.channel.weight", 5, np.nan), ("stages.0.embed.proj.weight", 0, np.inf)],
)
def test_forward_non_finite_weight_exits_2_naming_file_tensor_and_index(capsys, micro_cfg_path, tmp_path, name, index, value):
    tensors = model_tensors(build_model(micro_config(), seed=0))
    tensors[name].reshape(-1)[index] = value
    path = tmp_path / "w.hire"
    save_tensors(path, tensors)
    code, out, err = run(capsys, "forward", "--config", micro_cfg_path, "--weights", str(path), "--random", "64x64x3")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: tensor {name!r}: non-finite value {value} at flat index {index}\n"


def test_forward_negative_running_variance_exits_2_naming_the_tensor(capsys, micro_cfg_path, tmp_path):
    name = "stages.2.blocks.0.norm2.running_var"
    tensors = model_tensors(build_model(micro_config(), seed=0))
    tensors[name][3] = -0.25
    path = tmp_path / "w.hire"
    save_tensors(path, tensors)
    code, out, err = run(capsys, "forward", "--config", micro_cfg_path, "--weights", str(path), "--random", "64x64x3")
    assert (code, out) == (2, "")
    assert err == f"error: weight '{name}': running variance -0.25 at flat index 3 is negative\n"


@pytest.mark.parametrize(
    "values, path",
    [
        ({"stages.0.embed.proj.weight": 3e37}, "stage1.embed"),
        # a large but finite stage input, which one weight then overflows
        ({"stages.1.embed.proj.bias": 1e30, "stages.1.blocks.0.channel_mlp.fc1.weight": 3e38}, "stage2.block0"),
        ({"stages.3.embed.proj.bias": 1e30, "head.weight": 3e38}, "head"),
    ],
    ids=["embed", "block", "head"],
)
def test_forward_overflowing_finite_weights_exit_1_naming_the_first_non_finite_output(capsys, micro_cfg_path, tmp_path, values, path):
    tensors = model_tensors(build_model(micro_config(), seed=0))
    for name, value in values.items():
        tensors[name][...] = value  # finite, so the weight file passes its checks
    weights = tmp_path / "w.hire"
    save_tensors(weights, tensors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end the run with exit 3
        code, out, err = run(capsys, "forward", "--config", micro_cfg_path, "--weights", str(weights), "--random", "64x64x3")
    assert (code, out) == (1, "")
    assert err == f"error: forward: logits are not finite; the first non-finite output is {path}'s\n"


_CHILD_PEAK = (
    "import resource, subprocess, sys\n"
    "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def _child_peak_kib(*argv: str) -> int:
    """Peak RSS of one `python -m hiremlp` run, read by a parent with no other child."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-c", _CHILD_PEAK, sys.executable, "-m", "hiremlp", *argv]
    return int(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_forward_weights_peaks_no_higher_than_a_seeded_forward(tmp_path):
    # Loading must not hold the file's payload beside the model's own arrays.
    config = str(CONFIGS / "tiny.json")
    weights = tmp_path / "tiny.hire"
    save_tensors(weights, model_tensors(build_model(load_config(config), seed=0)))
    seeded = _child_peak_kib("forward", "--config", config, "--random", "224x224x3")
    loaded = _child_peak_kib("forward", "--config", config, "--weights", str(weights), "--random", "224x224x3")
    assert (loaded - seeded) * 1024 < weights.stat().st_size / 4, (loaded, seeded)


def test_forward_empty_batch_exits_2(capsys, micro_cfg_path, tmp_path):
    path = tmp_path / "empty.hire"
    save_tensors(path, {"": np.zeros((0, 40, 40, 3), dtype=np.float32)})
    code, out, err = run(capsys, "forward", "--config", micro_cfg_path, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: forward: expected at least one image, got (0, 40, 40, 3)\n"


@pytest.mark.parametrize("flag", ["--weights", "--input"])
def test_forward_damaged_tensor_file_exits_2(capsys, micro_cfg_path, tmp_path, flag):
    path = tmp_path / "damaged.hire"
    save_tensors(path, model_tensors(build_model(micro_config(), seed=0)))
    path.write_bytes(path.read_bytes()[:-5])
    argv = ["forward", "--config", micro_cfg_path, flag, str(path)]
    if flag == "--weights":
        argv += ["--random", "40x40x3"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: byte ") and err.count("\n") == 1, err


def test_config_type_error_exits_2_naming_file_and_field(capsys, tmp_path):
    d = json.loads((CONFIGS / "micro.json").read_text())
    d["stages"][2]["channels"] = "wide"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "summary", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: stages[2].channels: expected an integer, got a string\n"


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d: d.update(bottleneck_fc=1), "bottleneck_fc"),
        (lambda d: d["stages"][0].update(paddng="zero"), "stages[0].paddng"),
        (lambda d: d["patch_embed"][1].update(strides=2), "patch_embed[1].strides"),
    ],
    ids=["top-level", "stage", "patch-embed"],
)
def test_config_unknown_key_exits_2_naming_file_and_json_path(capsys, tmp_path, edit, where):
    d = json.loads((CONFIGS / "micro.json").read_text())
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "summary", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {where}: unknown key\n"


@pytest.mark.parametrize(
    "command, field, value",
    [
        # 576 TiB: past a 47-bit address space, so the allocator refuses it
        (("summary",), ("stages", 3, "channels"), 2**40),
        # past 2**63 bytes: numpy refuses these before asking the allocator
        (("summary",), ("stages", 3, "channels"), 2**60),
        (("forward", "--random", "64x64x3"), ("stages", 3, "channels"), 2**60),
        (("summary",), ("num_classes",), 2**62),
        (("forward", "--random", "64x64x3"), ("num_classes",), 2**62),
    ],
    ids=["summary-channels-2^40", "summary-channels-2^60", "forward-channels-2^60",
         "summary-classes-2^62", "forward-classes-2^62"],
)
def test_unallocatable_model_exits_2_naming_the_shape(capsys, tmp_path, command, field, value):
    doc = copy.deepcopy(MICRO_JSON)
    *parents, key = field
    holder = doc
    for k in parents:
        holder = holder[k]
    holder[key] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], "--config", str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot allocate the model's (") and err.count("\n") == 1, err
    assert str(value) in err


@pytest.mark.parametrize(
    "argv, shape",
    [
        # past 2**63 bytes: numpy refuses both draws before asking the allocator
        (("forward", "--random", "3037000500x3037000500x3"), "1x3037000500x3037000500x3"),
        (("bench", "--batch", "4611686018427387904"), "4611686018427387904x224x224x3"),
    ],
    ids=["forward-random", "bench-batch"],
)
def test_unallocatable_input_exits_2_naming_the_shape(capsys, micro_cfg_path, argv, shape):
    code, out, err = run(capsys, argv[0], "--config", micro_cfg_path, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot allocate a {shape} input: ") and err.count("\n") == 1, err


def _json_paths(node, path=()):
    """The path of every object member and array entry below a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


MICRO_JSON = json.loads((CONFIGS / "micro.json").read_text())
MISSING, AS_FLOAT = object(), object()  # delete the field; the field's value as a float


@settings(max_examples=200, deadline=None)
@given(
    path=st.sampled_from(list(_json_paths(MICRO_JSON))),
    value=st.sampled_from([-1, 0, AS_FLOAT, float("nan"), MISSING, "x", True, None, [], {}]),
)
@example(path=("expansion_ratio", 0), value=-1)
@example(path=("stages", 0, "channels"), value=0)
def test_summary_of_a_mutated_config_exits_0_or_2_with_one_line(tmp_path_factory, path, value):
    doc = copy.deepcopy(MICRO_JSON)
    *parents, key = path
    holder = doc
    for k in parents:
        holder = holder[k]
    if value is MISSING:
        del holder[key]
    elif value is AS_FLOAT:
        holder[key] = float(holder[key]) if type(holder[key]) is int else 2.0
    else:
        holder[key] = value
    cfg = tmp_path_factory.mktemp("cfg") / "mutated.json"
    cfg.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["summary", "--config", str(cfg)])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err


def test_forward_without_input_exits_2(capsys, micro_cfg_path):
    code, _, _ = run(capsys, "forward", "--config", micro_cfg_path)
    assert code == 2


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_rearrange_scope(capsys):
    code, out, _ = run(capsys, "invariants", "--scope", "rearrange", "--seeds", "5")
    assert code == 0
    assert "roundtrip" in out and "FAIL" not in out


def test_invariants_unknown_scope_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["invariants", "--scope", "bogus"])
    assert e.value.code == 2
    with pytest.raises(ConfigError):
        run_invariants("bogus")


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "--scope", "accounting", "--seeds", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(r["passed"] for r in data["results"])


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_passes(capsys):
    code, out, _ = run(capsys, "gradcheck", "--coords", "20")
    assert code == 0
    assert "OK" in out


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["padding", "manner"])
def test_ablate_kinds_pass(capsys, kind):
    code, out, _ = run(capsys, "ablate", kind)
    assert code == 0
    assert "PASS" in out


def test_ablate_fc_table(capsys):
    code, out, _ = run(capsys, "ablate", "fc", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ordering_ok"] and data["within_tolerance"]
    assert [r["fc_layers"] for r in data["rows"]] == [1, 2, 3, 4]


def test_ablate_shift_flags_no_communication(capsys):
    code, out, _ = run(capsys, "ablate", "shift")
    assert code == 0
    assert "no cross-region communication" in out


def test_ablate_unknown_kind_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["ablate", "bogus"])
    assert e.value.code == 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_smoke(capsys, micro_cfg_path):
    code, out, _ = run(
        capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64",
        "--batch", "2", "--iters", "6",
    )
    assert code == 0
    assert "images/s" in out


def test_bench_json_reports_build_time(capsys, micro_cfg_path):
    code, out, _ = run(
        capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "6", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[-1] == "build_s"
    assert 0 < payload["build_s"] < 60


def test_bench_reports_peak_rss(capsys, micro_cfg_path):
    code, out, _ = run(
        capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "1", "--json",
    )
    assert code == 0
    peak = json.loads(out)["peak_rss_mb"]
    assert isinstance(peak, float) and peak > 0
    code, out, _ = run(capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "1")
    assert code == 0
    assert re.search(r"peak RSS \d+\.\d MB$", out.strip())


_HOLDING_PARENT = (
    "import json, resource, subprocess, sys\n"
    "held = bytearray(b'\\x01') * (256 << 20)  # every page written, so resident\n"
    "out = subprocess.run(sys.argv[1:], check=True, capture_output=True, text=True).stdout\n"
    "print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, json.loads(out)]))\n"
)


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_bench_peak_rss_is_its_own_when_launched_from_a_larger_process():
    # ru_maxrss is carried across exec, so a bench launched from a process
    # holding 256 MiB would report at least that much; micro at 64x64 alone
    # peaks near 40 MB
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-c", _HOLDING_PARENT, sys.executable, "-m", "hiremlp", "bench",
           "--config", str(CONFIGS / "micro.json"), "--hw", "64x64", "--iters", "1", "--json"]
    parent_mb, payload = json.loads(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)
    assert parent_mb >= 256
    assert isinstance(payload["peak_rss_mb"], float) and 0 < payload["peak_rss_mb"] < parent_mb / 2


def test_bench_reports_null_peak_rss_where_proc_status_cannot_be_read(capsys, micro_cfg_path, monkeypatch):
    monkeypatch.setattr(cli, "_status_mb", lambda field: None)
    code, out, _ = run(capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "1", "--json")
    assert code == 0
    assert json.loads(out)["peak_rss_mb"] is None
    code, out, _ = run(capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "1")
    assert code == 0
    assert out.strip().endswith("peak RSS n/a")


def test_bench_reports_forward_rss_apart_from_the_model():
    # each run in its own process, so the peak is that run's: the forwards
    # at 320x320 hold more activations than those at 64x64, with the same weights
    rss = {}
    for hw in ("64x64", "320x320"):
        out = subprocess.run(
            [sys.executable, "-m", "hiremlp", "bench", "--config", str(CONFIGS / "tiny.json"),
             "--hw", hw, "--iters", "1", "--json"],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        ).stdout
        payload = json.loads(out)
        rss[hw] = payload["forward_rss_mb"]
        assert isinstance(rss[hw], float) and 0 <= rss[hw] < payload["peak_rss_mb"]
    assert rss["320x320"] > rss["64x64"] + 4


def test_forward_rss_is_null_unless_the_peak_grew_during_the_forwards():
    assert cli._forward_rss_mb(100.0, 104.0, 110.0) == 10.0
    assert cli._forward_rss_mb(100.0, 110.0, 110.0) is None  # a set-up transient set the peak
    assert cli._forward_rss_mb(None, 104.0, 110.0) is None


def test_bench_reports_null_forward_rss_where_proc_status_cannot_be_read(capsys, micro_cfg_path, monkeypatch):
    monkeypatch.setattr(cli, "_status_mb", lambda field: None)
    code, out, _ = run(capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "1", "--json")
    assert code == 0
    assert json.loads(out)["forward_rss_mb"] is None


def test_bench_reports_lanes_and_blas_threads(capsys, micro_cfg_path, fake_blas):
    code, out, _ = run(
        capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--batch", "3", "--iters", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["lanes"], payload["blas_threads"]) == (2, 2)
    assert fake_blas.threads == 2
    code, out, _ = run(capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "1")
    assert code == 0
    assert "median of 1, 1 lane)" in out


def test_bench_without_thread_control_reports_null_threads(capsys, micro_cfg_path, monkeypatch):
    from hiremlp import lanes

    monkeypatch.setattr(lanes, "blas_control", lambda: None)
    code, out, _ = run(
        capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--batch", "2", "--iters", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["lanes"], payload["blas_threads"]) == (1, None)


def test_bench_zero_iters_exits_2(capsys, micro_cfg_path):
    with pytest.raises(SystemExit) as e:
        main(["bench", "--config", micro_cfg_path, "--iters", "0"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hiremlp bench ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["hiremlp bench: error: argument --iters: expected a positive integer, got '0'"]


def test_bench_one_iter_measures_one_call(capsys, micro_cfg_path):
    code, out, _ = run(
        capsys, "bench", "--config", micro_cfg_path, "--hw", "64x64", "--iters", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["iters"], payload["warmup"]) == (1, 5)


# ---------------------------------------------------------------------------
# argument validation and dependencies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--config", str(CONFIGS / "tiny.json"), "--batch", "0"),
        ("gradcheck", "--coords", "0"),
        ("gradcheck", "--coords", "-3"),
        ("forward", "--config", str(CONFIGS / "tiny.json"), "--random", "64x64x3", "--topk", "-1"),
        ("invariants", "--seeds", "0"),
    ],
    ids=["bench-batch", "gradcheck-coords-0", "gradcheck-coords-neg", "forward-topk", "invariants-seeds"],
)
def test_nonpositive_count_exits_2(capsys, argv):
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a positive integer, got '{value}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("forward", "--config", str(CONFIGS / "micro.json"), "--random", "32x32x3"),
        ("gradcheck",),
        ("invariants",),
        ("bench", "--config", str(CONFIGS / "micro.json"), "--iters", "6"),
        ("ablate", "shift"),
    ],
    ids=["forward", "gradcheck", "invariants", "bench", "ablate"],
)
def test_negative_seed_exits_2_with_usage(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main([*argv, "--seed", "-1"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hiremlp ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"hiremlp {argv[0]}: error: argument --seed: expected a non-negative integer, got '-1'"
    ]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize(
    "argv",
    [
        ("summary", "--config", "{bad}"),
        ("bench", "--config", "{bad}"),
        ("forward", "--config", "{cfg}", "--random", "64x64x3", "--weights", "{bad}"),
        ("forward", "--config", "{cfg}", "--input", "{bad}"),
    ],
    ids=["summary-config", "bench-config", "forward-weights", "forward-input"],
)
def test_unreadable_path_exits_2(capsys, micro_cfg_path, tmp_path, argv, case):
    bad = {"missing": tmp_path / "missing", "directory": tmp_path, "non-utf8": tmp_path / "ff"}[case]
    if case == "non-utf8":
        bad.write_bytes(b"\xff")
    code, out, err = run(capsys, *(a.format(bad=bad, cfg=micro_cfg_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unexpected_exception_exits_3_with_one_line(capsys, monkeypatch, micro_cfg_path):
    def broken(args):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr("hiremlp.cli.cmd_summary", broken)
    code, out, err = run(capsys, "summary", "--config", micro_cfg_path)
    assert code == 3
    assert out == ""
    assert err == "error: RuntimeError: disk on fire\n"


def test_import_does_not_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import hiremlp.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
