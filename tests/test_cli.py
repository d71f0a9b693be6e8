import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnnstream.cli
from conftest import residual_overflow_chain
from qnnstream.cli import CALIBRATION_TARGET_CYCLES, main
from qnnstream.netdesc import parse_netdesc, random_params, save_params
from qnnstream.quant import WeightBlock

NET_TEXT = """\
input 8 8 3 8
conv k=3 s=1 p=1 o=4 d=2.0 act=2
maxpool k=2 s=2
conv k=3 s=1 p=1 o=6 d=1.5 act=2
avgpool k=4 s=4
fc o=5 d=0.5 act=2
"""


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "small.net"
    path.write_text(NET_TEXT)
    return str(path)


# ---------------------------------------------------------------------------
# run

def test_run_json_schema(net_file, capsys):
    argv = ["run", "--net", net_file, "--random-params", "7",
            "--random-image", "9", "--format", "json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"class", "stages", "total_cycles", "wall_ms"}
    assert 0 <= out["class"] < 5
    assert out["total_cycles"] > 0
    for row in out["stages"]:
        assert set(row) == {"name", "busy", "stall", "fill"}


def test_run_json_byte_stable(net_file, capsys):
    argv = ["run", "--net", net_file, "--random-params", "7",
            "--random-image", "9", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_run_human(net_file, capsys):
    assert main(["run", "--net", net_file, "--random-params", "7",
                 "--random-image", "9"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("class ")
    assert "bottleneck" in out
    assert "105.0 MHz" in out


def test_run_image_file_matches_seed(net_file, tmp_path, capsys):
    # the seeded frame and the same bytes fed from a file must agree
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    path = tmp_path / "frame.raw"
    path.write_bytes(img.tobytes())
    base = ["--net", net_file, "--random-params", "7", "--format", "json"]
    assert main(["run"] + base + ["--random-image", "9"]) == 0
    seeded = capsys.readouterr().out
    assert main(["run"] + base + ["--image", str(path),
                                  "--image-dims", "8", "8", "3"]) == 0
    assert capsys.readouterr().out == seeded


# ---------------------------------------------------------------------------
# estimate

def test_estimate_human_reference_line(capsys):
    assert main(["estimate", "--builtin", "resnet18"]) == 0
    out = capsys.readouterr().out
    assert "total 2364388 cycles" in out
    assert "reference 1850000 cycles, delta +27.80%" in out
    assert "bottleneck conv1" in out


def test_estimate_json_clock_sweep(capsys):
    assert main(["estimate", "--builtin", "resnet18",
                 "--clock-mhz", "105,210", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lo, hi = doc["estimates"]
    assert lo["total_cycles"] == hi["total_cycles"] == 2364388
    assert lo["reference_cycles"] == CALIBRATION_TARGET_CYCLES
    assert lo["delta_pct"] == pytest.approx(27.8048, abs=1e-3)
    assert hi["wall_ms"] == pytest.approx(lo["wall_ms"] / 2)


# ---------------------------------------------------------------------------
# partition

def test_partition_alexnet(capsys):
    assert main(["partition", "--builtin", "alexnet",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"]
    assert len(doc["devices"]) == 2
    assert [l["required_mbps"] for l in doc["links"]] == [210.0]


def test_partition_json_numbers_devices_and_links_in_order(capsys):
    # three devices: "device" counts 0..2 and "link" 0..1 in chain order,
    # link i being the cut in front of device i + 1
    assert main(["partition", "--builtin", "resnet18", "--budget-m20k", "300",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(d["device"], d["stages"][0], d["stages"][-1], d["m20k"])
            for d in doc["devices"]] == [(0, "conv1", "block5_b", 275),
                                         (1, "block6_a", "block7_b", 298),
                                         (2, "block8_a", "fc1", 262)]
    assert [(l["link"], l["required_mbps"], l["ok"]) for l in doc["links"]] \
        == [(0, 1890.0, True), (1, 1890.0, True)]


@pytest.mark.parametrize("builtin, devices, chained, single", [
    ("resnet18", 2, 2288028, 2364388),
    ("alexnet", 2, 706560, 711656),
    ("vgg", 1, 231906, 231906),
])
def test_partition_prints_chained_total(builtin, devices, chained, single, capsys):
    # the chained frame total under the placement's ranges, against the
    # one-device total that estimate prints
    assert main(["partition", "--builtin", builtin, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["devices"]) == devices
    assert doc["chained_total_cycles"] == chained
    assert main(["partition", "--builtin", builtin]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["chained total %d cycles" % chained, "feasible"]
    assert main(["estimate", "--builtin", builtin, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["estimates"][0]["total_cycles"] == single


def test_partition_infeasible_link(capsys):
    rc = main(["partition", "--builtin", "alexnet",
               "--link-gbps", "0.0001"])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().out


def test_partition_device_limit(capsys):
    rc = main(["partition", "--builtin", "resnet18", "--max-devices", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--max-devices", "0"), ("--max-devices", "-1"),
                                        ("--budget-m20k", "-1"), ("--budget-ff", "-5")])
def test_partition_malformed_flag_exits_1(flag, value, capsys):
    # a limit below one device or a negative budget is a malformed flag,
    # not an infeasible partition
    rc = main(["partition", "--builtin", "alexnet", flag, value])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# compare

def test_compare_match(net_file, capsys):
    assert main(["compare", "--net", net_file, "--random-params", "1",
                 "--random-image", "1"]) == 0
    assert capsys.readouterr().out.startswith("MATCH")


@pytest.fixture
def corrupt_engine(monkeypatch):
    """compare builds the engine's graph from params the reference has
    already run on; flip every weight of the first and of the last
    weighted layer on the way in. Flipping a layer negates its
    accumulators. Later layers can absorb the change to the first layer,
    but the last layer's accumulators reach the outputs directly."""
    build_graph = qnnstream.cli.build_graph

    def corrupted(net, params, *args, **kwargs):
        convs = [lp.convs[key] for lp in params for key in ("main", "a", "b")
                 if lp.convs.get(key) is not None]
        assert convs
        for cp in convs[:1] + convs[1:][-1:]:
            # a weight >= 0 binarizes to +1, so this binarizes to its negation
            cp.weights = WeightBlock.from_float(np.where(cp.raw_weights >= 0, -1.0, 1.0))
        return build_graph(net, params, *args, **kwargs)

    monkeypatch.setattr(qnnstream.cli, "build_graph", corrupted)


def test_compare_corrupt_weight(net_file, corrupt_engine, capsys):
    rc = main(["compare", "--net", net_file, "--random-params", "1",
               "--random-image", "1"])
    assert rc == 2
    assert capsys.readouterr().out.startswith("MISMATCH at output ")


def test_compare_corrupt_weight_felt_on_vgg(corrupt_engine, capsys):
    # vgg's outputs do not feel a single flipped weight; the fixture
    # flips every weight of the first and the last weighted layer
    rc = main(["compare", "--builtin", "vgg", "--random-params", "0",
               "--random-image", "1"])
    assert rc == 2
    assert capsys.readouterr().out.startswith("MISMATCH at output ")


def test_compare_corrupt_weight_single_layer(tmp_path, corrupt_engine, capsys):
    # the first weighted layer is also the last: flipped once, not twice
    path = tmp_path / "fc.net"
    path.write_text("input 2 2 1 8\nfc o=3\n")
    rc = main(["compare", "--net", str(path), "--random-params", "1",
               "--random-image", "1"])
    assert rc == 2
    assert capsys.readouterr().out.startswith("MISMATCH at output ")


def test_compare_overflow_exits_1(tmp_path, capsys):
    # a join's sum leaves 16 bits: an error line and exit 1, not a
    # mismatch
    text, arrays, img = residual_overflow_chain()
    paths = {"net": tmp_path / "chain.net", "params": tmp_path / "chain.bin",
             "image": tmp_path / "chain.raw"}
    paths["net"].write_text(text)
    paths["params"].write_bytes(save_params(parse_netdesc(text), arrays))
    paths["image"].write_bytes(img.tobytes())
    rc = main(["compare", "--net", str(paths["net"]), "--params", str(paths["params"]),
               "--image", str(paths["image"]), "--image-dims", *map(str, img.shape)])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: value 32835 does not fit a signed 16-bit accumulator\n"


@pytest.mark.parametrize("name", ["build_graph", "random_params"])
def test_out_of_memory_exits_1(net_file, monkeypatch, name, capsys):
    # a net too big to allocate fails in the line-buffer ring or in the
    # parameter blob; the allocation is faked, a real one could exhaust
    # the host's memory under overcommit
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.80 TiB")
    monkeypatch.setattr(qnnstream.cli, name, too_big)
    assert main(["run", "--net", net_file, "--random-params", "1",
                 "--random-image", "1"]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 4.80 TiB\n"


def test_compare_has_no_corrupt_weight_flag(net_file, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["compare", "--net", net_file, "--random-params", "1",
              "--random-image", "1", "--corrupt-weight"])
    assert exit_.value.code == 1
    assert "unrecognized arguments: --corrupt-weight" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flag and input errors, all exit 1

def test_unknown_flag_exits_1(capsys):
    for argv in (["estimate", "--builtin", "resnet18", "--no-such-flag"],
                 # compare checks outputs only, so it takes no cycle model flags
                 ["compare", "--builtin", "vgg", "--random-params", "0",
                  "--random-image", "0", "--c-mac", "3"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1


def test_missing_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1


def test_net_and_builtin_conflict(net_file, capsys):
    rc = main(["estimate", "--net", net_file, "--builtin", "resnet18"])
    assert rc == 1
    assert "exactly one of" in capsys.readouterr().err


def test_neither_net_nor_builtin(capsys):
    assert main(["estimate"]) == 1


@pytest.mark.parametrize("clock", ["abc", "nan"])
def test_estimate_bad_clock_exits_1(clock, capsys):
    rc = main(["estimate", "--builtin", "resnet18", "--clock-mhz", clock])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["estimate", "--builtin", "vgg", "--clock-mhz", "1e-320"],
    ["partition", "--builtin", "alexnet", "--link-gbps", "1e306"],
    ["partition", "--builtin", "alexnet", "--clock-mhz", "1e308"],
])
def test_rate_out_of_range_exits_1(argv, capsys):
    # a wall time or link rate past float range would print Infinity,
    # which is not JSON
    assert main(argv + ["--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_params_flag_conflict(net_file, capsys):
    rc = main(["run", "--net", net_file, "--params", "x.bin",
               "--random-params", "1", "--random-image", "1"])
    assert rc == 1


def test_image_needs_dims(net_file, tmp_path, capsys):
    path = tmp_path / "frame.raw"
    path.write_bytes(b"\x00" * 192)
    rc = main(["run", "--net", net_file, "--random-params", "1",
               "--image", str(path)])
    assert rc == 1
    assert "--image-dims" in capsys.readouterr().err


def test_image_size_mismatch(net_file, tmp_path, capsys):
    path = tmp_path / "frame.raw"
    path.write_bytes(b"\x00" * 100)
    rc = main(["run", "--net", net_file, "--random-params", "1",
               "--image", str(path), "--image-dims", "8", "8", "3"])
    assert rc == 1
    assert "dims say" in capsys.readouterr().err
    # dims that agree with the file but not with the network, and dims
    # that are not positive, fail before any engine or oracle runs
    small = tmp_path / "small.raw"
    small.write_bytes(b"\x00" * 3)
    empty = tmp_path / "empty.raw"
    empty.write_bytes(b"")
    for argv in (["compare", "--builtin", "vgg", "--random-params", "1",
                  "--image", str(small), "--image-dims", "1", "1", "3"],
                 ["run", "--builtin", "vgg", "--random-params", "1",
                  "--image", str(small), "--image-dims", "1", "1", "3"],
                 ["run", "--net", net_file, "--random-params", "1",
                  "--image", str(empty), "--image-dims", "-1", "-1", "0"]):
        rc = main(argv)
        assert rc == 1
        assert "do not match the network input" in capsys.readouterr().err


def test_missing_net_file(capsys):
    rc = main(["estimate", "--net", "/no/such/file.net"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_net_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_bytes(NET_TEXT.encode().replace(b"maxpool", b"\xffmaxpool"))
    rc = main(["run", "--net", str(path), "--random-params", "1",
               "--random-image", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["estimate"], ["partition"], ["run", "--random-params", "1", "--random-image", "1"],
    ["compare", "--random-params", "1", "--random-image", "1"]],
    ids=["estimate", "partition", "run", "compare"])
def test_input_only_net_exits_1(tmp_path, argv, capsys):
    # a description with no layer after its input once parsed, and every
    # command then ended in a traceback; the parser refuses the line
    path = tmp_path / "input_only.net"
    path.write_text("input 4 4 1 2\n")
    rc = main(argv[:1] + ["--net", str(path)] + argv[1:])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: input needs a layer after it")


@pytest.mark.parametrize("conv", ["conv k=3 s=1 p=1 o=99999999999999999999 d=1",
                                  "conv k=3 s=1 p=99999999999999999999 o=4 d=1"],
                         ids=["channels", "pad"])
def test_oversized_layer_exits_1(tmp_path, conv, capsys):
    # sizes past an index-sized integer once overflowed in the blob's
    # bytearray or the line buffer's ring; the parser refuses the line
    path = tmp_path / "big.net"
    path.write_text("input 8 8 3 8\n%s\n" % conv)
    rc = main(["run", "--net", str(path), "--random-params", "1",
               "--random-image", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: too large")


@pytest.mark.parametrize("flag,seed", [("--random-params", "-1"),
                                       ("--random-image", "-3")])
def test_negative_seed_exits_1(net_file, flag, seed, capsys):
    argv = ["run", "--net", net_file, "--random-params", "1", "--random-image", "1"]
    argv[argv.index(flag) + 1] = seed
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 1
    assert "error: argument %s: a seed is a non-negative integer" % flag \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pinned outputs: these commands print exactly what they printed when the
# digest was taken, so a refactor that changes no behaviour keeps it

_PINNED = (
    [[cmd, "--builtin", net, "--format", fmt]
     for cmd in ("estimate", "partition")
     for net in ("resnet18", "alexnet", "vgg")
     for fmt in ("human", "json")]
    + [["estimate", "--builtin", "resnet18", "--stall-model", "isolated",
        "--cin-mode", "element", "--clock-mhz", "100,105"]]
    + [["run", "--builtin", "vgg", "--random-params", "1", "--random-image", "2",
        "--format", fmt] for fmt in ("human", "json")]
    + [["compare", "--builtin", "vgg", "--random-params", "1", "--random-image", "2"]]
)
_PINNED_DIGEST = "355417eee8b77be735aeee093c67c20d7b51c96ae41e22582b6712f1d8fde56d"


def test_outputs_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _PINNED:
        rc = main(argv)
        digest.update(repr((argv, rc, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == _PINNED_DIGEST


# ---------------------------------------------------------------------------
# argv fuzzing: whatever the flags, the CLI ends in 0, 1 or 2, never a
# traceback

_NUMBERS = ["-1", "0", "3", "9" * 30, "1" + "0" * 400, "nan", "inf", "", "junk",
            "1e-320", "1e306", "1e308"]
_FILES = ["NET", "BLOB", "IMAGE", "JUNK", "DIR", "MISSING"]
_NET_FLAGS = {"--net": _FILES, "--builtin": ["vgg", "junk", ""]}
_DATA_FLAGS = {"--params": _FILES, "--random-params": _NUMBERS,
               "--image": _FILES, "--image-dims": _NUMBERS,
               "--random-image": _NUMBERS}
_MODEL_FLAGS = {"--clock-mhz": _NUMBERS + ["100,200", "1,,2"],
                "--cin-mode": ["pixel", "element", "junk"],
                "--stall-model": ["chained", "isolated", "junk"],
                "--c-mac": _NUMBERS, "--format": ["human", "json", "junk"]}
_VOCABULARY = {
    "run": {**_NET_FLAGS, **_DATA_FLAGS, **_MODEL_FLAGS},
    "estimate": {**_NET_FLAGS, **_MODEL_FLAGS},
    "partition": {**_NET_FLAGS, "--max-devices": _NUMBERS,
                  "--budget-m20k": _NUMBERS, "--budget-ff": _NUMBERS,
                  "--link-gbps": _NUMBERS, "--clock-mhz": _NUMBERS,
                  "--format": ["human", "json", "junk"]},
    "compare": {**_NET_FLAGS, **_DATA_FLAGS},
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"NET": root / "small.net", "BLOB": root / "small.bin",
             "IMAGE": root / "frame.raw", "JUNK": root / "junk.bin",
             "DIR": root, "MISSING": root / "missing"}
    files["NET"].write_text(NET_TEXT)
    files["BLOB"].write_bytes(random_params(parse_netdesc(NET_TEXT),
                                            np.random.default_rng(0)))
    files["IMAGE"].write_bytes(bytes(range(192)))
    files["JUNK"].write_bytes(b"\xff\xfe\x00input 1 1 1 2\n")
    return {name: str(path) for name, path in files.items()}


@st.composite
def _argv(draw):
    """A valid invocation of one subcommand, in either output format,
    then up to three flags from that subcommand's vocabulary; a later
    flag overrides an earlier one."""
    command = draw(st.sampled_from(sorted(_VOCABULARY)))
    vocabulary = _VOCABULARY[command]
    # one draw in eight takes vgg, whose frames dominate the test's time
    net = draw(st.sampled_from([["--net", "NET"]] * 7 + [["--builtin", "vgg"]]))
    argv = [command] + net
    if command in ("run", "compare"):
        argv += ["--random-params", "1", "--random-image", "2"]
    if "--format" in vocabulary:
        argv += ["--format", draw(st.sampled_from(["human", "json"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(vocabulary)), max_size=3)):
        argv.append(flag)
        for _ in range(3 if flag == "--image-dims" else 1):
            argv.append(draw(st.sampled_from(vocabulary[flag] + ["8"])))
    return argv


def _reject_constant(name):
    raise ValueError("%s is not a JSON number" % name)


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
def test_cli_argv_fuzz(fuzz_files, argv):
    argv = [fuzz_files.get(tok, tok) for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2), (argv, rc)
    formats = [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok == "--format"]
    if out and formats[-1:] == ["json"]:
        json.loads(out, parse_constant=_reject_constant)
    if rc == 1:
        assert "error:" in err, argv
    if rc == 2:
        # a mismatch and an infeasible placement are verdicts, not errors
        verdict = out.startswith("MISMATCH") or out.endswith("infeasible\n") \
            or '"feasible":false' in out
        assert verdict or "error:" in err, argv
