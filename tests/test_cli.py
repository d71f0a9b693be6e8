import json

import numpy as np
import pytest

from qnnstream.cli import CALIBRATION_TARGET_CYCLES, main

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


def test_partition_infeasible_link(capsys):
    rc = main(["partition", "--builtin", "alexnet",
               "--link-gbps", "0.0001"])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().out


def test_partition_device_limit(capsys):
    rc = main(["partition", "--builtin", "resnet18", "--max-devices", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare

def test_compare_match(net_file, capsys):
    assert main(["compare", "--net", net_file, "--random-params", "1",
                 "--random-image", "1"]) == 0
    assert capsys.readouterr().out.startswith("MATCH")


def test_compare_corrupt_weight(net_file, capsys):
    rc = main(["compare", "--net", net_file, "--random-params", "1",
               "--random-image", "1", "--corrupt-weight"])
    assert rc == 2
    assert capsys.readouterr().out.startswith("MISMATCH at output ")


# ---------------------------------------------------------------------------
# flag and input errors, all exit 1

def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["estimate", "--builtin", "resnet18", "--no-such-flag"])
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
