import json
import math
import subprocess
import sys

import pytest

from necktree.cli import EXIT_CONFIG, EXIT_RESOURCE, EXIT_USAGE, parse_depths, run
from necktree.config import family_to_dict
from necktree.errors import ConfigError

from helpers import deep_thin_family

WORKED_FAMILY = {
    "ambient_dim": 1,
    "systems": [
        {
            "label": "A",
            "weight": 0.5,
            "maps": [
                {"ratio": 0.3333333333333333, "translation": [0.0]},
                {"ratio": 0.3333333333333333, "translation": [0.6666666666666666]},
            ],
        },
        {
            "label": "B",
            "weight": 0.5,
            "maps": [
                {"ratio": 0.3333333333333333, "translation": [0.0]},
                {"ratio": 0.3333333333333333, "translation": [0.3333333333333333]},
                {"ratio": 0.3333333333333333, "translation": [0.6666666666666666]},
            ],
        },
    ],
}

H1_PLUS = {"s": "auto", "family": {"h1": {"beta": "auto", "gamma": 0.5}}}


@pytest.fixture
def configs(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(WORKED_FAMILY))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "homogeneous", "seed": 7}))
    gauge = tmp_path / "h1_plus.json"
    gauge.write_text(json.dumps(H1_PLUS))
    power_gauge = tmp_path / "power.json"
    power_gauge.write_text(json.dumps({"s": "auto", "family": "power"}))
    return tmp_path, fam, model, gauge, power_gauge


def test_parse_depths_forms():
    assert parse_depths("1,5,3") == [1, 3, 5]
    assert parse_depths("2:10:4") == [2, 6, 10]
    grid = parse_depths("1:10000:log")
    assert grid[0] == 1 and grid[-1] == 10000
    assert all(b > a for a, b in zip(grid, grid[1:]))
    with pytest.raises(ConfigError):
        parse_depths("5:1:log")
    with pytest.raises(ConfigError):
        parse_depths("oops")


def test_dim_prints_worked_value(configs, capsys):
    _, fam, model, _, _ = configs
    assert run(["dim", "--family", str(fam), "--model", str(model)]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.815464877) < 1e-7


def test_dim_recursive_value(configs, capsys):
    _, fam, _, _, _ = configs
    assert run(["dim", "--family", str(fam), "--model", "recursive"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.834043767) < 1e-7


def test_validate_reports_gap(configs, capsys):
    _, fam, model, _, _ = configs
    assert run(["validate", "--family", str(fam), "--model", str(model)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["almost_deterministic_at"] is None
    assert payload["gap"][2] == pytest.approx(0.5)


def test_percolate_dim(capsys):
    assert run(["percolate", "--p", "0.8", "--dim"]) == 0
    assert abs(float(capsys.readouterr().out) - math.log(1.6) / math.log(2)) < 1e-7


def test_levelsum_csv_deterministic(configs):
    tmp, fam, model, _, power_gauge = configs
    out1, out2 = tmp / "a.csv", tmp / "b.csv"
    args = [
        "levelsum", "--family", str(fam), "--model", str(model),
        "--gauge", str(power_gauge), "--seed", "7", "--depths", "1:64:log",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# necktree")
    assert lines[1] == "depth,log_sum"
    manifest = json.loads((tmp / "a.csv.manifest.json").read_text())
    assert manifest["command"] == "levelsum"
    assert set(manifest["spec_hashes"]) == {"family", "model", "gauge"}


def test_drift_worker_invariance_and_rerun(configs):
    tmp, fam, model, gauge, _ = configs
    outs = []
    for name, workers in (("w1.csv", "1"), ("w2.csv", "2"), ("w1b.csv", "1")):
        out = tmp / name
        assert run([
            "drift", "--family", str(fam), "--model", str(model),
            "--gauge", str(gauge), "--seed", "7", "--n", "40",
            "--depths", "100:800:log", "--workers", workers, "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    header = outs[0].decode().splitlines()[1]
    assert header.startswith("depth,median_log_sum,q10,q90,env_plus,env_minus,frac_below,frac_above")


def test_pack_runs(configs):
    tmp, fam, model, _, _ = configs
    gauge = tmp / "h1s.json"
    gauge.write_text(json.dumps({"s": "auto", "family": {"h1_star": {"beta": "auto", "gamma": 0.5}}}))
    out = tmp / "pack.csv"
    assert run([
        "pack", "--family", str(fam), "--model", str(model), "--gauge", str(gauge),
        "--seed", "3", "--n", "20", "--depths", "100:400:log", "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[1].startswith("depth,runmax_median")


def test_sections_json(configs, capsys):
    _, fam, model, _, power_gauge = configs
    assert run([
        "sections", "--family", str(fam), "--model", str(model),
        "--gauge", str(power_gauge), "--seed", "1",
        "--depth-min", "1", "--depth-cap", "3",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "value_log" in payload and payload["depth_min"] == 1


def test_render_csv_and_pgm(configs):
    tmp, fam, model, _, _ = configs
    out = tmp / "pts.csv"
    assert run([
        "render", "--family", str(fam), "--model", str(model),
        "--seed", "2", "--n", "200", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# necktree") and len(lines) == 201
    img = tmp / "img.pgm"
    assert run([
        "render", "--family", str(fam), "--model", str(model),
        "--seed", "2", "--n", "200", "--out", str(img),
        "--pgm", "--width", "64", "--height", "8",
    ]) == 0
    assert img.read_bytes().startswith(b"P5\n")


def test_exit_codes(configs, tmp_path):
    tmp, fam, model, gauge, power_gauge = configs
    assert run(["dim", "--family", str(tmp / "missing.json"), "--model", "homogeneous"]) == EXIT_CONFIG
    assert run(["dim", "--bogus-flag"]) == EXIT_USAGE
    assert run(["nonsense-command"]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ambient_dim": 1, "systems": [{"weight": 1.0}]}))
    assert run(["dim", "--family", str(bad), "--model", "homogeneous"]) == EXIT_CONFIG
    # budget exhaustion on a streamed level sum
    fam2, model2 = tmp_path / "fam2.json", tmp_path / "model2.json"
    fam2.write_text(json.dumps(WORKED_FAMILY))
    model2.write_text(json.dumps({"model": "recursive", "seed": 1}))
    assert run([
        "levelsum", "--family", str(fam2), "--model", str(model2),
        "--gauge", str(power_gauge), "--depths", "1:14:1", "--budget", "50",
    ]) == EXIT_RESOURCE


def test_h1_gauge_with_underflowing_plateau_is_a_config_error(tmp_path):
    # auto beta on this family is about 2.4e-4, so log r0 is about -11507
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"systems": [
        {"weight": 0.45, "maps": [{"ratio": 0.5}, {"ratio": 0.3}]},
        {"weight": 0.1, "maps": [{"ratio": 0.3}, {"ratio": 0.25}, {"ratio": 0.2}]},
        {"weight": 0.45, "maps": [{"ratio": 0.45}, {"ratio": 0.35}]},
    ]}))
    gauge = tmp_path / "gauge.json"
    gauge.write_text(json.dumps({"s": "auto", "family": {"h1": {"beta": "auto"}}}))
    assert run([
        "levelsum", "--family", str(fam), "--model", "recursive",
        "--gauge", str(gauge), "--depths", "1,3",
    ]) == EXIT_CONFIG


def test_levelsum_deep_thin_tree(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(family_to_dict(deep_thin_family())))
    gauge = tmp_path / "gauge.json"
    gauge.write_text(json.dumps({"s": 0.5, "family": "power"}))
    assert 1500 > sys.getrecursionlimit()
    assert run([
        "levelsum", "--family", str(fam), "--model", "recursive",
        "--gauge", str(gauge), "--depths", "1,1500",
    ]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["1", "1500"]
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "necktree.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE  # no subcommand


def test_cli_main_module_percolate():
    proc = subprocess.run(
        [sys.executable, "-m", "necktree.cli", "percolate", "--p", "0.75"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["recursive_supercritical"] is True