import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necktree import cli, config, measure, rifs, trees
from necktree.cli import EXIT_CONFIG, EXIT_RESOURCE, EXIT_USAGE, parse_depths, run
from necktree.config import family_to_dict
from necktree.errors import ConfigError

from helpers import deep_thin_family, time_limit

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

# A child interpreter does not see pytest's ``pythonpath`` setting.
SRC = Path(__file__).resolve().parents[1] / "src"


def run_in_fresh_process(args: list[str], code: Optional[str] = None) -> subprocess.CompletedProcess:
    """Run ``python -m necktree.cli args``, or ``python -c code args``, in a new interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    entry = ["-m", "necktree.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


H1_PLUS = {"s": "auto", "family": {"h1": {"beta": "auto", "gamma": 0.5}}}
# Two neck_block templates of lengths 2 and 3 over the worked family's two systems.
BLOCK_MODEL = {"model": {"neck_block": {"templates": [
    {"weight": 2.0, "levels": [[0.8, 0.2], [0.3, 0.7]]},
    {"weight": 1.0, "levels": [[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]},
]}}, "seed": 7}
# The worked family with system A's maps at ratios 1/4 and 1/2: level sums take the stream path.
MULTI_RATIO_FAMILY = {**WORKED_FAMILY, "systems": [
    {"label": "A", "weight": 0.5, "maps": [
        {"ratio": 0.25, "translation": [0.0]}, {"ratio": 0.5, "translation": [0.5]},
    ]},
    WORKED_FAMILY["systems"][1],
]}


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
    (tmp_path / "block.json").write_text(json.dumps(BLOCK_MODEL))
    (tmp_path / "multi.json").write_text(json.dumps(MULTI_RATIO_FAMILY))
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


def test_levelsum_json_deterministic(configs):
    # the timestamps differ between runs; they go to the sidecar manifest only
    tmp, fam, model, _, power_gauge = configs
    args = [
        "levelsum", "--family", str(fam), "--model", str(model), "--gauge", str(power_gauge),
        "--depths", "1:8:1", "--format", "json",
    ]
    clock = (f"2026-01-01T00:00:{i:02d}Z" for i in range(60))
    with patch.object(cli, "_now", lambda: next(clock)):
        assert run(args + ["--out", str(tmp / "a.json")]) == 0
        assert run(args + ["--out", str(tmp / "b.json")]) == 0
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
    payload = json.loads((tmp / "a.json").read_text())
    assert sorted(payload) == ["columns", "provenance", "rows"]
    # no --seed: the run takes the model file's seed
    assert payload["provenance"].startswith("necktree ") and "cmd=levelsum seed=7" in payload["provenance"]
    assert payload["columns"] == ["depth", "log_sum"] and len(payload["rows"]) == 8
    manifests = [json.loads((tmp / f"{n}.json.manifest.json").read_text()) for n in "ab"]
    assert manifests[0]["started"] != manifests[1]["started"]


def test_model_file_seed_is_the_default_seed(configs):
    tmp, fam, model, _, power_gauge = configs
    unseeded = tmp / "unseeded.json"
    unseeded.write_text(json.dumps({"model": "homogeneous"}))

    def levelsum(model_path, *seed):
        out = tmp / "levelsum.json"
        assert run([
            "levelsum", "--family", str(fam), "--model", str(model_path), "--gauge", str(power_gauge),
            "--depths", "1:40:log", "--format", "json", *seed, "--out", str(out),
        ]) == 0
        return out.read_bytes(), json.loads(out.read_text())["rows"]

    from_file, rows = levelsum(model)
    assert "seed=7 " in json.loads(from_file)["provenance"]
    assert from_file == levelsum(model, "--seed", "7")[0]
    # an explicit --seed 0 wins over the file's seed 7
    zero, zero_rows = levelsum(model, "--seed", "0")
    assert "seed=0 " in json.loads(zero)["provenance"]
    assert zero_rows == levelsum(unseeded)[1] != rows


def test_render_negative_point_count_is_a_config_error(configs, capsys):
    tmp, fam, model, *_ = configs
    out = tmp / "points.csv"
    assert run(["render", "--family", str(fam), "--model", str(model), "--n", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: point count must be >= 0, got -1\n"
    assert not out.exists()


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


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.sampled_from([None, (), ((),)]),
        st.lists(st.lists(st.integers(1, 120), min_size=1, max_size=9).map(tuple), min_size=1, max_size=20).map(tuple),
    ),
    st.one_of(st.sampled_from([-math.inf, -0.0]), st.floats(allow_nan=False, allow_infinity=False)),
    st.integers(0, 12),
)
def test_sections_text_is_the_indented_json_dump(section, value_log, depth_min):
    sv = measure.SectionValue(value_log=value_log, depth_min=depth_min, argmin_section=section)
    payload = {
        "value_log": float(value_log),
        "depth_min": depth_min,
        "argmin_section": [list(a) for a in section] if section else None,
    }
    assert cli._section_json(sv) == json.dumps(payload, indent=2)


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


def test_render_refuses_a_map_that_never_shrinks(tmp_path):
    fam = tmp_path / "identity.json"
    fam.write_text(json.dumps({
        "ambient_dim": 1,
        "systems": [{"label": "I", "weight": 1.0, "maps": [{"ratio": 1.0, "translation": [0.0]}]}],
    }))
    with time_limit(10):
        code = run([
            "render", "--family", str(fam), "--model", "homogeneous",
            "--n", "4", "--out", str(tmp_path / "pts.csv"),
        ])
    assert code == EXIT_CONFIG


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
    proc = run_in_fresh_process([])
    assert proc.returncode == EXIT_USAGE  # no subcommand


def test_percolate_dim_and_boxdim_are_one_usage_error(capsys):
    assert run(["percolate", "--p", "0.8", "--dim", "--boxdim"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: necktree percolate")
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: argument --boxdim: not allowed with argument --dim"
    ]


def test_cli_main_module_percolate():
    proc = run_in_fresh_process(["percolate", "--p", "0.75"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["recursive_supercritical"] is True


def test_runs_in_one_process_match_fresh_processes(configs, capsys):
    _, fam, model, gauge, power_gauge = configs
    common = ["--family", str(fam), "--model", str(model), "--seed", "7"]
    levelsum = ["levelsum", *common, "--gauge", str(power_gauge), "--depths", "1:64:log"]
    drift = ["drift", *common, "--gauge", str(gauge), "--n", "4", "--depths", "10:200:log"]
    outs = []
    for args in (levelsum, drift, ["levelsum", "--no-such-flag"], levelsum):
        code = run(args)
        outs.append(capsys.readouterr().out)
        assert code == (EXIT_USAGE if "--no-such-flag" in args else 0)
    fresh = [run_in_fresh_process(args) for args in (levelsum, drift)]
    assert [p.returncode for p in fresh] == [0, 0]
    assert outs[0] == outs[3] == fresh[0].stdout
    assert outs[1] == fresh[1].stdout


# blake2b-64 digests of each command's data bytes (its --out file, else its
# stdout) on the ``configs`` fixture.  The CSV and PGM headers carry the tool
# version, so a version bump changes the table-writing rows.
PINNED_RUNS = {
    "validate": (["validate", "--family", "{fam}", "--model", "{model}"], "a73eea6d1ee3723e"),
    "dim-homogeneous": (["dim", "--family", "{fam}", "--model", "{model}"], "0cfea4039cf6793a"),
    "dim-recursive": (["dim", "--family", "{fam}", "--model", "recursive"], "edb2952defb96f7c"),
    "levelsum": ([
        "levelsum", "--family", "{fam}", "--model", "{model}", "--gauge", "{power}",
        "--seed", "7", "--depths", "1:64:log", "--out", "{out}",
    ], "389ead50493d6d68"),
    "sections": ([
        "sections", "--family", "{fam}", "--model", "{model}", "--gauge", "{power}",
        "--seed", "1", "--depth-cap", "3",
    ], "125aa8141a6b519e"),
    "drift": ([
        "drift", "--family", "{fam}", "--model", "{model}", "--gauge", "{h1}",
        "--seed", "7", "--n", "6", "--depths", "100:800:log", "--out", "{out}",
    ], "6a17797b7f62eb70"),
    "pack": ([
        "pack", "--family", "{fam}", "--model", "{model}", "--gauge", "{h1}",
        "--seed", "3", "--n", "6", "--depths", "100:400:log", "--thresholds=-5,5",
        "--out", "{out}",
    ], "4d7ba7a168eb9786"),
    "render-csv": ([
        "render", "--family", "{fam}", "--model", "{model}", "--seed", "2", "--n", "50",
        "--out", "{out}",
    ], "5b3196a4fc4cea66"),
    "render-pgm": ([
        "render", "--family", "{fam}", "--model", "{model}", "--seed", "2", "--n", "200",
        "--out", "{out}", "--pgm", "--width", "16", "--height", "4",
    ], "d11fdc5dfd745f74"),
    "percolate-dim": (["percolate", "--p", "0.8", "--dim"], "8faf74bd347fa05c"),
    "percolate-boxdim": ([
        "percolate", "--p", "0.7", "--boxdim", "--seeds", "3", "--min-scale-exp", "8", "--seed", "5",
    ], "c6b94a76e507c6bb"),
    "percolate": (["percolate", "--p", "0.75"], "717a3ef6405d6fab"),
    "block-levelsum-stream": ([
        "levelsum", "--family", "{multi}", "--model", "{block}", "--gauge", "{power}",
        "--depths", "1:10:1", "--out", "{out}",
    ], "f9de8d3ca1ec5ad1"),
    "block-levelsum-closed": ([
        "levelsum", "--family", "{fam}", "--model", "{block}", "--gauge", "{power}",
        "--seed", "5", "--depths", "1:2000:log", "--out", "{out}",
    ], "1cd3e7cc23d962fc"),
    "block-drift": ([
        "drift", "--family", "{fam}", "--model", "{block}", "--gauge", "{h1}",
        "--seed", "7", "--n", "6", "--depths", "100:800:log", "--out", "{out}",
    ], "3d010fbec9a02024"),
    "block-render": ([
        "render", "--family", "{fam}", "--model", "{block}", "--seed", "2", "--n", "50",
        "--out", "{out}",
    ], "6c72224476339141"),
    "block-sections": ([
        "sections", "--family", "{fam}", "--model", "{block}", "--gauge", "{power}",
        "--seed", "1", "--depth-cap", "3",
    ], "a10b293e1adcc640"),
    "block-dim": (["dim", "--family", "{fam}", "--model", "{block}"], "48e70999fe2b10f2"),
}


def _argv(args: list[str], configs) -> tuple[list[str], Path]:
    tmp, fam, model, gauge, power_gauge = configs
    out = tmp / "pinned.out"
    names = {
        "fam": fam, "model": model, "h1": gauge, "power": power_gauge, "out": out, "bad": tmp / "bad.json",
        "block": tmp / "block.json", "multi": tmp / "multi.json",
    }
    return [a.format(**names) for a in args], out


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_command_bytes_are_pinned(name, configs, capsys):
    args, expected = PINNED_RUNS[name]
    argv, out = _argv(args, configs)
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    data = out.read_bytes() if "{out}" in args else stdout.encode()
    assert hashlib.blake2b(data, digest_size=8).hexdigest() == expected
    if "{out}" in args:
        assert stdout == ""
        assert json.loads(Path(str(out) + ".manifest.json").read_text())["command"] == args[0]


@pytest.mark.parametrize("args, code, stderr", [
    ([
        "levelsum", "--family", "{fam}", "--model", "recursive", "--gauge", "{power}",
        "--depths", "1:14:1", "--budget", "50",
    ], EXIT_RESOURCE, "resource error: node budget 50 exceeded while streaming level 4\n"),
    (
        ["percolate", "--p", "0.2", "--boxdim", "--seeds", "1", "--min-scale-exp", "10"],
        EXIT_RESOURCE, "resource error: too many extinct seeds\n",
    ),
    ([
        "levelsum", "--family", "{fam}", "--model", "recursive", "--gauge", "{power}",
        "--depths", "1:14:1", "--budget", "-1",
    ], EXIT_CONFIG, "config error: node_budget must be >= 0, got -1\n"),
    ([
        "levelsum", "--family", "{fam}", "--model", "recursive", "--gauge", "{power}",
        "--depths", "1:14:1", "--budget", "0",
    ], EXIT_RESOURCE, "resource error: node budget 0 exceeded while streaming level 0\n"),
], ids=["levelsum-budget", "percolate-extinct", "levelsum-negative-budget", "levelsum-zero-budget"])
def test_error_exit_and_stderr_are_pinned(args, code, stderr, configs, capsys):
    argv, _ = _argv(args, configs)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


def test_huge_v_is_a_resource_error(configs, capsys):
    tmp, fam, *_ = configs
    (tmp / "huge_v.json").write_text(json.dumps({"model": {"v_variable": 10**30}}))
    (tmp / "s.json").write_text(json.dumps({"s": 0.8, "family": "power"}))
    argv = ["levelsum", "--family", str(fam), "--model", str(tmp / "huge_v.json"), "--gauge", str(tmp / "s.json"),
            "--depths", "1,5"]
    assert run(argv) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("resource error: a V-variable level table of 3") and "Traceback" not in err


DRIFT_ARGS = [
    "drift", "--family", "{fam}", "--model", "{model}", "--gauge", "{h1}", "--n", "2", "--depths", "10,20",
]


@pytest.mark.parametrize("args, bad", [
    (
        ["levelsum", "--family", "{fam}", "--model", "{model}", "--gauge", "{power}", "--depths", "a:5:1"],
        None,
    ),
    ([*DRIFT_ARGS, "--thresholds", "x,y"], None),
    ([*DRIFT_ARGS, "--thresholds", "1,2,3"], None),
    ([*DRIFT_ARGS, "--thresholds", "nan,0"], None),
    ([*DRIFT_ARGS, "--thresholds", "0,inf"], None),
    (["pack", *DRIFT_ARGS[1:], "--thresholds", "nan,0"], None),
    (["pack", *DRIFT_ARGS[1:], "--thresholds", "0,inf"], None),
    (
        ["dim", "--family", "{bad}", "--model", "{model}"],
        {"systems": [{"weight": 1.0, "maps": [{"ratio": "abc"}]}]},
    ),
    (["dim", "--family", "{fam}", "--model", "{bad}"], {"model": {"v_variable": "x"}}),
    (["dim", "--family", "{fam}", "--model", "{bad}"], {"model": "homogeneous", "seed": "x"}),
    (
        ["levelsum", "--family", "{fam}", "--model", "{model}", "--gauge", "{bad}", "--depths", "1,2"],
        {"s": "x", "family": "power"},
    ),
    (["dim", "--family", "{bad}", "--model", "{model}"], [WORKED_FAMILY]),
    (["dim", "--family", "{bad}", "--model", "{model}"], {"systems": [{"weight": 1.0, "maps": [0.5]}]}),
    (["dim", "--family", "{bad}", "--model", "{model}"], {"systems": 5}),
    (
        ["dim", "--family", "{fam}", "--model", "{bad}"],
        {"model": {"neck_block": {"templates": [{"levels": [0.5]}]}}},
    ),
    (
        [
            "render", "--family", "{fam}", "--model", "{model}", "--n", "10", "--out", "{out}",
            "--pgm", "--width", "0",
        ],
        None,
    ),
    (["percolate", "--p", "0.7", "--boxdim", "--seeds", "0"], None),
    ([*DRIFT_ARGS, "--workers", "0"], None),
    ([*DRIFT_ARGS, "--workers", "-3"], None),
    (
        ["levelsum", "--family", "{bad}", "--model", "{model}", "--gauge", "{power}", "--depths", "1,2"],
        {"systems": [{**WORKED_FAMILY["systems"][0], "weight": math.nan}, WORKED_FAMILY["systems"][1]]},
    ),
], ids=[
    "depths", "thresholds-words", "thresholds-three", "thresholds-nan", "thresholds-inf",
    "pack-thresholds-nan", "pack-thresholds-inf", "family-ratio", "model-v", "model-seed",
    "gauge-s", "family-list", "map-number", "systems-number", "levels-number", "raster-width",
    "percolate-seeds", "drift-workers-zero", "drift-workers-negative", "family-nan-weight",
])
def test_malformed_input_is_a_config_error(args, bad, configs, capsys):
    (configs[0] / "bad.json").write_text(json.dumps(bad))
    argv, _ = _argv(args, configs)
    assert run(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["drift", "pack"])
def test_a_spaced_negative_threshold_pair_reads_as_the_equals_form(command, configs, capsys):
    args = [command, *DRIFT_ARGS[1:], "--seed", "5", "--out", "{out}"]
    outs = []
    for thresholds in (["--thresholds", "-3,4"], ["--thresholds=-3,4"]):
        argv, out = _argv([*args, *thresholds], configs)
        assert run(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert capsys.readouterr().err == ""
    argv, _ = _argv([*args, "--thresholds", "-3,x"], configs)
    assert run(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: thresholds: expected a number, got 'x'\n"


@pytest.mark.parametrize("command", ["drift", "pack"])
def test_an_abbreviated_option_takes_the_next_word_as_its_value(command, configs, capsys):
    args = [command, *DRIFT_ARGS[1:], "--seed", "5", "--out", "{out}"]
    outs = []
    for thresholds in (["--thresh", "-20,20"], ["--thresholds=-20,20"]):
        argv, out = _argv([*args, *thresholds], configs)
        assert run(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert capsys.readouterr().err == ""
    # a prefix of two options stays a usage error
    argv, _ = _argv([*args, "--f", "csv"], configs)
    assert run(argv) == EXIT_USAGE
    assert "ambiguous option: --f could match --family, --format" in capsys.readouterr().err


def test_a_second_run_on_the_same_files_resolves_nothing(configs, capsys):
    _, fam, model, gauge, _ = configs
    argv = ["levelsum", "--family", str(fam), "--model", str(model), "--gauge", str(gauge), "--depths", "1:20:1"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    # the gauge's "auto" s and beta are solved on the first run only
    with patch("necktree.config.family_from_dict", wraps=config.family_from_dict) as parse, \
            patch("necktree.config.dimension", wraps=rifs.dimension) as solve:
        assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert parse.call_count == solve.call_count == 0


def test_a_config_file_rewritten_in_place_is_resolved_again(configs, capsys):
    _, fam, _, _, power_gauge = configs
    argv = [
        "levelsum", "--family", str(fam), "--model", "recursive", "--gauge", str(power_gauge),
        "--seed", "3", "--depths", "1:12:1",
    ]
    assert run(argv) == 0
    capsys.readouterr()
    fam.write_text(json.dumps(MULTI_RATIO_FAMILY))
    assert run(argv) == 0
    fresh = run_in_fresh_process(argv)
    assert fresh.returncode == 0 and capsys.readouterr().out == fresh.stdout


def test_a_failing_resolution_is_not_remembered(configs, capsys):
    tmp, fam, _, _, power_gauge = configs
    (tmp / "v2.json").write_text(json.dumps({"model": {"v_variable": 2}}))
    argv = ["levelsum", "--family", str(fam), "--model", str(tmp / "v2.json"), "--gauge", str(power_gauge)]
    errs = []
    for _ in range(2):
        with patch("necktree.config.family_from_dict", wraps=config.family_from_dict) as parse:
            assert run(argv) == EXIT_CONFIG
        assert parse.call_count == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("config error: ") and errs[0].count("\n") == 1


def test_unreadable_config_is_a_config_error(configs, capsys):
    tmp, _, model, _, power_gauge = configs
    (tmp / "ff.json").write_bytes(b"\xff" + json.dumps(WORKED_FAMILY).encode())
    for family in (tmp, tmp / "ff.json"):
        assert run([
            "levelsum", "--family", str(family), "--model", str(model), "--gauge", str(power_gauge), "--depths", "1,2",
        ]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {family} ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("geometry_fields", [
    {"translation": "abc"},
    {"translation": [0.25, "x"]},
    {"isometry": [["a"]], "translation": [0.0]},
    {"isometry": [[1.0, 0.0], [0.0]], "translation": [0.0, 0.0]},
], ids=["translation-string", "translation-entry", "isometry-entry", "isometry-ragged"])
def test_non_numeric_map_geometry_is_a_config_error(geometry_fields, tmp_path, capsys):
    family = {"systems": [{"weight": 1.0, "maps": [{"ratio": 0.5, **geometry_fields}, {"ratio": 0.5}]}]}
    (tmp_path / "family.json").write_text(json.dumps(family))
    assert run(["dim", "--family", str(tmp_path / "family.json"), "--model", "homogeneous"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: map geometry must be arrays of numbers") and err.count("\n") == 1


@pytest.mark.parametrize("exp", ["1", "2"])
def test_percolate_refuses_a_scale_grid_too_short_for_a_slope(exp, capsys):
    # 1 left no scale at all (an IndexError) and 2 one scale, whose fitted slope meant nothing
    with time_limit(10):
        assert run(["percolate", "--p", "0.9", "--boxdim", "--min-scale-exp", exp]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: box dimension needs at least 6 distinct scales\n"


def test_percolate_deep_scales_end_at_the_node_budget(capsys):
    # the default budget of 10^8 nodes takes seconds to use up, so the walk here gets 10^5
    with time_limit(30), patch.object(trees, "DEFAULT_NODE_BUDGET", 10**5):
        assert run(["percolate", "--p", "0.9", "--boxdim", "--min-scale-exp", "40"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("resource error: node budget 100000 exceeded while streaming level ")
    assert err.count("\n") == 1


def test_sections_budget_error_names_the_level_streamed(configs, capsys):
    # section_infimum's default budget of 10^6 nodes runs out on level 29 of this tree
    _, fam, model, _, power_gauge = configs
    args = ["sections", "--family", str(fam), "--model", str(model), "--gauge", str(power_gauge),
            "--seed", "1", "--depth-min", "1", "--depth-cap", "30"]
    with time_limit(30):
        assert run(args) == EXIT_RESOURCE
    assert capsys.readouterr().err == "resource error: node budget 1000000 exceeded while streaming level 29\n"


def test_percolate_derives_candidate_seeds_lazily(capsys):
    args = ["percolate", "--p", "0.7", "--boxdim", "--seeds", "3", "--min-scale-exp", "8"]
    seed_stream, taken = measure.seed_stream, []

    def counted_seed_stream(master_seed):
        for seed in seed_stream(master_seed):
            taken.append(seed)
            yield seed

    with patch.object(measure, "seed_stream", counted_seed_stream), \
            patch.object(trees, "sample", wraps=trees.sample) as sample:
        assert run(args) == 0
    # one seed derived per sampled tree, not 50 per requested seed
    assert len(taken) == sample.call_count < 50
    assert capsys.readouterr().err == ""


NUMPY_MA_PROBE = """
import json, sys
import numpy as np
from necktree.cli import parse_depths
from necktree.geometry import box_dimension
from necktree.rifs import equicontractive_family
from necktree.trees import ModelSpec, sample

grid = parse_depths(sys.argv[1])
r = sample(ModelSpec(kind="homogeneous"), 0, equicontractive_family([2], 0.5, [1.0]))
slope, _ = box_dimension(r, [2.0**-k for k in range(2, 9)])
points_slope, _ = box_dimension(np.random.default_rng(0).random((10**4, 1)), [2.0**-k for k in range(2, 9)])
print(json.dumps([grid, slope, points_slope, "numpy.ma" in sys.modules]))
"""


def test_depth_grids_and_box_scales_do_not_import_numpy_ma():
    # np.unique's first call imports numpy.ma, about 1 MiB
    proc = run_in_fresh_process(["100:10000:log"], code=NUMPY_MA_PROBE)
    assert proc.returncode == 0, proc.stderr
    grid, slope, points_slope, imported = json.loads(proc.stdout)
    assert grid == [100, 133, 178, 237, 316, 422, 562, 750, 1000, 1334, 1778, 2371, 3162, 4217, 5623, 7499, 10000]
    assert slope == pytest.approx(1.0, abs=1e-9)
    assert points_slope == pytest.approx(1.0, abs=0.05)
    assert imported is False
