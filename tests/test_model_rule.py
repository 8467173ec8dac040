"""The model-aware dimension rule: each model's dimension, validation and walk statistics.

neck_block solves through its block-averaged level distribution and takes the
block (renewal) variance; v_variable is the homogeneous model at V = 1 and has
no solver at V >= 2.
"""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necktree.cli import EXIT_CONFIG, run
from necktree.config import family_to_dict
from necktree.errors import NecktreeError, PreconditionError
from necktree.gauges import h1
from necktree.measure import drift_experiment
from necktree.rifs import (
    IFS,
    BlockTemplate,
    ModelSpec,
    RIFSFamily,
    SimilarityMap,
    beta_hat,
    dimension,
    log_moment_stats,
    validate,
)

from helpers import oracle_block_log_moment_stats, worked_family

# one level that always draws the worked family's 3-map system: dimension exactly 1
ALWAYS_THREE = ModelSpec(kind="neck_block", templates=(BlockTemplate(levels=((0.0, 1.0),)),))
# blocks of length 3 and 1
TWO_TEMPLATES = ModelSpec(kind="neck_block", templates=(
    BlockTemplate(levels=((0.8, 0.2), (0.3, 0.7), (0.5, 0.5)), weight=1.0),
    BlockTemplate(levels=((0.1, 0.9),), weight=2.0),
))


@pytest.fixture
def files(tmp_path):
    """Write each JSON config to ``tmp_path`` on first use; returns a name -> path function."""

    def path(name: str, obj=None) -> str:
        p = tmp_path / f"{name}.json"
        if obj is not None:
            p.write_text(json.dumps(obj))
        return str(p)

    path("family", family_to_dict(worked_family()))
    path("power", {"s": "auto", "family": "power"})
    path("h1", {"s": "auto", "family": {"h1": {"beta": "auto", "gamma": 0.5}}})
    return path


def _cli(capsys, *args: str) -> tuple[int, str]:
    code = run(list(args))
    return code, capsys.readouterr().out


def test_always_three_map_template_has_dimension_one(files, capsys):
    fam, model = files("family"), files("model", {"model": {"neck_block": {"templates": [{"levels": [[0, 1]]}]}}})
    code, out = _cli(capsys, "dim", "--family", fam, "--model", model)
    assert code == 0 and abs(float(out) - 1.0) <= 1e-9
    code, out = _cli(
        capsys, "levelsum", "--family", fam, "--model", model, "--gauge", files("power"),
        "--depths", "1,10,100,1000,2000",
    )
    assert code == 0
    sums = [float(row.split(",")[1]) for row in out.splitlines()[2:]]
    assert len(sums) == 5 and max(abs(x) for x in sums) <= 1e-6
    assert validate(worked_family(), ALWAYS_THREE).almost_deterministic_at == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(PreconditionError, match="almost deterministic"):
        drift_experiment(worked_family(), ALWAYS_THREE, h1(1.0, 1.0, 0.5), 2, [10], seed=0)


@st.composite
def one_level_cases(draw):
    """A family of 2-4 non-empty systems and a distribution over them, repeated in a template of 1-3 levels."""
    n = draw(st.integers(2, 4))
    systems = tuple(
        IFS(tuple(SimilarityMap(draw(st.sampled_from([0.2, 0.25, 1 / 3]))) for _ in range(draw(st.integers(2, 4)))))
        for _ in range(n)
    )
    xs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    dist = tuple(x / sum(xs) for x in xs)
    family = RIFSFamily(systems=systems, weights=(1 / n,) * n)
    template = BlockTemplate(levels=(dist,) * draw(st.integers(1, 3)), weight=draw(st.sampled_from([0.5, 1.0, 3.0])))
    return family, dist, ModelSpec(kind="neck_block", templates=(template,)), draw(st.floats(0.0, 1.5))


@settings(max_examples=25, deadline=None)
@given(one_level_cases())
def test_one_level_template_is_the_homogeneous_model_of_its_level(case):
    family, dist, model, s = case
    level = RIFSFamily(systems=family.systems, weights=dist)
    assert dimension(family, model) == pytest.approx(dimension(level, "homogeneous"), abs=1e-9)
    mean, var = log_moment_stats(family, s, model)
    want_mean, want_var = log_moment_stats(level, s)
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=1e-12)
    assert var == pytest.approx(want_var, rel=1e-9, abs=1e-12)
    # beta_hat is the variance over eta_hat, both of the level distribution
    try:
        want_beta = beta_hat(level, s)
    except NecktreeError as e:
        with pytest.raises(type(e)):
            beta_hat(family, s, model)
    else:
        assert beta_hat(family, s, model) == pytest.approx(want_beta, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("family", [
    worked_family(),
    RIFSFamily(
        systems=tuple(IFS(tuple(SimilarityMap(c) for _ in range(n))) for n, c in ((2, 0.2), (3, 1 / 3), (4, 0.25))),
        weights=(0.2, 0.3, 0.5),
    ),
], ids=["worked", "three-systems"])
def test_block_variance_matches_an_enumeration_of_one_block(family):
    model = TWO_TEMPLATES if family.nsystems == 2 else ModelSpec(kind="neck_block", templates=(
        BlockTemplate(levels=((0.6, 0.4, 0.0), (0.0, 0.5, 0.5)), weight=1.0),
        BlockTemplate(levels=((0.2, 0.2, 0.6), (1.0, 0.0, 0.0), (0.1, 0.3, 0.6)), weight=0.5),
    ))
    for s in (0.0, 0.5, dimension(family, model), 1.2):
        mean, var = log_moment_stats(family, s, model)
        want_mean, want_var = oracle_block_log_moment_stats(family, model, s)
        assert mean == pytest.approx(want_mean, rel=1e-12, abs=1e-12)
        assert var == pytest.approx(want_var, rel=1e-12)
    # the block term matters: the family's variance is not the block variance
    s = dimension(family, model)
    assert log_moment_stats(family, s, model)[1] != pytest.approx(log_moment_stats(family, s)[1], rel=1e-3)


def test_v_variable_at_v1_is_homogeneous_and_has_no_solver_above(files, capsys):
    fam = files("family")
    for command in ("dim", "validate"):
        code, want = _cli(capsys, command, "--family", fam, "--model", "homogeneous")
        assert code == 0
        assert _cli(capsys, command, "--family", fam, "--model", files("v1", {"model": {"v_variable": 1}})) == (0, want)
        assert run([command, "--family", fam, "--model", files("v8", {"model": {"v_variable": 8}})]) == EXIT_CONFIG
        assert "V >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"v_variable": 0},
    {"neck_block": {"templates": [{"levels": [[0.5, 0.4]]}]}},
    {"neck_block": {"templates": [{"levels": [[0.5, 0.3, 0.2]]}]}},
], ids=["v0", "short-sum", "wrong-length"])
def test_dim_refuses_a_malformed_model(model, files, capsys):
    assert run(["dim", "--family", files("family"), "--model", files("bad", {"model": model})]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_drift_on_two_templates_takes_the_block_variance(files, capsys):
    model = files("model", {"model": {"neck_block": {"templates": [
        {"weight": 1.0, "levels": [[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]]}, {"weight": 2.0, "levels": [[0.1, 0.9]]},
    ]}}})
    code, out = _cli(
        capsys, "drift", "--family", files("family"), "--model", model, "--gauge", files("h1"),
        "--n", "3", "--depths", "10,100,400",
    )
    assert code == 0 and len(out.splitlines()) == 5
    s = dimension(worked_family(), TWO_TEMPLATES)
    report = drift_experiment(worked_family(), TWO_TEMPLATES, h1(s, 1.0, 0.5), 3, [10, 100, 400], seed=0)
    assert report.variance == log_moment_stats(worked_family(), s, TWO_TEMPLATES)[1]
    assert math.isfinite(report.env_plus[-1])
