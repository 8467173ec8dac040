import json
import math

import numpy as np
import pytest

from necktree.config import (
    content_hash,
    family_from_dict,
    family_to_dict,
    gauge_from_dict,
    load_json,
    model_from_dict,
    read_json,
)
from necktree.errors import ConfigError
from necktree.gauges import GaugeFunction
from necktree.measure import beta_hat
from necktree.rifs import BlockTemplate, ModelSpec, RIFSFamily, SimilarityMap
from necktree.trees import sample

from helpers import worked_family


def test_family_round_trip():
    fam = worked_family()
    again = family_from_dict(family_to_dict(fam))
    assert again.nsystems == fam.nsystems
    assert again.weights == fam.weights
    assert [s.nmaps for s in again.systems] == [s.nmaps for s in fam.systems]


def test_family_geometry_fields_round_trip():
    obj = {
        "ambient_dim": 2,
        "systems": [
            {
                "label": "rot",
                "weight": 1.0,
                "maps": [
                    {
                        "ratio": 0.4,
                        "isometry": [[0.0, -1.0], [1.0, 0.0]],
                        "translation": [0.1, 0.2],
                    }
                ],
            }
        ],
    }
    fam = family_from_dict(obj)
    assert fam.ambient_dim == 2
    m = fam.systems[0].maps[0]
    assert m.isometry[0, 1] == -1.0
    back = family_to_dict(fam)
    assert back["systems"][0]["maps"][0]["translation"] == [0.1, 0.2]


def test_a_parsed_familys_map_arrays_are_read_only():
    # a family is shared by every later run of one process, so its maps must not change under it
    obj = {"ambient_dim": 2, "systems": [{"weight": 1.0, "maps": [
        {"ratio": 0.5, "isometry": [[0.0, 1.0], [1.0, 0.0]], "translation": [0.25, 0.5]},
    ]}]}
    m = family_from_dict(obj).systems[0].maps[0]
    for a in (m.isometry, m.translation):
        with pytest.raises(ValueError):
            a[0] = 9.0
    q, b = np.eye(2), np.zeros(2)
    m = SimilarityMap(0.5, isometry=q, translation=b)
    q[0, 0], b[0] = -1.0, 1.0  # the caller's arrays stay writable, and the map keeps its own copies
    assert m.isometry[0, 0] == 1.0 and m.translation[0] == 0.0
    with pytest.raises(ValueError):
        m.translation[0] = 9.0


def test_family_missing_field_named():
    with pytest.raises(ConfigError, match="missing field 'maps'"):
        family_from_dict({"systems": [{"weight": 1.0}]})
    with pytest.raises(ConfigError, match="missing field 'weight'"):
        family_from_dict({"systems": [{"maps": [{"ratio": 0.5}]}]})


def test_model_parsing_variants():
    spec, seed = model_from_dict({"model": "homogeneous", "seed": 9})
    assert spec.kind == "homogeneous" and seed == 9
    spec, _ = model_from_dict({"model": {"v_variable": 3}})
    assert spec.kind == "v_variable" and spec.v == 3
    spec, _ = model_from_dict(
        {"model": {"neck_block": {"templates": [
            {"weight": 2.0, "levels": [[0.5, 0.5], [1.0, 0.0]]},
        ]}}}
    )
    assert spec.kind == "neck_block" and spec.templates[0].length == 2
    fam = worked_family()
    r = sample(spec, 3, fam)
    assert r.level_systems(4).shape == (4,)
    with pytest.raises(ConfigError, match="unknown model"):
        model_from_dict({"model": "sideways"})


def test_gauge_parsing_and_auto():
    fam = worked_family()
    g = gauge_from_dict({"s": 0.5, "family": "power"})
    assert g.family == "power" and g.s == 0.5
    g = gauge_from_dict({"s": "auto", "family": {"h1": {"beta": "auto", "gamma": 0.25}}}, family=fam)
    assert g.s == pytest.approx(math.log(6) / (2 * math.log(3)), abs=1e-9)
    assert g.beta == pytest.approx(beta_hat(fam, g.s), rel=1e-12)
    with pytest.raises(ConfigError, match="'auto' needs a family"):
        gauge_from_dict({"s": "auto", "family": "power"})
    with pytest.raises(ConfigError, match="malformed"):
        gauge_from_dict({"s": 1.0, "family": {"mystery": {}}})


def test_gauge_parsing_of_the_parametrised_families():
    fam = worked_family()
    g = gauge_from_dict({"s": 0.5, "family": {"loglog_power": {"beta": 2.0}}})
    assert (g.family, g.s, g.beta, g.gamma) == ("loglog_power", 0.5, 2.0, None)
    g = gauge_from_dict({"s": 0.5, "family": {"loglog_power": {"beta": "auto"}}}, family=fam)
    assert g.beta == beta_hat(fam, 0.5)
    g = gauge_from_dict({"s": 0.5, "family": {"h1": {"beta": 0.04}}})
    assert (g.family, g.beta, g.gamma) == ("h1", 0.04, 0.0)
    g = gauge_from_dict({"s": 0.5, "family": {"h1_star": {"beta": "0.04", "gamma": -0.5}}})
    assert (g.family, g.beta, g.gamma) == ("h1_star", 0.04, -0.5)
    with pytest.raises(ConfigError, match="missing field 'beta'"):
        gauge_from_dict({"s": 0.5, "family": {"loglog_power": {}}})
    with pytest.raises(ConfigError, match="beta = 'auto' needs a family"):
        gauge_from_dict({"s": 0.5, "family": {"h1_star": {"beta": "auto"}}})
    # beta resolves before gamma
    with pytest.raises(ConfigError, match="gauge config beta"):
        gauge_from_dict({"s": 0.5, "family": {"h1": {"beta": "x", "gamma": "y"}}})
    with pytest.raises(ConfigError, match="gauge config gamma"):
        gauge_from_dict({"s": 0.5, "family": {"h1": {"beta": 0.04, "gamma": "y"}}})


NAN, INF = math.nan, math.inf


def _family(weight=0.5, **map_fields) -> dict:
    maps = [{"ratio": 0.5, "translation": [0.0], **map_fields}, {"ratio": 0.5, "translation": [0.5]}]
    return {"systems": [{"weight": weight, "maps": maps}, {"weight": 0.5, "maps": maps[1:]}]}


@pytest.mark.parametrize("parse, raw, message", [
    (family_from_dict, _family(weight=NAN), "weights must be finite"),
    (family_from_dict, _family(weight=INF), "weights must be finite"),
    (family_from_dict, _family(translation=[NAN]), "map geometry must be finite"),
    (family_from_dict, _family(isometry=[[NAN]]), "map geometry must be finite"),
    (family_from_dict, {**_family(), "ambient_dim": 1.5}, "ambient_dim: expected an integer, got 1.5"),
    (model_from_dict, {"model": "homogeneous", "seed": 1.7}, "seed: expected an integer, got 1.7"),
    (model_from_dict, {"model": {"v_variable": True}}, "v_variable: expected an integer, got True"),
    (model_from_dict, {"model": {"v_variable": 2.5}}, "v_variable: expected an integer"),
    (model_from_dict, {"model": {"neck_block": {"templates": [{"levels": [[NAN, 1.0]]}]}}}, "must sum to 1"),
    (model_from_dict, {"model": {"neck_block": {"templates": [{"levels": [[0.5, 0.5]], "weight": NAN}]}}},
     "template weights must be finite"),
    (model_from_dict, {"model": {"neck_block": {"templates": [{"levels": [[0.5, 0.5]], "weight": INF}]}}},
     "template weights must be finite"),
    (model_from_dict,
     {"model": {"neck_block": {"templates": [{"levels": [[0.5, 0.5]], "weight": 1e308}] * 2}}},
     "template weights must be finite and non-negative with a positive finite sum"),
    (gauge_from_dict, {"s": NAN, "family": "power"}, "s must be finite"),
    (gauge_from_dict, {"s": INF, "family": "power"}, "s must be finite"),
    (gauge_from_dict, {"s": 0.5, "family": {"h1": {"beta": NAN}}}, "finite beta"),
    (gauge_from_dict, {"s": 0.5, "family": {"h1": {"beta": 0.1, "gamma": NAN}}}, "gamma must be finite"),
    # a boolean is no number, even where it would read as 1.0
    (family_from_dict, {"systems": [{"weight": True, "maps": [{"ratio": 0.5}]}]},
     "weight: expected a number, got True"),
    (family_from_dict, _family(ratio=True), "ratio: expected a number, got True"),
    (model_from_dict, {"model": {"neck_block": {"templates": [{"levels": [[True, 0.0]]}]}}},
     "levels: expected a number, got True"),
    (model_from_dict, {"model": {"neck_block": {"templates": [{"levels": [[0.5, 0.5]], "weight": True}]}}},
     "weight: expected a number, got True"),
    (gauge_from_dict, {"s": True, "family": "power"}, "s: expected a number, got True"),
    (gauge_from_dict, {"s": 0.5, "family": {"h1": {"beta": True}}}, "beta: expected a number, got True"),
    (gauge_from_dict, {"s": 0.5, "family": {"h1": {"beta": 0.1, "gamma": True}}},
     "gamma: expected a number, got True"),
], ids=[
    "nan-weight", "inf-weight", "nan-translation", "nan-isometry", "fractional-ambient-dim",
    "fractional-seed", "boolean-v", "fractional-v", "nan-probability", "nan-template-weight",
    "inf-template-weight", "overflowing-template-weights", "nan-s", "inf-s", "nan-beta", "nan-gamma",
    "boolean-weight", "boolean-ratio", "boolean-probability", "boolean-template-weight", "boolean-s", "boolean-beta", "boolean-gamma",
])
def test_non_finite_or_non_integral_numbers_are_config_errors(parse, raw, message):
    with pytest.raises(ConfigError, match=message):
        parse(raw)


def test_value_types_refuse_non_finite_numbers():
    # the checks live in the value types, so library callers get them too
    fam = family_from_dict(_family())
    with pytest.raises(ConfigError, match="weights must be finite"):
        RIFSFamily(systems=fam.systems, weights=(NAN, 0.5))
    with pytest.raises(ConfigError, match="map geometry must be finite"):
        SimilarityMap(ratio=0.5, translation=np.array([0.0, INF]))
    with pytest.raises(ConfigError, match="s must be finite"):
        GaugeFunction(s=NAN, family="power")
    with pytest.raises(ConfigError, match="must sum to 1"):
        ModelSpec(kind="neck_block", templates=(BlockTemplate(levels=((0.5, NAN),)),))
    # integral floats and large integers still parse
    assert model_from_dict({"model": {"v_variable": 3.0}, "seed": 2**64 - 1})[0].v == 3
    assert family_from_dict({**_family(), "ambient_dim": 2.0}).ambient_dim == 2


def test_hashes_stable_and_sensitive(tmp_path):
    a = content_hash(b"hello")
    assert a == content_hash(b"hello") and len(a) == 16
    assert a != content_hash(b"hello!")
    f = tmp_path / "x.json"
    f.write_text(json.dumps({"model": "recursive"}))
    assert read_json(f) == ({"model": "recursive"}, f.read_bytes())


def test_load_json_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_json(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_json(bad)
    with pytest.raises(ConfigError, match="cannot be read"):
        load_json(tmp_path)
    # not UTF-8, nested past the decoder's recursion limit, an integer past int's digit limit
    for name, data in (("ff", b"\xff{}"), ("deep", b"[" * 10**5 + b"]" * 10**5), ("digits", b"1" * 5000)):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_json(tmp_path / name)
