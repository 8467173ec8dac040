"""JSON config parsing for families, models, and gauges.

Schemas
    family: {"ambient_dim": d, "systems": [{"label": str, "weight": w,
             "maps": [{"ratio": c, "isometry": [[...]], "translation": [...]}]}]}
    model:  {"model": "homogeneous" | "recursive" | {"v_variable": V} |
             {"neck_block": {"templates": [{"weight": w, "levels": [[p, ...], ...]}]}},
             "seed": u64}
    gauge:  {"s": real | "auto", "family": "power" |
             {"loglog_power": {"beta": b}} |
             {"h1": {"beta": b | "auto", "gamma": g}} | {"h1_star": {...}}}

"auto" entries are resolved against a family: s becomes the almost-sure
dimension for the requested model and beta the envelope-matching default.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional, Union

from .errors import ConfigError
from .gauges import GaugeFunction
from .rifs import HOMOGENEOUS, IFS, RIFSFamily, SimilarityMap, dimension, solver_model
from .trees import BlockTemplate, ModelSpec


def load_json(path: Union[str, Path]) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def content_hash(data: bytes) -> str:
    """64-bit content hash, hex encoded."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def file_hash(path: Union[str, Path]) -> str:
    return content_hash(Path(path).read_bytes())


def _require(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ConfigError(f"{where}: missing field {key!r}")
    return obj[key]


def _list(raw: Any, where: str) -> list:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{where}: expected a JSON list, got {type(raw).__name__}")
    return raw


def _number(raw: Any, where: str, cast: type = float) -> Any:
    """``cast(raw)``, or a ConfigError naming the field."""
    try:
        return cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def family_from_dict(obj: dict) -> RIFSFamily:
    systems_raw = _list(_require(obj, "systems", "family config"), "family config systems")
    dim = _number(obj.get("ambient_dim", 1), "family config ambient_dim", int)
    systems = []
    weights = []
    for i, sraw in enumerate(systems_raw):
        where = f"family config system[{i}]"
        maps = []
        for j, mraw in enumerate(_list(_require(sraw, "maps", where), f"{where} maps")):
            ratio = _require(mraw, "ratio", f"{where} map[{j}]")
            maps.append(
                SimilarityMap(
                    ratio=_number(ratio, f"{where} map[{j}] ratio"),
                    isometry=mraw.get("isometry"),
                    translation=mraw.get("translation"),
                )
            )
        systems.append(IFS(maps=tuple(maps), label=str(sraw.get("label", f"sys{i}"))))
        weights.append(_number(_require(sraw, "weight", where), f"{where} weight"))
    return RIFSFamily(systems=tuple(systems), weights=tuple(weights), ambient_dim=dim)


def family_to_dict(family: RIFSFamily) -> dict:
    systems = []
    for sysm, w in zip(family.systems, family.weights):
        maps = []
        for m in sysm.maps:
            entry: dict[str, Any] = {"ratio": m.ratio}
            if m.isometry is not None:
                entry["isometry"] = m.isometry.tolist()
            if m.translation is not None:
                entry["translation"] = m.translation.tolist()
            maps.append(entry)
        systems.append({"label": sysm.label, "weight": w, "maps": maps})
    return {"ambient_dim": family.ambient_dim, "systems": systems}


def model_from_dict(obj: dict) -> tuple[ModelSpec, Optional[int]]:
    """Parse a model spec; returns (spec, default seed or None)."""
    kind_raw = _require(obj, "model", "model config")
    seed = obj.get("seed")
    if seed is not None:
        seed = _number(seed, "model config seed", int)
    if isinstance(kind_raw, str):
        if kind_raw in ("homogeneous", "recursive"):
            return ModelSpec(kind=kind_raw), seed
        raise ConfigError(f"model config: unknown model {kind_raw!r}")
    if isinstance(kind_raw, dict):
        if "v_variable" in kind_raw:
            v = _number(kind_raw["v_variable"], "model config v_variable", int)
            return ModelSpec(kind="v_variable", v=v), seed
        if "neck_block" in kind_raw:
            spec = kind_raw["neck_block"]
            templates = []
            templates_raw = _require(spec, "templates", "model config neck_block")
            for i, traw in enumerate(_list(templates_raw, "model config neck_block templates")):
                where = f"neck_block template[{i}]"
                levels = tuple(
                    tuple(_number(p, f"{where} levels") for p in _list(dist, f"{where} levels"))
                    for dist in _list(_require(traw, "levels", where), f"{where} levels")
                )
                weight = _number(traw.get("weight", 1.0), f"{where} weight")
                templates.append(BlockTemplate(levels=levels, weight=weight))
            return ModelSpec(kind="neck_block", templates=tuple(templates)), seed
    raise ConfigError("model config: field 'model' is malformed")


def gauge_from_dict(
    obj: dict,
    family: Optional[RIFSFamily] = None,
    model_kind: str = HOMOGENEOUS,
) -> GaugeFunction:
    """Parse a gauge spec, resolving "auto" entries against ``family``."""
    s_raw = _require(obj, "s", "gauge config")
    fam_raw = _require(obj, "family", "gauge config")
    if s_raw == "auto":
        if family is None:
            raise ConfigError("gauge config: s = 'auto' needs a family")
        s = dimension(family, solver_model(model_kind))
    else:
        s = _number(s_raw, "gauge config s")

    def resolve_beta(raw: Any) -> float:
        if raw == "auto":
            if family is None:
                raise ConfigError("gauge config: beta = 'auto' needs a family")
            from .measure import beta_hat

            return beta_hat(family, s)
        return _number(raw, "gauge config beta")

    if fam_raw == "power":
        return GaugeFunction(s=s, family="power")
    if isinstance(fam_raw, dict):
        if "loglog_power" in fam_raw:
            return GaugeFunction(
                s=s, family="loglog_power", beta=resolve_beta(_require(fam_raw["loglog_power"], "beta", "gauge config"))
            )
        for name in ("h1", "h1_star"):
            if name in fam_raw:
                sub = fam_raw[name]
                return GaugeFunction(
                    s=s,
                    family=name,
                    beta=resolve_beta(_require(sub, "beta", "gauge config")),
                    gamma=_number(sub.get("gamma", 0.0), "gauge config gamma"),
                )
    raise ConfigError("gauge config: field 'family' is malformed")
