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

"auto" entries are resolved against a family and a model: s becomes the root
of E[S^s] = 1 for recursive, of E[log S^s] = 0 for homogeneous and v_variable
with V = 1 (V >= 2 is a config error) and under the block-averaged level
distribution for neck_block, and beta the envelope-matching default.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional, Union

from .errors import ConfigError
from .gauges import GaugeFunction
from .rifs import HOMOGENEOUS, IFS, BlockTemplate, ModelSpec, RIFSFamily, SimilarityMap, beta_hat, dimension


def load_json(path: Union[str, Path]) -> Any:
    return read_json(path)[0]


def read_json(path: Union[str, Path]) -> tuple[Any, bytes]:
    """A config file's JSON value and the bytes it was decoded from, from one read.

    A file that cannot be read, or whose bytes are not UTF-8 JSON, raises ``ConfigError``.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}")
    try:
        obj = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return obj, data


def content_hash(data: bytes) -> str:
    """64-bit content hash, hex encoded."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


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
    """``cast(raw)``, or a ConfigError naming the field; no number is a boolean, and an ``int`` is no fraction."""
    if isinstance(raw, bool) or cast is int and isinstance(raw, float) and not raw.is_integer():
        raise ConfigError(f"{where}: expected {'an integer' if cast is int else 'a number'}, got {raw!r}")
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
            ratio = _number(_require(mraw, "ratio", f"{where} map[{j}]"), f"{where} map[{j}] ratio")
            maps.append(SimilarityMap(ratio, isometry=mraw.get("isometry"), translation=mraw.get("translation")))
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
        return ModelSpec(kind=kind_raw), seed
    if isinstance(kind_raw, dict):
        if "v_variable" in kind_raw:
            v = _number(kind_raw["v_variable"], "model config v_variable", int)
            return ModelSpec(kind="v_variable", v=v), seed
        if "neck_block" in kind_raw:
            templates = []
            templates_raw = _require(kind_raw["neck_block"], "templates", "model config neck_block")
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
    model: Union[ModelSpec, str] = HOMOGENEOUS,
) -> GaugeFunction:
    """Parse a gauge spec, resolving "auto" entries against ``family`` and ``model``."""

    def resolve(raw: Any, name: str, auto) -> float:
        if raw != "auto":
            return _number(raw, f"gauge config {name}")
        if family is None:
            raise ConfigError(f"gauge config: {name} = 'auto' needs a family")
        return auto()

    s_raw = _require(obj, "s", "gauge config")
    fam_raw = _require(obj, "family", "gauge config")
    s = resolve(s_raw, "s", lambda: dimension(family, model))
    if fam_raw == "power":
        return GaugeFunction(s=s, family="power")
    if isinstance(fam_raw, dict):
        for name in ("loglog_power", "h1", "h1_star"):
            if name in fam_raw:
                sub = fam_raw[name]
                beta = resolve(_require(sub, "beta", "gauge config"), "beta", lambda: beta_hat(family, s, model))
                # loglog_power has no gamma; h1 and h1_star default it to 0
                gamma = None if name == "loglog_power" else _number(sub.get("gamma", 0.0), "gauge config gamma")
                return GaugeFunction(s=s, family=name, beta=beta, gamma=gamma)
    raise ConfigError("gauge config: field 'family' is malformed")
