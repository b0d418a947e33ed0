"""Run configuration: INI-style files with nested sections.

A run file holds the model ([model], [model.a0] .. [model.a3], [model.nu]),
discretization ([sim]), Monte Carlo ([mc]) and output ([output])
settings.  Rate coefficients may be given as literals or as one of the
two expressions "gamma(alpha)" and "b0/gamma(alpha)", which make the
critical coefficient relation exactly representable without decimal
truncation.  No other expressions are accepted.

The keys of [sim] are the fields of ``SimConfig``, with their defaults;
[mc] and [output] set ``RunConfig`` fields.  A section or key that
nothing reads is an error.
"""

import configparser
import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

from .model import (
    FiniteMeasure,
    ModelSpec,
    PowerLaw,
    StableMeasure,
    Tabulated,
    ValidatedModel,
    validate,
)
from .montecarlo import MIN_PATHS
from .numerics import gamma
from .simulator import SimConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_text",
           "config_echo"]


class ConfigError(ValueError):
    """Configuration failure carrying the section/key it came from."""

    def __init__(self, section: str, key: str, message: str):
        where = f"[{section}] {key}" if key else f"[{section}]"
        super().__init__(f"{where}: {message}")
        self.section = section
        self.key = key


@dataclass
class RunConfig:
    model: ValidatedModel
    sim: SimConfig
    n_paths: int = 10000
    seed: int = 1
    threads: int = 1
    output_path: Optional[str] = None
    output_format: str = "json"


# every settings section: the dataclass whose fields it sets, and the
# field each of its keys names
_SECTIONS = {
    "sim": (SimConfig, {f.name: f.name for f in fields(SimConfig)}),
    "mc": (RunConfig, {"n_paths": "n_paths", "seed": "seed",
                       "threads": "threads"}),
    "output": (RunConfig, {"path": "output_path", "format": "output_format"}),
}
_MODEL_SECTIONS = ("model", "model.a0", "model.a1", "model.a2", "model.a3",
                   "model.nu")


def _get(cp, section, key, default=None, required=False):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if required:
        raise ConfigError(section, key, "missing required value")
    return default


def _check_keys(cp, section, known):
    for key in cp.options(section):
        if key not in known:
            raise ConfigError(section, key,
                              "unknown key; known: " + ", ".join(known))


def _as_float(section, key, raw):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(section, key, f"not a number: {raw!r}")


def _as_int(section, key, raw):
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(section, key, f"not an integer: {raw!r}")


def _as_bool(section, key, raw):
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(section, key, f"not a boolean: {raw!r}")


# the value of a settings key, converted by the type of its field
_CONVERTERS = {
    float: _as_float,
    int: _as_int,
    bool: _as_bool,
    str: lambda section, key, raw: raw,
    Optional[str]: lambda section, key, raw: raw or None,
}


def _read_section(cp, section) -> Dict:
    """Keyword arguments from the keys ``section`` sets, by field name."""
    cls, keys = _SECTIONS[section]
    if not cp.has_section(section):
        return {}
    _check_keys(cp, section, keys)
    types = {f.name: f.type for f in fields(cls)}
    return {keys[key]: _CONVERTERS[types[keys[key]]](section, key, raw.strip())
            for key, raw in cp.items(section)}


def _build(cp, section):
    cls, _ = _SECTIONS[section]
    kwargs = _read_section(cp, section)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # the dataclass checks name their field in the error's code
        raise ConfigError(section, getattr(exc, "code", ""), str(exc)) from exc


def _resolve_coefficient(section, raw, alpha, b0):
    """Literal float, 'gamma(alpha)', or 'b0/gamma(alpha)'."""
    text = str(raw).strip().lower().replace(" ", "")
    if text == "gamma(alpha)":
        return gamma(alpha)
    if text == "b0/gamma(alpha)":
        if b0 is None:
            raise ConfigError(section, "b",
                              "b0/gamma(alpha) is only valid outside [model.a0]")
        return b0 / gamma(alpha)
    return _as_float(section, "b", raw)


def _parse_rate(cp, section, alpha, b0=None, required=False):
    if not cp.has_section(section):
        if required:
            raise ConfigError(section, "", "missing required section")
        return PowerLaw(0.0, 0.0)
    kind = _get(cp, section, "type", default="powerlaw").lower()
    if kind == "powerlaw":
        _check_keys(cp, section, ("type", "b", "r"))
        b = _resolve_coefficient(section, _get(cp, section, "b", required=True),
                                 alpha, b0)
        r = _as_float(section, "r", _get(cp, section, "r", required=True))
        return PowerLaw(b, r)
    if kind == "tabulated":
        _check_keys(cp, section, ("type", "knots"))
        return Tabulated(_pairs(section, "knots", "u:value",
                                _get(cp, section, "knots", required=True)))
    raise ConfigError(section, "type", f"unknown rate type {kind!r}")


def _pairs(section, key, form, raw) -> Tuple[Tuple[float, float], ...]:
    """The ``a:b`` float pairs of ``raw``, split on commas or whitespace;
    ``form`` names a pair in the error for an item without a colon."""
    pairs: List[Tuple[float, float]] = []
    for item in raw.replace(",", " ").split():
        if ":" not in item:
            raise ConfigError(section, key,
                              f"expected {form} pairs, got {item!r}")
        left, right = item.split(":", 1)
        pairs.append((_as_float(section, key, left),
                      _as_float(section, key, right)))
    return tuple(pairs)


def _parse_atoms(cp):
    if not cp.has_section("model.nu"):
        return FiniteMeasure(())
    _check_keys(cp, "model.nu", ("atoms",))
    return FiniteMeasure(_pairs("model.nu", "atoms", "z:weight",
                                _get(cp, "model.nu", "atoms", default="")))


def parse_config_text(text: str) -> RunConfig:
    # no default section: a [DEFAULT] header is one more unknown section;
    # no interpolation: a value is read literally, "%" included
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   default_section="", interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("", "", f"parse failure: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS and section not in _MODEL_SECTIONS:
            raise ConfigError(section, "", "unknown section; a run file has "
                              + ", ".join((*_MODEL_SECTIONS, *_SECTIONS)))

    if not cp.has_section("model"):
        raise ConfigError("model", "", "missing required section")
    _check_keys(cp, "model", ("alpha", "u_max"))
    alpha = _as_float("model", "alpha", _get(cp, "model", "alpha", required=True))
    u_max_raw = _get(cp, "model", "u_max", default="inf")
    u_max = None
    if u_max_raw not in ("none", ""):
        u_max = _as_float("model", "u_max", u_max_raw)
        if u_max == math.inf:   # nan and -inf fail the model's check
            u_max = None

    a0 = _parse_rate(cp, "model.a0", alpha, required=True)
    b0_val = a0.b if isinstance(a0, PowerLaw) else None
    a1 = _parse_rate(cp, "model.a1", alpha, b0_val)
    a2 = _parse_rate(cp, "model.a2", alpha, b0_val)
    a3 = _parse_rate(cp, "model.a3", alpha, b0_val)
    nu = _parse_atoms(cp)

    try:
        model = validate(ModelSpec(a0=a0, a1=a1, a2=a2, a3=a3,
                                   mu=StableMeasure(alpha=alpha, u_max=u_max),
                                   nu=nu))
    except Exception as exc:
        code = getattr(exc, "code", "")
        key = {"alpha_out_of_range": "alpha", "bad_support_cut": "u_max",
               "atom_inside_support": "atoms", "bad_atom": "atoms"}.get(code, "")
        section = "model.nu" if key == "atoms" else "model"
        raise ConfigError(section, key, str(exc)) from exc

    rc = RunConfig(model=model, sim=_build(cp, "sim"),
                   **_read_section(cp, "mc"), **_read_section(cp, "output"))
    if rc.threads < 1:
        raise ConfigError("mc", "threads",
                          f"threads must be >= 1, got {rc.threads}")
    if not 0 <= rc.seed < 2 ** 64:
        raise ConfigError("mc", "seed",
                          f"seed must be in [0, 2**64), got {rc.seed}")
    if rc.n_paths < MIN_PATHS:
        raise ConfigError("mc", "n_paths",
                          f"n_paths must be >= {MIN_PATHS}, got {rc.n_paths}")
    rc.output_format = rc.output_format.lower()
    if rc.output_format not in ("json", "csv"):
        raise ConfigError("output", "format", "must be json or csv")
    return rc


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("", "", f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _describe_rate(rate) -> Dict:
    if isinstance(rate, PowerLaw):
        return {"type": "powerlaw", "b": rate.b, "r": rate.r}
    return {"type": "tabulated",
            "knots": [[u, v] for u, v in rate.knots]}


def _describe_model(model: ValidatedModel) -> Dict:
    spec = model.spec
    return {
        "alpha": model.alpha,
        "u_max": model.u_max,
        "a0": _describe_rate(spec.a0),
        "a1": _describe_rate(spec.a1),
        "a2": _describe_rate(spec.a2),
        "a3": _describe_rate(spec.a3),
        "nu": {"atoms": [[z, w] for z, w in spec.nu.atoms]},
    }


def config_echo(rc: RunConfig) -> Dict:
    """JSON-ready echo with every coefficient resolved to a number.

    The echo written back as a run file re-parses to the same validated
    model and settings.
    """
    def table(section):
        return {key: getattr(rc, name)
                for key, name in _SECTIONS[section][1].items()}

    return {"model": _describe_model(rc.model), "sim": asdict(rc.sim),
            "mc": table("mc"), "output": table("output")}
