"""Study configuration: one JSON file describing a whole run.

Sections (all optional unless a command needs them):

  seed         integer used by generation and echoed into manifests
  policy       policy parameters (see rules.PolicyParameters); the GMA
               means test in force is not one of them, the scenario's
               gma_relaxation factor selects it
  poverty      measurement settings: absolute lines, reference child
               population, equivalence scale coefficients
  scenario     factor list, shock scale/start month, transfer timing mode,
               band scales, disaggregation dimensions
  synth        synthetic population knobs (see synth.SynthConfig)
  calibration  target baseline child poverty rate, tolerance, budget
  observed     observed aggregate change of wage and self-employment
               income, with tolerances, for the validation command

One codec reads and echoes every section: decode() checks a JSON value
against the type of the dataclass field it fills, and encode() writes a
dataclass back as JSON. Nothing is coerced: a bool field takes only a
JSON bool, an int field only a JSON integer, and so on. Unknown keys,
missing required keys and values of the wrong type are rejected with the
dotted path of the key (policy.gma_scale.child): a typo should fail
loudly, not silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import types
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .money import as_fraction
from .reporting import dumps_json
from .rules import PolicyParameters
from .scenario import DIMENSIONS, FACTOR_NAMES, PovertyConfig, ScenarioSpec
from .synth import SynthConfig

#: Exact-number spellings a Fraction field takes as a JSON string.
_EXACT_NUMBER = r"-?[0-9]+(\.[0-9]+)?|-?[0-9]+/[0-9]*[1-9][0-9]*"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite_number(value) -> bool:
    """True for a JSON number (not a bool) that is finite as a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _decode_scalar(tp: type, value, path: str):
    if tp is bool and isinstance(value, bool):
        return value
    if tp is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if tp is float and _finite_number(value):
        return float(value)
    if tp is str and isinstance(value, str):
        return value
    if tp is Fraction:
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, float) and math.isfinite(value):
            return as_fraction(value)
        if isinstance(value, str) and re.fullmatch(_EXACT_NUMBER, value):
            try:
                return Fraction(value)
            except ValueError:  # more digits than int() may convert
                pass
    expected = {bool: "true or false", int: "an integer",
                float: "a finite number", str: "a string",
                Fraction: "an exact number (integer, decimal or n/d)"}
    raise ConfigError(f"{path}: expected {expected[tp]}, got {value!r}")


def _int_key(key: str, path: str) -> int:
    """An object key of an int-keyed mapping, written canonically."""
    if re.fullmatch(r"-?[1-9][0-9]*|0", key):
        try:
            return int(key)
        except ValueError:  # more digits than int() may convert
            pass
    raise ConfigError(f"{path}: key {key!r} is not an integer")


def _decode_dataclass(cls: type, value, path: str):
    where = path or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    keys = [f for f in fields(cls) if f.metadata.get("config_key", True)]
    names = sorted(f.name for f in keys)
    unknown = sorted(set(value) - set(names))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where} "
                          f"(allowed: {', '.join(names)})")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in keys:
        if f.name in value:
            kwargs[f.name] = decode(hints[f.name], value[f.name],
                                    f"{path}.{f.name}" if path else f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {f.name!r} in {where}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # The dataclass's own checks: a message that starts with one of
        # its field names is about that field.
        joiner = "." if str(exc).split(" ", 1)[0] in names else ": "
        raise ConfigError(f"{where}{joiner}{exc}") from exc


def decode(tp, value, path: str):
    """The value of type tp that the JSON value encodes.

    tp is a dataclass, a scalar (bool, int, float, str, Fraction), X | None,
    a tuple or a Mapping of these. path names the value in every error,
    as the dotted key path from the section (policy.gma_scale.child);
    "" stands for the whole config. A ConfigError from a dataclass's own
    checks gains the dataclass's path as a prefix.
    """
    origin = get_origin(tp)
    if origin is Union or origin is types.UnionType:
        (inner,) = [arg for arg in get_args(tp) if arg is not type(None)]
        return None if value is None else decode(inner, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)} "
                              f"items, got {len(value)}")
        return tuple(decode(arg, item, f"{path}[{i}]")
                     for i, (arg, item) in enumerate(zip(args, value)))
    if origin is abc.Mapping:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        key_tp, value_tp = get_args(tp)
        out = {}
        for key, item in value.items():
            out[_int_key(key, path) if key_tp is int else key] = decode(
                value_tp, item, f"{path}.{key}")
        return out
    if is_dataclass(tp):
        return _decode_dataclass(tp, value, path)
    return _decode_scalar(tp, value, path)


def encode(value):
    """JSON-ready form of a value decode() reads back to an equal value.

    Dataclass fields are written in declaration order, leaving out those
    that are None; Fractions become strings, tuples lists, and mappings
    objects with sorted keys.
    """
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            item = getattr(value, f.name)
            if item is not None and f.metadata.get("config_key", True):
                out[f.name] = encode(item)
        return out
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [encode(item) for item in value]
    if isinstance(value, abc.Mapping):
        return {str(key): encode(value[key]) for key in sorted(value)}
    return value


@dataclass(frozen=True)
class ScenarioSettings:
    """Which factors to run and how the shock applies."""

    factors: tuple[str, ...] = FACTOR_NAMES
    shock_scale: Fraction = Fraction(1)
    shock_start_month: int = 3
    transfers_on_shocked: bool = False
    band_scales: tuple[Fraction, ...] = (Fraction(4, 5), Fraction(1),
                                         Fraction(6, 5))
    dimensions: tuple[str, ...] = DIMENSIONS

    def __post_init__(self) -> None:
        unknown = set(self.factors) - set(FACTOR_NAMES)
        if unknown:
            raise ConfigError(f"unknown factor {sorted(unknown)[0]!r} "
                              f"(allowed: {', '.join(FACTOR_NAMES)})")
        if not self.factors:
            raise ConfigError("factors must not be empty")
        for name in ("factors", "dimensions"):
            items = getattr(self, name)
            repeated = next((x for i, x in enumerate(items) if x in items[:i]), None)
            if repeated is not None:
                raise ConfigError(f"{name} lists {repeated!r} more than once")
        if not 1 <= self.shock_start_month <= 12:
            raise ConfigError(
                f"shock_start_month {self.shock_start_month} outside 1..12")
        if self.shock_scale < 0:
            raise ConfigError(f"shock_scale {self.shock_scale} must be nonnegative")
        unknown = set(self.dimensions) - set(DIMENSIONS)
        if unknown:
            raise ConfigError(f"unknown dimension {sorted(unknown)[0]!r} "
                              f"(allowed: {', '.join(DIMENSIONS)})")
        if any(s <= 0 for s in self.band_scales):
            raise ConfigError("band scales must be positive")
        object.__setattr__(self, "band_scales",
                           tuple(sorted(set(self.band_scales))))

    @property
    def all_factors(self) -> bool:
        return set(self.factors) == set(FACTOR_NAMES)

    def base_spec(self) -> ScenarioSpec:
        return ScenarioSpec(shock_scale=self.shock_scale,
                            shock_start_month=self.shock_start_month)

    def scenario_spec(self) -> ScenarioSpec:
        """All selected factors switched on together."""
        return ScenarioSpec(
            wage_shock="wage_shock" in self.factors,
            selfemp_shock="selfemp_shock" in self.factors,
            gma_relaxation="gma_relaxation" in self.factors,
            one_offs="one_offs" in self.factors,
            shock_scale=self.shock_scale,
            shock_start_month=self.shock_start_month,
        )


@dataclass(frozen=True)
class CalibrationSettings:
    target_child_poverty: Fraction
    tolerance: float = 0.005
    max_evaluations: int = 16

    def __post_init__(self) -> None:
        if not 0 <= self.target_child_poverty <= 1:
            raise ConfigError("calibration target must lie in [0, 1]")
        if self.tolerance <= 0 or self.max_evaluations < 1:
            raise ConfigError("calibration tolerance and budget must be positive")


@dataclass(frozen=True)
class ObservedChange:
    observed_pct: Fraction
    tolerance_pp: Fraction

    def __post_init__(self) -> None:
        if self.tolerance_pp < 0:
            raise ConfigError("tolerance_pp must be nonnegative")


@dataclass(frozen=True)
class ObservedChanges:
    """Observed aggregate change of each income source validate checks."""

    self_employment: ObservedChange
    wage: ObservedChange


#: Field metadata of StudyConfig's provenance: set by the loader, never
#: read from or echoed into a config.
_NOT_A_KEY = {"config_key": False}


@dataclass(frozen=True)
class StudyConfig:
    """Parsed study configuration plus provenance of the file it came from."""

    seed: int | None = None
    policy: PolicyParameters = field(default_factory=PolicyParameters)
    poverty: PovertyConfig = field(default_factory=PovertyConfig)
    scenario: ScenarioSettings = field(default_factory=ScenarioSettings)
    synth: SynthConfig | None = None
    calibration: CalibrationSettings | None = None
    observed: ObservedChanges | None = None
    source_path: str | None = field(default=None, metadata=_NOT_A_KEY)
    source_sha256: str | None = field(default=None, metadata=_NOT_A_KEY)


def study_config_from_dict(data: Mapping, *, source_path: str | None = None,
                           source_sha256: str | None = None) -> StudyConfig:
    return replace(decode(StudyConfig, data, ""), source_path=source_path,
                   source_sha256=source_sha256)


def load_study_config(path: str | Path) -> StudyConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return study_config_from_dict(data, source_path=str(path),
                                  source_sha256=sha256_text(text))


def effective_config_dict(cfg: StudyConfig) -> dict:
    """The merged configuration a run actually used, JSON-ready."""
    return encode(cfg)


def write_manifest(out_dir: str | Path, command: str, cfg: StudyConfig | None,
                   inputs: Mapping[str, str], outputs: Mapping[str, str],
                   extra: Mapping | None = None) -> Path:
    """Write manifest.json describing one command run.

    inputs maps label -> path (hashed here); outputs maps filename ->
    sha256 already computed from the written bytes. Contents are fully
    determined by the run, so repeated runs produce identical manifests.
    """
    manifest = {
        "command": command,
        "seed": cfg.seed if cfg else None,
        "config_path": cfg.source_path if cfg else None,
        "config_sha256": cfg.source_sha256 if cfg else None,
        "effective_config": effective_config_dict(cfg) if cfg else None,
        "inputs": {label: {"path": str(path), "sha256": sha256_file(path)}
                   for label, path in sorted(inputs.items())},
        "outputs": {name: outputs[name] for name in sorted(outputs)},
    }
    if extra:
        manifest["extra"] = dict(extra)
    path = Path(out_dir) / "manifest.json"
    path.write_text(dumps_json(manifest), encoding="utf-8", newline="")
    return path
