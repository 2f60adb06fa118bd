"""Study configuration: one JSON file describing a whole run.

Sections (all optional unless a command needs them):

  seed         integer used by generation and echoed into manifests
  synth        synthetic population knobs (see synth.SynthConfig)
  policy       policy parameters (see rules.params_from_dict); the GMA
               means test in force is not one of them, the scenario's
               gma_relaxation factor selects it
  poverty      measurement settings: absolute lines, reference child
               population, equivalence scale coefficients
  scenario     factor list, shock scale/start month, transfer timing mode,
               band scales, disaggregation dimensions
  calibration  target baseline child poverty rate, tolerance, budget
  observed     per-source observed aggregate changes with tolerances,
               for the validation command

Unknown keys anywhere are rejected: a typo should fail loudly, not
silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .metrics import EquivalenceScale
from .money import as_fraction
from .reporting import dumps_json
from .rules import PolicyParameters, params_from_dict, params_to_dict
from .scenario import DIMENSIONS, FACTOR_NAMES, PovertyConfig, ScenarioSpec
from .synth import SynthConfig, synth_config_from_dict

_TOP_KEYS = ("seed", "synth", "policy", "poverty", "scenario", "calibration",
             "observed")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _take(mapping: Mapping, allowed: dict, where: str) -> dict:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where} "
                          f"(allowed: {', '.join(sorted(allowed))})")
    out = {}
    for key, conv in allowed.items():
        if key in mapping:
            try:
                out[key] = conv(mapping[key])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for {where}.{key}: {exc}") from exc
    return out


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
            raise ConfigError("scenario.factors must not be empty")
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


def scenario_settings_from_dict(data: Mapping) -> ScenarioSettings:
    kwargs = _take(data, {
        "factors": lambda v: tuple(str(f) for f in v),
        "shock_scale": as_fraction,
        "shock_start_month": int,
        "transfers_on_shocked": bool,
        "band_scales": lambda v: tuple(as_fraction(s) for s in v),
        "dimensions": lambda v: tuple(str(d) for d in v),
    }, "scenario")
    return ScenarioSettings(**kwargs)


def poverty_from_dict(data: Mapping) -> PovertyConfig:
    kwargs = _take(data, {
        "absolute_extreme": int,
        "absolute_upper": int,
        "child_population": int,
        "equivalence_scale": dict,
    }, "poverty")
    if "equivalence_scale" in kwargs:
        scale = _take(kwargs.pop("equivalence_scale"), {
            "first_adult": as_fraction,
            "additional_adult_14plus": as_fraction,
            "child_under_14": as_fraction,
        }, "poverty.equivalence_scale")
        kwargs["equivalence_scale"] = EquivalenceScale(**scale)
    return PovertyConfig(**kwargs)


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


def calibration_from_dict(data: Mapping) -> CalibrationSettings:
    kwargs = _take(data, {
        "target_child_poverty": as_fraction,
        "tolerance": float,
        "max_evaluations": int,
    }, "calibration")
    if "target_child_poverty" not in kwargs:
        raise ConfigError("calibration section needs target_child_poverty")
    return CalibrationSettings(**kwargs)


@dataclass(frozen=True)
class ObservedChange:
    observed_pct: Fraction
    tolerance_pp: Fraction

    def __post_init__(self) -> None:
        if self.tolerance_pp < 0:
            raise ConfigError("observed tolerance_pp must be nonnegative")


def observed_from_dict(data: Mapping) -> dict[str, ObservedChange]:
    out: dict[str, ObservedChange] = {}
    for source, entry in data.items():
        kwargs = _take(entry, {
            "observed_pct": as_fraction,
            "tolerance_pp": as_fraction,
        }, f"observed.{source}")
        if set(kwargs) != {"observed_pct", "tolerance_pp"}:
            raise ConfigError(f"observed.{source} needs observed_pct "
                              "and tolerance_pp")
        out[str(source)] = ObservedChange(**kwargs)
    return out


@dataclass(frozen=True)
class StudyConfig:
    """Parsed study configuration plus provenance of the file it came from."""

    seed: int | None = None
    synth: SynthConfig | None = None
    policy: PolicyParameters = field(default_factory=PolicyParameters)
    poverty: PovertyConfig = field(default_factory=PovertyConfig)
    scenario: ScenarioSettings = field(default_factory=ScenarioSettings)
    calibration: CalibrationSettings | None = None
    observed: Mapping[str, ObservedChange] | None = None
    source_path: str | None = None
    source_sha256: str | None = None


def study_config_from_dict(data: Mapping, *, source_path: str | None = None,
                           source_sha256: str | None = None) -> StudyConfig:
    unknown = set(data) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in config "
                          f"(allowed: {', '.join(_TOP_KEYS)})")
    kwargs: dict = {"source_path": source_path, "source_sha256": source_sha256}
    try:
        if "seed" in data:
            kwargs["seed"] = int(data["seed"])
        if "synth" in data:
            kwargs["synth"] = synth_config_from_dict(data["synth"])
        if "policy" in data:
            kwargs["policy"] = params_from_dict(data["policy"])
        if "poverty" in data:
            kwargs["poverty"] = poverty_from_dict(data["poverty"])
        if "scenario" in data:
            kwargs["scenario"] = scenario_settings_from_dict(data["scenario"])
        if "calibration" in data:
            kwargs["calibration"] = calibration_from_dict(data["calibration"])
        if "observed" in data:
            kwargs["observed"] = observed_from_dict(data["observed"])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value in config: {exc}") from exc
    return StudyConfig(**kwargs)


def load_study_config(path: str | Path) -> StudyConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return study_config_from_dict(data, source_path=str(path),
                                  source_sha256=sha256_text(text))


def _synth_to_dict(cfg: SynthConfig) -> dict:
    def dist(d) -> dict:
        out = {"median": d.median, "sigma": d.sigma, "floor": d.floor}
        if d.cap is not None:
            out["cap"] = d.cap
        return out

    return {
        "n_households": cfg.n_households,
        "base_year": cfg.base_year,
        "child_share": cfg.child_share,
        "share_tolerance": cfg.share_tolerance,
        "household_size_dist": {str(k): v for k, v
                                in sorted(cfg.household_size_dist.items())},
        "adult_labor_shares": dict(sorted(cfg.adult_labor_shares.items())),
        "weight_range": list(cfg.weight_range),
        "wage": dist(cfg.wage),
        "informal_share": cfg.informal_share,
        "informal_wage_factor": cfg.informal_wage_factor,
        "selfemp_income": dist(cfg.selfemp_income),
        "pension": dist(cfg.pension),
        "rent_income": dist(cfg.rent_income),
        "rent_share": cfg.rent_share,
        "transfer_income": dist(cfg.transfer_income),
        "transfer_share": cfg.transfer_share,
        "transfer_share_no_earner": cfg.transfer_share_no_earner,
        "industry_dist": dict(sorted(cfg.industry_dist.items())),
        "selfemp_industry_dist": dict(sorted(cfg.selfemp_industry_dist.items())),
        "sector_wage_multipliers": dict(sorted(
            cfg.sector_wage_multipliers.items())),
        "couple_sector_assortativity": cfg.couple_sector_assortativity,
        "education_shares": dict(sorted(cfg.education_shares.items())),
        "enrollment_rate": cfg.enrollment_rate,
        "special_category_share": cfg.special_category_share,
        "owns_residence_share": cfg.owns_residence_share,
        "other_real_estate_share": cfg.other_real_estate_share,
        "car_share": cfg.car_share,
        "car_max_age": cfg.car_max_age,
        "land_share": cfg.land_share,
        "land_m2": dist(cfg.land_m2),
        "elderly_worker_share": cfg.elderly_worker_share,
    }


def effective_config_dict(cfg: StudyConfig) -> dict:
    """The merged configuration a run actually used, JSON-ready."""
    scale = cfg.poverty.equivalence_scale
    out: dict = {
        "seed": cfg.seed,
        "policy": params_to_dict(cfg.policy),
        "poverty": {
            "absolute_extreme": cfg.poverty.absolute_extreme,
            "absolute_upper": cfg.poverty.absolute_upper,
            "child_population": cfg.poverty.child_population,
            "equivalence_scale": {
                "first_adult": str(scale.first_adult),
                "additional_adult_14plus": str(scale.additional_adult_14plus),
                "child_under_14": str(scale.child_under_14),
            },
        },
        "scenario": {
            "factors": list(cfg.scenario.factors),
            "shock_scale": str(cfg.scenario.shock_scale),
            "shock_start_month": cfg.scenario.shock_start_month,
            "transfers_on_shocked": cfg.scenario.transfers_on_shocked,
            "band_scales": [str(s) for s in cfg.scenario.band_scales],
            "dimensions": list(cfg.scenario.dimensions),
        },
    }
    if cfg.synth is not None:
        out["synth"] = _synth_to_dict(cfg.synth)
    if cfg.calibration is not None:
        out["calibration"] = {
            "target_child_poverty": str(cfg.calibration.target_child_poverty),
            "tolerance": cfg.calibration.tolerance,
            "max_evaluations": cfg.calibration.max_evaluations,
        }
    if cfg.observed is not None:
        out["observed"] = {
            source: {"observed_pct": str(entry.observed_pct),
                     "tolerance_pp": str(entry.tolerance_pp)}
            for source, entry in sorted(cfg.observed.items())
        }
    return out


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
