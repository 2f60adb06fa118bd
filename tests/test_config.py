"""Tests for study-configuration parsing and manifests."""

from __future__ import annotations

import copy
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from povsim.config import (CalibrationSettings, ObservedChange,
                           ObservedChanges, ScenarioSettings, StudyConfig,
                           decode, effective_config_dict, encode,
                           load_study_config, sha256_file, sha256_text,
                           study_config_from_dict, write_manifest)
from povsim.errors import ConfigError
from povsim.metrics import EquivalenceScale
from povsim.reporting import dumps_json
from povsim.rules import PolicyParameters
from povsim.scenario import DIMENSIONS, FACTOR_NAMES, PovertyConfig
from povsim.synth import IncomeDist, SynthConfig

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


def section(name: str, data: dict):
    """The parsed section `name` of a config holding only `data` there."""
    return getattr(study_config_from_dict({name: data}), name)


class TestHashes:
    def test_sha256_text_known_value(self):
        assert sha256_text("abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    def test_sha256_file_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\x01payload\xff" * 1000)
        assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestScenarioSettings:
    def test_defaults(self):
        s = ScenarioSettings()
        assert s.factors == FACTOR_NAMES
        assert s.shock_scale == 1
        assert s.shock_start_month == 3
        assert s.transfers_on_shocked is False
        assert s.band_scales == (Fraction(4, 5), Fraction(1), Fraction(6, 5))
        assert s.dimensions == DIMENSIONS
        assert s.all_factors

    def test_unknown_factor_rejected(self):
        with pytest.raises(ConfigError, match="unknown factor 'tbi'"):
            ScenarioSettings(factors=("tbi",))

    def test_empty_factors_rejected(self):
        with pytest.raises(ConfigError, match="must not be empty"):
            ScenarioSettings(factors=())

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ConfigError, match="unknown dimension"):
            ScenarioSettings(dimensions=("region",))

    def test_nonpositive_band_scale_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            ScenarioSettings(band_scales=(Fraction(0),))

    def test_band_scales_sorted_and_deduplicated(self):
        s = ScenarioSettings(band_scales=(Fraction(6, 5), Fraction(1),
                                          Fraction(4, 5), Fraction(1)))
        assert s.band_scales == (Fraction(4, 5), Fraction(1), Fraction(6, 5))

    def test_all_factors_property(self):
        assert not ScenarioSettings(factors=("wage_shock",)).all_factors
        reordered = tuple(reversed(FACTOR_NAMES))
        assert ScenarioSettings(factors=reordered).all_factors

    def test_base_spec_has_no_factors(self):
        s = ScenarioSettings(shock_scale=Fraction(4, 5), shock_start_month=4)
        spec = s.base_spec()
        assert not spec.any_shock
        assert not (spec.gma_relaxation or spec.one_offs)
        assert spec.shock_scale == Fraction(4, 5)
        assert spec.shock_start_month == 4

    def test_scenario_spec_reflects_factor_subset(self):
        s = ScenarioSettings(factors=("wage_shock", "one_offs"))
        spec = s.scenario_spec()
        assert spec.wage_shock and spec.one_offs
        assert not spec.selfemp_shock and not spec.gma_relaxation

    def test_from_dict_parses_exact_scale(self):
        s = section("scenario", {"shock_scale": "0.8"})
        assert s.shock_scale == Fraction(4, 5)
        s = section("scenario", {"shock_scale": 0.8})
        assert s.shock_scale == Fraction(4, 5)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'scal' in scenario"):
            section("scenario", {"scal": 1})

    def test_from_dict_bad_value(self):
        with pytest.raises(ConfigError,
                           match="^scenario.shock_scale: expected an exact"):
            section("scenario", {"shock_scale": "huge"})

    def test_from_dict_band_scales(self):
        s = section("scenario", {"band_scales": ["1.2", "0.8", 1]})
        assert s.band_scales == (Fraction(4, 5), Fraction(1), Fraction(6, 5))


class TestPovertySection:
    def test_full_section(self):
        pov = section("poverty", {
            "absolute_extreme": 40000,
            "absolute_upper": 160000,
            "child_population": 400000,
            "equivalence_scale": {"additional_adult_14plus": "0.5",
                                  "child_under_14": "0.3"},
        })
        assert pov.absolute_extreme == 40000
        assert pov.absolute_upper == 160000
        assert pov.child_population == 400000
        assert pov.equivalence_scale == EquivalenceScale(
            Fraction(1, 2), Fraction(3, 10))

    def test_empty_section_gives_defaults(self):
        assert section("poverty", {}) == PovertyConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="in poverty "):
            section("poverty", {"extreme": 1})
        with pytest.raises(ConfigError, match="in poverty.equivalence_scale"):
            section("poverty", {"equivalence_scale": {"second_adult": "0.5"}})


class TestCalibrationSettings:
    def test_target_range_enforced(self):
        with pytest.raises(ConfigError, match="lie in"):
            CalibrationSettings(target_child_poverty=Fraction(3, 2))
        with pytest.raises(ConfigError, match="lie in"):
            CalibrationSettings(target_child_poverty=Fraction(-1, 10))

    def test_tolerance_and_budget_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            CalibrationSettings(Fraction(1, 4), tolerance=0)
        with pytest.raises(ConfigError, match="positive"):
            CalibrationSettings(Fraction(1, 4), max_evaluations=0)

    def test_from_dict_requires_target(self):
        with pytest.raises(ConfigError, match="missing key "
                           "'target_child_poverty' in calibration"):
            section("calibration", {"tolerance": 0.01})

    def test_from_dict_exact_target(self):
        cal = section("calibration", {"target_child_poverty": "0.278",
                                      "tolerance": 0.002,
                                      "max_evaluations": 24})
        assert cal.target_child_poverty == Fraction(278, 1000)
        assert cal.tolerance == 0.002
        assert cal.max_evaluations == 24


SELF_EMPLOYMENT = {"observed_pct": "-10.7", "tolerance_pp": "2"}


class TestObservedSection:
    def test_parses_sources(self):
        obs = section("observed", {
            "wage": {"observed_pct": "9.8", "tolerance_pp": 5},
            "self_employment": SELF_EMPLOYMENT,
        })
        assert obs.wage == ObservedChange(Fraction(49, 5), Fraction(5))
        assert obs.self_employment.observed_pct == Fraction(-107, 10)

    def test_both_fields_required(self):
        with pytest.raises(ConfigError,
                           match="missing key 'tolerance_pp' in observed.wage"):
            section("observed", {"wage": {"observed_pct": "1"},
                                 "self_employment": SELF_EMPLOYMENT})

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError,
                           match="observed.wage.tolerance_pp must be nonnegative"):
            section("observed", {"wage": {"observed_pct": "1",
                                          "tolerance_pp": -1},
                                 "self_employment": SELF_EMPLOYMENT})

    def test_unknown_key_names_source(self):
        with pytest.raises(ConfigError, match="in observed.wage"):
            section("observed", {"wage": {"observed": "1", "tolerance_pp": 1},
                                 "self_employment": SELF_EMPLOYMENT})


class TestStudyConfig:
    def test_empty_dict_gives_defaults(self):
        cfg = study_config_from_dict({})
        assert cfg.seed is None
        assert cfg.synth is None
        assert cfg.policy == PolicyParameters()
        assert cfg.poverty == PovertyConfig()
        assert cfg.scenario == ScenarioSettings()
        assert cfg.calibration is None
        assert cfg.observed is None
        assert cfg.source_path is None and cfg.source_sha256 is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'sede' in config"):
            study_config_from_dict({"sede": 1})

    def test_gma_regime_is_an_unknown_policy_key(self):
        with pytest.raises(ConfigError, match="unknown key 'gma_regime' in policy"):
            study_config_from_dict({"policy": {"gma_regime": "relaxed"}})

    def test_bad_seed_value(self):
        with pytest.raises(ConfigError, match="^seed: expected an integer"):
            study_config_from_dict({"seed": "not-a-number"})

    def test_sections_dispatch(self):
        cfg = study_config_from_dict({
            "seed": 11,
            "synth": {"n_households": 50},
            "scenario": {"factors": ["gma_relaxation"]},
            "calibration": {"target_child_poverty": "0.25"},
        })
        assert cfg.seed == 11
        assert cfg.synth.n_households == 50
        assert cfg.scenario.factors == ("gma_relaxation",)
        assert cfg.calibration.target_child_poverty == Fraction(1, 4)

    def test_load_sets_provenance(self, tmp_path):
        path = tmp_path / "study.json"
        text = '{"seed": 3}'
        path.write_text(text, encoding="utf-8")
        cfg = load_study_config(path)
        assert cfg.seed == 3
        assert cfg.source_path == str(path)
        assert cfg.source_sha256 == sha256_text(text)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_study_config(path)

    def test_load_integer_too_long_to_convert(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_study_config(path)

    def test_load_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="must hold a JSON object"):
            load_study_config(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_study_config(tmp_path / "absent.json")


FULL_STUDY = {
    "seed": 7,
    "synth": {"n_households": 120},
    "policy": {"energy_months_pre": 5},
    "poverty": {"absolute_extreme": 40000,
                "equivalence_scale": {"child_under_14": "0.3"}},
    "scenario": {"factors": ["wage_shock", "one_offs"], "shock_scale": "0.8"},
    "calibration": {"target_child_poverty": "0.278"},
    "observed": {"wage": {"observed_pct": "5.0", "tolerance_pp": 5},
                 "self_employment": SELF_EMPLOYMENT},
}


class TestEffectiveConfig:
    def test_is_json_serializable(self):
        cfg = study_config_from_dict(FULL_STUDY)
        text = dumps_json(effective_config_dict(cfg))
        assert json.loads(text)["seed"] == 7

    def test_round_trips_through_parser(self):
        cfg = study_config_from_dict(FULL_STUDY)
        eff = effective_config_dict(cfg)
        again = effective_config_dict(study_config_from_dict(eff))
        assert again == eff

    def test_records_exact_fractions(self):
        cfg = study_config_from_dict(FULL_STUDY)
        eff = effective_config_dict(cfg)
        assert eff["scenario"]["shock_scale"] == "4/5"
        assert eff["poverty"]["equivalence_scale"]["child_under_14"] == "3/10"
        assert eff["calibration"]["target_child_poverty"] == "139/500"
        assert eff["observed"]["wage"]["observed_pct"] == "5"

    def test_optional_sections_omitted(self):
        eff = effective_config_dict(StudyConfig())
        assert "synth" not in eff
        assert "calibration" not in eff
        assert "observed" not in eff
        assert list(eff) == ["policy", "poverty", "scenario"]


class TestWriteManifest:
    def test_contents_and_hashes(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("a,b\n1,2\n", encoding="utf-8")
        cfg = study_config_from_dict({"seed": 5},
                                     source_path="study.json",
                                     source_sha256="f" * 64)
        out = tmp_path / "run"
        out.mkdir()
        path = write_manifest(out, "simulate", cfg, {"table": str(data)},
                              {"b.csv": "1" * 64, "a.csv": "0" * 64},
                              extra={"note": 1})
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        assert manifest["config_path"] == "study.json"
        assert manifest["config_sha256"] == "f" * 64
        assert manifest["effective_config"]["seed"] == 5
        assert manifest["inputs"]["table"]["sha256"] == sha256_file(data)
        assert list(manifest["outputs"]) == ["a.csv", "b.csv"]
        assert manifest["extra"] == {"note": 1}

    def test_no_config_and_no_extra(self, tmp_path):
        path = write_manifest(tmp_path, "plot", None, {}, {})
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["seed"] is None
        assert manifest["config_path"] is None
        assert manifest["effective_config"] is None
        assert "extra" not in manifest

    def test_repeated_runs_identical(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("x\n", encoding="utf-8")
        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir(), two.mkdir()
        cfg = study_config_from_dict(FULL_STUDY)
        for out in (one, two):
            write_manifest(out, "simulate", cfg, {"table": str(data)},
                           {"t.csv": "a" * 64})
        assert ((one / "manifest.json").read_bytes()
                == (two / "manifest.json").read_bytes())


# -- the codec ----------------------------------------------------------------

#: Every section present, so every field of every section is encoded.
ALL_SECTIONS = StudyConfig(
    seed=1,
    synth=SynthConfig(n_households=100),
    calibration=CalibrationSettings(Fraction(1, 4)),
    observed=ObservedChanges(
        self_employment=ObservedChange(Fraction(-15), Fraction(2)),
        wage=ObservedChange(Fraction(-46, 5), Fraction(3, 2))),
)


def _wrong_type(value):
    """A JSON value of the wrong type for a field encoded as `value`."""
    if isinstance(value, bool):
        return "true"
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        # A numeric string encodes a Fraction, which a number would fill.
        return True if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value) else 1
    if isinstance(value, dict):
        return []
    return {}


def _leaves(node, path=""):
    """(dotted path, parent, key) of every value below an encoded node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, list):
            sub = f"{path}[{key}]"
        else:
            sub = f"{path}.{key}" if path else key
        yield sub, node, key
        if isinstance(value, (dict, list)):
            yield from _leaves(value, sub)


def test_every_leaf_of_the_wrong_type_is_rejected_by_path():
    encoded = encode(ALL_SECTIONS)
    paths = [path for path, _, _ in _leaves(encoded)]
    assert {"synth.wage.sigma", "policy.gma_scale.child",
            "synth.household_size_dist.1", "scenario.band_scales[0]",
            "observed.wage.tolerance_pp", "seed"} <= set(paths)
    missed = []
    for i, path in enumerate(paths):
        data = copy.deepcopy(encoded)
        _, parent, key = list(_leaves(data))[i]
        parent[key] = _wrong_type(parent[key])
        try:
            study_config_from_dict(data)
        except ConfigError as exc:
            if not str(exc).startswith(f"{path}: expected "):
                missed.append((path, str(exc)))
        else:
            missed.append((path, "accepted"))
    assert missed == []


NAN_TOLERANCE = json.loads(
    '{"calibration": {"target_child_poverty": "0.2", "tolerance": NaN}}')
NAN_SIGMA = json.loads(
    '{"synth": {"n_households": 10, "wage": {"median": 1, "sigma": NaN}}}')
OBSERVED_CHANGE = {"observed_pct": "1", "tolerance_pp": "1"}


@pytest.mark.parametrize("data, message", [
    ({"scenario": {"transfers_on_shocked": "false"}},
     "scenario.transfers_on_shocked: expected true or false"),
    ({"policy": {"universal_child_allowance": "false"}},
     "policy.universal_child_allowance: expected true or false"),
    ({"seed": 1.5}, "seed: expected an integer"),
    ({"seed": True}, "seed: expected an integer"),
    ({"policy": {"gma_base_amount": 4000.9}},
     "policy.gma_base_amount: expected an integer"),
    ({"synth": {"n_households": 10.5}}, "synth.n_households: expected an integer"),
    ({"synth": {"n_households": True}}, "synth.n_households: expected an integer"),
    (NAN_TOLERANCE, "calibration.tolerance: expected a finite number"),
    (NAN_SIGMA, "synth.wage.sigma: expected a finite number"),
    ({"synth": {"n_households": 10, "child_share": 10 ** 400}},
     "synth.child_share: expected a finite number"),
    ({"policy": {"gma_scale": []}}, "policy.gma_scale: expected an object"),
    ({"observed": []}, "observed: expected an object"),
    ({"scenario": {"shock_start_month": 13}},
     "scenario.shock_start_month 13 outside 1..12"),
    ({"scenario": {"shock_start_month": 0}},
     "scenario.shock_start_month 0 outside 1..12"),
    ({"policy": {"oneoff_may": {"student_age_min": -5}}},
     "policy.oneoff_may.student_age_min must be nonnegative"),
    ({"policy": {"oneoff_dec": {"pension_cap": -1}}},
     "policy.oneoff_dec.pension_cap must be nonnegative"),
    ({"observed": {"wages": OBSERVED_CHANGE, "self_employment": OBSERVED_CHANGE}},
     "unknown key 'wages' in observed"),
    ({"observed": {"wage": OBSERVED_CHANGE}},
     "missing key 'self_employment' in observed"),
    ({"synth": {}}, "missing key 'n_households' in synth"),
    ({"synth": {"n_households": 10, "wage": {"median": 1, "mode": 1}}},
     "unknown key 'mode' in synth.wage"),
    ({"synth": {"n_households": 10, "household_size_dist": {"01": 1.0}}},
     "synth.household_size_dist: key '01' is not an integer"),
    ({"synth": {"n_households": 10, "household_size_dist": {"1" * 5000: 1.0}}},
     "synth.household_size_dist: key '11"),
    ({"synth": {"n_households": 10, "weight_range": [1.0]}},
     "synth.weight_range: expected a list of 2 items"),
    ({"policy": {"gma_scale": {"child": "1/0"}}},
     "policy.gma_scale.child: expected an exact number"),
    ({"policy": {"gma_scale": {"child": -1}}},
     "policy.gma_scale: GMA scale coefficient child must be nonnegative"),
    ({"policy": {"pit_rate": "0." + "1" * 5000}},
     "policy.pit_rate: expected an exact number"),
    ({"source_path": "study.json"}, "unknown key 'source_path' in config"),
    ({"source_sha256": "0" * 64}, "unknown key 'source_sha256' in config"),
    ({"scenario": {"shock_scale": "-1"}},
     "scenario.shock_scale -1 must be nonnegative"),
    ({"scenario": {"shock_scale": -0.2}},
     "scenario.shock_scale -1/5 must be nonnegative"),
])
def test_rejection_names_the_path(data, message):
    with pytest.raises(ConfigError) as info:
        study_config_from_dict(data)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("value, expected", [
    (3, Fraction(3)), (-2, Fraction(-2)), (0.8, Fraction(4, 5)),
    (0.1, Fraction(1, 10)), ("0.648", Fraction(81, 125)),
    ("-10.7", Fraction(-107, 10)), ("4/5", Fraction(4, 5)),
    ("-3/10", Fraction(-3, 10)), ("007", Fraction(7)), ("1/05", Fraction(1, 5)),
])
def test_exact_number_accepted(value, expected):
    assert decode(Fraction, value, "x") == expected


@pytest.mark.parametrize("value", [
    " 0.8", "0.8 ", "1_0", "٣", "+1", "1.", ".5", "1e3", "1/0", "1/00",
    "1/-2", "inf", "nan", "", "1/2/3", True, None, [], float("nan"),
    float("inf"),
])
def test_exact_number_rejected(value):
    with pytest.raises(ConfigError, match="^x: expected an exact number"):
        decode(Fraction, value, "x")


ROUND_TRIP = {
    "defaults": StudyConfig(),
    "demo": study_config_from_dict(json.loads(DEMO.read_text(encoding="utf-8"))),
    "full_study": study_config_from_dict(FULL_STUDY),
    "all_sections": ALL_SECTIONS,
    "capless_income": StudyConfig(synth=SynthConfig(
        n_households=50, wage=IncomeDist(median=1000, sigma=0.5))),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_encode_decode_round_trip(name):
    cfg = ROUND_TRIP[name]
    echoed = json.loads(dumps_json(encode(cfg)))
    again = decode(StudyConfig, echoed, "")
    assert again == cfg
    assert encode(again) == encode(cfg) == echoed


def test_echo_leaves_out_unset_values():
    eff = effective_config_dict(study_config_from_dict(
        {"synth": {"n_households": 5}}))
    assert "seed" not in eff
    assert "share_tolerance" not in eff["synth"]
    assert "cap" in eff["synth"]["wage"]
    capless = ROUND_TRIP["capless_income"]
    assert "cap" not in effective_config_dict(capless)["synth"]["wage"]
