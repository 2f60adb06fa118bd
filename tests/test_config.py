"""Tests for study-configuration parsing and manifests."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from povsim.config import (CalibrationSettings, ObservedChange,
                           ScenarioSettings, StudyConfig,
                           calibration_from_dict, effective_config_dict,
                           load_study_config, observed_from_dict,
                           poverty_from_dict, scenario_settings_from_dict,
                           sha256_file, sha256_text, study_config_from_dict,
                           write_manifest)
from povsim.errors import ConfigError
from povsim.metrics import EquivalenceScale
from povsim.reporting import dumps_json
from povsim.rules import PolicyParameters
from povsim.scenario import DIMENSIONS, FACTOR_NAMES, PovertyConfig


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
        assert not (spec.gma_relaxation or spec.one_offs or spec.tbi)
        assert spec.shock_scale == Fraction(4, 5)
        assert spec.shock_start_month == 4

    def test_scenario_spec_reflects_factor_subset(self):
        s = ScenarioSettings(factors=("wage_shock", "one_offs"))
        spec = s.scenario_spec()
        assert spec.wage_shock and spec.one_offs
        assert not spec.selfemp_shock and not spec.gma_relaxation
        assert not spec.tbi

    def test_from_dict_parses_exact_scale(self):
        s = scenario_settings_from_dict({"shock_scale": "0.8"})
        assert s.shock_scale == Fraction(4, 5)
        s = scenario_settings_from_dict({"shock_scale": 0.8})
        assert s.shock_scale == Fraction(4, 5)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'scal' in scenario"):
            scenario_settings_from_dict({"scal": 1})

    def test_from_dict_bad_value(self):
        with pytest.raises(ConfigError,
                           match="bad value for scenario.shock_scale"):
            scenario_settings_from_dict({"shock_scale": "huge"})

    def test_from_dict_band_scales(self):
        s = scenario_settings_from_dict({"band_scales": ["1.2", "0.8", 1]})
        assert s.band_scales == (Fraction(4, 5), Fraction(1), Fraction(6, 5))


class TestPovertyFromDict:
    def test_full_section(self):
        pov = poverty_from_dict({
            "absolute_extreme": 40000,
            "absolute_upper": 160000,
            "child_population": 400000,
            "equivalence_scale": {"first_adult": "1",
                                  "additional_adult_14plus": "0.5",
                                  "child_under_14": "0.3"},
        })
        assert pov.absolute_extreme == 40000
        assert pov.absolute_upper == 160000
        assert pov.child_population == 400000
        assert pov.equivalence_scale == EquivalenceScale(
            Fraction(1), Fraction(1, 2), Fraction(3, 10))

    def test_empty_section_gives_defaults(self):
        assert poverty_from_dict({}) == PovertyConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="in poverty "):
            poverty_from_dict({"extreme": 1})
        with pytest.raises(ConfigError, match="in poverty.equivalence_scale"):
            poverty_from_dict({"equivalence_scale": {"second_adult": "0.5"}})


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
        with pytest.raises(ConfigError, match="needs target_child_poverty"):
            calibration_from_dict({"tolerance": 0.01})

    def test_from_dict_exact_target(self):
        cal = calibration_from_dict({"target_child_poverty": "0.278",
                                     "tolerance": 0.002,
                                     "max_evaluations": 24})
        assert cal.target_child_poverty == Fraction(278, 1000)
        assert cal.tolerance == 0.002
        assert cal.max_evaluations == 24


class TestObservedFromDict:
    def test_parses_sources(self):
        obs = observed_from_dict({
            "wage": {"observed_pct": "9.8", "tolerance_pp": 5},
            "self_employment": {"observed_pct": "-10.7", "tolerance_pp": "2"},
        })
        assert obs["wage"] == ObservedChange(Fraction(49, 5), Fraction(5))
        assert obs["self_employment"].observed_pct == Fraction(-107, 10)

    def test_both_fields_required(self):
        with pytest.raises(ConfigError, match="needs observed_pct"):
            observed_from_dict({"wage": {"observed_pct": "1"}})

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            observed_from_dict({"wage": {"observed_pct": "1",
                                         "tolerance_pp": -1}})

    def test_unknown_key_names_source(self):
        with pytest.raises(ConfigError, match="in observed.wage"):
            observed_from_dict({"wage": {"observed": "1", "tolerance_pp": 1}})


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
        with pytest.raises(ConfigError, match="unknown key 'gma_regime' in params"):
            study_config_from_dict({"policy": {"gma_regime": "relaxed"}})

    def test_bad_seed_value(self):
        with pytest.raises(ConfigError, match="bad value in config"):
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
    "observed": {"wage": {"observed_pct": "5.0", "tolerance_pp": 5}},
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
        assert set(eff) == {"seed", "policy", "poverty", "scenario"}


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
