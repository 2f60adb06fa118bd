"""povsim: static tax-benefit microsimulation of income shocks and child poverty.

The engine loads (or fabricates) a survey-style population, calibrates
sector-by-demographic income-change factors from labour-survey cell
aggregates, applies parametrized benefit rules month by month, and
measures relative and absolute child poverty before and after, with
factor decompositions, shock-scale uncertainty bands and group
breakdowns. All accounting is exact (integers and rationals), so every
result is reproducible bit for bit.
"""

from .cells import (CellChange, CellChangeTable, CellStat, LfsAggregate,
                    SelfEmpCellKey, WageCellKey, aggregate_income_change,
                    all_selfemp_keys, all_wage_keys, apply_shock,
                    compute_cell_changes, load_cell_table, load_lfs_aggregate,
                    save_cell_table, save_lfs_aggregate)
from .config import (CalibrationSettings, ObservedChange, ObservedChanges,
                     ScenarioSettings, StudyConfig, load_study_config,
                     study_config_from_dict)
from .errors import (CalibrationError, ConfigError, DataError, PipelineError,
                     PovsimError)
from .metrics import (EquivalenceScale, PovertyLines, PovertyReport, RateResult,
                      headcount_from_pp, weighted_median)
from .population import (Household, LaborStatus, Person, Population, Sex,
                         load_population, save_population)
from .rules import (GmaScale, OneOffDec, OneOffMay, PolicyParameters,
                    disposable_income, gma_schedule, gross_to_net)
from .scenario import (BandResult, DecompositionResult, DisaggregationResult,
                       PovertyConfig, ScenarioResult, ScenarioSpec, Study,
                       ValidationResult, prepare_baseline,
                       simulated_aggregate_changes, validate_against_observed)
from .synth import (IncomeDist, SynthConfig, calibrate_to_baseline,
                    generate_synthetic)

__version__ = "0.1.0"

__all__ = [
    "BandResult", "CalibrationError", "CalibrationSettings", "CellChange",
    "CellChangeTable", "CellStat", "ConfigError", "DataError",
    "DecompositionResult", "DisaggregationResult", "EquivalenceScale",
    "GmaScale", "Household", "IncomeDist", "LaborStatus", "LfsAggregate",
    "ObservedChange", "ObservedChanges", "OneOffDec", "OneOffMay",
    "Person", "PipelineError", "PolicyParameters", "Population",
    "PovertyConfig", "PovertyLines", "PovertyReport", "PovsimError",
    "RateResult", "ScenarioResult", "ScenarioSettings", "ScenarioSpec",
    "SelfEmpCellKey", "Sex", "Study", "StudyConfig", "SynthConfig",
    "ValidationResult", "WageCellKey", "aggregate_income_change",
    "all_selfemp_keys", "all_wage_keys", "apply_shock",
    "calibrate_to_baseline", "compute_cell_changes", "disposable_income",
    "generate_synthetic", "gma_schedule", "gross_to_net",
    "headcount_from_pp", "load_cell_table", "load_lfs_aggregate",
    "load_population", "load_study_config", "prepare_baseline",
    "save_cell_table", "save_lfs_aggregate", "save_population",
    "simulated_aggregate_changes", "study_config_from_dict",
    "validate_against_observed", "weighted_median",
]
