"""Shared fixtures: a frozen synthetic survey and a small hand-built panel.

Two populations drive the suite.  ``micro_pop`` is five hand-built
households whose incomes, thresholds, and poverty rates were worked out
by hand (see tests/oracles.py); every engine module is checked against
those literals.  ``accept_pop`` is the frozen 10,000-household synthetic
survey used by the acceptance tests: its config, seed, and shock factors
are pinned here so the whole suite sees one deterministic world.
"""

from __future__ import annotations

import pytest

from povsim.cells import CellChangeTable
from povsim.population import (
    Household,
    LaborStatus,
    Person,
    Population,
    Sex,
)
from povsim.rules import PolicyParameters, disposable_income
from povsim.scenario import PovertyConfig
from povsim.synth import IncomeDist, SynthConfig, calibrate_to_baseline, generate_synthetic

# --------------------------------------------------------------------------
# Frozen synthetic-survey fixture (10,000 households).
#
# The seed, distributions, and shock factors below are pinned: changing any
# of them invalidates the tuned expectations in test_acceptance.py.
# --------------------------------------------------------------------------

ACCEPT_SEED = 20250814
ACCEPT_TARGET_CHILD_RATE = 0.278
ACCEPT_CALIBRATION_TOL = 0.002

# April-2020 wage employment factors by NACE division: deep cuts in retail,
# food service, accommodation, textiles, and personal services; mild cuts in
# transport and construction; manufacturing and the public sector near 1.0.
WAGE_F = {
    "47": 0.38, "56": 0.28, "55": 0.30, "13": 0.40, "14": 0.40, "96": 0.35,
    "93": 0.38, "90": 0.35, "92": 0.42, "91": 0.48, "95": 0.45, "94": 0.60,
    "77": 0.40, "78": 0.42, "81": 0.45, "82": 0.50,
    "49": 0.92, "52": 0.93, "53": 0.95, "43": 0.90, "41": 0.92, "42": 0.92,
    "45": 0.92, "46": 0.96,
    "10": 0.96, "22": 0.98, "24": 0.98, "25": 0.98, "27": 0.98, "29": 0.98,
    "31": 0.97, "33": 0.98, "28": 0.98, "23": 0.98, "32": 0.98, "01": 0.95,
    "35": 1.00, "36": 1.00, "58": 1.00, "61": 1.00, "62": 1.02, "63": 1.00,
    "64": 1.00, "65": 1.00, "68": 0.98, "69": 0.99, "70": 0.99, "71": 0.99,
    "73": 0.94, "74": 0.94, "75": 0.99, "80": 0.96, "84": 1.00, "85": 1.00,
    "86": 1.00, "87": 0.98, "88": 0.98,
}

# Self-employment factors by NACE section: hospitality, retail trade, arts,
# and other services hit hardest; information and professional services grow.
SE_F = {
    "A": 0.88, "B": 0.95, "C": 0.90, "D": 1.00, "E": 0.97, "F": 0.85,
    "G": 0.55, "H": 0.75, "I": 0.35, "J": 1.30, "K": 1.15, "L": 1.00,
    "M": 1.40, "N": 0.78, "O": 1.00, "P": 1.00, "Q": 1.05, "R": 0.40,
    "S": 0.45, "T": 0.70, "U": 1.00,
}

# Employment weights across NACE divisions for the synthetic labor market.
INDUSTRY = {
    "47": 7.0, "56": 4.5, "55": 2.2, "13": 2.5, "14": 2.5, "96": 2.0,
    "93": 1.0, "90": 0.6, "92": 0.6, "91": 0.4, "95": 0.6, "94": 0.4,
    "77": 0.5, "78": 0.8, "81": 1.0, "82": 1.0,
    "49": 2.0, "52": 1.0, "43": 2.0, "45": 1.2, "41": 1.2, "42": 0.6,
    "46": 3.0, "53": 1.0,
    "84": 10.0, "85": 9.0, "86": 8.0,
    "10": 5.0, "22": 2.0, "23": 1.0, "24": 2.0, "25": 2.5, "27": 2.0,
    "28": 1.5, "29": 3.0, "31": 1.5, "32": 1.0, "33": 1.5,
    "35": 2.0, "36": 1.0, "01": 2.0,
    "58": 1.0, "61": 1.5, "62": 3.0, "63": 0.8, "64": 2.5, "65": 1.0,
    "68": 0.7, "69": 1.5, "70": 1.0, "71": 1.5, "73": 0.7, "74": 0.7,
    "75": 0.5, "80": 1.0, "87": 1.2, "88": 1.2,
}

# Sector pay multipliers: low-pay services sit well under 1.0 (the wage floor
# binds there, producing the minimum-wage cluster); ICT and finance sit high.
MULT = {
    "47": 0.62, "56": 0.58, "55": 0.62, "13": 0.58, "14": 0.56, "96": 0.60,
    "93": 0.62, "90": 0.60, "92": 0.64, "91": 0.66, "95": 0.64, "94": 0.66,
    "77": 0.60, "78": 0.60, "81": 0.58, "82": 0.68,
    "49": 0.88, "52": 0.90, "53": 0.92, "43": 0.85, "45": 0.90, "41": 0.90,
    "42": 0.90, "46": 0.98,
    "10": 0.95, "22": 1.00, "23": 1.02, "24": 1.04, "25": 1.02, "27": 1.02,
    "28": 1.04, "29": 1.04, "31": 0.98, "32": 1.00, "33": 1.02, "01": 0.82,
    "35": 1.32, "36": 1.12, "58": 1.55, "61": 1.65, "62": 1.90, "63": 1.50,
    "64": 1.60, "65": 1.50, "68": 1.02, "69": 1.40, "70": 1.30, "71": 1.22,
    "73": 0.98, "74": 0.96, "75": 1.02, "80": 0.90, "84": 1.25, "85": 1.15,
    "86": 1.20, "87": 0.98, "88": 0.95,
}


def acceptance_config(n_households: int = 10_000) -> SynthConfig:
    """The frozen survey recipe behind the acceptance expectations."""
    return SynthConfig(
        n_households=n_households,
        child_share=0.30,
        adult_labor_shares={
            "employee": 0.50, "self_employed": 0.07,
            "unemployed_active": 0.06, "unemployed_passive": 0.06,
            "pensioner": 0.20, "inactive": 0.09, "student": 0.02,
        },
        wage=IncomeDist(median=27000, sigma=0.30, floor=14500, cap=220000),
        selfemp_income=IncomeDist(median=20000, sigma=0.45, floor=6000, cap=300000),
        pension=IncomeDist(median=13000, sigma=0.25, floor=6000, cap=30000),
        transfer_income=IncomeDist(median=3000, sigma=0.45, floor=800, cap=20000),
        transfer_share_no_earner=0.70,
        owns_residence_share=0.82,
        informal_share=0.13,
        industry_dist=INDUSTRY,
        sector_wage_multipliers=MULT,
        couple_sector_assortativity=0.85,
    )


def cascade_results(study, result) -> dict:
    """household id -> the benefit cascade's result for each household in
    one pass of a study: disposable_income over the ledgers that pass
    evaluated (study._ledgers_of), with the spec's switches.

    A pass keeps no per-household results, only the annual totals it
    scored, some of them served by the household base's memo. So this
    also checks that result.scores holds these results' annual totals,
    household by household.
    """
    spec = result.spec
    results = {ledger.household.household_id: disposable_income(
                   ledger, study.base.params, relaxed=spec.gma_relaxation,
                   one_offs=spec.one_offs)
               for ledger in study._ledgers_of(spec)}
    frame = result.scores.frame
    assert tuple(results) == frame.household_ids, spec
    assert result.scores.keys == tuple(
        res.annual_disposable * f for res, f in zip(results.values(), frame.eq_factors)), spec
    return results


@pytest.fixture(scope="session")
def params() -> PolicyParameters:
    return PolicyParameters()


@pytest.fixture(scope="session")
def pov() -> PovertyConfig:
    return PovertyConfig()


@pytest.fixture(scope="session")
def accept_pop(params, pov) -> Population:
    """Calibrated 10k-household synthetic survey (built once per session)."""
    raw = generate_synthetic(acceptance_config(), ACCEPT_SEED)
    return calibrate_to_baseline(raw, ACCEPT_TARGET_CHILD_RATE, params, pov,
                                 tolerance=ACCEPT_CALIBRATION_TOL)


@pytest.fixture(scope="session")
def accept_table() -> CellChangeTable:
    return CellChangeTable.from_factors(WAGE_F, SE_F)


# --------------------------------------------------------------------------
# Hand-built five-household panel.  All expected outcomes for this panel
# live in tests/oracles.py; the notes there show the arithmetic.
# --------------------------------------------------------------------------


def flat(amount: int) -> tuple[int, ...]:
    """A constant monthly income vector."""
    return (amount,) * 12


def build_micro_population() -> Population:
    """Five households exercising every rule branch.

    1. Single high earner (hotels), owns an eight-year-old car.  Weight 200.
    2. Couple, one minimum-ish retail wage, two children (one enrolled),
       old car plus a small land parcel: blocked from assistance before the
       relaxation, eligible after.
    3. Pensioner couple: comfortable, never poor, never assisted.
    4. Self-employed head (personal services) with an informally employed
       wife and an enrolled teenager; newish car and a large parcel keep the
       household out of assistance under both regimes.
    5. Jobless single mother on family transfers: the deep-poverty case,
       assisted under both regimes.
    """
    persons = [
        # Household 1: single hotel worker, well paid.
        Person(person_id=1, household_id=1, age=40, sex=Sex.MALE,
               labor_status=LaborStatus.EMPLOYEE, nace2="55",
               wage=flat(30000)),
        # Household 2: retail cashier, inactive spouse, two children.
        Person(person_id=2, household_id=2, age=35, sex=Sex.MALE,
               labor_status=LaborStatus.EMPLOYEE, nace2="47",
               wage=flat(12000)),
        Person(person_id=3, household_id=2, age=33, sex=Sex.FEMALE,
               labor_status=LaborStatus.INACTIVE),
        Person(person_id=4, household_id=2, age=10, sex=Sex.MALE,
               labor_status=LaborStatus.STUDENT, in_public_education=True),
        Person(person_id=5, household_id=2, age=3, sex=Sex.FEMALE,
               labor_status=LaborStatus.CHILD),
        # Household 3: pensioner couple.
        Person(person_id=6, household_id=3, age=70, sex=Sex.MALE,
               labor_status=LaborStatus.PENSIONER, pension=flat(12000)),
        Person(person_id=7, household_id=3, age=68, sex=Sex.FEMALE,
               labor_status=LaborStatus.PENSIONER, pension=flat(14000)),
        # Household 4: self-employed head, informal employee wife, teenager.
        Person(person_id=8, household_id=4, age=45, sex=Sex.MALE,
               labor_status=LaborStatus.SELF_EMPLOYED, nace2="96",
               self_employment=flat(25000)),
        Person(person_id=9, household_id=4, age=43, sex=Sex.FEMALE,
               labor_status=LaborStatus.EMPLOYEE, nace2="96",
               informal_wage_flag=True, wage=flat(15000)),
        Person(person_id=10, household_id=4, age=16, sex=Sex.MALE,
               labor_status=LaborStatus.STUDENT, in_public_education=True),
        # Household 5: jobless single mother with a small child.
        Person(person_id=11, household_id=5, age=30, sex=Sex.FEMALE,
               labor_status=LaborStatus.UNEMPLOYED_ACTIVE,
               interhousehold_transfers=flat(3000)),
        Person(person_id=12, household_id=5, age=4, sex=Sex.FEMALE,
               labor_status=LaborStatus.CHILD),
    ]
    households = [
        Household(household_id=1, member_ids=(1,), weight_centi=20000,
                  owns_residence=True, car_age_years=8),
        Household(household_id=2, member_ids=(2, 3, 4, 5), weight_centi=10000,
                  owns_residence=True, car_age_years=10, land_parcel_m2=300),
        Household(household_id=3, member_ids=(6, 7), weight_centi=10000,
                  owns_residence=True),
        Household(household_id=4, member_ids=(8, 9, 10), weight_centi=10000,
                  owns_residence=True, car_age_years=3, land_parcel_m2=600),
        Household(household_id=5, member_ids=(11, 12), weight_centi=10000),
    ]
    return Population(persons=tuple(persons), households=tuple(households),
                      provenance="handbuilt")


def build_micro_table() -> CellChangeTable:
    """Shock table for the panel: hotels halve, retail -20%, services -30%;
    other-services self-employment falls 40%."""
    return CellChangeTable.from_factors(
        {"55": 0.5, "47": 0.8, "96": 0.7},
        {"S": 0.6},
    )


@pytest.fixture()
def micro_pop() -> Population:
    return build_micro_population()


@pytest.fixture()
def micro_table() -> CellChangeTable:
    return build_micro_table()
