"""Tax wedge, GMA means test, one-off schemes."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from povsim.cells import shocked_person
from povsim.errors import ConfigError, DataError
from povsim.money import ZERO_YEAR, round_half_away
from povsim.population import Household, LaborStatus, Person, Sex
from povsim.rules import (
    CAR_OWNED,
    CAR_TOO_NEW,
    ELIGIBLE,
    INCOME_TOO_HIGH,
    LAND_OWNED,
    LAND_TOO_LARGE,
    OTHER_REAL_ESTATE,
    GmaScale,
    PolicyParameters,
    disposable_income,
    gma_schedule,
    gross_to_net,
    ledger_from_vectors,
    oneoff_dec2020,
    oneoff_may2020,
    person_net_market,
    shocked_ledger,
)

from conftest import flat
from oracles import MICRO_EXPECTED, gma_monthly_by_definition, net_by_decimal

PARAMS = PolicyParameters()


def person(pid=1, hid=1, age=40, sex=Sex.FEMALE,
           status=LaborStatus.INACTIVE, **kw) -> Person:
    return Person(person_id=pid, household_id=hid, age=age, sex=sex,
                  labor_status=status, **kw)


def household(members, weight=100, **kw) -> Household:
    return Household(household_id=members[0].household_id,
                     member_ids=tuple(m.person_id for m in members),
                     weight_centi=weight, **kw)


def ledger_for(members, params=PARAMS, baseline=None, **hh_kw):
    """Ledger of a hand-built household; baseline is its pre-shock ledger."""
    return ledger_from_vectors(household(members, **hh_kw), members,
                               [person_net_market(m, params) for m in members],
                               params, baseline)


def verdict(ledger, relaxed, month=6):
    """(eligible, reason) of the GMA means test for one award month."""
    _, reason = gma_schedule(ledger, relaxed)[month - 1]
    return reason == ELIGIBLE, reason


def award(ledger, relaxed, month=6):
    return gma_schedule(ledger, relaxed)[month - 1][0]


class TestGrossToNet:
    @pytest.mark.parametrize("gross,net", sorted(MICRO_EXPECTED["net_wages"].items()))
    def test_frozen_wedge_values(self, gross, net):
        assert gross_to_net(gross, PARAMS) == net

    def test_matches_decimal_oracle_across_sweep(self):
        for gross in range(0, 120001, 37):
            assert gross_to_net(gross, PARAMS) == \
                net_by_decimal(gross, PARAMS.pit_rate, PARAMS.ssc_rate)

    def test_informal_bypasses_wedge(self):
        assert gross_to_net(15000, PARAMS, informal=True) == 15000

    def test_zero_and_negative(self):
        assert gross_to_net(0, PARAMS) == 0
        with pytest.raises(DataError):
            gross_to_net(-1, PARAMS)

    def test_contributions_come_off_before_tax(self):
        # 10000: ssc 2800, tax base 7200, pit 720 -> 6480. Flat chaining
        # (10000 * 0.72 * 0.9) would give the same product but different
        # rounding points; check an amount where rounding bites.
        assert gross_to_net(10001, PARAMS) == 6481

    def test_person_net_market_formal_and_informal(self):
        formal = person(status=LaborStatus.EMPLOYEE, nace2="47", wage=flat(15000))
        informal = formal._replace(informal_wage_flag=True)
        assert person_net_market(formal, PARAMS) == flat(9720)
        assert person_net_market(informal, PARAMS) == flat(15000)

    def test_person_net_market_sums_selfemp(self):
        both = person(status=LaborStatus.SELF_EMPLOYED, nace2="96",
                      self_employment=flat(25000))
        assert person_net_market(both, PARAMS) == flat(16200)


class TestGmaScale:
    def test_coefficients(self):
        scale = GmaScale()
        adults = [person(pid=i, age=30 + i) for i in range(1, 3)]
        kids = [person(pid=i + 10, age=5, status=LaborStatus.CHILD)
                for i in range(2)]
        assert scale.coefficient(adults[:1]) == 1
        assert scale.coefficient(adults) == Fraction(3, 2)
        assert scale.coefficient(adults[:1] + kids) == Fraction(16, 10)
        assert scale.coefficient(adults + kids) == Fraction(21, 10)

    def test_adult_cut_is_18_not_14(self):
        scale = GmaScale()
        seventeen = person(age=17, status=LaborStatus.STUDENT)
        eighteen = person(pid=2, age=18)
        assert scale.coefficient([eighteen, seventeen]) == \
            1 + Fraction(3, 10)

    def test_child_only_household(self):
        kids = [person(pid=i, age=10, status=LaborStatus.CHILD) for i in (1, 2)]
        assert GmaScale().coefficient(kids[:1]) == 1
        assert GmaScale().coefficient(kids) == Fraction(13, 10)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            GmaScale(child=Fraction(-1, 10))

    def test_threshold_scales_base_amount(self):
        mother = person(age=30, status=LaborStatus.UNEMPLOYED_ACTIVE)
        kid = person(pid=2, age=4, status=LaborStatus.CHILD)
        ledger = ledger_for([mother, kid])
        assert ledger.threshold == 4000 * Fraction(13, 10)


class TestGmaCountable:
    """Countable income, read through the award under a threshold far
    above every income: award = round(threshold - countable)."""

    THRESHOLD = 10**6

    def make_ledger(self):
        # Distinct month values so windows are distinguishable.
        core = tuple(1000 + 100 * m for m in range(12))
        rent = tuple(10 * (m + 1) for m in range(12))
        p = person(pension=core, capital_rent=rent)
        base_p = p._replace(pension=tuple(v + 7 for v in core))
        params = replace(PARAMS, gma_base_amount=self.THRESHOLD)
        return ledger_for([p], params, baseline=ledger_for([base_p], params))

    def gap(self, countable):
        return round_half_away(self.THRESHOLD - countable)

    def test_pre_regime_is_three_month_mean_with_rent(self):
        ledger = self.make_ledger()
        months = (3, 4, 5)  # calendar months feeding a June award
        want = Fraction(sum(ledger.core_countable[m - 1] + ledger.rent[m - 1]
                            for m in months), 3)
        assert award(ledger, False) == self.gap(want)

    def test_relaxed_regime_is_single_month_without_rent(self):
        ledger = self.make_ledger()
        assert award(ledger, True) == self.gap(ledger.core_countable[4])

    def test_early_months_read_baseline_profile(self):
        ledger = self.make_ledger()
        # October..December of the baseline year, rent included.
        want = Fraction(sum(ledger.base_core_countable[m] + ledger.base_rent[m]
                            for m in (9, 10, 11)), 3)
        assert award(ledger, False, month=1) == self.gap(want)
        assert award(ledger, True, month=1) == \
            self.gap(ledger.base_core_countable[11])


# The sixteen-case eligibility matrix: eight asset profiles crossed with an
# income below / at-or-above the threshold. Expected reasons per regime.
LOW, HIGH = 3000, 5000  # single adult threshold is 4000
ASSET_CASES = [
    # (label, household kwargs, pre_reason, relaxed_reason)
    ("no assets", {}, ELIGIBLE, ELIGIBLE),
    ("other real estate", {"owns_other_real_estate": True},
     OTHER_REAL_ESTATE, OTHER_REAL_ESTATE),
    ("car 2y", {"car_age_years": 2}, CAR_OWNED, CAR_TOO_NEW),
    ("car 8y", {"car_age_years": 8}, CAR_OWNED, ELIGIBLE),
    ("land 300", {"land_parcel_m2": 300}, LAND_OWNED, ELIGIBLE),
    ("land 700", {"land_parcel_m2": 700}, LAND_OWNED, LAND_TOO_LARGE),
    ("car 8y + land 300", {"car_age_years": 8, "land_parcel_m2": 300},
     CAR_OWNED, ELIGIBLE),
    ("car 2y + land 700", {"car_age_years": 2, "land_parcel_m2": 700},
     CAR_OWNED, CAR_TOO_NEW),
]


class TestGmaEligibility:
    def single_adult_ledger(self, monthly_income, **hh_kw):
        p = person(interhousehold_transfers=flat(monthly_income))
        # Every case owns its home: the residence must never disqualify.
        return ledger_for([p], owns_residence=True, **hh_kw)

    @pytest.mark.parametrize("label,hh_kw,pre_reason,relaxed_reason", ASSET_CASES)
    @pytest.mark.parametrize("income", [LOW, HIGH])
    def test_sixteen_case_matrix(self, label, hh_kw, pre_reason, relaxed_reason,
                                 income):
        ledger = self.single_adult_ledger(income, **hh_kw)
        for relaxed, asset_reason in ((False, pre_reason),
                                      (True, relaxed_reason)):
            ok, reason = verdict(ledger, relaxed)
            if asset_reason is not ELIGIBLE:
                expected = (False, asset_reason)
            elif income >= 4000:
                expected = (False, INCOME_TOO_HIGH)
            else:
                expected = (True, ELIGIBLE)
            assert (ok, reason) == expected, (label, relaxed, income)

    def test_residence_alone_never_disqualifies(self):
        ledger = self.single_adult_ledger(LOW)
        for relaxed in (False, True):
            ok, reason = verdict(ledger, relaxed)
            assert ok and reason == ELIGIBLE

    @pytest.mark.parametrize("car_age,relaxed_ok", [(4, False), (5, True),
                                                    (6, True)])
    def test_car_age_boundary(self, car_age, relaxed_ok):
        ledger = self.single_adult_ledger(LOW, car_age_years=car_age)
        ok, reason = verdict(ledger, True)
        assert ok is relaxed_ok
        assert reason == (ELIGIBLE if relaxed_ok else CAR_TOO_NEW)
        # Any car at all blocks the pre-crisis test.
        assert verdict(ledger, False) == (False, CAR_OWNED)

    @pytest.mark.parametrize("land,relaxed_ok", [(499, True), (500, False),
                                                 (501, False)])
    def test_land_size_boundary(self, land, relaxed_ok):
        ledger = self.single_adult_ledger(LOW, land_parcel_m2=land)
        ok, reason = verdict(ledger, True)
        assert ok is relaxed_ok
        assert reason == (ELIGIBLE if relaxed_ok else LAND_TOO_LARGE)
        assert verdict(ledger, False) == (False, LAND_OWNED)

    def test_income_test_is_strict(self):
        at_threshold = self.single_adult_ledger(4000)
        for relaxed in (False, True):
            assert verdict(at_threshold, relaxed) == (False, INCOME_TOO_HIGH)
        just_below = self.single_adult_ledger(3999)
        for relaxed in (False, True):
            assert verdict(just_below, relaxed)[0]

    def test_relaxed_eligibility_contains_pre(self):
        rng = random.Random(20)
        for _ in range(200):
            income = rng.randint(0, 8000)
            hh_kw = {}
            if rng.random() < 0.3:
                hh_kw["car_age_years"] = rng.randint(0, 15)
            if rng.random() < 0.3:
                hh_kw["land_parcel_m2"] = rng.randint(0, 1200)
            if rng.random() < 0.15:
                hh_kw["owns_other_real_estate"] = True
            ledger = self.single_adult_ledger(income, **hh_kw)
            pre_ok, _ = verdict(ledger, False)
            rel_ok, _ = verdict(ledger, True)
            assert rel_ok or not pre_ok, hh_kw


class TestGmaAward:
    def test_award_fills_gap_to_threshold(self):
        mother = person(age=30, status=LaborStatus.UNEMPLOYED_ACTIVE,
                        interhousehold_transfers=flat(3000))
        kid = person(pid=2, age=4, status=LaborStatus.CHILD)
        ledger = ledger_for([mother, kid])
        assert award(ledger, False) == 2200

    def test_zero_when_ineligible(self):
        p = person(interhousehold_transfers=flat(9000))
        ledger = ledger_for([p])
        assert award(ledger, False) == 0

    def test_rounding_of_fractional_gap(self):
        # Three-month means leave gaps in thirds: 2998/3 rounds down to 999,
        # 2999/3 rounds up to 1000.
        series = (3001, 3001, 3000, 3000) + (3001,) * 8
        p = person(pension=series)
        ledger = ledger_for([p])
        assert sum(ledger.core_countable[0:3]) == 3001 + 3001 + 3000  # April
        assert award(ledger, False, month=4) == 999
        assert sum(ledger.core_countable[1:4]) == 3001 + 3000 + 3000  # May
        assert award(ledger, False, month=5) == 1000

    def test_monthly_cascade_matches_definition_oracle(self):
        rng = random.Random(88)
        for trial in range(60):
            n_kids = rng.randint(0, 2)
            members = [person(pension=tuple(rng.randint(0, 4000)
                                            for _ in range(12)),
                              capital_rent=tuple(rng.randint(0, 500)
                                                 for _ in range(12)))]
            members += [person(pid=2 + i, age=5, status=LaborStatus.CHILD)
                        for i in range(n_kids)]
            base = [members[0]._replace(
                        pension=tuple(rng.randint(0, 4000) for _ in range(12)))
                    ] + members[1:]
            ledger = ledger_for(members, baseline=ledger_for(base))
            for relaxed in (False, True):
                got = [a for a, _ in gma_schedule(ledger, relaxed)]
                want = gma_monthly_by_definition(
                    ledger.core_countable, ledger.base_core_countable,
                    ledger.rent if not relaxed else (0,) * 12,
                    ledger.base_rent if not relaxed else (0,) * 12,
                    ledger.threshold, relaxed)
                assert got == want, (trial, relaxed)


class TestOneOffMay:
    def test_adult_on_social_assistance(self):
        p = person(age=30)
        assert oneoff_may2020(p, True, PARAMS) == 9000
        assert oneoff_may2020(p, False, PARAMS) == 0

    def test_minor_on_social_assistance_gets_nothing(self):
        kid = person(age=10, status=LaborStatus.CHILD)
        assert oneoff_may2020(kid, True, PARAMS) == 0

    def test_active_jobseeker_regardless_of_assistance(self):
        p = person(status=LaborStatus.UNEMPLOYED_ACTIVE)
        assert oneoff_may2020(p, False, PARAMS) == 9000

    def test_low_wage_employee_cap_is_net_may_wage(self):
        # Net of 23000 is 14904 <= 15000; net of 24000 is 15552 > 15000.
        low = person(status=LaborStatus.EMPLOYEE, nace2="47", wage=flat(23000))
        high = person(status=LaborStatus.EMPLOYEE, nace2="47", wage=flat(24000))
        assert oneoff_may2020(low, False, PARAMS) == 3000
        assert oneoff_may2020(high, False, PARAMS) == 0

    def test_informal_wage_compares_gross(self):
        informal = person(status=LaborStatus.EMPLOYEE, nace2="47",
                          informal_wage_flag=True, wage=flat(15000))
        over = informal._replace(wage=flat(15001))
        assert oneoff_may2020(informal, False, PARAMS) == 3000
        assert oneoff_may2020(over, False, PARAMS) == 0

    def test_wage_must_be_sole_income(self):
        mixed = person(status=LaborStatus.EMPLOYEE, nace2="47",
                       wage=flat(10000), pension=flat(2000))
        assert oneoff_may2020(mixed, False, PARAMS) == 0

    @pytest.mark.parametrize("age,amount", [(15, 0), (16, 3000), (29, 3000),
                                            (30, 0)])
    def test_student_age_band(self, age, amount):
        status = LaborStatus.STUDENT if age < 18 else LaborStatus.STUDENT
        p = person(age=age, status=status, in_public_education=True)
        assert oneoff_may2020(p, False, PARAMS) == amount

    def test_one_award_highest_first(self):
        # An 18-year-old public-education student in an assisted household
        # gets the adult amount once, not adult + student.
        p = person(age=18, status=LaborStatus.STUDENT, in_public_education=True)
        assert oneoff_may2020(p, True, PARAMS) == 9000


class TestOneOffDec:
    def test_passive_jobseeker_under_cap(self):
        p = person(status=LaborStatus.UNEMPLOYED_PASSIVE,
                   interhousehold_transfers=flat(1000))
        assert oneoff_dec2020(p, PARAMS) == 6000

    def test_passive_jobseeker_cap_counts_all_income_every_month(self):
        spike = (1000,) * 11 + (15001,)
        p = person(status=LaborStatus.UNEMPLOYED_PASSIVE,
                   interhousehold_transfers=spike)
        assert oneoff_dec2020(p, PARAMS) == 0
        at_cap = person(status=LaborStatus.UNEMPLOYED_PASSIVE,
                        interhousehold_transfers=(15000,) * 12)
        assert oneoff_dec2020(at_cap, PARAMS) == 6000

    @pytest.mark.parametrize("pension,amount", [(14999, 6000), (15000, 0)])
    def test_pensioner_cap_is_strict(self, pension, amount):
        p = person(age=70, status=LaborStatus.PENSIONER, pension=flat(pension))
        assert oneoff_dec2020(p, PARAMS) == amount

    def test_special_category(self):
        p = person(special_category_flag=True)
        assert oneoff_dec2020(p, PARAMS) == 6000

    def test_nobody_else(self):
        assert oneoff_dec2020(person(), PARAMS) == 0
        employee = person(status=LaborStatus.EMPLOYEE, nace2="47",
                          wage=flat(9000))
        assert oneoff_dec2020(employee, PARAMS) == 0


class TestDisposableCascade:
    def assisted_ledger(self):
        mother = person(age=30, status=LaborStatus.UNEMPLOYED_ACTIVE,
                        interhousehold_transfers=flat(3000))
        kid = person(pid=2, age=4, status=LaborStatus.CHILD)
        return ledger_for([mother, kid])

    def test_energy_supplement_months_differ_by_regime(self):
        ledger = self.assisted_ledger()
        pre = disposable_income(ledger, PARAMS)
        relaxed = disposable_income(ledger, PARAMS, relaxed=True)
        assert pre.energy == (1000,) * 6 + (0,) * 6
        assert relaxed.energy == (1000,) * 12

    def test_allowances_require_eligibility(self):
        ledger = self.assisted_ledger()
        pre = disposable_income(ledger, PARAMS)
        assert pre.allowances == (700,) * 12  # one child, not enrolled
        rich = ledger_for([person(pension=flat(30000))])
        none = disposable_income(rich, PARAMS)
        assert none.allowances == none.gma == none.energy == (0,) * 12

    def test_universal_child_allowance_flag(self):
        universal = replace(PARAMS, universal_child_allowance=True)
        mother = person(age=30, pension=flat(30000))
        kid = person(pid=2, age=4, status=LaborStatus.CHILD)
        ledger = ledger_for([mother, kid])
        result = disposable_income(ledger, universal)
        assert result.allowances == (700,) * 12
        assert result.gma == (0,) * 12

    def test_education_allowance_per_enrolled_child(self):
        mother = person(age=30, interhousehold_transfers=flat(1000))
        enrolled = person(pid=2, age=10, status=LaborStatus.STUDENT,
                          in_public_education=True)
        toddler = person(pid=3, age=2, status=LaborStatus.CHILD)
        ledger = ledger_for([mother, enrolled, toddler])
        result = disposable_income(ledger, PARAMS)
        # Two child allowances plus one education allowance, every month.
        assert result.allowances == (2 * 700 + 700,) * 12

    def test_may_one_off_requires_assistance_window(self):
        ledger = self.assisted_ledger()
        result = disposable_income(ledger, PARAMS, one_offs=True)
        # Mother: adult on assistance (9000). Child: nothing.
        assert result.oneoff_may == (0,) * 4 + (9000,) + (0,) * 7
        assert result.oneoff_dec == (0,) * 12

    def test_monthly_and_annual_identities(self):
        ledger = self.assisted_ledger()
        result = disposable_income(ledger, PARAMS, one_offs=True)
        months = result.monthly_disposable()
        assert len(months) == 12
        assert sum(months) == result.annual_disposable
        parts = (result.net_market, result.carried, result.gma, result.energy,
                 result.allowances, result.oneoff_may, result.oneoff_dec)
        for i, month_total in enumerate(months):
            assert month_total == sum(vec[i] for vec in parts)


def _cascade_household(case):
    """An unemployed mother, a child and a low-pension grandmother, whose
    GMA schedule is: no eligible month by the asset test, none by income,
    or eligible from August on."""
    transfers = {"asset_test_fails": flat(1000), "income_too_high": flat(60000),
                 "some_months": (20000,) * 7 + (0,) * 5}[case]
    members = [person(age=30, status=LaborStatus.UNEMPLOYED_ACTIVE,
                      interhousehold_transfers=transfers),
               person(pid=2, age=4, status=LaborStatus.CHILD),
               person(pid=3, age=70, status=LaborStatus.PENSIONER,
                      pension=flat(2000))]
    return ledger_for(members, owns_other_real_estate=case == "asset_test_fails")


@pytest.mark.parametrize("one_offs", [False, True])
@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("universal", [False, True])
@pytest.mark.parametrize("case", ["asset_test_fails", "income_too_high",
                                  "some_months"])
def test_cascade_streams_add_up(case, universal, relaxed, one_offs):
    """Disposable income is the sum of the seven streams in every month and
    over the year, on the shortcut for households with no eligible month
    as on the full path."""
    params = replace(PARAMS, universal_child_allowance=universal)
    ledger = _cascade_household(case)
    reasons = {reason for _, reason in gma_schedule(ledger, relaxed)}
    assert reasons == {"asset_test_fails": {OTHER_REAL_ESTATE},
                       "income_too_high": {INCOME_TOO_HIGH},
                       "some_months": {INCOME_TOO_HIGH, ELIGIBLE}}[case]
    result = disposable_income(ledger, params, relaxed=relaxed, one_offs=one_offs)
    streams = (result.net_market, result.carried, result.gma, result.energy,
               result.allowances, result.oneoff_may, result.oneoff_dec)
    assert all(len(s) == 12 for s in streams)
    assert result.monthly_disposable() == tuple(
        sum(s[m] for s in streams) for m in range(12))
    assert result.annual_disposable == sum(result.monthly_disposable())
    if ELIGIBLE not in reasons:
        assert result.gma is result.energy is ZERO_YEAR
        assert result.allowances == ((700,) * 12 if universal else ZERO_YEAR)
    else:
        assert any(result.gma) and any(result.energy)
    assert (result.oneoff_may[4] > 0) == one_offs  # the jobseeker's award
    assert (result.oneoff_dec[11] > 0) == one_offs  # the pensioner's award


class TestLedgerSharing:
    """Ledger streams share their values instead of copying them: a zero
    stream is ZERO_YEAR, a sum with one nonzero operand is that operand,
    and equal months are one int. Amounts are above 256, so CPython's
    small-int cache cannot make them one object."""

    def earners(self):
        return [person(status=LaborStatus.EMPLOYEE, wage=flat(30000)),
                person(pid=2, status=LaborStatus.EMPLOYEE, wage=flat(41000))]

    def test_streams_share_their_operands_and_months(self):
        ledger = ledger_for(self.earners())
        assert ledger.carried is ZERO_YEAR
        assert ledger.rent is ZERO_YEAR
        assert ledger.core_countable is ledger.net_market
        assert ledger.net_market == (19440 + 26568,) * 12
        assert len({id(month) for month in ledger.net_market}) == 1
        pensioner = person(age=70, status=LaborStatus.PENSIONER, pension=flat(13000))
        alone = ledger_for([pensioner])
        assert alone.net_market is ZERO_YEAR
        assert alone.carried is alone.core_countable is pensioner.pension

    def test_a_shocked_ledger_keeps_core_countable_as_net_market(self):
        members = self.earners()
        baseline = ledger_for(members)
        members[0] = shocked_person(members[0], 0, 9, 10, 2)
        shocked = shocked_ledger(baseline, members,
                                 [person_net_market(m, PARAMS) for m in members])
        assert shocked.net_market == (19440 + 26568,) * 2 + (17496 + 26568,) * 10
        assert shocked.core_countable is shocked.net_market
        assert shocked.base_core_countable is baseline.net_market

    def test_ledgers_and_cascade_results_are_immutable(self):
        """Shared streams rely on no ledger or result being changed in place."""
        ledger = ledger_for(self.earners())
        result = disposable_income(ledger, PARAMS)
        for record, name in ((ledger, "net_market"), (ledger, "threshold"),
                             (result, "gma"), (result, "household_id")):
            with pytest.raises(AttributeError):
                setattr(record, name, ZERO_YEAR)
            with pytest.raises(AttributeError):
                record.extra = 0


class TestPolicyParameters:
    def test_defaults_are_valid(self):
        PolicyParameters()

    @pytest.mark.parametrize("kw", [
        dict(pit_rate=Fraction(1)),
        dict(ssc_rate=Fraction(-1, 100)),
        dict(gma_base_amount=-1),
        dict(energy_months_pre=13),
        dict(child_allowance_amount=-5),
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            PolicyParameters(**kw)

    def test_energy_months(self):
        assert PARAMS.energy_months(False) == 6
        assert PARAMS.energy_months(True) == 12
