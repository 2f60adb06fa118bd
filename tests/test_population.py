"""Microdata model invariants and CSV interchange round-trips."""

from __future__ import annotations

from dataclasses import replace

import pytest

from povsim.errors import DataError
from povsim.population import (
    HOUSEHOLD_COLUMNS,
    PERSON_COLUMNS,
    Household,
    LaborStatus,
    Person,
    Population,
    Sex,
    load_population,
    save_population,
)

from conftest import build_micro_population, flat


def adult(pid: int, hid: int, **kw) -> Person:
    defaults = dict(person_id=pid, household_id=hid, age=40, sex=Sex.MALE,
                    labor_status=LaborStatus.INACTIVE)
    defaults.update(kw)
    return Person(**defaults)


class TestPerson:
    def test_is_child(self):
        assert adult(1, 1, age=17, labor_status=LaborStatus.CHILD).is_child
        assert not adult(1, 1, age=18).is_child

    def test_total_income_sums_all_sources(self):
        p = adult(1, 1, labor_status=LaborStatus.EMPLOYEE, nace2="47",
                  wage=flat(100), pension=flat(10),
                  interhousehold_transfers=flat(1))
        # the argument is a calendar month, 1..12
        assert p.total_income(1) == 111
        assert p.total_income(12) == 111

    @pytest.mark.parametrize("kw,fragment", [
        (dict(age=-1), "age"),
        (dict(age=111), "age"),
        (dict(labor_status=LaborStatus.EMPLOYEE), "without industry code"),
        (dict(nace2="47"), "industry code on non-worker"),
        (dict(labor_status=LaborStatus.EMPLOYEE, nace2="89"), "unknown industry"),
        (dict(informal_wage_flag=True), "informal_wage_flag on non-employee"),
        (dict(age=10), "minor with labor status"),
        (dict(wage=(1,) * 11), "entries"),
        (dict(pension=(-1,) + (0,) * 11), "negative pension"),
        (dict(wage=flat(5)), "wage income on non-employee"),
        (dict(self_employment=flat(5)), "self-employment income"),
    ])
    def test_problems(self, kw, fragment):
        probs = adult(1, 1, **kw).problems()
        assert probs and fragment in " / ".join(probs)

    def test_valid_person_has_no_problems(self):
        p = adult(1, 1, labor_status=LaborStatus.EMPLOYEE, nace2="47",
                  wage=flat(20000))
        assert p.problems() == []


class TestHousehold:
    def test_size_and_weight(self):
        h = Household(household_id=1, member_ids=(1, 2), weight_centi=12345)
        assert h.size == 2
        assert h.survey_weight == pytest.approx(123.45)

    @pytest.mark.parametrize("kw,fragment", [
        (dict(member_ids=()), "no members"),
        (dict(weight_centi=0), "weight"),
        (dict(car_age_years=-1), "car age"),
        (dict(land_parcel_m2=-5), "land parcel"),
    ])
    def test_problems(self, kw, fragment):
        defaults = dict(household_id=1, member_ids=(1,), weight_centi=100)
        defaults.update(kw)
        probs = Household(**defaults).problems()
        assert probs and fragment in " / ".join(probs)


class TestPopulation:
    def test_sorted_and_indexed(self):
        pop = build_micro_population()
        assert [h.household_id for h in pop.households] == [1, 2, 3, 4, 5]
        assert [p.person_id for p in pop.persons] == list(range(1, 13))
        assert pop.n_persons == 12
        assert pop.n_households == 5
        assert pop.household(3).weight_centi == 10000
        assert [p.person_id for p in pop.members(2)] == [2, 3, 4, 5]

    def test_duplicate_household_id(self):
        hh = Household(household_id=1, member_ids=(1,), weight_centi=100)
        with pytest.raises(DataError, match="duplicate household"):
            Population(persons=(adult(1, 1),), households=(hh, hh))

    def test_duplicate_person_id(self):
        hh = Household(household_id=1, member_ids=(1, 1), weight_centi=100)
        with pytest.raises(DataError, match="duplicate person"):
            Population(persons=(adult(1, 1), adult(1, 1)), households=(hh,))

    def test_unknown_household_reference(self):
        hh = Household(household_id=1, member_ids=(1,), weight_centi=100)
        with pytest.raises(DataError, match="unknown household"):
            Population(persons=(adult(1, 1), adult(2, 9)), households=(hh,))

    def test_member_list_mismatch(self):
        hh = Household(household_id=1, member_ids=(1, 2), weight_centi=100)
        with pytest.raises(DataError, match="member list"):
            Population(persons=(adult(1, 1),), households=(hh,))

    def test_person_problem_is_raised(self):
        hh = Household(household_id=1, member_ids=(1,), weight_centi=100)
        with pytest.raises(DataError, match="person 1"):
            Population(persons=(adult(1, 1, age=200),), households=(hh,))

    def test_map_persons_identity_returns_self(self):
        pop = build_micro_population()
        assert pop.map_persons(lambda p: p) is pop

    def test_map_persons_rebuilds_on_change(self):
        pop = build_micro_population()
        bumped = pop.map_persons(lambda p: replace(p, age=p.age + 1))
        assert bumped is not pop
        assert all(b.age == a.age + 1 for a, b in zip(pop.persons, bumped.persons))

    def test_rescaled_incomes_share_the_household_index(self):
        pop = build_micro_population()
        assert pop._rescale_incomes([None] * pop.n_persons) is pop
        doubled = pop._rescale_incomes(
            (p.wage, p.self_employment, tuple(2 * v for v in p.pension),
             p.capital_rent, p.interhousehold_transfers) for p in pop.persons)
        validated = Population(persons=doubled.persons,
                               households=pop.households,
                               provenance=pop.provenance)
        assert doubled == validated
        for hh in pop.households:
            assert doubled.members(hh.household_id) == \
                validated.members(hh.household_id)
        assert doubled.members(3)[0].pension[0] == 24000
        assert pop.members(3)[0].pension[0] == 12000

    def test_derived_keeps_the_latest_value(self):
        pop = build_micro_population()
        assert pop.derived("a", lambda: 1) == 1
        assert pop.derived("a", lambda: 2) == 1
        assert pop.derived("b", lambda: 3) == 3
        assert pop.derived("a", lambda: 4) == 4
        rescaled = pop._rescale_incomes(
            (p.wage, p.self_employment, p.pension[::-1], p.capital_rent,
             p.interhousehold_transfers) for p in pop.persons)
        assert rescaled.derived("a", lambda: 5) == 5


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        pop = build_micro_population()
        ppath = str(tmp_path / "persons.csv")
        hpath = str(tmp_path / "households.csv")
        save_population(pop, ppath, hpath)
        again = load_population(ppath, hpath)
        assert again.persons == pop.persons
        assert again.households == pop.households

    def test_save_is_byte_stable(self, tmp_path):
        pop = build_micro_population()
        paths = [(str(tmp_path / f"p{i}.csv"), str(tmp_path / f"h{i}.csv"))
                 for i in range(2)]
        for ppath, hpath in paths:
            save_population(pop, ppath, hpath)
        blobs = [open(p, "rb").read() + open(h, "rb").read() for p, h in paths]
        assert blobs[0] == blobs[1]

    def test_header_is_validated(self, tmp_path):
        pop = build_micro_population()
        ppath = str(tmp_path / "persons.csv")
        hpath = str(tmp_path / "households.csv")
        save_population(pop, ppath, hpath)
        text = open(ppath, encoding="utf-8").read()
        broken = str(tmp_path / "broken.csv")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write(text.replace("person_id", "person", 1))
        with pytest.raises(DataError) as err:
            load_population(broken, hpath)
        assert "person_id" in str(err.value)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        pop = build_micro_population()
        ppath = str(tmp_path / "persons.csv")
        hpath = str(tmp_path / "households.csv")
        save_population(pop, ppath, hpath)
        lines = open(hpath, encoding="utf-8").read().splitlines()
        lines[1] = lines[1].replace("200.00", "-3")
        with open(hpath, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_population(ppath, hpath)
        msg = str(err.value)
        assert "survey_weight" in msg and "row=2" in msg

    def test_column_sets_are_fixed(self):
        assert PERSON_COLUMNS[:2] == ("person_id", "household_id")
        assert len(PERSON_COLUMNS) == 10 + 5 * 12
        assert HOUSEHOLD_COLUMNS == (
            "household_id", "survey_weight", "owns_residence",
            "owns_other_real_estate", "car_age_years", "land_parcel_m2")
