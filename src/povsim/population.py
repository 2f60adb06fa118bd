"""Household microdata model and CSV interchange.

Persons carry twelve-month income vectors per source (integer MKD),
households carry survey weights as two-decimal fixed-point numbers stored
in centiweight units. A Population validates the joint invariants on
construction and iterates deterministically (household id, then person id),
which is what makes every downstream reduction order-independent.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import DataError
from .money import MONTHS, ZERO_YEAR, parse_weight, weight_to_str
from .nace import is_division

MonthVector = tuple[int, ...]

_T = TypeVar("_T")

INCOME_SOURCES: tuple[str, ...] = (
    "wage",
    "self_employment",
    "pension",
    "capital_rent",
    "interhousehold_transfers",
)

# CSV column prefix per income source.
_SOURCE_PREFIX: dict[str, str] = {
    "wage": "wage",
    "self_employment": "selfemp",
    "pension": "pension",
    "capital_rent": "rent",
    "interhousehold_transfers": "transfers",
}


class Sex(str, Enum):
    MALE = "male"
    FEMALE = "female"


class LaborStatus(str, Enum):
    EMPLOYEE = "employee"
    SELF_EMPLOYED = "self_employed"
    UNEMPLOYED_ACTIVE = "unemployed_active"
    UNEMPLOYED_PASSIVE = "unemployed_passive"
    PENSIONER = "pensioner"
    STUDENT = "student"
    CHILD = "child"
    INACTIVE = "inactive"


class EducationLevel(str, Enum):
    PRIMARY_OR_LESS = "primary_or_less"
    SECONDARY = "secondary"
    TERTIARY_PLUS = "tertiary_plus"


@dataclass(frozen=True, slots=True)
class Person:
    person_id: int
    household_id: int
    age: int
    sex: Sex
    labor_status: LaborStatus
    education_level: EducationLevel = EducationLevel.SECONDARY
    nace2: str | None = None
    informal_wage_flag: bool = False
    in_public_education: bool = False
    social_assistance_recipient_flag: bool = False
    special_category_flag: bool = False
    wage: MonthVector = ZERO_YEAR
    self_employment: MonthVector = ZERO_YEAR
    pension: MonthVector = ZERO_YEAR
    capital_rent: MonthVector = ZERO_YEAR
    interhousehold_transfers: MonthVector = ZERO_YEAR

    def income(self, source: str) -> MonthVector:
        return getattr(self, source)

    def total_income(self, month: int) -> int:
        """Sum over all recorded sources for a calendar month (1..12)."""
        i = month - 1
        return (self.wage[i] + self.self_employment[i] + self.pension[i]
                + self.capital_rent[i] + self.interhousehold_transfers[i])

    @property
    def is_child(self) -> bool:
        return self.age < 18

    def problems(self) -> list[str]:
        """Invariant violations for this person, empty when valid."""
        out: list[str] = []
        if not 0 <= self.age <= 110:
            out.append(f"age {self.age} outside 0..110")
        worker = self.labor_status in (LaborStatus.EMPLOYEE, LaborStatus.SELF_EMPLOYED)
        if worker and self.nace2 is None:
            out.append(f"{self.labor_status.value} without industry code")
        if not worker and self.nace2 is not None:
            out.append(f"industry code on non-worker status {self.labor_status.value}")
        if self.nace2 is not None and not is_division(self.nace2):
            out.append(f"unknown industry code {self.nace2!r}")
        if self.informal_wage_flag and self.labor_status is not LaborStatus.EMPLOYEE:
            out.append("informal_wage_flag on non-employee")
        if self.age < 18 and self.labor_status not in (LaborStatus.CHILD, LaborStatus.STUDENT):
            out.append(f"minor with labor status {self.labor_status.value}")
        for source in INCOME_SOURCES:
            vec = self.income(source)
            if len(vec) != MONTHS:
                out.append(f"{source} vector has {len(vec)} entries, expected {MONTHS}")
                continue
            if any(v < 0 for v in vec):
                out.append(f"negative {source} income")
        if any(self.wage) and self.labor_status is not LaborStatus.EMPLOYEE:
            out.append("wage income on non-employee")
        if any(self.self_employment) and self.labor_status is not LaborStatus.SELF_EMPLOYED:
            out.append("self-employment income on non-self-employed")
        return out


@dataclass(frozen=True, slots=True)
class Household:
    household_id: int
    member_ids: tuple[int, ...]
    weight_centi: int  # survey weight * 100
    owns_residence: bool = False
    owns_other_real_estate: bool = False
    car_age_years: int | None = None
    land_parcel_m2: int | None = None

    @property
    def survey_weight(self) -> float:
        return self.weight_centi / 100.0

    @property
    def size(self) -> int:
        return len(self.member_ids)

    def problems(self) -> list[str]:
        out: list[str] = []
        if not self.member_ids:
            out.append("household has no members")
        if self.weight_centi <= 0:
            out.append("survey weight must be positive")
        if self.car_age_years is not None and self.car_age_years < 0:
            out.append("negative car age")
        if self.land_parcel_m2 is not None and self.land_parcel_m2 < 0:
            out.append("negative land parcel size")
        return out


@dataclass(frozen=True)
class Population:
    """Validated collection of persons and households.

    Persons and households are stored sorted; lookups go through the
    indexes built at construction time.
    """

    persons: tuple[Person, ...]
    households: tuple[Household, ...]
    base_year: int = 2019
    provenance: str = "loaded"
    _members: Mapping[int, tuple[Person, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _household_by_id: Mapping[int, Household] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _derived: tuple | None = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        persons = tuple(sorted(self.persons, key=lambda p: (p.household_id, p.person_id)))
        households = tuple(sorted(self.households, key=lambda h: h.household_id))
        object.__setattr__(self, "persons", persons)
        object.__setattr__(self, "households", households)
        members: dict[int, list[Person]] = {}
        by_id: dict[int, Household] = {}
        for hh in households:
            if hh.household_id in by_id:
                raise DataError(f"duplicate household id {hh.household_id}")
            by_id[hh.household_id] = hh
            members[hh.household_id] = []
        seen: set[int] = set()
        for p in persons:
            if p.person_id in seen:
                raise DataError(f"duplicate person id {p.person_id}")
            seen.add(p.person_id)
            if p.household_id not in by_id:
                raise DataError(
                    f"person {p.person_id} references unknown household {p.household_id}")
            members[p.household_id].append(p)
        for p in persons:
            probs = p.problems()
            if probs:
                raise DataError(f"person {p.person_id}: {probs[0]}")
        for hh in households:
            probs = hh.problems()
            if probs:
                raise DataError(f"household {hh.household_id}: {probs[0]}")
            actual = tuple(m.person_id for m in members[hh.household_id])
            if tuple(sorted(hh.member_ids)) != actual:
                raise DataError(
                    f"household {hh.household_id} member list does not match persons table")
        object.__setattr__(self, "_members",
                           {hid: tuple(ms) for hid, ms in members.items()})
        object.__setattr__(self, "_household_by_id", by_id)

    def household(self, household_id: int) -> Household:
        return self._household_by_id[household_id]

    def members(self, household_id: int) -> tuple[Person, ...]:
        return self._members[household_id]

    @property
    def n_persons(self) -> int:
        return len(self.persons)

    @property
    def n_households(self) -> int:
        return len(self.households)

    def replace_persons(self, new_persons: Iterable[Person],
                        provenance: str | None = None) -> "Population":
        return Population(
            persons=tuple(new_persons),
            households=self.households,
            base_year=self.base_year,
            provenance=provenance if provenance is not None else self.provenance,
        )

    def map_persons(self, fn: Callable[[Person], Person]) -> "Population":
        """Apply fn to every person; returns self when nothing changed."""
        new_persons = tuple(fn(p) for p in self.persons)
        if all(a is b for a, b in zip(new_persons, self.persons)):
            return self
        return self.replace_persons(new_persons)

    def _rescale_incomes(self, fn: Callable[[Person], Person]) -> "Population":
        """map_persons for fn that only rescales nonnegative income vectors.

        Internal constructor for the engine's shocks and calibration
        scaling: the result shares this population's household index and
        skips validation, which is sound because such an fn keeps every id,
        every demographic field and every invariant of an already valid
        person. Returns self when nothing changed.
        """
        new_persons = tuple(fn(p) for p in self.persons)
        if all(a is b for a, b in zip(new_persons, self.persons)):
            return self
        members: dict[int, tuple[Person, ...]] = {}
        start = 0
        for hh in self.households:
            end = start + len(self._members[hh.household_id])
            members[hh.household_id] = new_persons[start:end]
            start = end
        derived = copy.copy(self)
        object.__setattr__(derived, "persons", new_persons)
        object.__setattr__(derived, "_members", members)
        object.__setattr__(derived, "_derived", None)
        return derived

    def derived(self, key: object, build: Callable[[], _T]) -> _T:
        """build(), kept with this population until another key is asked for.

        A population never changes, so a value derived from it stays valid
        for its lifetime. key must identify the derivation and every input
        to it besides the population. Only the latest value is kept, so a
        sweep over many keys holds one at a time.
        """
        if self._derived is None or self._derived[0] != key:
            object.__setattr__(self, "_derived", (key, build()))
        return self._derived[1]


PERSON_COLUMNS: tuple[str, ...] = (
    "person_id", "household_id", "age", "sex", "labor_status", "education_level",
    "nace2", "informal_wage_flag", "in_public_education", "special_category_flag",
) + tuple(
    f"{_SOURCE_PREFIX[src]}_m{m:02d}" for src in INCOME_SOURCES for m in range(1, 13)
)

HOUSEHOLD_COLUMNS: tuple[str, ...] = (
    "household_id", "survey_weight", "owns_residence", "owns_other_real_estate",
    "car_age_years", "land_parcel_m2",
)


def _parse_bool(text: str, file: str, row: int, column: str) -> bool:
    if text == "1":
        return True
    if text == "0" or text == "":
        return False
    raise DataError(f"expected 0 or 1, got {text!r}", file=file, row=row, column=column)


def _parse_int(text: str, file: str, row: int, column: str, *,
               minimum: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"expected integer, got {text!r}", file=file, row=row,
                        column=column) from None
    if minimum is not None and value < minimum:
        raise DataError(f"value {value} below minimum {minimum}", file=file, row=row,
                        column=column)
    return value


def _parse_enum(enum_cls, text: str, file: str, row: int, column: str):
    try:
        return enum_cls(text)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise DataError(f"expected one of [{allowed}], got {text!r}", file=file,
                        row=row, column=column) from None


def _check_header(header: list[str], expected: tuple[str, ...], file: str) -> None:
    missing = [c for c in expected if c not in header]
    if missing:
        raise DataError(f"missing column {missing[0]!r}", file=file, row=1,
                        column=missing[0])
    extra = [c for c in header if c not in expected]
    if extra:
        raise DataError(f"unknown column {extra[0]!r}", file=file, row=1,
                        column=extra[0])


def load_population(persons_path: str, households_path: str, *,
                    base_year: int = 2019) -> Population:
    """Load a population from the canonical persons/households CSV pair.

    Every parse problem is reported with file, row and column context.
    Cross-table invariants are validated by the Population constructor.
    """
    households: list[Household] = []
    members_seen: dict[int, list[int]] = {}
    with open(households_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames or [], HOUSEHOLD_COLUMNS, households_path)
        for i, rec in enumerate(reader, start=2):
            hid = _parse_int(rec["household_id"], households_path, i, "household_id")
            try:
                weight = parse_weight(rec["survey_weight"])
            except ValueError as exc:
                raise DataError(str(exc), file=households_path, row=i,
                                column="survey_weight") from None
            car = rec["car_age_years"]
            land = rec["land_parcel_m2"]
            households.append(Household(
                household_id=hid,
                member_ids=(),  # filled after persons are read
                weight_centi=weight,
                owns_residence=_parse_bool(rec["owns_residence"], households_path, i,
                                           "owns_residence"),
                owns_other_real_estate=_parse_bool(rec["owns_other_real_estate"],
                                                   households_path, i,
                                                   "owns_other_real_estate"),
                car_age_years=None if car == "" else _parse_int(
                    car, households_path, i, "car_age_years", minimum=0),
                land_parcel_m2=None if land == "" else _parse_int(
                    land, households_path, i, "land_parcel_m2", minimum=0),
            ))
            members_seen[hid] = []

    persons: list[Person] = []
    with open(persons_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames or [], PERSON_COLUMNS, persons_path)
        for i, rec in enumerate(reader, start=2):
            pid = _parse_int(rec["person_id"], persons_path, i, "person_id")
            hid = _parse_int(rec["household_id"], persons_path, i, "household_id")
            if hid not in members_seen:
                raise DataError(f"person {pid} references unknown household {hid}",
                                file=persons_path, row=i, column="household_id")
            vectors: dict[str, MonthVector] = {}
            for source in INCOME_SOURCES:
                prefix = _SOURCE_PREFIX[source]
                vec = []
                for m in range(1, 13):
                    col = f"{prefix}_m{m:02d}"
                    val = _parse_int(rec[col], persons_path, i, col)
                    if val < 0:
                        raise DataError(f"negative income {val}", file=persons_path,
                                        row=i, column=col)
                    vec.append(val)
                vectors[source] = tuple(vec)
            nace2 = rec["nace2"] or None
            person = Person(
                person_id=pid,
                household_id=hid,
                age=_parse_int(rec["age"], persons_path, i, "age"),
                sex=_parse_enum(Sex, rec["sex"], persons_path, i, "sex"),
                labor_status=_parse_enum(LaborStatus, rec["labor_status"],
                                         persons_path, i, "labor_status"),
                education_level=_parse_enum(EducationLevel, rec["education_level"],
                                            persons_path, i, "education_level"),
                nace2=nace2,
                informal_wage_flag=_parse_bool(rec["informal_wage_flag"],
                                               persons_path, i, "informal_wage_flag"),
                in_public_education=_parse_bool(rec["in_public_education"],
                                                persons_path, i, "in_public_education"),
                special_category_flag=_parse_bool(rec["special_category_flag"],
                                                  persons_path, i,
                                                  "special_category_flag"),
                wage=vectors["wage"],
                self_employment=vectors["self_employment"],
                pension=vectors["pension"],
                capital_rent=vectors["capital_rent"],
                interhousehold_transfers=vectors["interhousehold_transfers"],
            )
            probs = person.problems()
            if probs:
                raise DataError(f"person {pid}: {probs[0]}", file=persons_path, row=i)
            persons.append(person)
            members_seen[hid].append(pid)

    households = [replace(h, member_ids=tuple(sorted(members_seen[h.household_id])))
                  for h in households]
    return Population(persons=tuple(persons), households=tuple(households),
                      base_year=base_year, provenance="loaded")


def _person_row(p: Person) -> list[str]:
    row = [
        str(p.person_id), str(p.household_id), str(p.age), p.sex.value,
        p.labor_status.value, p.education_level.value, p.nace2 or "",
        "1" if p.informal_wage_flag else "0",
        "1" if p.in_public_education else "0",
        "1" if p.special_category_flag else "0",
    ]
    for source in INCOME_SOURCES:
        row.extend(str(v) for v in p.income(source))
    return row


def _household_row(h: Household) -> list[str]:
    return [
        str(h.household_id), weight_to_str(h.weight_centi),
        "1" if h.owns_residence else "0",
        "1" if h.owns_other_real_estate else "0",
        "" if h.car_age_years is None else str(h.car_age_years),
        "" if h.land_parcel_m2 is None else str(h.land_parcel_m2),
    ]


def save_population(pop: Population, persons_path: str, households_path: str) -> None:
    """Write the canonical CSV pair: fixed header order, sorted rows, 0/1 booleans."""
    with open(persons_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PERSON_COLUMNS)
        for p in pop.persons:
            writer.writerow(_person_row(p))
    with open(households_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HOUSEHOLD_COLUMNS)
        for h in pop.households:
            writer.writerow(_household_row(h))
