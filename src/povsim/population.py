"""Household microdata model and CSV interchange.

Persons carry twelve-month income vectors per source (integer MKD),
households carry survey weights as two-decimal fixed-point numbers stored
in centiweight units. Both records are immutable named tuples: a field
cannot be assigned, a changed copy comes from ``_replace``, and the hot
paths (the CSV codec, shocks, the synthetic generator) build and read them
by position. A Population validates the joint invariants on construction
and iterates deterministically (household id, then person id), which is
what makes every downstream reduction order-independent.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import itemgetter, le
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
                    TypeVar)

from .errors import DataError
from .money import MONTHS, ZERO_YEAR, parse_weight, weight_to_str
from .nace import DIVISIONS, is_division

MonthVector = tuple[int, ...]
IncomeVectors = tuple[MonthVector, MonthVector, MonthVector, MonthVector, MonthVector]

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


class Person(NamedTuple):
    person_id: int
    household_id: int
    age: int
    sex: Sex
    labor_status: LaborStatus
    education_level: EducationLevel = EducationLevel.SECONDARY
    nace2: str | None = None
    informal_wage_flag: bool = False
    in_public_education: bool = False
    special_category_flag: bool = False
    wage: MonthVector = ZERO_YEAR
    self_employment: MonthVector = ZERO_YEAR
    pension: MonthVector = ZERO_YEAR
    capital_rent: MonthVector = ZERO_YEAR
    interhousehold_transfers: MonthVector = ZERO_YEAR

    @property
    def incomes(self) -> IncomeVectors:
        """The five income vectors, in INCOME_SOURCES order."""
        return self[10:]

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
        # read once by position: this runs for every person on every load
        _, _, age, _, status, _, nace2, informal, _, _, wage, selfemp = self[:12]
        if not 0 <= age <= 110:
            out.append(f"age {age} outside 0..110")
        worker = status in (LaborStatus.EMPLOYEE, LaborStatus.SELF_EMPLOYED)
        if worker and nace2 is None:
            out.append(f"{status.value} without industry code")
        if not worker and nace2 is not None:
            out.append(f"industry code on non-worker status {status.value}")
        if nace2 is not None and not is_division(nace2):
            out.append(f"unknown industry code {nace2!r}")
        if informal and status is not LaborStatus.EMPLOYEE:
            out.append("informal_wage_flag on non-employee")
        if age < 18 and status not in (LaborStatus.CHILD, LaborStatus.STUDENT):
            out.append(f"minor with labor status {status.value}")
        for source, vec in zip(INCOME_SOURCES, self[10:]):
            if vec is ZERO_YEAR:
                continue
            if len(vec) != MONTHS:
                out.append(f"{source} vector has {len(vec)} entries, expected {MONTHS}")
                continue
            if min(vec) < 0:
                out.append(f"negative {source} income")
        if wage is not ZERO_YEAR and any(wage) and status is not LaborStatus.EMPLOYEE:
            out.append("wage income on non-employee")
        if (selfemp is not ZERO_YEAR and any(selfemp)
                and status is not LaborStatus.SELF_EMPLOYED):
            out.append("self-employment income on non-self-employed")
        return out


class Household(NamedTuple):
    household_id: int
    member_ids: tuple[int, ...]
    weight_centi: int  # survey weight * 100
    owns_residence: bool = False
    owns_other_real_estate: bool = False
    car_age_years: int | None = None
    land_parcel_m2: int | None = None

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
    provenance: str = "loaded"
    _members: Mapping[int, tuple[Person, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _household_by_id: Mapping[int, Household] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _derived: tuple | None = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        self._index(check_persons=True)

    @classmethod
    def _of_valid_persons(cls, persons: tuple[Person, ...],
                          households: tuple[Household, ...], *,
                          provenance: str) -> "Population":
        """Population(...) for persons whose problems() are known to be empty
        and whose ids are known to be distinct.

        Internal constructor for the CSV loader, which checks each person
        as it reads the row: only the cross-table checks run here
        (duplicate household ids, unknown households, household problems
        and member lists).
        """
        pop = cls.__new__(cls)
        for name, value in (("persons", persons), ("households", households),
                            ("provenance", provenance), ("_derived", None)):
            object.__setattr__(pop, name, value)
        pop._index(check_persons=False)
        return pop

    def _index(self, *, check_persons: bool) -> None:
        """Sort, validate and index persons and households; check_persons
        adds the per-person checks (problems() and distinct ids)."""
        persons = _sorted(self.persons, _PERSON_ORDER)
        households = _sorted(self.households, _HOUSEHOLD_ORDER)
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
            if check_persons:
                if p.person_id in seen:
                    raise DataError(f"duplicate person id {p.person_id}")
                seen.add(p.person_id)
            if p.household_id not in by_id:
                raise DataError(
                    f"person {p.person_id} references unknown household {p.household_id}")
            members[p.household_id].append(p)
        if check_persons:
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

    def _with_persons(self, persons: Iterable[Person]) -> "Population":
        """The population with persons, this population's in order, each
        with new income vectors or kept. Internal constructor for the
        engine's shocks and calibration scaling: it shares this
        population's household index and skips validation, sound as each
        new vector rescales the old one. Returns self when nothing changed."""
        new_persons = tuple(persons)
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


_PERSON_ORDER = itemgetter(1, 0)  # (household_id, person_id)
_HOUSEHOLD_ORDER = itemgetter(0)  # household_id


def _sorted(records: Iterable[_T], key: Callable[[_T], object]) -> tuple[_T, ...]:
    """records as a tuple in key order. Records already in order, as every
    canonical file and every population the engine builds are, come back
    as they are: a linear check replaces the sort and the key it would
    hold for every record at once."""
    records = tuple(records)
    if all(map(le, map(key, records), map(key, islice(records, 1, None)))):
        return records
    return tuple(sorted(records, key=key))


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


# The persons columns that hold income months, and each source's slice of
# them in INCOME_SOURCES order.
_INCOME_COLUMNS = PERSON_COLUMNS[10:]
_VECTORS = tuple(slice(MONTHS * i, MONTHS * (i + 1)) for i in range(len(INCOME_SOURCES)))
_ZERO_VECTORS = (ZERO_YEAR,) * len(INCOME_SOURCES)
# The spellings _parse_bool accepts, for a lookup before the call.
_FLAGS = {"0": False, "1": True, "": False}
_SEXES = {e.value: e for e in Sex}
_LABOR_STATUSES = {e.value: e for e in LaborStatus}
_EDUCATION_LEVELS = {e.value: e for e in EducationLevel}
_DIVISION_CODES = {code: code for code in DIVISIONS}


def _parse_bool(text: str, file: str, row: int, column: str) -> bool:
    if text == "1":
        return True
    if text == "0" or text == "":
        return False
    raise DataError(f"expected 0 or 1, got {text!r}", file=file, row=row, column=column)


def _parse_int(text: str, file: str, row: int, column: str, *,
               minimum: int | None = None) -> int:
    """An integer written as ASCII -?[0-9]+, other than a negative zero;
    nothing else int() takes."""
    digits = text[1:] if text.startswith("-") else text
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(text)
    except ValueError:
        raise DataError(f"expected integer, got {text!r}", file=file, row=row,
                        column=column) from None
    if value == 0 and text.startswith("-"):
        raise DataError(f"negative zero {text!r}", file=file, row=row, column=column)
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


class _Amounts(dict):
    """Income month text -> int, one int object per distinct amount: a
    text maps to the object made at its first sighting, and a spelling
    with leading zeros to its canonical spelling's. Only ASCII digit texts
    may be looked up; int() raises ValueError for any other."""

    def __missing__(self, text: str) -> int:
        value = int(text)
        canonical = str(value)
        value = self[text] = value if canonical == text else self[canonical]
        return value


def _income_vectors(texts: Sequence[str], file: str, row: int, amounts: _Amounts,
                    vectors: dict[MonthVector, MonthVector]) -> Sequence[MonthVector]:
    """A persons row's income months as vectors in INCOME_SOURCES order.

    Every text must be a nonnegative integer. A row of ASCII digits
    converts through the file's memos, amounts and vectors (int tuple ->
    the first equal tuple; it holds ZERO_YEAR), so equal amounts and equal
    vectors are one object each and every vector of zeros is ZERO_YEAR;
    "0" texts only skip the conversion. Any other row has a faulty text,
    and the first one is reported with its column.
    """
    if texts.count("0") == len(_INCOME_COLUMNS):
        return _ZERO_VECTORS
    joined = "".join(texts)
    if joined.isascii() and joined.isdigit():
        try:
            return [ZERO_YEAR if part.count("0") == MONTHS
                    else vectors.setdefault(vec := tuple(map(amounts.__getitem__, part)), vec)
                    for part in map(texts.__getitem__, _VECTORS)]
        except ValueError:  # an empty text, or one too long for int()
            pass
    for column, text in zip(_INCOME_COLUMNS, texts):
        value = _parse_int(text, file, row, column)
        if value < 0:
            raise DataError(f"negative income {value}", file=file, row=row,
                            column=column)
    raise AssertionError(f"{file} row {row}: no faulty income text")


def _check_header(header: list[str], expected: tuple[str, ...], file: str,
                  extra_columns: bool) -> None:
    missing = [c for c in expected if c not in header]
    if missing:
        raise DataError(f"missing column {missing[0]!r}", file=file, row=1,
                        column=missing[0])
    extra = [c for c in header if c not in expected]
    if extra and not extra_columns:
        raise DataError(f"unknown column {extra[0]!r}", file=file, row=1,
                        column=extra[0])
    for i, column in enumerate(header):
        if column in header[:i]:
            raise DataError(f"duplicate column {column!r}", file=file, row=1,
                            column=column)


def _records(path: str, *groups: tuple[str, ...],
             extra_columns: bool = False) -> Iterator[tuple]:
    """(line number, fields of each group of columns) for each non-blank row
    of the CSV file at path: the reader of every CSV input.

    The groups together are the file's columns; the header may list them
    in any order, and each group's fields come in that group's order. It
    may name no column twice, and, unless extra_columns, no other column.
    A row with a field too many or too few is rejected, and so is a file
    that is not UTF-8 or that the csv module cannot split into fields.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            _check_header(header, sum(groups, ()), path, extra_columns)
            getters = [itemgetter(*map(header.index, group)) for group in groups]
            width = len(header)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise DataError(f"expected {width} fields, got {len(row)}",
                                    file=path, row=reader.line_num)
                yield reader.line_num, *[fields(row) for fields in getters]
        except csv.Error as exc:
            raise DataError(f"malformed CSV: {exc}", file=path,
                            row=reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text: {exc}", file=path) from None


def load_population(persons_path: str, households_path: str) -> Population:
    """Load a population from the canonical persons/households CSV pair.

    Reads each file in one pass. Every parse problem is reported with
    file, row (the line number in the file) and column context; a
    repeated person or household id is reported at its second row. Each
    person's invariants are checked as its row is read, and the
    cross-table invariants once all rows are in; a household no persons
    row belongs to is reported against the persons file, and a persons
    row whose household the households file lacks names both files.
    Equal amounts and vectors (_income_vectors), household ids and NACE
    codes (nace.DIVISIONS entries) are one object each.
    """
    households: list[tuple] = []
    members: dict[int, list[int]] = {}
    household_ids: dict[int, int] = {}  # id -> the households row's int
    for i, (hid_text, weight_text, residence, other, car, land) in _records(
            households_path, HOUSEHOLD_COLUMNS):
        hid = _parse_int(hid_text, households_path, i, "household_id", minimum=1)
        if hid in members:
            raise DataError(f"duplicate household id {hid}", file=households_path,
                            row=i, column="household_id")
        try:
            weight = parse_weight(weight_text)
        except ValueError as exc:
            raise DataError(str(exc), file=households_path, row=i,
                            column="survey_weight") from None
        households.append((
            hid, weight,
            _parse_bool(residence, households_path, i, "owns_residence"),
            _parse_bool(other, households_path, i, "owns_other_real_estate"),
            None if car == "" else _parse_int(
                car, households_path, i, "car_age_years", minimum=0),
            None if land == "" else _parse_int(
                land, households_path, i, "land_parcel_m2", minimum=0),
        ))
        members[hid] = []
        household_ids[hid] = hid

    persons: list[Person] = []
    seen: set[int] = set()
    amounts = _Amounts()
    vectors = {ZERO_YEAR: ZERO_YEAR}
    for i, head, incomes in _records(persons_path, PERSON_COLUMNS[:10],
                                     _INCOME_COLUMNS):
        pid, hid, age, sex, labor, education, nace2, informal, public, special = head
        # Ids (not starting with 0) and ages of up to 18 ASCII digits
        # convert inline; any other text goes through _parse_int and its
        # messages.
        pid = (int(pid) if len(pid) < 19 and pid.isascii() and pid.isdigit()
               and pid[0] != "0" else _parse_int(pid, persons_path, i, "person_id",
                                                 minimum=1))
        if pid in seen:
            raise DataError(f"duplicate person id {pid}", file=persons_path, row=i,
                            column="person_id")
        seen.add(pid)
        number = (int(hid) if len(hid) < 19 and hid.isascii() and hid.isdigit()
                  and hid[0] != "0" else _parse_int(hid, persons_path, i,
                                                    "household_id", minimum=1))
        hid = household_ids.get(number)
        if hid is None:
            raise DataError(f"person {pid} references household {number}, which "
                            f"{households_path} lacks", file=persons_path, row=i,
                            column="household_id")
        # The incomes are parsed before the fields after them in the
        # row, so a row with several faults reports the same one first.
        vecs = _income_vectors(incomes, persons_path, i, amounts, vectors)
        person = Person(
            pid, hid,
            (int(age) if len(age) < 19 and age.isascii() and age.isdigit()
             else _parse_int(age, persons_path, i, "age")),
            _SEXES.get(sex) or _parse_enum(Sex, sex, persons_path, i, "sex"),
            _LABOR_STATUSES.get(labor) or _parse_enum(
                LaborStatus, labor, persons_path, i, "labor_status"),
            _EDUCATION_LEVELS.get(education) or _parse_enum(
                EducationLevel, education, persons_path, i, "education_level"),
            _DIVISION_CODES.get(nace2, nace2 or None),
            _FLAGS[informal] if informal in _FLAGS else _parse_bool(
                informal, persons_path, i, "informal_wage_flag"),
            _FLAGS[public] if public in _FLAGS else _parse_bool(
                public, persons_path, i, "in_public_education"),
            _FLAGS[special] if special in _FLAGS else _parse_bool(
                special, persons_path, i, "special_category_flag"),
            *vecs)
        probs = person.problems()
        if probs:
            raise DataError(f"person {pid}: {probs[0]}", file=persons_path, row=i)
        persons.append(person)
        members[hid].append(pid)

    del seen, amounts, vectors  # freed before the cross-table checks, where memory peaks
    try:
        return Population._of_valid_persons(
            tuple(persons),
            tuple(Household(hid, tuple(sorted(members[hid])), *rest)
                  for hid, *rest in households),
            provenance="loaded")
    except DataError as exc:
        # every row was checked as it was read: what is left to fail is a
        # household that no persons row lists as its own
        raise DataError(f"{exc.message}, though {households_path} lists it",
                        file=persons_path) from None


# A month vector of zeros as written: csv.writer's rendering of twelve "0"s.
_ZERO_LINE = ",".join(("0",) * MONTHS)


def _person_line(p: Person) -> str:
    """p's persons.csv line. No field needs quoting: the fields are
    integers, enum values, 0/1 and validated NACE division codes, so the
    line is the one csv.writer writes."""
    pid, hid, age, sex, labor, education, nace2, informal, public, special = p[:10]
    return ",".join((
        str(pid), str(hid), str(age), sex.value, labor.value, education.value,
        nace2 or "", "1" if informal else "0", "1" if public else "0",
        "1" if special else "0",
        *[_ZERO_LINE if vec == ZERO_YEAR else ",".join(map(str, vec))
          for vec in p[10:]])) + "\n"


def _household_line(h: Household) -> str:
    """h's households.csv line, as csv.writer writes it (nothing to quote)."""
    hid, _, weight_centi, residence, other, car, land = h
    return ",".join((
        str(hid), weight_to_str(weight_centi),
        "1" if residence else "0", "1" if other else "0",
        "" if car is None else str(car), "" if land is None else str(land),
    )) + "\n"


def save_population(pop: Population, persons_path: str, households_path: str) -> None:
    """Write the canonical CSV pair: fixed header order, sorted rows, 0/1 booleans."""
    with open(persons_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(PERSON_COLUMNS) + "\n")
        fh.writelines(map(_person_line, pop.persons))
    with open(households_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(HOUSEHOLD_COLUMNS) + "\n")
        fh.writelines(map(_household_line, pop.households))
