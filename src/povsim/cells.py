"""Labour-survey cell machinery: income-change factors and their application.

Wage changes are estimated on cells of two-digit activity x sex x age band
(89 x 2 x 3 = 534 cells); self-employment changes on the 21 one-digit
sections. A factor is the ratio of annualized post-shock cell income to
base-year cell income. Cells whose base employment is below the
small-cell threshold keep factor 1.0, as do cells with no base income.

Factors are exact Fractions end to end; applying them rounds each month
half away from zero back to integer MKD.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import ConfigError, DataError
from .money import as_fraction, scaled_months
from .nace import DIVISIONS, SECTIONS, is_division, section_of
from .population import (LaborStatus, Person, Population, Sex, _parse_int,
                         _records)

AGE_BANDS: tuple[str, ...] = ("youth_15_24", "adult_25_49", "elderly_50_64")

SEXES: tuple[str, ...] = (Sex.MALE.value, Sex.FEMALE.value)

#: Default minimum base-year employment for a cell estimate to be used.
SMALL_CELL_THRESHOLD = 1000

_V = TypeVar("_V")

# Factor provenance values.
ESTIMATED = "estimated"
SUPPRESSED_SMALL_CELL = "suppressed_small_cell"
MISSING_DEFAULT = "missing_default"


def age_band_of(age: int) -> str | None:
    """Survey age band for workers; None outside 15..64."""
    if 15 <= age <= 24:
        return "youth_15_24"
    if 25 <= age <= 49:
        return "adult_25_49"
    if 50 <= age <= 64:
        return "elderly_50_64"
    return None


@dataclass(frozen=True, slots=True, order=True)
class WageCellKey:
    nace2: str
    sex: str
    age_band: str

    def __post_init__(self) -> None:
        if not is_division(self.nace2):
            raise DataError(f"unknown activity division {self.nace2!r}",
                            column="nace2")
        if self.sex not in SEXES:
            raise DataError(f"unknown sex {self.sex!r}", column="sex")
        if self.age_band not in AGE_BANDS:
            raise DataError(f"unknown age band {self.age_band!r}", column="age_band")


@dataclass(frozen=True, slots=True, order=True)
class SelfEmpCellKey:
    section: str

    def __post_init__(self) -> None:
        if self.section not in SECTIONS:
            raise DataError(f"unknown activity section {self.section!r}",
                            column="section")


# Every cell of a complete factor table, in key order, and as sets.
_WAGE_KEYS = tuple(WageCellKey(d, s, b)
                   for d in DIVISIONS for s in SEXES for b in AGE_BANDS)
_SELFEMP_KEYS = tuple(SelfEmpCellKey(s) for s in SECTIONS)
_WAGE_KEY_SET = frozenset(_WAGE_KEYS)
_SELFEMP_KEY_SET = frozenset(_SELFEMP_KEYS)


def all_wage_keys() -> tuple[WageCellKey, ...]:
    return _WAGE_KEYS


def all_selfemp_keys() -> tuple[SelfEmpCellKey, ...]:
    return _SELFEMP_KEYS


@dataclass(frozen=True, slots=True)
class CellStat:
    """Observed aggregate for one cell in one period."""

    income: int  # total income, MKD
    count: int   # employment count

    def __post_init__(self) -> None:
        if self.income < 0:
            raise DataError(f"negative cell income {self.income}", column="income")
        if self.count < 0:
            raise DataError(f"negative cell count {self.count}", column="count")


@dataclass(frozen=True)
class LfsAggregate:
    """Cell totals for one period, with its annualization factor.

    quarters_covered drives scaling: totals over three quarters are scaled
    by 4/3 to a full-year basis, four quarters by 1.
    """

    quarters_covered: tuple[int, ...]
    wage_cells: Mapping[WageCellKey, CellStat]
    selfemp_cells: Mapping[SelfEmpCellKey, CellStat]

    def __post_init__(self) -> None:
        quarters = tuple(sorted(set(self.quarters_covered)))
        if not quarters or any(q not in (1, 2, 3, 4) for q in quarters):
            raise DataError(f"invalid quarter coverage {self.quarters_covered!r}")
        object.__setattr__(self, "quarters_covered", quarters)

    @property
    def scaling(self) -> Fraction:
        return Fraction(4, len(self.quarters_covered))


# The columns of both cell tables that say which cell a row is for, the
# column each key field is read from, and each table's value columns,
# named as the fields of its records.
_KEY_COLUMNS = ("cell_type", "nace", "sex", "age_band")
_KEY_FIELD_COLUMN = {"nace2": "nace", "section": "nace"}
_LFS_VALUES = ("income", "count")
_TABLE_VALUES = ("factor", "provenance")


def _load_cells(path: str, value_columns: tuple[str, str],
                parse: Callable[..., _V]) -> tuple[dict[WageCellKey, _V],
                                                   dict[SelfEmpCellKey, _V]]:
    """The wage and the self-employment cells of a cell-table CSV, each
    mapped to parse(line number, *its value_columns' fields).

    A wage row names division, sex and age band; a self-employment row
    its section, with sex and age_band empty. A cell may appear once.
    The header may add columns, which are not read. A fault found past
    the reader is a DataError naming file, row and column: the cell keys
    and records name the field that failed as the error's column.
    """
    wage: dict[WageCellKey, _V] = {}
    selfemp: dict[SelfEmpCellKey, _V] = {}
    for i, (kind, nace, sex, band), values in _records(
            path, _KEY_COLUMNS, value_columns, extra_columns=True):
        try:
            value = parse(i, *values)
            if kind == "wage":
                cells, key = wage, WageCellKey(nace, sex, band)
            elif kind == "selfemp":
                for column, text in (("sex", sex), ("age_band", band)):
                    if text:
                        raise DataError(f"self-employment cells have no {column}, "
                                        f"got {text!r}", column=column)
                cells, key = selfemp, SelfEmpCellKey(nace)
            else:
                raise DataError(f"unknown cell_type {kind!r}", column="cell_type")
            if key in cells:
                raise DataError(f"duplicate cell {key}", column="nace")
            cells[key] = value
        except DataError as exc:
            if exc.file is not None:
                raise
            column = _KEY_FIELD_COLUMN.get(exc.column, exc.column)
            raise DataError(exc.message, file=path, row=i, column=column) from None
    return wage, selfemp


def _save_cells(path: str, value_columns: tuple[str, str],
                wage: Mapping[WageCellKey, object],
                selfemp: Mapping[SelfEmpCellKey, object]) -> None:
    """Write a cell table as _load_cells reads it: wage cells, then
    self-employment cells, each in key order, with the value_columns
    fields of their records (csv.writer spells a Fraction n/d)."""
    values = attrgetter(*value_columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_KEY_COLUMNS + value_columns)
        writer.writerows(("wage", key.nace2, key.sex, key.age_band, *values(wage[key]))
                         for key in sorted(wage))
        writer.writerows(("selfemp", key.section, "", "", *values(selfemp[key]))
                         for key in sorted(selfemp))


def load_lfs_aggregate(path: str, *, quarters_covered: Iterable[int]) -> LfsAggregate:
    """Read cell totals from CSV: one row per cell.

    Wage rows carry nace (two-digit), sex and age_band; self-employment
    rows carry the one-digit section with sex/age_band empty. income and
    count are nonnegative integers written as ASCII digits.
    """
    def stat(i: int, income: str, count: str) -> CellStat:
        return CellStat(_parse_int(income, path, i, "income", minimum=0),
                        _parse_int(count, path, i, "count", minimum=0))

    wage, selfemp = _load_cells(path, _LFS_VALUES, stat)
    return LfsAggregate(quarters_covered=tuple(quarters_covered),
                        wage_cells=wage, selfemp_cells=selfemp)


def save_lfs_aggregate(agg: LfsAggregate, path: str) -> None:
    _save_cells(path, _LFS_VALUES, agg.wage_cells, agg.selfemp_cells)


@dataclass(frozen=True, slots=True)
class CellChange:
    factor: Fraction
    provenance: str

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise DataError(f"cell factor must be positive, got {self.factor}",
                            column="factor")
        if self.provenance not in (ESTIMATED, SUPPRESSED_SMALL_CELL, MISSING_DEFAULT):
            raise DataError(f"unknown provenance {self.provenance!r}",
                            column="provenance")
        if self.provenance == SUPPRESSED_SMALL_CELL and self.factor != 1:
            raise DataError("suppressed cells must carry factor 1.0", column="factor")


_NO_CHANGE_SUPPRESSED = CellChange(Fraction(1), SUPPRESSED_SMALL_CELL)
_NO_CHANGE_MISSING = CellChange(Fraction(1), MISSING_DEFAULT)


@dataclass(frozen=True)
class CellChangeTable:
    """Complete income-change factor table over all 534 + 21 cells."""

    wage: Mapping[WageCellKey, CellChange]
    selfemp: Mapping[SelfEmpCellKey, CellChange]

    def __post_init__(self) -> None:
        for side, cells, keys, key_set in (
                ("wage", self.wage, _WAGE_KEYS, _WAGE_KEY_SET),
                ("self-employment", self.selfemp, _SELFEMP_KEYS, _SELFEMP_KEY_SET)):
            if cells.keys() != key_set:
                missing = [key for key in keys if key not in cells]
                raise DataError(f"{side} table lacks cell {missing[0]}" if missing else
                                f"{side} table has unexpected cell "
                                f"{next(k for k in cells if k not in key_set)!r}")

    @classmethod
    def identity(cls) -> "CellChangeTable":
        return cls(
            wage={k: _NO_CHANGE_MISSING for k in all_wage_keys()},
            selfemp={k: _NO_CHANGE_MISSING for k in all_selfemp_keys()},
        )

    @classmethod
    def from_factors(cls, wage_factors: Mapping[str, float | Fraction] | None = None,
                     selfemp_factors: Mapping[str, float | Fraction] | None = None,
                     ) -> "CellChangeTable":
        """Build a table from per-division / per-section factors.

        Convenience for tests and synthetic fixtures: a division factor is
        applied to all six sex x age cells of that division; unspecified
        cells stay at 1.0.
        """
        wage_factors = dict(wage_factors or {})
        selfemp_factors = dict(selfemp_factors or {})
        wage = {}
        for key in all_wage_keys():
            if key.nace2 in wage_factors:
                wage[key] = CellChange(as_fraction(wage_factors[key.nace2]), ESTIMATED)
            else:
                wage[key] = _NO_CHANGE_MISSING
        selfemp = {}
        for skey in all_selfemp_keys():
            if skey.section in selfemp_factors:
                selfemp[skey] = CellChange(
                    as_fraction(selfemp_factors[skey.section]), ESTIMATED)
            else:
                selfemp[skey] = _NO_CHANGE_MISSING
        return cls(wage=wage, selfemp=selfemp)

    def neutralize(self, *, wage: bool = False, selfemp: bool = False,
                   ) -> "CellChangeTable":
        """Copy with the selected side forced to factor 1.0 (no change)."""
        new_wage = ({k: _NO_CHANGE_MISSING for k in self.wage} if wage else self.wage)
        new_se = ({k: _NO_CHANGE_MISSING for k in self.selfemp} if selfemp
                  else self.selfemp)
        return replace(self, wage=new_wage, selfemp=new_se)


def compute_cell_changes(base: LfsAggregate, shocked: LfsAggregate, *,
                         small_cell_threshold: int = SMALL_CELL_THRESHOLD,
                         ) -> CellChangeTable:
    """Derive the factor table from a base-year and a shocked-period aggregate.

    Both aggregates must cover the same cell universe. For each cell:
    base count below the threshold suppresses the estimate (factor 1.0);
    zero base or shocked income falls back to 1.0 with provenance
    missing_default; otherwise the factor is the exact income ratio after
    annualizing both sides.
    """
    for has, lacks, name in ((base, shocked, "shocked"), (shocked, base, "base")):
        for side, cells, others in (
                ("wage", has.wage_cells, lacks.wage_cells),
                ("self-employment", has.selfemp_cells, lacks.selfemp_cells)):
            missing = sorted(cells.keys() - others.keys())
            if missing:
                raise DataError(
                    f"{side} cell {missing[0]} is missing from the {name} aggregate")

    def change(b: CellStat | None, s: CellStat | None) -> CellChange:
        if b is None or s is None:
            return _NO_CHANGE_MISSING
        if b.count < small_cell_threshold:
            return _NO_CHANGE_SUPPRESSED
        if b.income == 0 or s.income == 0:
            # A zero total against a sizeable base is treated as missing
            # data, not a 100 percent change.
            return _NO_CHANGE_MISSING
        factor = (Fraction(s.income) * shocked.scaling) / (
            Fraction(b.income) * base.scaling)
        return CellChange(factor, ESTIMATED)

    wage = {key: change(base.wage_cells.get(key), shocked.wage_cells.get(key))
            for key in all_wage_keys()}
    selfemp = {key: change(base.selfemp_cells.get(key), shocked.selfemp_cells.get(key))
               for key in all_selfemp_keys()}
    return CellChangeTable(wage=wage, selfemp=selfemp)


def save_cell_table(table: CellChangeTable, path: str) -> None:
    """Write the factor table as CSV for inspection and reuse.

    Factors are written as exact fractions so a reloaded table reproduces
    the in-memory one bit for bit.
    """
    _save_cells(path, _TABLE_VALUES, table.wage, table.selfemp)


def load_cell_table(path: str) -> CellChangeTable:
    """Read a factor table save_cell_table wrote. A factor is an exact
    number as the config spells one: an integer, a decimal or n/d."""
    # config imports this module (through scenario), so it is imported here
    from .config import decode

    def change(i: int, factor: str, provenance: str) -> CellChange:
        try:
            return CellChange(decode(Fraction, factor, "factor"), provenance)
        except ConfigError:
            raise DataError(f"bad factor {factor!r}", file=path, row=i,
                            column="factor") from None

    wage, selfemp = _load_cells(path, _TABLE_VALUES, change)
    try:
        return CellChangeTable(wage=wage, selfemp=selfemp)
    except DataError as exc:
        raise DataError(exc.message, file=path) from None


def shock_site(p: Person) -> tuple[int, tuple[str, str, str] | str | None]:
    """Where a shock reaches p: (the index in p.incomes of the vector it
    moves, the cell whose factor moves it). An employee's wage moves with
    its (division, sex, age band) cell, a self-employed person's income
    under 65 with its section; anyone else has cell None, of factor 1 in
    every shock."""
    if p.labor_status is LaborStatus.EMPLOYEE:
        if p.nace2 is None:
            raise DataError(f"employee {p.person_id} has no industry code")
        band = age_band_of(p.age)
        return 0, None if band is None else (p.nace2, p.sex.value, band)
    if p.labor_status is LaborStatus.SELF_EMPLOYED:
        if p.nace2 is None:
            raise DataError(f"self-employed {p.person_id} has no industry code")
        return 1, None if p.age >= 65 else section_of(p.nace2)
    return 0, None


def shock_factors(table: CellChangeTable, shock_start_month: int,
                  scale: float | Fraction) -> tuple[dict, int]:
    """(factors, start) of a shock: factors maps each cell, as shock_site
    names it, to the numerator and denominator of its effective factor
    1 + scale * (factor - 1), floored at zero; start is the zero-based
    first shocked month."""
    if not 1 <= shock_start_month <= 12:
        raise DataError(f"shock start month {shock_start_month} outside 1..12")
    scale = as_fraction(scale)
    if scale < 0:
        raise DataError("shock scale must be nonnegative")

    def effective(change: CellChange) -> tuple[int, int]:
        eff = max(1 + scale * (change.factor - 1), Fraction(0))
        return eff.numerator, eff.denominator

    # keyed by plain tuples and strings: the table checked its keys
    factors: dict = {None: (1, 1)}
    factors.update(((key.nace2, key.sex, key.age_band), effective(change))
                   for key, change in table.wage.items())
    factors.update((key.section, effective(change))
                   for key, change in table.selfemp.items())
    return factors, shock_start_month - 1


def shocked_person(p: Person, k: int, num: int, den: int, start: int) -> Person:
    """p with p.incomes[k] times num/den from month index start on, each
    month rounded half away from zero to integer MKD (money.scaled_months);
    earlier months and every other field as they were."""
    incomes = p.incomes
    vec = incomes[k]
    return Person._make(p[:10] + incomes[:k] + (
        vec[:start] + scaled_months(vec[start:], num, den),) + incomes[k + 1:])


def shocked_persons(pop: Population, table: CellChangeTable, *,
                    shock_start_month: int,
                    scale: float | Fraction) -> Iterator[Person]:
    """The persons of apply_shock(pop, table, ...), in order and built
    lazily: a person the shock leaves alone is yielded as it is."""
    factors, start = shock_factors(table, shock_start_month, scale)
    for p in pop.persons:
        k, cell = shock_site(p)
        num, den = factors[cell]
        yield p if num == den else shocked_person(p, k, num, den, start)


def apply_shock(pop: Population, table: CellChangeTable, *,
                shock_start_month: int = 3,
                scale: float | Fraction = 1) -> Population:
    """Rescale wage and self-employment income from the shock month onward.

    effective factor = 1 + scale * (factor - 1); months before the shock
    month are untouched, any other income source is untouched, and persons
    outside the cell universe (for example workers aged 65 and over) or in
    a cell of effective factor 1 are returned unchanged. The input
    population is not modified.
    """
    return pop._with_persons(shocked_persons(
        pop, table, shock_start_month=shock_start_month, scale=scale))


def aggregate_income_change(before: Population, after: Sequence[Person],
                            source: str) -> Fraction:
    """Weighted relative change in total annual income from one source.

    after lists before's persons after a change (a derived population's
    persons, or shocked_persons), in before's order. Weighted by before's
    household survey weights; exact; the change sums only persons after
    does not share with before. Raises when the two do not describe the
    same persons or the base total is zero.
    """
    if source not in ("wage", "self_employment"):
        raise DataError(f"unsupported source {source!r}")
    if len(before.persons) != len(after):
        raise DataError("populations cover different persons")
    income = attrgetter(source)
    pairs = zip(before.persons, after)
    total_before = total_change = 0
    for hh in before.households:
        for pb, pa in islice(pairs, hh.size):
            total_before += hh.weight_centi * sum(income(pb))
            if pa is not pb:
                if pa.person_id != pb.person_id:
                    raise DataError("populations cover different persons")
                total_change += hh.weight_centi * (sum(income(pa)) - sum(income(pb)))
    if total_before == 0:
        raise DataError(f"zero base-period total for source {source!r}")
    return Fraction(total_change, total_before)
