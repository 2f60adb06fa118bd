"""Cell factor machinery: universe size, estimation rules, shock application."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from povsim.cells import (
    AGE_BANDS,
    ESTIMATED,
    MISSING_DEFAULT,
    SMALL_CELL_THRESHOLD,
    SUPPRESSED_SMALL_CELL,
    CellChange,
    CellChangeTable,
    CellStat,
    LfsAggregate,
    SelfEmpCellKey,
    WageCellKey,
    age_band_of,
    aggregate_income_change,
    all_selfemp_keys,
    all_wage_keys,
    apply_shock,
    compute_cell_changes,
    load_cell_table,
    load_lfs_aggregate,
    save_cell_table,
    save_lfs_aggregate,
    shocked_person,
)
from povsim.cli import main
from povsim.errors import DataError
from povsim.money import round_mul_div
from povsim.population import Population
from povsim.synth import generate_synthetic

from conftest import (ACCEPT_SEED, SE_F, WAGE_F, acceptance_config,
                      build_micro_population, build_micro_table)
from oracles import aggregate_change_by_scan, cell_factor_by_definition


class TestKeys:
    def test_universe_sizes(self):
        assert len(all_wage_keys()) == 534      # 89 divisions x 2 sexes x 3 bands
        assert len(all_selfemp_keys()) == 21    # sections A..U
        assert len(set(all_wage_keys())) == 534

    def test_age_bands(self):
        assert age_band_of(14) is None
        assert age_band_of(15) == "youth_15_24"
        assert age_band_of(24) == "youth_15_24"
        assert age_band_of(25) == "adult_25_49"
        assert age_band_of(49) == "adult_25_49"
        assert age_band_of(50) == "elderly_50_64"
        assert age_band_of(64) == "elderly_50_64"
        assert age_band_of(65) is None

    def test_key_validation(self):
        with pytest.raises(DataError):
            WageCellKey("89", "male", AGE_BANDS[0])   # no such division
        with pytest.raises(DataError):
            WageCellKey("47", "other", AGE_BANDS[0])
        with pytest.raises(DataError):
            WageCellKey("47", "male", "age_15_24")
        with pytest.raises(DataError):
            SelfEmpCellKey("V")

    def test_cell_change_validation(self):
        with pytest.raises(DataError):
            CellChange(Fraction(0), ESTIMATED)
        with pytest.raises(DataError):
            CellChange(Fraction(1), "guessed")
        with pytest.raises(DataError):
            CellChange(Fraction(1, 2), SUPPRESSED_SMALL_CELL)


class TestTableConstruction:
    def test_identity_table(self):
        table = CellChangeTable.identity()
        assert all(cc.factor == 1 for cc in table.wage.values())
        assert all(cc.factor == 1 for cc in table.selfemp.values())

    def test_from_factors_expands_divisions(self):
        table = CellChangeTable.from_factors({"47": 0.8}, {"S": 0.6})
        for sex in ("male", "female"):
            for band in AGE_BANDS:
                assert table.wage[WageCellKey("47", sex, band)].factor == Fraction(4, 5)
        assert table.wage[WageCellKey("10", "male", AGE_BANDS[0])].factor == 1
        assert table.selfemp[SelfEmpCellKey("S")].factor == Fraction(3, 5)
        assert table.selfemp[SelfEmpCellKey("A")].factor == 1

    def test_incomplete_table_rejected(self):
        wage = {k: CellChange(Fraction(1), MISSING_DEFAULT) for k in all_wage_keys()}
        selfemp = {k: CellChange(Fraction(1), MISSING_DEFAULT)
                   for k in all_selfemp_keys()}
        del wage[next(iter(wage))]
        with pytest.raises(DataError, match=r"^wage table lacks cell WageCellKey"
                           r"\(nace2='00', sex='male', age_band='youth_15_24'\)$"):
            CellChangeTable(wage=wage, selfemp=selfemp)
        wage[WageCellKey("00", "male", "youth_15_24")] = selfemp["U"] = \
            CellChange(Fraction(1), MISSING_DEFAULT)
        with pytest.raises(DataError, match="^self-employment table has "
                           "unexpected cell 'U'$"):
            CellChangeTable(wage=wage, selfemp=selfemp)

    def test_neutralize(self):
        table = build_micro_table()
        wage_only = table.neutralize(selfemp=True)
        assert wage_only.selfemp[SelfEmpCellKey("S")].factor == 1
        key = WageCellKey("55", "male", "adult_25_49")
        assert wage_only.wage[key].factor == Fraction(1, 2)
        se_only = table.neutralize(wage=True)
        assert se_only.wage[key].factor == 1
        assert se_only.selfemp[SelfEmpCellKey("S")].factor == Fraction(3, 5)


def aggregate_with(wage_stats, selfemp_stats, quarters=(1, 2, 3, 4)):
    wage = {k: CellStat(0, 0) for k in all_wage_keys()}
    selfemp = {k: CellStat(0, 0) for k in all_selfemp_keys()}
    wage.update(wage_stats)
    selfemp.update(selfemp_stats)
    return LfsAggregate(quarters_covered=quarters,
                        wage_cells=wage, selfemp_cells=selfemp)


class TestComputeCellChanges:
    KEY = WageCellKey("47", "male", "adult_25_49")
    SKEY = SelfEmpCellKey("I")

    def test_exact_universe(self):
        base = aggregate_with({}, {})
        shocked = aggregate_with({}, {}, quarters=(1, 2, 3))
        table = compute_cell_changes(base, shocked)
        assert len(table.wage) == 534
        assert len(table.selfemp) == 21

    def test_estimated_factor_is_annualized_income_ratio(self):
        base = aggregate_with({self.KEY: CellStat(400000, 5000)},
                              {self.SKEY: CellStat(90000, 2000)})
        shocked = aggregate_with({self.KEY: CellStat(240000, 4200)},
                                 {self.SKEY: CellStat(30000, 900)},
                                 quarters=(1, 2, 3))
        table = compute_cell_changes(base, shocked)
        got = table.wage[self.KEY]
        assert (got.factor, got.provenance) == cell_factor_by_definition(
            400000, 5000, 240000, 4, 3, SMALL_CELL_THRESHOLD)
        assert got.provenance == ESTIMATED
        assert got.factor == Fraction(240000 * 4, 3) / Fraction(400000 * 4, 4)
        se = table.selfemp[self.SKEY]
        assert se.factor == Fraction(30000 * 4, 3) / Fraction(90000)

    def test_small_cells_keep_factor_one(self):
        base = aggregate_with({self.KEY: CellStat(400000, SMALL_CELL_THRESHOLD - 1)},
                              {})
        shocked = aggregate_with({self.KEY: CellStat(100, 10)}, {},
                                 quarters=(1, 2, 3))
        table = compute_cell_changes(base, shocked)
        got = table.wage[self.KEY]
        assert got.factor == 1
        assert got.provenance == SUPPRESSED_SMALL_CELL

    def test_threshold_boundary_is_estimated(self):
        base = aggregate_with({self.KEY: CellStat(400000, SMALL_CELL_THRESHOLD)}, {})
        shocked = aggregate_with({self.KEY: CellStat(200000, 10)}, {},
                                 quarters=(1, 2, 3, 4))
        table = compute_cell_changes(base, shocked)
        assert table.wage[self.KEY].provenance == ESTIMATED
        assert table.wage[self.KEY].factor == Fraction(1, 2)

    def test_zero_income_defaults_to_one(self):
        base = aggregate_with({self.KEY: CellStat(0, 5000)}, {})
        shocked = aggregate_with({self.KEY: CellStat(100, 5000)}, {})
        table = compute_cell_changes(base, shocked)
        assert table.wage[self.KEY].factor == 1
        assert table.wage[self.KEY].provenance == MISSING_DEFAULT

    def test_every_untouched_cell_defaults_to_one(self):
        base = aggregate_with({}, {})
        shocked = aggregate_with({}, {})
        table = compute_cell_changes(base, shocked)
        assert all(cc.factor == 1 for cc in table.wage.values())
        assert all(cc.factor == 1 for cc in table.selfemp.values())

    def test_quarter_validation(self):
        with pytest.raises(DataError):
            aggregate_with({}, {}, quarters=())
        with pytest.raises(DataError):
            aggregate_with({}, {}, quarters=(0, 1))
        # a repeat is an error, not a shorter coverage annualized by 4/2
        with pytest.raises(DataError, match="repeats a quarter"):
            aggregate_with({}, {}, quarters=(1, 1, 2, 2))
        assert aggregate_with({}, {}, quarters=(3, 1, 2)).quarters_covered == (1, 2, 3)

    def test_scaling(self):
        assert aggregate_with({}, {}, quarters=(1, 2, 3)).scaling == Fraction(4, 3)
        assert aggregate_with({}, {}, quarters=(1, 2, 3, 4)).scaling == 1


class TestApplyShock:
    def test_micro_semantics(self):
        pop = build_micro_population()
        table = build_micro_table()
        shocked = apply_shock(pop, table, shock_start_month=3)
        by_id = {p.person_id: p for p in shocked.persons}
        # Hotel employee: 0.5 factor from March onward, earlier months intact.
        assert by_id[1].wage == (30000, 30000) + (15000,) * 10
        # Retail employee: 0.8 factor.
        assert by_id[2].wage == (12000, 12000) + (9600,) * 10
        # Informal services employee: still an employee cell member, 0.7.
        assert by_id[9].wage == (15000, 15000) + (10500,) * 10
        # Self-employed in section S: 0.6.
        assert by_id[8].self_employment == (25000, 25000) + (15000,) * 10
        # Everyone else untouched; pensions and transfers never move.
        assert by_id[6].pension == pop.persons[5].pension
        assert by_id[11].interhousehold_transfers == (3000,) * 12

    def test_scale_interpolates_toward_identity(self):
        pop = build_micro_population()
        table = build_micro_table()
        half = apply_shock(pop, table, shock_start_month=3, scale=Fraction(1, 2))
        by_id = {p.person_id: p for p in half.persons}
        # effective = 1 + 0.5 * (0.5 - 1) = 0.75
        assert by_id[1].wage == (30000, 30000) + (22500,) * 10
        zero = apply_shock(pop, table, shock_start_month=3, scale=0)
        assert zero is pop

    def test_scale_floors_effective_factor_at_zero(self):
        pop = build_micro_population()
        table = CellChangeTable.from_factors({"55": 0.5}, None)
        crushed = apply_shock(pop, table, scale=4)  # 1 + 4 * (-0.5) = -1 -> 0
        by_id = {p.person_id: p for p in crushed.persons}
        assert by_id[1].wage == (30000, 30000) + (0,) * 10

    def test_identity_table_returns_same_population(self):
        pop = build_micro_population()
        assert apply_shock(pop, CellChangeTable.identity()) is pop

    def test_start_month_one_shocks_whole_year(self):
        pop = build_micro_population()
        table = build_micro_table()
        shocked = apply_shock(pop, table, shock_start_month=1)
        by_id = {p.person_id: p for p in shocked.persons}
        assert by_id[1].wage == (15000,) * 12

    def test_workers_outside_cell_universe_are_unchanged(self):
        pop = build_micro_population()
        # Age the hotel worker to 70: no survey age band, so no shock.
        aged = Population(
            persons=tuple(p._replace(age=70) if p.person_id == 1 else p
                          for p in pop.persons),
            households=pop.households)
        table = build_micro_table()
        shocked = apply_shock(aged, table)
        by_id = {p.person_id: p for p in shocked.persons}
        assert by_id[1].wage == (30000,) * 12

    def test_rounding_is_half_away_per_month(self):
        pop = build_micro_population()
        odd = Population(
            persons=tuple(p._replace(wage=(12001,) * 12) if p.person_id == 2 else p
                          for p in pop.persons),
            households=pop.households)
        table = CellChangeTable.from_factors({"47": 0.5}, None)
        shocked = apply_shock(odd, table, shock_start_month=1)
        by_id = {p.person_id: p for p in shocked.persons}
        assert by_id[2].wage == (6001,) * 12  # 6000.5 rounds away from zero

    @pytest.mark.parametrize("start_month", range(1, 13))
    def test_shocked_person_is_round_mul_div_per_month(self, start_month):
        """Each month from the start on is round_mul_div of its amount,
        earlier months and every other field are kept, and equal amounts
        scale to one shared int."""
        rng = random.Random(start_month)
        worker = build_micro_population().persons[0]  # the hotel employee
        start = start_month - 1
        for num, den in ((1, 2), (7, 10), (13, 9), (2, 3), (0, 1)):
            wage = tuple(rng.choice((12001, 30000, 4999, 777)) for _ in range(12))
            shocked = shocked_person(worker._replace(wage=wage), 0, num, den, start)
            assert shocked.wage == wage[:start] + tuple(
                round_mul_div(v, num, den) for v in wage[start:])
            assert shocked[:10] == worker[:10]
            assert shocked.incomes[1:] == worker.incomes[1:]
            scaled_of = {}
            for amount, scaled in zip(wage[start:], shocked.wage[start:]):
                assert scaled_of.setdefault(amount, scaled) is scaled

    def test_bad_arguments(self):
        pop = build_micro_population()
        table = build_micro_table()
        with pytest.raises(DataError):
            apply_shock(pop, table, shock_start_month=0)
        with pytest.raises(DataError):
            apply_shock(pop, table, scale=-1)


class TestAggregateIncomeChange:
    def test_weighted_relative_change(self):
        pop = build_micro_population()
        table = build_micro_table()
        shocked = apply_shock(pop, table, shock_start_month=3)
        got = aggregate_income_change(pop, shocked.persons, "wage")
        # Weighted wage totals: H1 weight 200, others 100.
        before = 200 * 30000 * 12 + 100 * 12000 * 12 + 100 * 15000 * 12
        after = (200 * (30000 * 2 + 15000 * 10)
                 + 100 * (12000 * 2 + 9600 * 10)
                 + 100 * (15000 * 2 + 10500 * 10))
        assert got == Fraction(after - before, before)

    @pytest.mark.parametrize("scale, start", [(1, 3), (Fraction(4, 5), 5),
                                              (Fraction(3, 2), 1)])
    def test_shocked_population_matches_scan(self, scale, start):
        pop = generate_synthetic(acceptance_config(200), ACCEPT_SEED)
        shocked = apply_shock(pop, CellChangeTable.from_factors(WAGE_F, SE_F),
                              shock_start_month=start, scale=scale)
        for source in ("wage", "self_employment"):
            got = aggregate_income_change(pop, shocked.persons, source)
            assert got == aggregate_change_by_scan(pop, shocked, source)
            assert got < 0

    def test_equal_ids_not_derived_match_scan(self):
        """A population built separately with the same person ids: every
        person is a different object, some with different incomes."""
        pop = generate_synthetic(acceptance_config(200), ACCEPT_SEED)
        rng = random.Random(7)
        other = Population(
            persons=tuple(p._replace(wage=tuple(v + rng.randint(0, 900)
                                                for v in p.wage))
                          if any(p.wage) and rng.random() < 0.5 else p._replace()
                          for p in pop.persons),
            households=pop.households)
        assert not any(a is b for a, b in zip(pop.persons, other.persons))
        for source in ("wage", "self_employment"):
            got = aggregate_income_change(pop, other.persons, source)
            assert got == aggregate_change_by_scan(pop, other, source)
        assert aggregate_income_change(pop, other.persons, "wage") > 0
        assert aggregate_income_change(pop, other.persons, "self_employment") == 0

    def test_different_persons(self):
        pop = build_micro_population()
        renumbered = Population(
            persons=tuple(p._replace(person_id=p.person_id + 100)
                          if p.person_id == 12 else p for p in pop.persons),
            households=tuple(hh._replace(member_ids=tuple(
                i + 100 if i == 12 else i for i in hh.member_ids))
                for hh in pop.households))
        fewer = Population(
            persons=tuple(p for p in pop.persons if p.person_id != 12),
            households=tuple(hh._replace(member_ids=tuple(
                i for i in hh.member_ids if i != 12)) for hh in pop.households))
        for other in (renumbered, fewer):
            with pytest.raises(DataError, match="different persons"):
                aggregate_income_change(pop, other.persons, "wage")

    def test_source_validation(self):
        pop = build_micro_population()
        with pytest.raises(DataError):
            aggregate_income_change(pop, pop.persons, "pension")

    def test_zero_base_total(self):
        pop = build_micro_population()
        stripped = Population(
            persons=tuple(p if not any(p.self_employment) else
                          p._replace(self_employment=(0,) * 12)
                          for p in pop.persons),
            households=pop.households)
        with pytest.raises(DataError):
            aggregate_income_change(stripped, stripped.persons, "self_employment")


class TestCsvRoundTrips:
    def test_cell_table_round_trip_exact(self, tmp_path):
        table = compute_cell_changes(
            aggregate_with({TestComputeCellChanges.KEY: CellStat(400000, 5000)},
                           {TestComputeCellChanges.SKEY: CellStat(90000, 2000)}),
            aggregate_with({TestComputeCellChanges.KEY: CellStat(240001, 4200)},
                           {TestComputeCellChanges.SKEY: CellStat(30001, 900)},
                           quarters=(1, 2, 3)),
        )
        path = str(tmp_path / "cells.csv")
        save_cell_table(table, path)
        again = load_cell_table(path)
        assert again.wage == dict(table.wage)
        assert again.selfemp == dict(table.selfemp)

    def test_lfs_round_trip(self, tmp_path):
        agg = aggregate_with(
            {TestComputeCellChanges.KEY: CellStat(400000, 5000)},
            {TestComputeCellChanges.SKEY: CellStat(90000, 2000)})
        path = str(tmp_path / "lfs.csv")
        save_lfs_aggregate(agg, path)
        again = load_lfs_aggregate(path, quarters_covered=agg.quarters_covered)
        assert dict(again.wage_cells) == dict(agg.wage_cells)
        assert dict(again.selfemp_cells) == dict(agg.selfemp_cells)

    def test_load_rejects_bad_factor(self, tmp_path):
        table = CellChangeTable.identity()
        path = str(tmp_path / "cells.csv")
        save_cell_table(table, path)
        text = Path(path).read_text(encoding="utf-8")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("wage,00,male,youth_15_24,1",
                                  "wage,00,male,youth_15_24,x", 1))
        with pytest.raises(DataError):
            load_cell_table(path)

    def test_load_rejects_missing_cells(self, tmp_path):
        table = CellChangeTable.identity()
        path = str(tmp_path / "cells.csv")
        save_cell_table(table, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")  # drop one row
        with pytest.raises(DataError):
            load_cell_table(path)

    @pytest.mark.parametrize("kind", ["wage", "selfemp"])
    @pytest.mark.parametrize("which", ["lfs", "cells"])
    def test_load_rejects_repeated_cell(self, tmp_path, which, kind):
        """A second row for a cell is an error naming file, row and column,
        not a silent overwrite by the last row."""
        path, load = ((saved_lfs(tmp_path), load_lfs) if which == "lfs"
                      else (saved_table(tmp_path), load_cell_table))
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        first = next(line for line in lines if line.startswith(kind + ","))
        cells = first.split(",")
        cells[4] = "7"  # same cell, another value
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + [",".join(cells)]) + "\n")
        with pytest.raises(DataError, match="duplicate") as info:
            load(path)
        assert (info.value.file, info.value.row, info.value.column) == (
            path, len(lines) + 1, "nace")

    @pytest.mark.parametrize("case", ["truncated", "over_long"])
    @pytest.mark.parametrize("which", ["cells", "lfs"])
    def test_load_rejects_wrong_field_count(self, tmp_path, which, case):
        """A row with fewer or more fields than the header is a DataError
        naming file and row, the row counted as its line in the file,
        blank lines included."""
        path = str(tmp_path / f"{which}.csv")
        if which == "cells":
            save_cell_table(CellChangeTable.identity(), path)
            load = load_cell_table
        else:
            save_lfs_aggregate(aggregate_with(
                {TestComputeCellChanges.KEY: CellStat(400000, 5000)}, {}), path)

            def load(p):
                return load_lfs_aggregate(p, quarters_covered=(1, 2, 3, 4))
        header, first, *rest = Path(path).read_text(encoding="utf-8").splitlines()
        fields = first.split(",")
        bad = fields[:2] if case == "truncated" else fields + ["9"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, "", "", ",".join(bad), *rest]) + "\n")
        with pytest.raises(DataError, match=f"expected 6 fields, got {len(bad)}") \
                as info:
            load(path)
        assert (info.value.file, info.value.row) == (path, 4)
        assert f"file={path}, row=4" in str(info.value)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def load_lfs(path: str):
    return load_lfs_aggregate(path, quarters_covered=(1, 2, 3, 4))


# The first self-employment row of a saved cell table: the 534 wage rows
# follow the header.
SELFEMP_LINE = 2 + len(all_wage_keys())


def saved_lfs(tmp_path) -> str:
    path = str(tmp_path / "lfs.csv")
    save_lfs_aggregate(aggregate_with(
        {TestComputeCellChanges.KEY: CellStat(400000, 5000)},
        {TestComputeCellChanges.SKEY: CellStat(90000, 2000)}), path)
    return path


def saved_table(tmp_path) -> str:
    path = str(tmp_path / "cells.csv")
    save_cell_table(CellChangeTable.identity(), path)
    return path


def set_field(path: str, line: int, column: str, text: str) -> None:
    """Set one field of a cell-table CSV; line 1 is the header."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fields = lines[line - 1].split(",")
    fields[lines[0].split(",").index(column)] = text
    lines[line - 1] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestStrictCellTables:
    """Both cell-table CSVs: a repeated column or cell and an unknown key
    are rejected, and numbers take only their exact spellings, each fault
    named by file, row and column."""

    @pytest.mark.parametrize("which", ["lfs", "cells"])
    def test_repeated_column_is_rejected(self, tmp_path, which):
        path, load, column = ((saved_lfs(tmp_path), load_lfs, "income")
                              if which == "lfs"
                              else (saved_table(tmp_path), load_cell_table, "factor"))
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        # the repeat comes last, so a reader keeping one of the two would
        # read the row's 7, not its own value
        lines = [lines[0] + f",{column}"] + [line + ",7" for line in lines[1:]]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load(path)
        assert str(info.value) == (f"duplicate column {column!r} "
                                   f"(file={path}, row=1, column={column})")

    @pytest.mark.parametrize("which", ["lfs", "cells"])
    def test_extra_columns_are_still_accepted(self, tmp_path, which):
        path, load = ((saved_lfs(tmp_path), load_lfs) if which == "lfs"
                      else (saved_table(tmp_path), load_cell_table))
        before = load(path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",note"] + [line + ",x" for line in lines[1:]]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load(path) == before

    @pytest.mark.parametrize("line,column,text,message", [
        (2, "cell_type", "farm", "unknown cell_type 'farm'"),
        (2, "cell_type", "", "unknown cell_type ''"),
        (2, "nace", "89", "unknown activity division '89'"),
        (2, "nace", "A", "unknown activity division 'A'"),
        (2, "sex", "other", "unknown sex 'other'"),
        (2, "sex", "", "unknown sex ''"),
        (2, "age_band", "age_15_24", "unknown age band 'age_15_24'"),
        (SELFEMP_LINE, "nace", "V", "unknown activity section 'V'"),
        (SELFEMP_LINE, "nace", "47", "unknown activity section '47'"),
        (SELFEMP_LINE, "sex", "male", "self-employment cells have no sex, got 'male'"),
        (SELFEMP_LINE, "age_band", "youth_15_24",
         "self-employment cells have no age_band, got 'youth_15_24'"),
    ])
    @pytest.mark.parametrize("which", ["lfs", "cells"])
    def test_key_faults_name_their_column(self, tmp_path, which, line, column, text,
                                          message):
        path, load = ((saved_lfs(tmp_path), load_lfs) if which == "lfs"
                      else (saved_table(tmp_path), load_cell_table))
        set_field(path, line, column, text)
        with pytest.raises(DataError) as info:
            load(path)
        assert (info.value.file, info.value.row, info.value.column) == (
            path, line, column)
        assert str(info.value) == (f"{message} "
                                   f"(file={path}, row={line}, column={column})")

    @pytest.mark.parametrize("factor,provenance,column,message", [
        ("0", "estimated", "factor", "cell factor must be positive, got 0"),
        ("1", "guessed", "provenance", "unknown provenance 'guessed'"),
        ("1/2", "suppressed_small_cell", "factor",
         "suppressed cells must carry factor 1.0"),
    ])
    def test_factor_record_faults_name_their_column(self, tmp_path, factor,
                                                    provenance, column, message):
        path = saved_table(tmp_path)
        set_field(path, 5, "factor", factor)
        set_field(path, 5, "provenance", provenance)
        with pytest.raises(DataError) as info:
            load_cell_table(path)
        assert str(info.value) == f"{message} (file={path}, row=5, column={column})"

    @pytest.mark.parametrize("column", ["income", "count"])
    @pytest.mark.parametrize("text,message", [
        (" 7", "expected integer, got ' 7'"),
        ("7 ", "expected integer, got '7 '"),
        ("1_0", "expected integer, got '1_0'"),
        ("+7", "expected integer, got '+7'"),
        ("٣", "expected integer, got '٣'"),
        ("1e3", "expected integer, got '1e3'"),
        ("7.0", "expected integer, got '7.0'"),
        ("0x1", "expected integer, got '0x1'"),
        ("", "expected integer, got ''"),
        ("-1", "value -1 below minimum 0"),
        ("-0", "negative zero '-0'"),
    ])
    def test_lfs_numbers_are_ascii_integers(self, tmp_path, column, text, message):
        path = saved_lfs(tmp_path)
        set_field(path, 3, column, text)
        with pytest.raises(DataError) as info:
            load_lfs(path)
        assert str(info.value) == f"{message} (file={path}, row=3, column={column})"

    @pytest.mark.parametrize("text", [" 19/20 ", "19/20 ", "19 /20", "1_0", "9e-1",
                                      "+1", "1/0", "0x1", ".5", "1.", "", "x",
                                      "١"])
    def test_factors_are_exact_numbers(self, tmp_path, text):
        path = saved_table(tmp_path)
        set_field(path, 4, "factor", text)
        with pytest.raises(DataError) as info:
            load_cell_table(path)
        assert str(info.value) == (f"bad factor {text!r} "
                                   f"(file={path}, row=4, column=factor)")

    def test_exact_spellings_load(self, tmp_path):
        """Leading zeros in counts, and a factor as an integer, a decimal
        or n/d, as the config writes exact numbers."""
        path = saved_lfs(tmp_path)
        set_field(path, 2, "income", "000")
        set_field(path, 2, "count", "0300")
        assert load_lfs(path).wage_cells[WageCellKey("00", "female", "adult_25_49")] \
            == CellStat(0, 300)
        path = saved_table(tmp_path)
        for line, text in ((2, "0.90"), (3, "19/20"), (4, "2")):
            set_field(path, line, "factor", text)
        factors = [change.factor for _, change in sorted(load_cell_table(path).wage.items())]
        assert factors[:3] == [Fraction(9, 10), Fraction(19, 20), Fraction(2)]

    def test_shipped_and_calibrated_files_resave_byte_identically(self, tmp_path):
        for name in ("lfs_2019.csv", "lfs_2020q23.csv"):
            again = str(tmp_path / name)
            save_lfs_aggregate(load_lfs(str(CONFIGS / name)), again)
            assert Path(again).read_bytes() == (CONFIGS / name).read_bytes()
        assert main(["calibrate", "--base", str(CONFIGS / "lfs_2019.csv"),
                     "--shocked", str(CONFIGS / "lfs_2020q23.csv"),
                     "--base-period", "2019", "--shocked-period", "2020q23",
                     "--out", str(tmp_path / "cal")]) == 0
        written = tmp_path / "cal" / "cells.csv"
        table = load_cell_table(str(written))
        assert any(change.factor != 1 for change in table.wage.values())
        save_cell_table(table, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_bytes() == written.read_bytes()
