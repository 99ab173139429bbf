import csv

import numpy as np
import pytest

from dynpanel import (
    AlignmentError,
    DataError,
    align,
    describe,
    from_arrays,
    grade_to_numeric,
    ingest_long_csv,
    ingest_wide_csv,
)
from dynpanel.panel import lagged_grid


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# long-format ingestion

def test_long_balanced(tmp_path):
    path = write(tmp_path, (
        "entity,period,x\n"
        "a,2010,1\nb,2010,2\nc,2010,3\n"
        "a,2011,4\nb,2011,5\nc,2011,6\n"
    ))
    data = ingest_long_csv(path)
    assert data.entities == ("a", "b", "c")
    assert data.periods == (2010, 2011)
    assert data.counts("x") == 6
    assert data.series["x"].mask.all()


def test_long_missing_token(tmp_path):
    path = write(tmp_path, "entity,period,x\na,2010,-\na,2011,2\n")
    data = ingest_long_csv(path)
    assert not data.series["x"].mask[0, 0]
    assert data.series["x"].mask[0, 1]


def test_long_duplicate_rejected(tmp_path):
    path = write(tmp_path, "entity,period,x\nfirm,2010,1\nfirm,2010,2\n")
    with pytest.raises(DataError, match="duplicate.*firm.*2010"):
        ingest_long_csv(path)


def test_long_bad_value_names_cell(tmp_path):
    path = write(tmp_path, "entity,period,x\na,2010,oops\n")
    with pytest.raises(DataError, match="a, 2010, x"):
        ingest_long_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-Infinity"])
def test_long_non_finite_value_names_cell(tmp_path, token):
    path = write(tmp_path, f"entity,period,x\na,2010,1\na,2011,{token}\n")
    with pytest.raises(DataError, match=r":3: cell \(a, 2011, x\).*not a finite number"):
        ingest_long_csv(path)


def test_long_entity_order_is_first_appearance(tmp_path):
    path = write(tmp_path, "entity,period,x\nz,2010,1\na,2010,2\nz,2011,3\n")
    assert ingest_long_csv(path).entities == ("z", "a")


def test_long_period_range_spans_min_max(tmp_path):
    path = write(tmp_path, "entity,period,x\na,2010,1\na,2013,2\n")
    data = ingest_long_csv(path)
    assert data.periods == (2010, 2011, 2012, 2013)
    assert data.counts("x") == 2


def test_round_trip_bit_for_bit(tmp_path, brand_panel):
    out = tmp_path / "export.csv"
    brand_panel.to_long_csv(out)
    back = ingest_long_csv(out)
    assert back.entities == brand_panel.entities
    assert back.periods == brand_panel.periods
    for name in brand_panel.variables:
        a, b = brand_panel.series[name], back.series[name]
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.values[a.mask], b.values[b.mask])


# ---------------------------------------------------------------------------
# wide-format ingestion

def test_wide_table1_fixture(table1_path):
    data = ingest_wide_csv(table1_path, "pp")
    assert data.n_periods == 11
    assert data.periods[0] == 2005 and data.periods[-1] == 2015
    assert "TOTAL SECTOR" not in data.entities
    checksum = data.checksums["pp"]
    assert checksum.shape == (11,)
    s = data.series["pp"]
    sums = np.where(s.mask, s.values, 0.0).sum(axis=0)
    assert np.all(np.abs(sums - checksum) / checksum < 0.005)


def test_wide_column_totals_printed_values(table1_path):
    data = ingest_wide_csv(table1_path, "pp")
    checksum = data.checksums["pp"]
    assert checksum[0] == pytest.approx(7816.49)
    assert checksum[-1] == pytest.approx(31025.90)


def test_wide_negative_values_are_data(table1_path):
    data = ingest_wide_csv(table1_path, "pp")
    i = data.entity_index("Bati")
    assert data.series["pp"].values[i, 0] == pytest.approx(-0.47)
    assert data.series["pp"].mask[i, 0]


def test_wide_single_firm(tmp_path):
    header = "name," + ",".join(str(y) for y in range(2005, 2016))
    path = write(tmp_path, header + "\nsolo," + ",".join("1" for _ in range(11)) + "\n")
    data = ingest_wide_csv(path, "pp")
    assert data.n_entities == 1
    assert data.n_periods == 11


def test_wide_bad_year_header(tmp_path):
    path = write(tmp_path, "name,2005,zzz\nfirm,1,2\n")
    with pytest.raises(DataError, match="non-numeric year"):
        ingest_wide_csv(path, "pp")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_wide_non_finite_value_names_cell(tmp_path, token):
    path = write(tmp_path, f"name,2005,2006\nfirm,1,{token}\n")
    with pytest.raises(DataError, match=r"cell \(firm, 2006\).*not a finite number"):
        ingest_wide_csv(path, "pp")


@pytest.mark.parametrize("token", ["abc", "nan", "inf", "", "-"])
def test_wide_total_row_rejects_bad_cell(tmp_path, token):
    path = write(tmp_path, f"name,2005,2006\nfirm,1,2\nTOTAL,{token},3\n")
    with pytest.raises(DataError, match=r"data.csv:3: cell \(TOTAL, 2005\) .*not a finite number"):
        ingest_wide_csv(path, "pp")


def test_wide_total_row_parsed_like_cells(tmp_path):
    path = write(tmp_path, 'name,2005,2006\nfirm,1,2\nTOTAL," 1,001.5",3\n')
    data = ingest_wide_csv(path, "pp")
    assert data.checksums["pp"].tolist() == [1001.5, 3.0]


def test_wide_ragged_row(tmp_path):
    path = write(tmp_path, "name,2005,2006\nfirm,1\n")
    with pytest.raises(DataError, match="ragged"):
        ingest_wide_csv(path, "pp")


# ---------------------------------------------------------------------------
# descriptive statistics

def test_describe_hand_values():
    data = from_arrays(["a"], [1, 2, 3, 4, 5], {"x": np.array([[1., 2, 3, 4, 5]])})
    s = describe(data, "x")
    assert s.mean == pytest.approx(3.0)
    assert s.median == pytest.approx(3.0)
    assert s.standard_deviation == pytest.approx(1.5811388300841898)  # sqrt(2.5)
    # population moments of {1..5}: m2 = 2, m3 = 0, m4 = 6.8
    assert s.skewness == pytest.approx(0.0)
    assert s.kurtosis == pytest.approx(6.8 / 4.0)
    assert s.observations == 5


def test_describe_pools_across_entities():
    data = from_arrays(
        ["a", "b"], [1, 2], {"x": np.array([[1.0, 2.0], [3.0, np.nan]])}
    )
    s = describe(data, "x")
    assert s.observations == 3
    assert s.mean == pytest.approx(2.0)


def test_describe_constant_series_rejected():
    data = from_arrays(["a"], [1, 2, 3], {"x": np.array([[7.0, 7.0, 7.0]])})
    with pytest.raises(DataError, match="zero variance"):
        describe(data, "x")


def test_describe_insufficient_data():
    data = from_arrays(["a"], [1, 2], {"x": np.array([[1.0, np.nan]])})
    with pytest.raises(DataError, match="insufficient"):
        describe(data, "x")


def test_describe_grade_panel_matches_summary():
    # a small trust-rating panel whose grade values reproduce the
    # published median 82.5, max 97.5, min 47.5
    grades = ["CCC", "BBB", "A", "AA", "AAA"]
    values = np.array([[grade_to_numeric(g) for g in grades]])
    data = from_arrays(["a"], list(range(1, 6)), {"bt": values})
    s = describe(data, "bt")
    assert s.median == pytest.approx(82.5)
    assert s.max == pytest.approx(97.5)
    assert s.min == pytest.approx(47.5)


def test_describe_permutation_invariant(tmp_path, brand_panel):
    s0 = describe(brand_panel, "pp")
    # shuffle the long rows and re-ingest
    out = tmp_path / "panel.csv"
    brand_panel.to_long_csv(out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    rng = np.random.default_rng(9)
    rng.shuffle(body)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(body)
    s1 = describe(ingest_long_csv(out), "pp")
    assert s1 == s0


def test_describe_json_keys():
    data = from_arrays(["a"], [1, 2, 3], {"x": np.array([[1.0, 2.0, 4.0]])})
    d = describe(data, "x").to_json_dict()
    assert list(d) == ["mean", "median", "max", "min", "sd", "skewness", "kurtosis", "n"]


# ---------------------------------------------------------------------------
# alignment

def balanced_panel(n, periods):
    rng = np.random.default_rng(0)
    return from_arrays(
        [f"e{i}" for i in range(n)],
        periods,
        {"y": rng.standard_normal((n, len(periods)))},
    )


def test_align_balanced_loses_one_period_per_entity():
    data = balanced_panel(31, range(2005, 2016))
    sample = align(data, ["y"], {"y": 1})
    assert sample.n_rows == 310


def test_align_short_entity():
    values = np.full((1, 11), np.nan)
    values[0, 8:] = [1.0, 2.0, 3.0]  # observed 2013-2015
    data = from_arrays(["a"], range(2005, 2016), {"y": values})
    sample = align(data, ["y"], {"y": 1})
    assert sample.n_rows == 2
    assert list(sample.periods) == [2014, 2015]


def test_align_interior_gap_breaks_lag_chain():
    # periods 1..5 with period 3 missing: lag-1 rows exist only at 2 and 5
    values = np.array([[1.0, 2.0, np.nan, 4.0, 5.0]])
    data = from_arrays(["a"], range(1, 6), {"y": values})
    sample = align(data, ["y"], {"y": 1})
    assert list(sample.periods) == [2, 5]


def test_align_monotone_in_lag_count(brand_panel):
    counts = [
        align(brand_panel, ["pp", "bv", "bt"], {"pp": k}).n_rows for k in range(4)
    ]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_align_row_order_entity_contiguous(brand_panel):
    sample = align(brand_panel, ["pp"], {"pp": 1})
    ids = sample.entity_ids
    # once an entity ends it never reappears
    seen_last = {}
    for i, e in enumerate(ids):
        seen_last[int(e)] = i
    starts = {int(e): i for i, e in reversed(list(enumerate(ids)))}
    for e in set(int(v) for v in ids):
        block = ids[starts[e]:seen_last[e] + 1]
        assert np.all(block == e)


def test_align_empty_is_error():
    data = from_arrays(["a"], [1, 2], {"y": np.array([[1.0, np.nan]])})
    with pytest.raises(AlignmentError, match="no estimable"):
        align(data, ["y"], {"y": 1})


def test_align_unknown_variable():
    data = from_arrays(["a"], [1, 2], {"y": np.array([[1.0, 2.0]])})
    with pytest.raises(DataError, match="unknown variable"):
        align(data, ["z"], {})


@pytest.mark.parametrize("k", [1, 2, 10, 11, 12])
def test_lagged_grid_is_calendar_shift(brand_panel, k):
    s = brand_panel.require("pp")
    got = lagged_grid(brand_panel, "pp", k)
    T = s.values.shape[1]
    assert not got.mask[:, :min(k, T)].any()
    if k < T:
        assert np.array_equal(got.mask[:, k:], s.mask[:, :-k])
        assert np.array_equal(got.values[:, k:], s.values[:, :-k], equal_nan=True)
    assert lagged_grid(brand_panel, "pp", 0) is s
