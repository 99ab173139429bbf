import codecs
import csv
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynpanel import (
    AlignmentError,
    DataError,
    PanelDataset,
    PanelSeries,
    align,
    describe,
    from_arrays,
    grade_to_numeric,
    ingest_long_csv,
    ingest_wide_csv,
)
from dynpanel.panel import MISSING_TOKENS, _parse_cells, _split_quote_free, lagged_grid
from dynpanel.simulate import DgpSpec, generate


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
@pytest.mark.parametrize("wide", [False, True], ids=["long", "wide"])
def test_non_utf8_byte_past_the_first_chunk_names_its_file_offset(tmp_path, wide, bom):
    # a chunked text reader would count from its chunk; the offset is the
    # file's, a byte-order mark's three bytes included
    if wide:
        head = "name,2005,2006\n" + "".join(f"firm{i},1,2\n" for i in range(1500))
        tail = b"firm\xff,1,2\n"
    else:
        head = "entity,period,pp\n" + "".join(f"firm{i},2005,1\n" for i in range(1200))
        tail = b"firm\xff,2005,1\n"
    data = (codecs.BOM_UTF8 if bom else b"") + head.encode() + tail
    offset = data.index(b"\xff")
    assert offset > 8192
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=rf"data.csv: not UTF-8 text \(byte {offset}: "):
        if wide:
            ingest_wide_csv(str(path), "pp")
        else:
            ingest_long_csv(str(path))


@pytest.mark.parametrize("text", [
    "entity,period,x\na,2010,1\nb,2010,2\na,2011,3\n",
    'entity,period,x\n"Firm, Inc.",2010,"1,250.5"\nb,2010,2\n',
], ids=["quote-free", "quoted"])
def test_long_byte_order_mark_is_not_part_of_the_header(tmp_path, text):
    plain = ingest_long_csv(write(tmp_path, text))
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    marked = ingest_long_csv(str(path))
    assert marked.entities == plain.entities and marked.periods == plain.periods
    assert marked.series["x"].values.tobytes() == plain.series["x"].values.tobytes()


def test_wide_byte_order_mark_is_not_part_of_the_header(tmp_path):
    text = "name,2005,2006\nfirm a,1,2\nTOTAL,1,2\n"
    plain = ingest_wide_csv(write(tmp_path, text), "pp")
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    marked = ingest_wide_csv(str(path), "pp")
    assert marked.entities == plain.entities and marked.periods == plain.periods
    assert marked.series["pp"].values.tobytes() == plain.series["pp"].values.tobytes()
    assert marked.checksums["pp"].tobytes() == plain.checksums["pp"].tobytes()


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
    assert data.series["x"].mask.sum() == 6
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
    assert data.series["x"].mask.sum() == 2


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


def test_long_duplicate_variable_name_rejected(tmp_path):
    path = write(tmp_path, "entity,period,x, x\na,2010,1,5\na,2011,2,\n")
    with pytest.raises(DataError, match=r"data.csv: header cell 4 ' x' is empty or repeated"):
        ingest_long_csv(path)


def test_long_empty_variable_name_rejected(tmp_path):
    path = write(tmp_path, "entity,period,,x\na,2010,1,5\n")
    with pytest.raises(DataError, match=r"data.csv: header cell 3 '' is empty or repeated"):
        ingest_long_csv(path)


@pytest.mark.parametrize("read", [ingest_long_csv, lambda path: ingest_wide_csv(path, "pp")],
                         ids=["long", "wide"])
def test_empty_file_rejected(tmp_path, read):
    path = write(tmp_path, "")
    with pytest.raises(DataError) as info:
        read(path)
    assert str(info.value) == f"{path}: empty file"


@pytest.mark.parametrize("header", ["firm,year,pp", "entity,period"])
def test_long_header_without_entity_period_and_a_variable_rejected(tmp_path, header):
    path = write(tmp_path, header + "\na,2010" + ",1" * (header.count(",") - 1) + "\n")
    with pytest.raises(DataError) as info:
        ingest_long_csv(path)
    assert str(info.value) == (
        f"{path}: expected header 'entity,period,<var>,...', got {header.split(',')}"
    )


def test_long_quoted_entity_with_comma(tmp_path):
    path = write(tmp_path, 'entity,period,x\n"Firm, Inc.",2010,"1,250.5"\n')
    data = ingest_long_csv(path)
    assert data.entities == ("Firm, Inc.",)
    assert data.series["x"].values.tolist() == [[1250.5]]


def test_long_quoted_fields_without_commas(tmp_path):
    # as many fields as a plain split finds, but the quotes are not data
    path = write(tmp_path, 'entity,period,x\n"a",2010,1\n"Say ""hi"" Ltd",2010,2\n')
    data = ingest_long_csv(path)
    assert data.entities == ("a", 'Say "hi" Ltd')
    assert data.series["x"].values.tolist() == [[1.0], [2.0]]


def test_long_ragged_lines_that_add_up_to_whole_rows(tmp_path):
    # 2 + 1 + 4 fields are 7 = 2 * 4 - 1 cells once each line end is a cell
    path = write(tmp_path, "entity,period,x,y\na,2000\n5\nb,2001,3,4\n")
    with pytest.raises(DataError, match=r"data.csv:2: expected 4 fields, got 2"):
        ingest_long_csv(path)


def reference_parse_cell(token):
    """Value and presence of one CSV cell; ValueError if it is not a finite number."""
    text = token.strip()
    if text in MISSING_TOKENS:
        return np.nan, False
    value = float(text.replace(",", ""))
    if not math.isfinite(value):
        raise ValueError(text)
    return value, True


def reference_ingest_long_csv(path) -> PanelDataset:
    """Per-row, per-cell long-CSV reader that ingest_long_csv must match."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 3 or header[0].strip().lower() != "entity" or header[1].strip().lower() != "period":
            raise DataError(f"{path}: expected header 'entity,period,<var>,...', got {header}")
        var_names = [h.strip() for h in header[2:]]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            entity = row[0].strip()
            try:
                period = int(row[1].strip())
            except ValueError:
                raise DataError(f"{path}:{lineno}: period {row[1]!r} is not an integer") from None
            rows.append((lineno, entity, period, row[2:]))
    if not rows:
        raise DataError(f"{path}: no data rows")

    entities: list[str] = []
    entity_pos: dict[str, int] = {}
    for _, entity, _, _ in rows:
        if entity not in entity_pos:
            entity_pos[entity] = len(entities)
            entities.append(entity)
    pmin = min(r[2] for r in rows)
    pmax = max(r[2] for r in rows)
    periods = tuple(range(pmin, pmax + 1))
    shape = (len(entities), len(periods))
    values = {v: np.full(shape, np.nan) for v in var_names}
    masks = {v: np.zeros(shape, dtype=bool) for v in var_names}
    seen: dict[tuple[str, int], int] = {}
    for lineno, entity, period, cells in rows:
        key = (entity, period)
        if key in seen:
            raise DataError(
                f"{path}:{lineno}: duplicate row for ({entity}, {period}), "
                f"first seen at line {seen[key]}"
            )
        seen[key] = lineno
        i = entity_pos[entity]
        j = period - pmin
        for v, token in zip(var_names, cells):
            try:
                val, present = reference_parse_cell(token)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: cell ({entity}, {period}, {v}) "
                    f"value {token!r} is not a finite number"
                ) from None
            if present:
                values[v][i, j] = val
                masks[v][i, j] = True
    series = {v: PanelSeries(values[v], masks[v]) for v in var_names}
    return PanelDataset(tuple(entities), periods, series)


def _pad(token):
    return st.sampled_from(["", " ", "\t", "\x1c"]).map(lambda p: p + token + p[::-1])


GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1,234.5", "12,0", "1_000", "7"]).flatmap(_pad),
)
MISSING_CELLS = st.sampled_from(sorted(MISSING_TOKENS)).flatmap(_pad)
BAD_CELLS = st.sampled_from(["abc", "nan", "inf", "-Infinity", ",", "1.2.3", "--1"])
CLEAN_CELLS = st.one_of(*[GOOD_CELLS] * 4, MISSING_CELLS)
CELLS = st.one_of(*[CLEAN_CELLS] * 30, BAD_CELLS)
ENTITIES = st.sampled_from(["a", " a ", "b", "Firm, Inc.", 'Say "hi", Ltd', "z"])
CLEAN_PERIODS = st.integers(2000, 2009).map(str).flatmap(_pad)
PERIODS = st.one_of(*[CLEAN_PERIODS] * 40, st.sampled_from(["20x", "", "2001.0", "-3"]))


@st.composite
def long_csv_texts(draw):
    """Small long CSVs; half hold no fault, the rest mix every fault the reader names."""
    clean = draw(st.booleans())
    n_vars = draw(st.integers(1, 3))
    header = ["entity", " Period ", *["x", " y ", "z"][:n_vars]]
    lines, keys = [header], set()
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 30 + ["blank"] * 2 + ["spaces"] * 2 + ["ragged"]))
        if kind == "blank":
            lines.append([])
        elif kind == "spaces":
            lines.append(draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=4)))
        elif clean:
            row = [draw(ENTITIES), draw(CLEAN_PERIODS)]
            if (row[0].strip(), int(row[1].strip())) not in keys:
                keys.add((row[0].strip(), int(row[1].strip())))
                lines.append(row + draw(st.lists(CLEAN_CELLS, min_size=n_vars, max_size=n_vars)))
        else:
            cells = draw(st.lists(CELLS, min_size=n_vars, max_size=n_vars))
            row = [draw(ENTITIES), draw(PERIODS), *cells]
            if kind == "ragged":
                row = row[:-1] if draw(st.booleans()) else row + ["1"]
            lines.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(lines)
    return out.getvalue()


def assert_same_panel(got: PanelDataset, want: PanelDataset) -> None:
    assert got.entities == want.entities
    assert got.periods == want.periods
    assert got.variables == want.variables
    for name in want.variables:
        assert got.series[name].values.tobytes() == want.series[name].values.tobytes()
        assert np.array_equal(got.series[name].mask, want.series[name].mask)


def assert_long_reader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    outcomes = []
    for reader in (ingest_long_csv, reference_ingest_long_csv):
        try:
            outcomes.append(reader(path))
        except DataError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_panel(got, want)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(long_csv_texts())
def test_long_reader_matches_per_row_reference(tmp_path_factory, text):
    assert_long_reader_matches_reference(tmp_path_factory, text)


QUOTE_FREE_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1_000", "7", "+1E3", "١٢"]).flatmap(_pad),
)
QUOTE_FREE_CLEAN_CELLS = st.one_of(*[QUOTE_FREE_GOOD_CELLS] * 4, MISSING_CELLS)
QUOTE_FREE_CELLS = st.one_of(
    *[QUOTE_FREE_CLEAN_CELLS] * 30,
    st.sampled_from(["abc", "nan", "inf", "-Infinity", "1.2.3", "--1", "1e400"]),
)
QUOTE_FREE_ENTITIES = st.sampled_from(["a", " a ", "b", "Firm Inc.", "\x1cz", "z", "", " "])


@st.composite
def quote_free_long_texts(draw):
    """Small long CSVs without a quote, so ``csv.reader`` only splits them;
    half hold no fault, the rest mix every fault the reader names."""
    clean = draw(st.booleans())
    n_vars = draw(st.integers(1, 3))
    lines = [["entity", " Period ", *["x", " y ", "z"][:n_vars]]]
    keys = set()
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["row"] * 30 + ["blank", "spaces", "commas", "ragged", "duplicate"]))
        if kind == "blank":
            lines.append([""])
        elif kind == "spaces":
            lines.append([draw(st.sampled_from([" ", "\t", "\x1c", "\x0b \t"]))])
        elif kind == "commas":  # a blank row with the header's field count
            lines.append(draw(st.lists(st.sampled_from(["", " "]),
                                       min_size=n_vars + 2, max_size=n_vars + 2)))
        elif kind == "duplicate" and not clean and len(lines) > 1:
            lines.append(lines[-1][:2] + draw(st.lists(QUOTE_FREE_CELLS,
                                                       min_size=n_vars, max_size=n_vars)))
        elif clean:
            row = [draw(QUOTE_FREE_ENTITIES), draw(CLEAN_PERIODS)]
            if (row[0].strip(), int(row[1].strip())) not in keys:
                keys.add((row[0].strip(), int(row[1].strip())))
                lines.append(row + draw(st.lists(QUOTE_FREE_CLEAN_CELLS,
                                                 min_size=n_vars, max_size=n_vars)))
        else:
            cells = draw(st.lists(QUOTE_FREE_CELLS, min_size=n_vars, max_size=n_vars))
            row = [draw(QUOTE_FREE_ENTITIES), draw(PERIODS), *cells]
            if kind == "ragged":
                row = row[:-1] if draw(st.booleans()) else row + ["1"]
            lines.append(row)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if not draw(st.booleans()):  # no final line end
        ends[-1] = ""
    return "".join(",".join(fields) + end for fields, end in zip(lines, ends))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(quote_free_long_texts())
def test_quote_free_long_reader_matches_per_row_reference(tmp_path_factory, text):
    assert '"' not in text
    split = _split_quote_free(text)
    if split is not None:  # the columns of csv.reader's rows, empty rows dropped
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert split == (header, [list(c) for c in zip(*filter(None, rows))])
    assert_long_reader_matches_reference(tmp_path_factory, text)


# every str.isspace character there is, plus a sample for padding tokens
SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
SPACE_SAMPLE = [" ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
                "\x85", "\xa0", "\u1680", "\u2003", "\u2028", "\u3000"]
GRAMMAR_CORES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        "1_000", "1__000", "_1", "1_", "١٢", "١٢.٥", "٣e٢",
        "+7", "-7", "+-7", "1e3", "-2.5E-3", "+.5e+2", "1e400", "-1e400", "1e-400", ".5", "5.",
        "e5", "0x10", *sorted(MISSING_TOKENS), "N/A",
        "1,234.5", ",", "1,,2", ",5", "-1,000", "1,e3",
        "nan", "-inf", "Infinity", "NaN", "+nan", "abc", "1 2",
    ]),
)
PADS = st.lists(st.sampled_from(SPACE_SAMPLE), max_size=2).map("".join)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.tuples(PADS, GRAMMAR_CORES, PADS).map("".join), min_size=1, max_size=4))
def test_parse_cells_matches_per_cell_reference(tokens):
    try:
        want = [reference_parse_cell(t) for t in tokens]
    except ValueError:
        assert _parse_cells(tokens) is None
        return
    values, present = _parse_cells(tokens)
    assert values.tobytes() == np.array([v for v, _ in want]).tobytes()
    assert present.tolist() == [p for _, p in want]


@pytest.mark.parametrize("core", ["5", "-1.5e3", "NA", "1,234", "nan"])
def test_parse_cells_strips_every_space_character(core):
    # float() does not strip \x1c-\x1f, so those tokens take the second pass
    for c in SPACES:
        token = c + core + c
        try:
            want = reference_parse_cell(token)
        except ValueError:
            assert _parse_cells([token]) is None, repr(token)
            continue
        values, present = _parse_cells([token])
        assert (values.tobytes(), present[0]) == (np.array([want[0]]).tobytes(), want[1])


def test_column_split_declines_a_line_longer_than_the_csv_field_limit():
    # csv.reader rejects a field over the limit; the split must leave such text to it
    limit = csv.field_size_limit()
    text = "entity,period,x\nb,2000,1\n{},2000,1\n"
    assert _split_quote_free(text.format("a" * (limit - 10))) is not None
    assert _split_quote_free(text.format("a" * (limit + 1))) is None


def test_long_reader_paths_agree_at_scale(tmp_path):
    data = generate(DgpSpec(n_entities=2000, n_periods=8, missingness=0.1))
    path = tmp_path / "split.csv"
    data.to_long_csv(path)
    assert _split_quote_free(path.read_text(encoding="utf-8")) is not None
    assert_same_panel(ingest_long_csv(path), data)
    # a quoted entity sends the file to csv.reader
    renamed = PanelDataset(("Firm, Inc.", *data.entities[1:]), data.periods, data.series)
    path = tmp_path / "quoted.csv"
    renamed.to_long_csv(path)
    assert _split_quote_free(path.read_text(encoding="utf-8")) is None
    assert_same_panel(ingest_long_csv(path), renamed)


def reference_to_long_csv(data: PanelDataset, path) -> None:
    """Per-cell long-CSV writer that PanelDataset.to_long_csv must match byte for byte."""
    names = list(data.series)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["entity", "period", *names])
        for i, entity in enumerate(data.entities):
            for j, period in enumerate(data.periods):
                if not any(data.series[n].mask[i, j] for n in names):
                    continue
                row = [entity, str(period)]
                for n in names:
                    s = data.series[n]
                    row.append(repr(float(s.values[i, j])) if s.mask[i, j] else "")
                writer.writerow(row)


@pytest.mark.parametrize("seed", range(8))
def test_to_long_csv_matches_per_cell_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n, T = int(rng.integers(1, 12)), int(rng.integers(1, 9))
    names = ["a", "Firm, Inc.", 'Say "hi"', "x,y\"z"] + [f"e{i}" for i in range(n)]
    variables = {}
    for v in ("y", "x1", "x2"):
        values = rng.standard_normal((n, T)) * 10.0 ** rng.integers(-5, 6, (n, T))
        specials = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1e308], size=(n, T))
        values = np.where(rng.random((n, T)) < 0.2, specials, values)
        values[rng.random((n, T)) < 0.3] = np.nan
        variables[v] = values
    variables["y"][:, [0, -1]] = -0.0  # every entity and both end periods stay present
    data = from_arrays(names[:n], range(1990, 1990 + T), variables)
    data.to_long_csv(tmp_path / "got.csv")
    reference_to_long_csv(data, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    back = ingest_long_csv(tmp_path / "got.csv")
    assert back.entities == data.entities
    for v in variables:
        assert back.series[v].values.tobytes() == data.series[v].values.tobytes()


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
    i = data.entities.index("Bati")
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


def test_wide_header_without_a_year_rejected(tmp_path):
    path = write(tmp_path, "name\nfirm\n")
    with pytest.raises(DataError) as info:
        ingest_wide_csv(path, "pp")
    assert str(info.value) == f"{path}: header needs a name column and at least one year"


def test_wide_non_consecutive_years_rejected(tmp_path):
    path = write(tmp_path, "name,2005,2007\nfirm,1,2\n")
    with pytest.raises(DataError) as info:
        ingest_wide_csv(path, "pp")
    assert str(info.value) == f"{path}: year headers must be consecutive, got [2005, 2007]"


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


def test_wide_second_total_row_rejected(tmp_path):
    path = write(tmp_path, "name,2005,2006\nTOTAL,1,2\nfirm,1,2\nTotal sector,1,2\n")
    with pytest.raises(DataError, match=r"data.csv:4: second TOTAL row, first at line 2"):
        ingest_wide_csv(path, "pp")


def test_wide_duplicate_entity(tmp_path):
    path = write(tmp_path, "name,2005\nfirm,1\nother,2\nfirm,3\n")
    with pytest.raises(DataError, match=r"data.csv:4: duplicate entity 'firm'"):
        ingest_wide_csv(path, "pp")


def test_wide_ragged_row(tmp_path):
    path = write(tmp_path, "name,2005,2006\nfirm,1\n")
    with pytest.raises(DataError, match="ragged"):
        ingest_wide_csv(path, "pp")


def reference_ingest_wide_csv(path, variable_name) -> PanelDataset:
    """Per-row, per-cell wide-CSV reader that ingest_wide_csv must match."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *raw = csv.reader(fh)
    year_labels = [int(h.strip()) for h in header[1:]]
    rows, entity_line, total_row = [], {}, None
    for lineno, row in enumerate(raw, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}:{lineno}: ragged row ({len(row)} fields, expected {len(header)})"
            )
        name = row[0].strip()
        if name.upper().startswith("TOTAL"):
            if total_row:
                raise DataError(f"{path}:{lineno}: second TOTAL row, first at line {total_row[0]}")
            total_row = (lineno, name, row[1:])
        elif name in entity_line:
            raise DataError(f"{path}:{lineno}: duplicate entity {name!r}")
        else:
            entity_line[name] = lineno
            rows.append((lineno, name, row[1:]))
    if not rows:
        raise DataError(f"{path}: no entity rows")

    def parse_row(lineno, name, cells, required):
        out = np.full(len(year_labels), np.nan)
        for j, token in enumerate(cells):
            try:
                out[j], present = reference_parse_cell(token)
            except ValueError:
                present = None
            if present is None or (required and not present):
                raise DataError(
                    f"{path}:{lineno}: cell ({name}, {year_labels[j]}) "
                    f"value {token!r} is not a finite number"
                )
        return out

    values = np.array([parse_row(*r, required=False) for r in rows])
    checksums = {variable_name: parse_row(*total_row, required=True)} if total_row else {}
    return PanelDataset(
        tuple(name for _, name, _ in rows), tuple(year_labels),
        {variable_name: PanelSeries(values, ~np.isnan(values))}, checksums=checksums,
    )


TOTAL_NAMES = st.sampled_from(["TOTAL", " Total sector", "total", "TOTALS"])
QUOTED_THOUSANDS = st.sampled_from(["1,234", " 12,345.5 ", "-1,000,000", "1,2,3"])


@st.composite
def wide_csv_texts(draw):
    """Small wide CSVs; half hold no fault, the rest mix every fault the reader names."""
    clean = draw(st.booleans())
    n_years = draw(st.integers(1, 4))
    header = ["name", *[f" {2000 + j}" for j in range(n_years)]]
    cells = st.one_of(CLEAN_CELLS, QUOTED_THOUSANDS) if clean else st.one_of(CELLS, QUOTED_THOUSANDS)
    lines, names, totals = [header], set(), 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 12 + ["total"] * 2 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.lists(st.sampled_from(["", " "]), max_size=3)))
            continue
        name = draw(TOTAL_NAMES if kind == "total" else ENTITIES)
        if clean and kind == "ragged":
            continue
        if clean and kind == "total":
            if totals:
                continue
            totals += 1
            cells_of_row = st.one_of(GOOD_CELLS, QUOTED_THOUSANDS)
        elif clean and name.strip() in names:
            continue
        else:
            cells_of_row = cells
        names.add(name.strip())
        row = [name, *draw(st.lists(cells_of_row, min_size=n_years, max_size=n_years))]
        if kind == "ragged":
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(lines)
    return out.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(wide_csv_texts())
def test_wide_reader_matches_per_cell_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "wide.csv"
    path.write_text(text, encoding="utf-8", newline="")
    outcomes = []
    for reader in (ingest_wide_csv, reference_ingest_wide_csv):
        try:
            outcomes.append(reader(path, "pp"))
        except DataError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return
    assert (got.entities, got.periods, got.variables) == (want.entities, want.periods, ("pp",))
    assert got.series["pp"].values.tobytes() == want.series["pp"].values.tobytes()
    assert got.series["pp"].mask.tobytes() == want.series["pp"].mask.tobytes()
    assert list(got.checksums) == list(want.checksums)
    for name, checksum in want.checksums.items():
        assert got.checksums[name].tobytes() == checksum.tobytes()


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_from_arrays_rejects_non_finite_present_cell(bad):
    x = np.arange(6.0).reshape(2, 3)
    x[1, 2] = bad
    with pytest.raises(DataError, match="series 'x' has a present cell that is not finite"):
        from_arrays(["a", "b"], [1, 2, 3], {"y": np.ones((2, 3)), "x": x})


def test_series_values_and_mask_must_share_a_shape():
    with pytest.raises(DataError, match="^series values and mask shapes differ$"):
        PanelSeries(np.zeros((1, 2)), np.ones((1, 3), dtype=bool))


@pytest.mark.parametrize("entities, periods, shape, message", [
    ((), (1, 2), None, "dataset has no entities"),
    (("a",), (), None, "dataset has no periods"),
    (("a",), (1, 3), None, "periods must be contiguous increasing integers"),
    (("a",), (1, 2), (1, 3), "series 'y' has shape (1, 3), expected (1, 2)"),
], ids=["no-entities", "no-periods", "gapped-periods", "mis-shaped-series"])
def test_dataset_rejects_a_malformed_grid(entities, periods, shape, message):
    series = {} if shape is None else {"y": PanelSeries(np.zeros(shape), np.ones(shape, bool))}
    with pytest.raises(DataError) as info:
        PanelDataset(entities, periods, series)
    assert str(info.value) == message


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


def test_align_negative_lag_rejected():
    data = from_arrays(["a"], [1, 2], {"y": np.array([[1.0, 2.0]])})
    with pytest.raises(DataError, match="^negative lag count for 'y'$"):
        align(data, ["y"], {"y": -1})


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
