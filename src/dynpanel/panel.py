"""Unbalanced panel container, CSV ingestion, and descriptive statistics.

A :class:`PanelDataset` stores one entity-by-period value matrix per
variable together with a boolean presence mask. Periods are contiguous
integer labels; missing years inside an entity's run stay in the grid as
masked-out cells so that lags remain calendar lags.

The long and wide CSV readers read a file's bytes once and decode them
whole, less one leading UTF-8 byte-order mark. They parse a whole column
of cells at a time by one grammar, ``_parse_cells``: one ``float`` pass
over the raw tokens, and only if that fails a pass that strips cells,
marks missing ones and drops commas. A per-cell pass runs only to name
the first bad cell. The long reader splits text without quotes into
columns with ``str.split`` and keeps ``csv.reader``, and the per-row
checks that name a fault, for any other text and for any text at fault.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from itertools import compress
from typing import Mapping, NoReturn, Sequence

import numpy as np

from . import transforms
from .errors import AlignmentError, DataError, EstimationError

MISSING_TOKENS = frozenset({"", "-", "NA", "na"})


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PanelSeries:
    """One variable on the panel grid: values plus presence mask."""

    values: np.ndarray  # (n_entities, n_periods) float64, NaN where absent
    mask: np.ndarray    # (n_entities, n_periods) bool, True where present

    def __post_init__(self):
        if self.values.shape != self.mask.shape:
            raise DataError("series values and mask shapes differ")


@dataclass(frozen=True)
class PanelDataset:
    """Immutable unbalanced panel of named numeric series.

    Parameters
    ----------
    entities : tuple of str
        Entity identifiers in first-appearance order.
    periods : tuple of int
        Strictly increasing, contiguous integer time labels.
    series : mapping of str to PanelSeries
        One entity-by-period matrix per variable.
    checksums : mapping of str to ndarray
        Per-variable totals row captured during wide ingestion, if any.
    """

    entities: tuple[str, ...]
    periods: tuple[int, ...]
    series: dict[str, PanelSeries]
    checksums: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.entities:
            raise DataError("dataset has no entities")
        periods = np.asarray(self.periods)
        if len(periods) == 0:
            raise DataError("dataset has no periods")
        if np.any(np.diff(periods) != 1):
            raise DataError("periods must be contiguous increasing integers")
        shape = (len(self.entities), len(self.periods))
        for name, s in self.series.items():
            if s.values.shape != shape:
                raise DataError(
                    f"series {name!r} has shape {s.values.shape}, expected {shape}"
                )
            if not np.isfinite(s.values[s.mask]).all():
                raise DataError(f"series {name!r} has a present cell that is not finite")
            _freeze(s.values)
            _freeze(s.mask)
        present_any = np.zeros(shape[0], dtype=bool)
        for s in self.series.values():
            present_any |= s.mask.any(axis=1)
        if not present_any.all():
            dead = [self.entities[i] for i in np.flatnonzero(~present_any)]
            raise DataError(f"entities with no present cells: {dead}")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.series)

    def require(self, variable: str) -> PanelSeries:
        try:
            return self.series[variable]
        except KeyError:
            raise DataError(
                f"unknown variable {variable!r}; have {list(self.series)}"
            ) from None

    def entity_period_counts(self) -> np.ndarray:
        """Per-entity count of periods present in at least one series."""
        any_mask = np.zeros((self.n_entities, self.n_periods), dtype=bool)
        for s in self.series.values():
            any_mask |= s.mask
        return any_mask.sum(axis=1)

    def to_long_csv(self, path) -> None:
        """Write the long-format CSV (entity,period,var1,...); absent cells empty.

        Values are written with ``repr`` so a round-trip through
        :func:`ingest_long_csv` reproduces them bit for bit.
        """
        rows, cols = np.nonzero(np.logical_or.reduce([s.mask for s in self.series.values()]))
        cells = [
            [repr(x) if m else "" for x, m in zip(s.values[rows, cols].tolist(),
                                                  s.mask[rows, cols].tolist())]
            for s in self.series.values()
        ]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["entity", "period", *self.series])
            writer.writerows(zip([self.entities[i] for i in rows.tolist()],
                                 [str(self.periods[j]) for j in cols.tolist()], *cells))


def from_arrays(
    entities: Sequence[str],
    periods: Sequence[int],
    variables: Mapping[str, np.ndarray],
) -> PanelDataset:
    """Build a dataset from dense arrays, treating NaN as absent; an inf is a DataError."""
    series = {}
    for name, arr in variables.items():
        values = np.asarray(arr, dtype=float)
        mask = ~np.isnan(values)
        series[name] = PanelSeries(values.copy(), mask)
    return PanelDataset(tuple(entities), tuple(int(p) for p in periods), series)


def _parse_cells(tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Values and presence of CSV cells; None if a present cell is not a finite number.

    The cell grammar of both readers: a stripped cell in ``MISSING_TOKENS``
    is absent (NaN); any other must be a finite float once its commas
    (thousands separators, as source tables print them) are dropped.

    One ``float`` pass over the raw tokens runs first. If every token
    converts to a finite value, that is the answer, all present: ``float``
    rejects every missing token and every comma, and strips no character
    that ``str.strip`` keeps. Otherwise, for instance when a cell is
    missing or padded with ``\\x1c``-``\\x1f`` (which ``str.strip`` drops
    and ``float`` does not), a second pass strips the cells, marks the
    missing ones and drops commas.
    """
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        pass
    else:
        if np.isfinite(values).all():
            return values, np.ones(len(values), dtype=bool)
    text = list(map(str.strip, tokens))
    present = ~np.fromiter(map(MISSING_TOKENS.__contains__, text), bool, len(text))
    cells = compress(text, present)
    if "," in "".join(text):
        cells = (t.replace(",", "") for t in cells)
    values = np.full(len(text), np.nan)
    try:
        values[present] = np.fromiter(map(float, cells), float)
    except ValueError:
        return None
    return (values, present) if np.isfinite(values[present]).all() else None


def _read_text(path) -> str:
    """A file's bytes decoded whole as UTF-8, less one leading byte-order mark.

    A non-UTF-8 file is a DataError that names the offending byte's offset
    in the file (the mark counted).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return text.removeprefix("\ufeff")


def _read_csv(path, text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the text by ``csv.reader``; an empty file or csv.Error is a DataError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows[0], rows[1:]


def _split_quote_free(text: str) -> tuple[list[str], list[list[str]]] | None:
    """Header and data columns of text that ``csv.reader`` only splits; else None.

    Without ``"`` or NUL, ``csv.reader`` splits rows at ``\\r\\n``, ``\\r``
    and ``\\n`` and fields at commas, so ``str.split`` finds the same
    fields. Empty lines after the header, which it reads as rows to skip,
    are dropped. None for any other text, when a data line holds a field
    count other than the header's (a whitespace-only line among them), or
    when a line is longer than ``csv.field_size_limit()``, as a field that
    ``csv.reader`` rejects may be.
    """
    if '"' in text or "\0" in text:
        return None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    while "\n\n" in text:
        text = text.replace("\n\n", "\n")
    limit = csv.field_size_limit()
    if len(text) > limit:
        # a line's UTF-8 length bounds the length of each of its fields
        data = np.frombuffer(text.encode(), np.uint8)
        ends = np.flatnonzero(data == ord("\n"))
        if np.diff(ends, prepend=-1, append=len(data)).max() > limit + 1:
            return None
    first, _, body = text.removesuffix("\n").partition("\n")
    header = first.split(",")
    n = len(header)
    # each line end becomes a cell of its own, so the data lines all hold
    # n fields iff every line end falls at the (n + 1)-th cell after the last
    cells = body.replace("\n", ",\n,").split(",")
    m = body.count("\n") + 1
    if not body or len(cells) != m * (n + 1) - 1 or cells[n::n + 1].count("\n") != m - 1:
        return None
    return header, [cells[j::n + 1] for j in range(n)]


def _long_header_fault(header: list[str]) -> str | None:
    """What is wrong with a long-CSV header, if anything."""
    if len(header) < 3 or header[0].strip().lower() != "entity" or header[1].strip().lower() != "period":
        return f"expected header 'entity,period,<var>,...', got {header}"
    var_names = [h.strip() for h in header[2:]]
    for k, name in enumerate(var_names):
        if not name or name in var_names[:k]:
            return f"header cell {k + 3} {header[k + 2]!r} is empty or repeated"
    return None


def _long_dataset(header: list[str], columns: Sequence[Sequence[str]]) -> PanelDataset | None:
    """The dataset of the data columns under a valid long-CSV header; None
    if a period is not an integer, a key repeats or a cell is bad."""
    try:  # parse each distinct token once
        period_of = {t: int(t.strip()) for t in dict.fromkeys(columns[1])}
    except ValueError:
        return None
    period = np.array(list(map(period_of.__getitem__, columns[1])))
    codes: dict[str, int] = {}  # entity code by stripped name, in first-appearance order
    entity_of = {t: codes.setdefault(t.strip(), len(codes)) for t in dict.fromkeys(columns[0])}
    pmin, pmax = int(period.min()), int(period.max())
    periods = tuple(range(pmin, pmax + 1))
    shape = (len(codes), len(periods))
    key = np.array(list(map(entity_of.__getitem__, columns[0]))) * len(periods) + (period - pmin)
    if np.bincount(key).max() > 1:
        return None
    series = {}
    for h, column in zip(header[2:], columns[2:]):
        parsed = _parse_cells(column)
        if parsed is None:
            return None
        values = np.full(shape, np.nan)
        mask = np.zeros(shape, dtype=bool)
        # no key repeats, so each cell is set once
        values.reshape(-1)[key], mask.reshape(-1)[key] = parsed
        series[h.strip()] = PanelSeries(values, mask)
    return PanelDataset(tuple(codes), periods, series)


def _raise_first_fault(path, header: list[str], raw: list[list[str]]) -> NoReturn:
    """Raise the long-CSV error of the first faulty row, once a column check has failed."""
    var_names = [h.strip() for h in header[2:]]
    rows = []
    for lineno, row in enumerate(raw, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            rows.append((lineno, row[0].strip(), int(row[1].strip()), row[2:]))
        except ValueError:
            raise DataError(f"{path}:{lineno}: period {row[1]!r} is not an integer") from None
    seen: dict[tuple[str, int], int] = {}
    for lineno, entity, period, cells in rows:
        if (entity, period) in seen:
            raise DataError(
                f"{path}:{lineno}: duplicate row for ({entity}, {period}), "
                f"first seen at line {seen[entity, period]}"
            )
        seen[entity, period] = lineno
        for v, token in zip(var_names, cells):
            if _parse_cells([token]) is None:
                raise DataError(
                    f"{path}:{lineno}: cell ({entity}, {period}, {v}) "
                    f"value {token!r} is not a finite number"
                )
    raise AssertionError(f"{path}: a column check failed but no row is at fault")


def ingest_long_csv(path) -> PanelDataset:
    """Read a long-format CSV with header ``entity,period,<var1>,...``.

    Entity order is first appearance; the period axis spans the observed
    min..max range. Variable names must be non-empty and distinct; blank
    rows are skipped. A cell in ``MISSING_TOKENS`` is absent, any other
    must be a finite number (commas are thousands separators). The error
    raised names the first fault of: (1) a wrong field count or non-integer
    period, in line order; (2) no data rows; (3) a duplicate (entity,
    period) row or a bad cell, in line order, the key before the cells and
    cells in header order.

    Text without quotes whose data lines all hold the header's field count
    is split into columns directly (``_split_quote_free``). Any other text,
    and any text with a fault, is read again by ``csv.reader``, whose rows
    name the fault. A blank row, which that path skips, has a blank period,
    so it sends the text there too. Both paths build the dataset from the
    same columns by ``_long_dataset``.
    """
    text = _read_text(path)
    split = _split_quote_free(text)
    if split is not None and _long_header_fault(split[0]) is None:
        data = _long_dataset(*split)
        if data is not None:
            return data
    header, raw = _read_csv(path, text)
    fault = _long_header_fault(header)
    if fault:
        raise DataError(f"{path}: {fault}")
    rows = [row for row in raw if "".join(row).strip()]
    if set(map(len, rows)) - {len(header)}:
        _raise_first_fault(path, header, raw)
    if not rows:
        raise DataError(f"{path}: no data rows")
    data = _long_dataset(header, list(zip(*rows)))
    if data is None:
        _raise_first_fault(path, header, raw)
    return data


def ingest_wide_csv(path, variable_name: str) -> PanelDataset:
    """Read a wide-format CSV: header ``name,<year1>,<year2>,...``.

    One row per entity. A row whose name starts with ``TOTAL``
    (case-insensitive) is excluded from the entities and kept as the
    checksum vector ``checksums[variable_name]`` on the result; each of
    its cells must be a finite number. Other cells may be one of
    ``MISSING_TOKENS``. A bad cell is named in line order over the entity
    rows, then over the TOTAL row.
    """
    header, raw = _read_csv(path, _read_text(path))
    if len(header) < 2:
        raise DataError(f"{path}: header needs a name column and at least one year")
    year_labels = []
    for h in header[1:]:
        try:
            year_labels.append(int(h.strip()))
        except ValueError:
            raise DataError(f"{path}: non-numeric year header {h!r}") from None
    if any(b - a != 1 for a, b in zip(year_labels, year_labels[1:])):
        raise DataError(f"{path}: year headers must be consecutive, got {year_labels}")

    rows: list[tuple[int, str, list[str]]] = []
    entity_line: dict[str, int] = {}
    total_row = None
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
    parsed = _parse_cells([c for _, _, cells in rows for c in cells])
    total = _parse_cells(total_row[2]) if total_row else None
    if parsed is None or (total_row and (total is None or not total[1].all())):
        # name the first bad cell: entity rows in line order, then the
        # TOTAL row, where a missing cell is bad too
        checked = [(row, False) for row in rows] + ([(total_row, True)] if total_row else [])
        for (lineno, name, cells), required in checked:
            for year, token in zip(year_labels, cells):
                cell = _parse_cells([token])
                if cell is None or (required and not cell[1][0]):
                    raise DataError(f"{path}:{lineno}: cell ({name}, {year}) "
                                    f"value {token!r} is not a finite number")
    shape = (len(rows), len(year_labels))
    values, present = (a.reshape(shape) for a in parsed)
    return PanelDataset(
        tuple(name for _, name, _ in rows),
        tuple(year_labels),
        {variable_name: PanelSeries(values, present)},
        checksums={variable_name: _freeze(total[0])} if total_row else {},
    )


@dataclass(frozen=True)
class DescriptiveStats:
    """Pooled summary statistics over the present cells of one variable.

    Skewness and kurtosis use population central moments (m3/m2^1.5 and
    m4/m2^2, so kurtosis is about 3 for normal data); the standard
    deviation uses the sample (n-1) denominator.
    """

    mean: float
    median: float
    max: float
    min: float
    standard_deviation: float
    skewness: float
    kurtosis: float
    observations: int

    def to_json_dict(self) -> dict:
        """The fields in order, ``standard_deviation`` as ``sd`` and
        ``observations`` as ``n``."""
        short = {"standard_deviation": "sd", "observations": "n"}
        return {short.get(k, k): v for k, v in asdict(self).items()}


def describe(data: PanelDataset, variable: str) -> DescriptiveStats:
    """Descriptive statistics over all present cells of ``variable``."""
    s = data.require(variable)
    x = s.values[s.mask]
    n = x.size
    if n < 2:
        raise DataError(f"insufficient data for {variable!r}: {n} observation(s)")
    mean = float(x.mean())
    centered = x - mean
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DataError(f"zero variance in {variable!r}; moments undefined")
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    return DescriptiveStats(
        mean=mean,
        median=float(np.median(x)),
        max=float(x.max()),
        min=float(x.min()),
        standard_deviation=float(x.std(ddof=1)),
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
        observations=n,
    )


@dataclass(frozen=True)
class AlignedSample:
    """Estimation-ready rows: every required (variable, lag) cell present.

    ``matrix[:, c]`` holds the level value of ``columns[c] = (variable, lag)``
    at each row's (entity, period). Rows are entity-contiguous, ordered by
    entity first-appearance and period. A sample built for an FD or OD
    design keeps the rows where every transformed cell exists, and its
    ``matrix`` still holds the levels there.
    """

    entities: tuple[str, ...]
    entity_ids: np.ndarray   # (n,) int index into entities
    periods: np.ndarray      # (n,) int period labels
    columns: tuple[tuple[str, int], ...]
    matrix: np.ndarray       # (n, n_columns)

    def __post_init__(self):
        _freeze(self.entity_ids)
        _freeze(self.periods)
        _freeze(self.matrix)

    @property
    def n_rows(self) -> int:
        return self.entity_ids.size


def lagged_grid(data: PanelDataset, variable: str, lag: int) -> PanelSeries:
    """Level series shifted back ``lag`` calendar periods on the grid."""
    s = data.require(variable)
    if lag == 0:
        return s
    return PanelSeries(*transforms.lag(s.values, s.mask, lag))


def align_columns(
    data: PanelDataset,
    columns: Sequence[tuple[str, int]],
    kind: transforms.TransformKind = transforms.TransformKind.NONE,
) -> tuple[AlignedSample, np.ndarray]:
    """Rows where every (variable, lag) column is present, and their values.

    With FD or OD ``kind`` the transform is applied to each lagged level
    grid and rows are kept where every transformed cell exists. Returns
    the sample (level values) and the (rows, columns) matrix of values in
    ``kind``'s units, which is ``sample.matrix`` itself for other kinds.
    """
    grids = [lagged_grid(data, v, lag) for v, lag in columns]
    keep = np.logical_and.reduce([g.mask for g in grids])
    if not keep.any():
        raise AlignmentError("no estimable observations after alignment")
    if kind.is_calendar:
        moved = [transforms.apply_grid(kind, g.values, g.mask) for g in grids]
        keep = np.logical_and.reduce([m for _, m in moved])
    ent_idx, per_idx = np.nonzero(keep)
    if ent_idx.size == 0:
        raise EstimationError(f"no estimable observations after {kind.value} transform")
    sample = AlignedSample(
        entities=data.entities,
        entity_ids=ent_idx.astype(np.int64),
        periods=np.asarray(data.periods)[per_idx].astype(np.int64),
        columns=tuple(columns),
        matrix=np.column_stack([g.values[ent_idx, per_idx] for g in grids]),
    )
    if not kind.is_calendar:
        return sample, sample.matrix
    return sample, np.column_stack([v[ent_idx, per_idx] for v, _ in moved])


def align(
    data: PanelDataset,
    variables: Sequence[str],
    required_lags: Mapping[str, int] | None = None,
) -> AlignedSample:
    """Select rows where every variable is present at lags 0..k.

    ``required_lags`` maps variable name to the deepest lag required for
    it (default 0). The first variable is the regressand by convention.
    Lags are calendar lags: a gap inside an entity's run breaks the lag
    chain instead of bridging it.
    """
    required_lags = dict(required_lags or {})
    columns: list[tuple[str, int]] = []
    for v in variables:
        data.require(v)
        k = int(required_lags.get(v, 0))
        if k < 0:
            raise DataError(f"negative lag count for {v!r}")
        columns += [(v, lag) for lag in range(k + 1)]
    return align_columns(data, columns)[0]
