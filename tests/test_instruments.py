import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dynpanel import (
    DataError,
    DynpanelError,
    DynamicInstrument,
    EstimationError,
    InstrumentSpec,
    PanelDataset,
    PanelSeries,
    StaticInstrument,
    UnderIdentifiedError,
    align,
    assemble,
    fit_gmm,
    from_arrays,
    n_step,
    parse_instruments,
)
from dynpanel.estimators import ONE_STEP, ModelSpec, ExogTerm, build_design
from dynpanel.instruments import (
    _period_block_rank,
    _scaled_rank,
    build_dynamic_block,
    build_static_block,
    intercept_column,
)
from dynpanel.simulate import DgpSpec, fd_od_comparison_configs, generate
from dynpanel.transforms import TransformKind


def balanced(n=4, T=5, seed=0, extra=()):
    rng = np.random.default_rng(seed)
    variables = {"y": rng.standard_normal((n, T))}
    for name in extra:
        variables[name] = rng.standard_normal((n, T))
    return from_arrays([f"e{i}" for i in range(n)], range(1, T + 1), variables)


def fd_sample(data):
    model = ModelSpec("y", ar_lags=1, intercept=False,
                      transform=TransformKind.FIRST_DIFFERENCE)
    return build_design(model, data).sample


# ---------------------------------------------------------------------------
# grammar

def test_parse_grammar():
    spec = parse_instruments("dyn(pp,2),dyn(bv,2,4):collapse,static(bt,0..2),intercept")
    assert spec.dynamic[0] == DynamicInstrument("pp", 2, None, False)
    assert spec.dynamic[1] == DynamicInstrument("bv", 2, 4, True)
    assert spec.static[0] == StaticInstrument("bt", 0, 2)
    assert spec.include_intercept


def test_parse_skips_an_empty_term():
    assert parse_instruments("dyn(y,2),,static(x,0)") == InstrumentSpec(
        (DynamicInstrument("y", 2),), (StaticInstrument("x", 0, 0),), False)


def test_static_lag_range_must_not_run_backwards():
    with pytest.raises(ValueError, match=r"^bad static lag range 2\.\.1$"):
        StaticInstrument("x", 2, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: DynamicInstrument("y", 2.5), "start_lag must be an integer, got 2.5"),
    (lambda: DynamicInstrument("y", True), "start_lag must be an integer, got True"),
    (lambda: DynamicInstrument("y", 2, 3.5), "max_lag must be an integer, got 3.5"),
    (lambda: StaticInstrument("x1", 0.5, 1), "lag_from must be an integer, got 0.5"),
    (lambda: StaticInstrument("x1", 0, 0.5), "lag_to must be an integer, got 0.5"),
], ids=["start_lag", "start_lag-bool", "max_lag", "lag_from", "lag_to"])
def test_instrument_lags_must_be_integers(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_instrument_lags_may_be_numpy_integers():
    assert DynamicInstrument("y", np.int64(2), np.int32(3)) == DynamicInstrument("y", 2, 3)
    assert StaticInstrument("x1", np.int64(0), np.uint8(1)) == StaticInstrument("x1", 0, 1)


def test_parse_single_lag_static():
    spec = parse_instruments("static(bv,1)")
    assert spec.static[0] == StaticInstrument("bv", 1, 1)


def test_parse_rejects_garbage():
    with pytest.raises(DataError, match="cannot parse"):
        parse_instruments("dyn[pp]")


def test_dynamic_validation():
    with pytest.raises(ValueError):
        DynamicInstrument("y", 0)
    with pytest.raises(ValueError):
        DynamicInstrument("y", 3, 2)


# ---------------------------------------------------------------------------
# dynamic blocks

def test_dynamic_block_column_counts_balanced_t5():
    # FD equations at periods 3,4,5; start lag 2, unbounded:
    # available (period, lag) pairs enumerate to 1 + 2 + 3 = 6 columns
    data = balanced()
    sample = fd_sample(data)
    assert sorted(set(sample.periods)) == [3, 4, 5]
    pairs = [
        (t, j)
        for t in (3, 4, 5)
        for j in range(2, 10)
        if t - j >= 1
    ]
    block, labels = build_dynamic_block(data, sample, DynamicInstrument("y", 2))
    assert block.shape[1] == len(pairs) == 6

    block2, _ = build_dynamic_block(data, sample, DynamicInstrument("y", 2, 2))
    assert block2.shape[1] == 3  # one column per period

    block3, labels3 = build_dynamic_block(
        data, sample, DynamicInstrument("y", 2, collapsed=True)
    )
    assert block3.shape[1] == 3  # lags 2..4 stacked across periods
    assert labels3 == ["dyn(y,2)", "dyn(y,3)", "dyn(y,4)"]


def test_dynamic_block_values_and_zero_structure():
    data = balanced()
    sample = fd_sample(data)
    block, labels = build_dynamic_block(data, sample, DynamicInstrument("y", 2))
    y = data.series["y"].values
    for c, label in enumerate(labels):
        lag = int(label.split(",")[1].split(")")[0])
        period = int(label.split("@")[1])
        for r in range(sample.n_rows):
            expected = 0.0
            if sample.periods[r] == period:
                expected = y[sample.entity_ids[r], period - lag - 1]
            assert block[r, c] == pytest.approx(expected)


def test_dynamic_block_only_uses_levels_dated_at_most_t_minus_s():
    data = balanced(T=6)
    sample = fd_sample(data)
    block, labels = build_dynamic_block(data, sample, DynamicInstrument("y", 2))
    for label in labels:
        lag = int(label.split(",")[1].split(")")[0])
        assert lag >= 2


def test_dynamic_block_missing_levels_zero_filled():
    values = np.array([[np.nan, 1.0, 2.0, 3.0, 4.0, 5.0]])
    values = np.vstack([values, np.arange(1.0, 7.0)])
    data = from_arrays(["a", "b"], range(1, 7), {"y": values})
    sample = fd_sample(data)
    block, labels = build_dynamic_block(data, sample, DynamicInstrument("y", 2))
    # entity a's first equation row is period 4; its lag-3 level (y at
    # period 1) is absent and enters the block as zero
    col = labels.index("dyn(y,3)@4")
    row_a = np.flatnonzero((sample.entity_ids == 0) & (sample.periods == 4))
    assert row_a.size == 1
    assert block[row_a[0], col] == 0.0
    row_b = np.flatnonzero((sample.entity_ids == 1) & (sample.periods == 4))
    assert block[row_b[0], col] == pytest.approx(1.0)


def test_dynamic_block_empty_error():
    data = balanced(T=3)
    sample = fd_sample(data)  # only equation period 3
    with pytest.raises(EstimationError, match="empty instrument block"):
        build_dynamic_block(data, sample, DynamicInstrument("y", 5))


def test_collapsed_spans_same_moments_when_depth_is_one():
    # T=3: single FD equation period with a single available lag, so
    # collapsed and uncollapsed blocks are the same column
    data = balanced(T=3)
    sample = fd_sample(data)
    full, _ = build_dynamic_block(data, sample, DynamicInstrument("y", 2))
    coll, _ = build_dynamic_block(data, sample, DynamicInstrument("y", 2, collapsed=True))
    assert np.allclose(full, coll)


def reference_dynamic_block(data, sample, dyn):
    """The period x lag loop builder that ``build_dynamic_block`` replaced."""
    series = data.require(dyn.variable)
    p0 = data.periods[0]
    eq_periods = np.unique(sample.periods)
    n = sample.n_rows

    def level(rows, periods, j):
        col = np.zeros(rows.size)
        src = periods - j - p0
        ok = src >= 0
        ents = sample.entity_ids[rows[ok]]
        col[ok] = np.where(series.mask[ents, src[ok]], series.values[ents, src[ok]], 0.0)
        return col

    cols, labels = [], []
    if dyn.collapsed:
        deepest = max(int(t) - p0 for t in eq_periods)
        if dyn.max_lag is not None:
            deepest = min(deepest, dyn.max_lag)
        all_rows = np.arange(n)
        for j in range(dyn.start_lag, deepest + 1):
            full = np.zeros(n)
            full[all_rows] = level(all_rows, sample.periods, j)
            cols.append(full)
            labels.append(f"dyn({dyn.variable},{j})")
    else:
        for t in eq_periods:
            deepest = int(t) - p0
            if dyn.max_lag is not None:
                deepest = min(deepest, dyn.max_lag)
            rows = np.flatnonzero(sample.periods == t)
            for j in range(dyn.start_lag, deepest + 1):
                full = np.zeros(n)
                full[rows] = level(rows, sample.periods[rows], j)
                cols.append(full)
                labels.append(f"dyn({dyn.variable},{j})@{int(t)}")
    if not cols:
        raise EstimationError(
            f"empty instrument block for dyn({dyn.variable},{dyn.start_lag}): "
            "no usable lags at any equation period"
        )
    return np.column_stack(cols), labels


def outcome(build, *args):
    try:
        return build(*args)
    except DynpanelError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 6),
    T=st.integers(2, 9),
    missing=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
    transform=st.sampled_from([TransformKind.NONE, TransformKind.FIRST_DIFFERENCE,
                               TransformKind.ORTHOGONAL_DEVIATION]),
    variable=st.sampled_from(["y", "x"]),
    start=st.integers(1, 3),
    bound=st.sampled_from([None, 2, 4]),
    collapsed=st.booleans(),
)
def test_dynamic_block_matches_reference(n, T, missing, seed, transform, variable,
                                         start, bound, collapsed):
    assume(bound is None or bound >= start)
    rng = np.random.default_rng(seed)
    grids = {v: rng.standard_normal((n, T)) for v in ("y", "x")}
    for g in grids.values():
        g[rng.random((n, T)) < missing] = np.nan
    try:
        data = from_arrays([f"e{i}" for i in range(n)], range(1, T + 1), grids)
        model = ModelSpec("y", ar_lags=1, intercept=False, transform=transform)
        sample = build_design(model, data).sample
    except DynpanelError:
        assume(False)
    dyn = DynamicInstrument(variable, start, bound, collapsed)
    got = outcome(build_dynamic_block, data, sample, dyn)
    want = outcome(reference_dynamic_block, data, sample, dyn)
    if isinstance(want[0], type):
        assert got == want
        return
    (block, labels), (ref_block, ref_labels) = got, want
    assert labels == ref_labels
    assert block.shape == ref_block.shape and block.dtype == ref_block.dtype
    assert block.tobytes() == ref_block.tobytes()


# ---------------------------------------------------------------------------
# static blocks

def test_static_block_seven_columns_with_intercept():
    data = balanced(T=8, extra=("bv", "bt"))
    model = ModelSpec("y", ar_lags=1, exogenous=(ExogTerm("bv"), ExogTerm("bt")),
                      intercept=True, transform=TransformKind.NONE)
    sample = build_design(model, data).sample
    spec = InstrumentSpec(
        static=(StaticInstrument("bv", 0, 2), StaticInstrument("bt", 0, 2)),
        include_intercept=True,
    )
    zmat = assemble(spec, data, sample)
    assert zmat.n_columns == 7
    assert zmat.labels[0] == "const"
    assert np.all(zmat.matrix[:, 0] == 1.0)


def test_static_block_intercept_only():
    data = balanced()
    sample = fd_sample(data)
    spec = InstrumentSpec(include_intercept=True)
    zmat = assemble(spec, data, sample, transform=TransformKind.NONE)
    assert zmat.n_columns == 1
    assert np.all(zmat.matrix == 1.0)


def test_static_lag_exceeding_depth():
    data = balanced(T=5)
    sample = fd_sample(data)
    with pytest.raises(DataError, match="exceeds panel depth"):
        build_static_block(data, sample, StaticInstrument("y", 5, 5))


def test_static_lag_values():
    data = balanced(T=6)
    sample = fd_sample(data)
    block, labels = build_static_block(data, sample, StaticInstrument("y", 2, 2))
    assert labels == ["y(-2)"]
    y = data.series["y"].values
    for r in range(sample.n_rows):
        assert block[r, 0] == pytest.approx(
            y[sample.entity_ids[r], sample.periods[r] - 2 - 1]
        )


# ---------------------------------------------------------------------------
# assembly

def test_assemble_prunes_annihilated_intercept():
    data = balanced(T=6)
    model = ModelSpec("y", ar_lags=1, intercept=False,
                      transform=TransformKind.WITHIN, effects="fixed")
    base = ModelSpec("y", ar_lags=1, intercept=False, transform=TransformKind.NONE)
    sample = build_design(base, data).sample
    spec = InstrumentSpec(
        static=(StaticInstrument("y", 2, 2),), include_intercept=True
    )
    zmat = assemble(spec, data, sample, transform=TransformKind.WITHIN)
    assert "const" in zmat.pruned
    assert "const" not in zmat.labels


def test_an_intercept_alone_under_fd_is_pruned_to_nothing():
    data = balanced(T=6)
    model = ModelSpec("y", ar_lags=1, intercept=False, transform=TransformKind.FIRST_DIFFERENCE)
    with pytest.raises(EstimationError) as info:
        fit_gmm(model, data, InstrumentSpec(include_intercept=True))
    assert str(info.value) == "all instrument columns were pruned"


def test_a_static_lag_with_no_present_value_in_the_sample_is_a_data_error():
    # z is observed only in the last period, so its lag 1 misses every sample row
    data = balanced(T=6)
    mask = np.zeros((data.n_entities, data.n_periods), dtype=bool)
    mask[:, -1] = True
    z = PanelSeries(np.where(mask, 1.0, np.nan), mask)
    data = PanelDataset(data.entities, data.periods, {**data.series, "z": z})
    spec = InstrumentSpec(static=(StaticInstrument("y", 2, 2), StaticInstrument("z", 1, 1)))
    model = ModelSpec("y", ar_lags=1, intercept=False, transform=TransformKind.FIRST_DIFFERENCE)
    with pytest.raises(DataError) as info:
        fit_gmm(model, data, spec)
    assert str(info.value) == "static instrument 'z' lag 1 has no present values"


def test_a_pruned_intercept_leaves_the_within_fit_bit_for_bit(brand_panel):
    model = ModelSpec("pp", 1, (ExogTerm("bv"), ExogTerm("bt")),
                      transform=TransformKind.WITHIN)
    static = tuple(StaticInstrument(v, 0, 2) for v in ("bv", "bt"))
    pruned, plain = (
        fit_gmm(model, brand_panel, InstrumentSpec(static=static, include_intercept=i),
                weighting=n_step(max_iter=500), on_singular="pinv")
        for i in (True, False)
    )
    assert (pruned.instruments.pruned, plain.instruments.pruned) == (("const",), ())
    assert pruned.instruments.matrix.flags.c_contiguous
    assert pruned.steps_taken == plain.steps_taken
    for name in ("coefficients", "standard_errors", "covariance", "residuals",
                 "weighting_matrix"):
        assert getattr(pruned, name).tobytes() == getattr(plain, name).tobytes(), name


def test_fit_gmm_under_identified():
    data = balanced(n=6, T=6, extra=("x1", "x2"))
    model = ModelSpec("y", ar_lags=1, exogenous=(ExogTerm("x1"), ExogTerm("x2")),
                      intercept=False, transform=TransformKind.FIRST_DIFFERENCE)
    spec = InstrumentSpec(static=(StaticInstrument("y", 2, 2),))
    with pytest.raises(UnderIdentifiedError, match=r"1 instrument column\(s\) for 3 regressors"):
        fit_gmm(model, data, spec)


def test_assemble_empty_spec():
    data = balanced()
    sample = fd_sample(data)
    with pytest.raises(EstimationError, match="empty"):
        assemble(InstrumentSpec(), data, sample)


def test_assemble_order_condition_reported():
    data = balanced(n=6, T=6)
    sample = fd_sample(data)
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2),))
    zmat = assemble(spec, data, sample)
    assert zmat.rank >= 1
    assert zmat.n_columns == len(zmat.labels)


# ---------------------------------------------------------------------------
# rank: certified from the Gram or by period blocks, else matrix_rank of the
# scaled columns

def scaled_matrix_rank(Z):
    """The rank ``assemble`` reports: that of each column over its largest magnitude."""
    return int(np.linalg.matrix_rank(Z / np.max(np.abs(Z), axis=0)))


def assemble_columns(Z):
    """``assemble`` over Z's columns as lag-0 static instruments, one row per entity."""
    names = [f"z{j}" for j in range(Z.shape[1])]
    data = from_arrays([f"e{i:03d}" for i in range(Z.shape[0])], [1],
                       {name: Z[:, j:j + 1] for j, name in enumerate(names)})
    spec = InstrumentSpec(static=tuple(StaticInstrument(name) for name in names))
    return assemble(spec, data, align(data, names))


def rank_fallbacks(monkeypatch):
    """Shapes of the matrices ``instruments`` hands to ``matrix_rank`` from now on."""
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counted(M, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "dynpanel.instruments":
            calls.append(M.shape)
        return matrix_rank(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    return calls


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    M=st.integers(1, 400),
    L=st.integers(1, 12),
    k=st.integers(0, 16),
    spread=st.sampled_from([0, 10, 100, 150]),
    seed=st.integers(0, 2**16),
)
def test_the_rank_is_matrix_ranks_of_the_scaled_columns(M, L, k, spread, seed):
    # k > 0 plants a dependency: the last column is a mix of the others
    # plus noise at 10^-k of the mix, a singular value ratio near 10^-k;
    # then columns are scaled by up to 10^+-spread
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((M, L))
    if k and L > 1:
        mix = Z[:, :-1] @ rng.standard_normal(L - 1)
        noise = rng.standard_normal(M)
        Z[:, -1] = mix + 10.0**-k * np.linalg.norm(mix) / np.linalg.norm(noise) * noise
    Z *= 10.0 ** rng.uniform(-spread, spread, L)
    zmat = assemble_columns(Z)
    assert zmat.rank == scaled_matrix_rank(zmat.matrix)


def test_a_duplicate_column_leaves_the_rank_one_short():
    Z = np.random.default_rng(0).standard_normal((50, 4))
    Z[:, 3] = Z[:, 1]
    zmat = assemble_columns(Z)
    assert zmat.rank == scaled_matrix_rank(zmat.matrix) == 3


def test_a_column_at_1e_12_of_anothers_scale_is_certified_full_rank(monkeypatch):
    Z = np.random.default_rng(1).standard_normal((50, 3))
    Z[:, 2] *= 1e-12
    calls = rank_fallbacks(monkeypatch)
    zmat = assemble_columns(Z)
    assert (zmat.rank, calls) == (3, [])
    assert scaled_matrix_rank(zmat.matrix) == 3


def test_a_dependent_pair_whose_gram_underflows_takes_the_fallback(monkeypatch):
    # at 1e-160 the Gram's products are subnormal and keep few digits, so
    # the Cholesky of z and 3 z's scaled Gram passes the certificate's bound:
    # the column magnitude check must send it to matrix_rank
    v = np.random.default_rng(1).standard_normal(20)
    calls = rank_fallbacks(monkeypatch)
    zmat = assemble_columns(1e-160 * np.column_stack([v, 3.0 * v]))
    assert zmat.rank == scaled_matrix_rank(zmat.matrix) == 1
    assert calls == [(20, 2)]


@pytest.mark.parametrize("cell", [np.inf, -np.inf, np.nan])
def test_a_non_finite_cell_takes_the_matrix_rank_fallback(cell, monkeypatch):
    Z = np.random.default_rng(2).standard_normal((30, 3))
    Z[4, 1] = cell
    with pytest.raises(np.linalg.LinAlgError) as want, np.errstate(invalid="ignore"):
        scaled_matrix_rank(Z)
    calls = rank_fallbacks(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError) as got, np.errstate(invalid="ignore"):
        _scaled_rank(Z, Z.T @ Z, np.max(np.abs(Z), axis=0))
    assert str(got.value) == str(want.value)
    assert calls == [Z.shape]


def test_the_gram_is_the_pruned_matrixs_product_and_read_only(brand_panel):
    model = ModelSpec("pp", 1, intercept=False, transform=TransformKind.FIRST_DIFFERENCE)
    spec = InstrumentSpec(dynamic=(DynamicInstrument("pp", 2),), include_intercept=True)
    zmat = assemble(spec, brand_panel, build_design(model, brand_panel).sample,
                    transform=TransformKind.FIRST_DIFFERENCE)
    assert zmat.pruned == ("const",)
    assert zmat.gram.tobytes() == (zmat.matrix.T @ zmat.matrix).tobytes()
    assert not zmat.gram.flags.writeable


def test_the_comparison_fits_certify_their_rank(monkeypatch):
    data = generate(DgpSpec(500, 11, rho=0.85))
    calls = rank_fallbacks(monkeypatch)
    fits = [config.fit(data) for config in fd_od_comparison_configs()]
    assert calls == []
    assert all(fit.instruments.full_rank for fit in fits)


@pytest.mark.parametrize("transform, rank, n_columns", [
    (TransformKind.ORTHOGONAL_DEVIATION, 107, 108),
    (TransformKind.FIRST_DIFFERENCE, 131, 135),
], ids=["od", "fd"])
def test_the_brand_panels_gmm_fits_certify_their_rank_by_period_blocks(
        transform, rank, n_columns, monkeypatch, brand_panel):
    # more lag columns than firms in the late periods: the Gram's Cholesky
    # fails, and each period block certifies its own rank instead
    model = ModelSpec("pp", 1, (ExogTerm("bv"), ExogTerm("bt")), intercept=False,
                      transform=transform)
    spec = InstrumentSpec(dynamic=tuple(DynamicInstrument(v, 2) for v in ("pp", "bv", "bt")))
    calls = rank_fallbacks(monkeypatch)
    fit = fit_gmm(model, brand_panel, spec, weighting=ONE_STEP, on_singular="pinv")
    assert calls == []
    zmat = fit.instruments
    assert (zmat.rank, zmat.n_columns) == (rank, n_columns)
    assert zmat.rank == scaled_matrix_rank(zmat.matrix)
    assert not zmat.full_rank


def test_duplicate_series_send_dynamic_blocks_to_the_matrix_rank_fallback(monkeypatch):
    # x == y: each period block holds each column twice, so no block certifies
    data = balanced(n=8, T=6)
    data = from_arrays(data.entities, data.periods,
                       {"y": data.series["y"].values, "x": data.series["y"].values})
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2), DynamicInstrument("x", 2)))
    calls = rank_fallbacks(monkeypatch)
    zmat = assemble(spec, data, fd_sample(data))
    assert calls == [zmat.matrix.shape]
    assert zmat.rank == scaled_matrix_rank(zmat.matrix) == zmat.n_columns // 2


def test_a_period_block_below_the_floor_sends_the_rank_to_matrix_rank(monkeypatch):
    # period 2's block [[1, 1], [1, 1 - 1e-5]] certifies its sigma_min at
    # 5.0e-6, under the floor 1e3 max(M, L) eps ||Zs||_F = 2.2e-5 that the
    # 100,000 rows of period 1 set: the blocks give up, and so does the Gram
    rng = np.random.default_rng(3)
    Z = np.zeros((100_002, 12))
    Z[:100_000, :10] = rng.choice([-1.0, 1.0], (100_000, 10))
    Z[100_000:, 10:] = [[1.0, 1.0], [1.0, 1.0 - 1e-5]]
    periods = np.repeat([1, 2], [100_000, 2])
    top = np.max(np.abs(Z), axis=0)
    gram = Z.T @ Z
    assert _period_block_rank(Z, gram / np.outer(top, top), top, periods) is None
    calls = rank_fallbacks(monkeypatch)
    assert _scaled_rank(Z, gram, top, periods) == scaled_matrix_rank(Z) == 12
    assert calls == [Z.shape]


def dynamic_panel(n, T, spans, seed, n_vars, spread, dependency):
    """Random panel of ``n_vars`` series on ``spans`` cells ("balanced",
    "ragged" contiguous runs or "gapped" scattered gaps), every series'
    period p scaled by one 10^u_p, |u_p| <= spread; ``dependency`` k makes
    the last series 2 y, plus noise at 10^-k of y's scale when k > 0."""
    rng = np.random.default_rng(seed)
    present = np.ones((n, T), dtype=bool)
    if spans == "ragged":
        first = rng.integers(0, T - 2, n)
        last = rng.integers(first + 3, T + 1)
        present = (np.arange(T) >= first[:, None]) & (np.arange(T) < last[:, None])
    elif spans == "gapped":
        present = rng.random((n, T)) >= 0.2
    series = [rng.standard_normal((n, T)) for _ in range(n_vars)]
    if dependency is not None and n_vars > 1:
        series[-1] = 2.0 * series[0]
        if dependency:
            series[-1] += 10.0**-dependency * rng.standard_normal((n, T))
    scale = 10.0 ** rng.uniform(-spread, spread, T)
    names = ["y", "x", "w"][:n_vars]
    return from_arrays([f"e{i:02d}" for i in range(n)], range(1, T + 1),
                       {name: np.where(present, v * scale, np.nan)
                        for name, v in zip(names, series)})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n=st.integers(3, 40),
    T=st.integers(3, 10),
    spans=st.sampled_from(["balanced", "ragged", "gapped"]),
    seed=st.integers(0, 2**16),
    n_vars=st.integers(1, 3),
    bound=st.sampled_from([None, 2, 3, 5]),
    spread=st.sampled_from([0, 10, 100, 150]),
    dependency=st.sampled_from([None, 0, 2, 8, 12, 14, 16]),
    transform=st.sampled_from([TransformKind.FIRST_DIFFERENCE,
                               TransformKind.ORTHOGONAL_DEVIATION]),
)
def test_a_dynamic_only_rank_is_matrix_ranks_of_the_scaled_columns(
        n, T, spans, seed, n_vars, bound, spread, dependency, transform):
    data = dynamic_panel(n, T, spans, seed, n_vars, spread, dependency)
    model = ModelSpec("y", ar_lags=1, intercept=False, transform=transform)
    spec = InstrumentSpec(dynamic=tuple(DynamicInstrument(name, 2, bound)
                                        for name in data.series))
    try:
        zmat = assemble(spec, data, build_design(model, data).sample)
    except DynpanelError:
        assume(False)
    assert zmat.rank == scaled_matrix_rank(zmat.matrix)


def test_sample_orthogonality_shrinks_with_n():
    # E[Z'eps] = 0 under the model; the sample analogue shrinks with N
    def max_moment(n):
        dgp = DgpSpec(n_entities=n, n_periods=8, rho=0.5, seed=77)
        data = generate(dgp)
        model = ModelSpec("y", ar_lags=1, exogenous=(ExogTerm("x1"),),
                          intercept=False,
                          transform=TransformKind.ORTHOGONAL_DEVIATION)
        design = build_design(model, data)
        spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2),),
                              static=(StaticInstrument("x1", 0, 0),))
        Z = assemble(spec, data, design.sample,
                     transform=TransformKind.ORTHOGONAL_DEVIATION).matrix
        eps = design.y - design.X @ np.array([0.5, 1.0])
        return float(np.max(np.abs(Z.T @ eps / design.n)))

    g50, g500 = max_moment(50), max_moment(500)
    assert g500 < g50
    assert g500 < 0.2


def static_lag_by_entity_loop(data, sample, variable, lag, thetas):
    """Reference: a static lag demeaned entity by entity over the rows
    where it is present, zero on the rows where it is absent."""
    series = data.series[variable]
    src = sample.periods - data.periods[0] - lag
    ok = src >= 0
    values = np.where(ok, series.values[sample.entity_ids, src.clip(0)], np.nan)
    present = ok & series.mask[sample.entity_ids, src.clip(0)]
    out = np.zeros(sample.n_rows)
    for e in np.unique(sample.entity_ids):
        rows = (sample.entity_ids == e) & present
        if rows.any():
            out[rows] = values[rows] - thetas[e] * values[rows].mean()
    return out, present


@pytest.mark.parametrize("transform", [TransformKind.WITHIN, TransformKind.QUASI_DEMEAN])
def test_static_block_demeans_present_rows_by_entity(transform):
    data = generate(DgpSpec(n_entities=30, n_periods=8, rho=0.5,
                            missingness=0.2, seed=41))
    model = ModelSpec("y", ar_lags=1, exogenous=(ExogTerm("x1"),), intercept=False)
    sample = build_design(model, data).sample
    rng = np.random.default_rng(5)
    if transform is TransformKind.WITHIN:
        thetas, theta_arg = np.ones(data.n_entities), None
    else:
        thetas = theta_arg = rng.uniform(0.1, 0.9, data.n_entities)
    block, labels = build_static_block(
        data, sample, StaticInstrument("x1", 0, 3), transform, theta_arg
    )
    assert labels == ["x1", "x1(-1)", "x1(-2)", "x1(-3)"]
    mixed = 0
    for j in range(4):
        expected, present = static_lag_by_entity_loop(data, sample, "x1", j, thetas)
        mixed += sum(
            present[sample.entity_ids == e].any() and not present[sample.entity_ids == e].all()
            for e in np.unique(sample.entity_ids)
        )
        assert np.all(block[~present, j] == 0.0)
        scale = np.abs(expected).max()
        assert np.allclose(block[:, j], expected, rtol=0, atol=1e-13 * scale)
    # the deeper lags are absent on some sample rows of entities that
    # still have present rows, so the present-rows-only mean is exercised
    assert mixed > 10


def test_quasi_demeaned_instruments_need_theta():
    data = balanced(extra=("x",))
    sample = fd_sample(data)
    with pytest.raises(ValueError, match="need.* theta"):
        intercept_column(sample, TransformKind.QUASI_DEMEAN)
    with pytest.raises(ValueError, match="need.* theta"):
        build_static_block(data, sample, StaticInstrument("x"), TransformKind.QUASI_DEMEAN)
