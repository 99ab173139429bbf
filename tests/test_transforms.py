import numpy as np
import pytest

from dynpanel.transforms import TransformKind, apply_grid, demean_by_entity, lag, reconstruct_levels

from suite_helpers import demean_grid, grid


def vec(values):
    s = grid([values])
    return s.values[0], s.mask[0]


def first_difference(v, m):
    """``apply_grid`` FD of one entity's vector, as a one-row grid."""
    out_v, out_m = apply_grid(TransformKind.FIRST_DIFFERENCE, v[None], m[None])
    return out_v[0], out_m[0]


def orthogonal_deviation(v, m):
    """``apply_grid`` OD of one entity's vector, as a one-row grid."""
    out_v, out_m = apply_grid(TransformKind.ORTHOGONAL_DEVIATION, v[None], m[None])
    return out_v[0], out_m[0]


def transform(kind, values, mask):
    """A grid through ``apply_grid``, or ``demean_by_entity`` for WITHIN."""
    if kind is TransformKind.WITHIN:
        return demean_grid(values, mask), mask
    return apply_grid(kind, values, mask)


# ---------------------------------------------------------------------------
# lag

def test_lag_shifts():
    v, m = vec([1, 2, 4])
    out_v, out_m = lag(v, m, 1)
    assert list(out_m) == [False, True, True]
    assert out_v[1] == 1 and out_v[2] == 2


def test_lag_gap_propagates():
    v, m = vec([1, None, 3])
    out_v, out_m = lag(v, m, 1)
    assert list(out_m) == [False, True, False]


def test_lag_two_on_eleven():
    v, m = vec(list(range(11)))
    _, out_m = lag(v, m, 2)
    assert out_m.sum() == 9


def test_lag_requires_positive_k():
    v, m = vec([1, 2])
    with pytest.raises(ValueError):
        lag(v, m, 0)


def test_lag_shifts_each_row_of_a_grid():
    g = grid([[1, 2, None, 4], [5, None, 7, 8]])
    out_v, out_m = lag(g.values, g.mask, 2)
    for i in range(2):
        row_v, row_m = lag(g.values[i], g.mask[i], 2)
        assert np.array_equal(out_m[i], row_m)
        assert np.array_equal(out_v[i], row_v, equal_nan=True)
    assert np.array_equal(lag(g.values, g.mask, 4)[1], np.zeros((2, 4), dtype=bool))


# ---------------------------------------------------------------------------
# first difference

def test_fd_basic():
    v, m = vec([1, 2, 4])
    out_v, out_m = first_difference(v, m)
    assert list(out_m) == [False, True, True]
    assert list(out_v[1:]) == [1, 2]


def test_fd_constant_annihilated():
    v, m = vec([5, 5, 5, 5])
    out_v, out_m = first_difference(v, m)
    assert np.all(out_v[out_m] == 0)


def test_fd_gap_kills_both_pairs():
    v, m = vec([5, None, 9])
    _, out_m = first_difference(v, m)
    assert not out_m.any()


# ---------------------------------------------------------------------------
# forward orthogonal deviation

def test_od_two_points():
    v, m = vec([1, 2])
    out_v, out_m = orthogonal_deviation(v, m)
    assert list(out_m) == [True, False]
    assert out_v[0] == pytest.approx(-0.7071067811865476)  # sqrt(1/2) * (1 - 2)


def test_od_three_points():
    v, m = vec([3, 1, 2])
    out_v, out_m = orthogonal_deviation(v, m)
    # t=0: sqrt(2/3) * (3 - 1.5); t=1: sqrt(1/2) * (1 - 2)
    assert out_v[0] == pytest.approx(1.224744871391589)
    assert out_v[1] == pytest.approx(-0.7071067811865476)
    assert not out_m[2]


def test_od_constant_annihilated():
    v, m = vec([4, 4, 4, 4])
    out_v, out_m = orthogonal_deviation(v, m)
    assert out_m.sum() == 3
    assert np.allclose(out_v[out_m], 0.0)


def test_od_skips_interior_gaps():
    v, m = vec([1, None, 2, 4])
    out_v, out_m = orthogonal_deviation(v, m)
    # t=0 uses later present {2, 4}
    assert out_v[0] == pytest.approx(np.sqrt(2 / 3) * (1 - 3))
    assert list(out_m) == [True, False, True, False]


def test_od_output_length_matches_fd_on_gap_free():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(9)
    m = np.ones(9, dtype=bool)
    _, od_m = orthogonal_deviation(v, m)
    _, fd_m = first_difference(v, m)
    assert od_m.sum() == fd_m.sum() == 8


def test_od_single_observation_empty():
    v, m = vec([7])
    _, out_m = orthogonal_deviation(v, m)
    assert not out_m.any()


# ---------------------------------------------------------------------------
# demeaning

def test_within_demean():
    v, m = vec([1, 2, 3])
    out_v = demean_grid(v[None], m[None])[0]
    assert list(out_v) == [-1, 0, 1]


def test_within_single_observation():
    v, m = vec([9])
    out_v = demean_grid(v[None], m[None])[0]
    assert out_v[0] == 0


def test_within_per_entity_means():
    g = grid([[9, 10, 11], [19, 20, 21]])
    out_v = demean_grid(g.values, g.mask)
    assert np.allclose(out_v[0], [-1, 0, 1])
    assert np.allclose(out_v[1], [-1, 0, 1])


def test_quasi_demean_theta_zero_is_identity():
    v, m = vec([2, 4])
    out_v = demean_grid(v[None], m[None], 0.0)[0]
    assert np.allclose(out_v[m], [2, 4])


def test_quasi_demean_theta_one_is_within():
    v, m = vec([2, 4, 9])
    q = demean_grid(v[None], m[None], 1.0)[0]
    w = demean_grid(v[None], m[None])[0]
    assert np.allclose(q[m], w[m])


def test_quasi_demean_half():
    v, m = vec([2, 4])
    out_v = demean_grid(v[None], m[None], 0.5)[0]
    assert np.allclose(out_v[m], [0.5, 2.5])  # mean 3, subtract 1.5


def test_quasi_demean_bad_theta():
    v, m = vec([1, 2])
    with pytest.raises(ValueError):
        demean_grid(v[None], m[None], 1.5)


@pytest.mark.parametrize("kind", [TransformKind.NONE, TransformKind.WITHIN,
                                  TransformKind.QUASI_DEMEAN])
def test_apply_grid_runs_fd_and_od_only(kind):
    g = grid([[1, 2, 3]])
    with pytest.raises(ValueError, match="FD and OD only"):
        apply_grid(kind, g.values, g.mask)


# ---------------------------------------------------------------------------
# level reconstruction

def test_reconstruct_fd_identity():
    g = grid([[1, 3, 6, 10], [2, None, 5, 9]])
    fd_v, fd_m = apply_grid(TransformKind.FIRST_DIFFERENCE, g.values, g.mask)
    rec, rec_m = reconstruct_levels(fd_v, fd_m, g.values, g.mask,
                                    TransformKind.FIRST_DIFFERENCE)
    assert np.array_equal(rec_m, fd_m)
    assert np.allclose(rec[rec_m], g.values[rec_m])


def test_reconstruct_od_identity():
    g = grid([[3, 1, 2, 7], [5, None, 2, 4]])
    od_v, od_m = apply_grid(TransformKind.ORTHOGONAL_DEVIATION, g.values, g.mask)
    rec, rec_m = reconstruct_levels(od_v, od_m, g.values, g.mask,
                                    TransformKind.ORTHOGONAL_DEVIATION)
    assert np.array_equal(rec_m, od_m)
    assert np.allclose(rec[rec_m], g.values[rec_m], atol=1e-12)


def test_reconstruct_fd_zero_fit_gives_lagged_actuals():
    g = grid([[1, 3, 6]])
    zeros = np.zeros_like(g.values)
    m = np.array([[False, True, True]])
    rec, rec_m = reconstruct_levels(zeros, m, g.values, g.mask,
                                    TransformKind.FIRST_DIFFERENCE)
    assert np.allclose(rec[rec_m], [1, 3])


def test_reconstruct_rejects_other_kinds():
    g = grid([[1, 2]])
    with pytest.raises(ValueError):
        reconstruct_levels(g.values, g.mask, g.values, g.mask, TransformKind.WITHIN)


# ---------------------------------------------------------------------------
# algebraic properties on random unbalanced panels

KINDS = [
    TransformKind.WITHIN,
    TransformKind.FIRST_DIFFERENCE,
    TransformKind.ORTHOGONAL_DEVIATION,
]


def random_panel(rng, n_entities=4, n_periods=8):
    values = rng.standard_normal((n_entities, n_periods))
    mask = rng.random((n_entities, n_periods)) > 0.25
    for i in range(n_entities):  # keep >= 2 present per entity
        if mask[i].sum() < 2:
            mask[i, :2] = True
    values[~mask] = np.nan
    return values, mask


def test_linearity_and_annihilation_properties():
    rng = np.random.default_rng(42)
    for _ in range(60):
        x, m = random_panel(rng)
        y = rng.standard_normal(x.shape)
        y[~m] = np.nan
        a, b = rng.standard_normal(2)
        const = np.where(m, 3.7, np.nan)
        for kind in KINDS:
            tx, tm = transform(kind, x, m)
            ty, _ = transform(kind, y, m)
            tz, _ = transform(kind, a * x + b * y, m)
            assert np.allclose(tz[tm], (a * tx + b * ty)[tm], atol=1e-10)
            cv, cm = transform(kind, const, m)
            assert np.allclose(cv[cm], 0.0, atol=1e-10)


def test_no_cross_entity_mixing():
    rng = np.random.default_rng(5)
    x, m = random_panel(rng, n_entities=3)
    for kind in KINDS:
        whole_v, whole_m = transform(kind, x, m)
        for i in range(3):
            solo_v, solo_m = transform(kind, x[i:i+1], m[i:i+1])
            assert np.array_equal(whole_m[i], solo_m[0])
            assert np.allclose(
                whole_v[i][whole_m[i]], solo_v[0][solo_m[0]], equal_nan=True
            )


def test_white_noise_serial_correlation_signature():
    # FD induces lag-1 autocorrelation -0.5 on white noise; OD does not
    rng = np.random.default_rng(12)
    values = rng.standard_normal((500, 12))
    mask = np.ones(values.shape, dtype=bool)

    def pooled_lag1(v, m):
        a, b = [], []
        for i in range(v.shape[0]):
            p = np.flatnonzero(m[i])
            for t1, t2 in zip(p, p[1:]):
                if t2 - t1 == 1:
                    a.append(v[i, t1])
                    b.append(v[i, t2])
        return float(np.corrcoef(a, b)[0, 1])

    fd_v, fd_m = apply_grid(TransformKind.FIRST_DIFFERENCE, values, mask)
    od_v, od_m = apply_grid(TransformKind.ORTHOGONAL_DEVIATION, values, mask)
    assert pooled_lag1(fd_v, fd_m) == pytest.approx(-0.5, abs=0.05)
    assert pooled_lag1(od_v, od_m) == pytest.approx(0.0, abs=0.05)


# ---------------------------------------------------------------------------
# whole-grid transforms against a per-entity reference loop

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp


def reference_fd(values, mask):
    out_v = np.full(values.shape, np.nan)
    out_m = np.zeros(mask.shape, dtype=bool)
    for i in range(values.shape[0]):
        both = mask[i, 1:] & mask[i, :-1]
        out_v[i, 1:][both] = values[i, 1:][both] - values[i, :-1][both]
        out_m[i, 1:] = both
    return out_v, out_m


def reference_od(values, mask, fitted=None, fitted_mask=None):
    """OD by a backward running sum per entity; with ``fitted`` given,
    the OD level reconstruction anchored on ``values`` instead."""
    out_v = np.full(values.shape, np.nan)
    out_m = np.zeros(mask.shape, dtype=bool)
    for i in range(values.shape[0]):
        later_sum, later_n = 0.0, 0
        for t in np.flatnonzero(mask[i])[::-1]:
            if later_n > 0 and (fitted is None or fitted_mask[i, t]):
                c = np.sqrt(later_n / (later_n + 1.0))
                if fitted is None:
                    out_v[i, t] = c * (values[i, t] - later_sum / later_n)
                else:
                    out_v[i, t] = fitted[i, t] / c + later_sum / later_n
                out_m[i, t] = True
            later_sum += values[i, t]
            later_n += 1
    return out_v, out_m


def reference_demean(values, mask, thetas):
    out_v = np.full(values.shape, np.nan)
    for i in range(values.shape[0]):
        if mask[i].any():
            out_v[i][mask[i]] = values[i][mask[i]] - thetas[i] * values[i][mask[i]].mean()
    return out_v, mask.copy()


@st.composite
def gapped_grids(draw, extra=0):
    """(values, mask, *extra grids) on one random entity x period shape."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 9)))
    cells = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    out = []
    for _ in range(1 + extra):
        mask = draw(hnp.arrays(np.bool_, shape))
        out += [np.where(mask, draw(hnp.arrays(np.float64, shape, elements=cells)), np.nan), mask]
    return tuple(out)


def assert_bit_equal(got, want):
    assert np.array_equal(got[1], want[1])
    assert got[0].tobytes() == want[0].tobytes()


GRID_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


@GRID_SETTINGS
@given(gapped_grids())
def test_grid_fd_matches_entity_loop_bitwise(case):
    values, mask = case
    assert_bit_equal(apply_grid(TransformKind.FIRST_DIFFERENCE, values, mask),
                     reference_fd(values, mask))


@GRID_SETTINGS
@given(gapped_grids())
def test_grid_od_matches_entity_loop_bitwise(case):
    values, mask = case
    assert_bit_equal(apply_grid(TransformKind.ORTHOGONAL_DEVIATION, values, mask),
                     reference_od(values, mask))


@GRID_SETTINGS
@given(gapped_grids(extra=1))
def test_grid_od_reconstruction_matches_entity_loop_bitwise(case):
    actual, actual_mask, fitted, fitted_mask = case
    got = reconstruct_levels(fitted, fitted_mask, actual, actual_mask,
                             TransformKind.ORTHOGONAL_DEVIATION)
    assert_bit_equal(got, reference_od(actual, actual_mask, fitted, fitted_mask))


@GRID_SETTINGS
@given(gapped_grids(), st.data())
def test_demean_by_entity_matches_entity_loop(case, data):
    values, mask = case
    n = values.shape[0]
    thetas = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    scale = 1e-12 * max(1.0, float(np.abs(values[mask]).max(initial=0.0)))
    for theta, ref_theta in (
        (1.0, np.ones(n)),
        (thetas, thetas),
        (float(thetas[0]), np.full(n, thetas[0])),
    ):
        got_v = demean_grid(values, mask, theta)
        want_v, _ = reference_demean(values, mask, ref_theta)
        assert np.isnan(got_v[~mask]).all()
        assert np.allclose(got_v[mask], want_v[mask], rtol=0.0, atol=scale)


def test_demean_by_entity_rejects_theta_outside_unit_interval():
    with pytest.raises(ValueError, match="theta"):
        demean_by_entity(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1]),
                         np.array([0.5, 1.5]))
