"""The two-step and n-step GMM iteration of ``fit_gmm``.

When the moment covariance U'U is singular from the start, ``fit_gmm``
takes each step's scores from the one-step entity cross-moments and keeps
the pseudo-inverse weight as a factor F with W = F F'. ``reference_gmm``
below is the direct per-step form of the same estimator: scores by
``reduceat`` at every step, the L x L (pseudo-)inverse weight, and
``cho_factor``/``cho_solve``. The fits must agree with it to 1e-10, and
bit for bit when U'U is nonsingular.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dynpanel import (
    DynamicInstrument,
    EstimationError,
    InstrumentSpec,
    ONE_STEP,
    StaticInstrument,
    TWO_STEP,
    fit_gmm,
    n_step,
)
from dynpanel import estimators
from dynpanel.estimators import (
    ExogTerm,
    ModelSpec,
    _cross_moments,
    _one_step_weight_blocks,
    _scores,
    _windmeijer_correct,
    build_design,
)
from dynpanel.instruments import assemble
from dynpanel.panel import PanelDataset, PanelSeries
from dynpanel.simulate import DgpSpec, ar1_model, generate
from dynpanel.transforms import TransformKind, entity_starts

FD, OD = TransformKind.FIRST_DIFFERENCE, TransformKind.ORTHOGONAL_DEVIATION


def _cho(A, B):
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), B)


def reference_gmm(model, data, spec, weighting, windmeijer=False):
    """GMM with the per-step loop; raises EstimationError when n-step does not converge.

    Returns the coefficients, standard errors, final weight and its rank,
    the step count and the coefficient sup-norm trace.
    """
    design = build_design(model, data)
    X, y = design.X, design.y
    zmat = assemble(spec, data, design.sample, transform=model.transform,
                    n_regressors=X.shape[1])
    Z = zmat.matrix
    starts = entity_starts(design.entity_ids)
    full_rank = zmat.rank == zmat.n_columns
    G, v = Z.T @ X, Z.T @ y

    def scores(e):
        return np.add.reduceat(Z * e[:, None], starts, axis=0)

    def invert(A, U=None):
        if full_rank and (U is None or U.shape[0] >= U.shape[1]):
            A = U.T @ U if A is None else A
            try:
                return _cho(A, np.eye(A.shape[0])), A.shape[0]
            except np.linalg.LinAlgError:
                pass
        if U is None:
            w, V = np.linalg.eigh(A)
        else:
            V, s, _ = np.linalg.svd(U.T, full_matrices=False)
            w = s * s
        keep = w > 1e-12 * max(w.max(), 0.0)
        return (V[:, keep] / w[keep]) @ V[:, keep].T, int(keep.sum())

    def solve(W):
        GW = G.T @ W
        return _cho(GW @ G, GW @ v)

    W1, rank = invert(_one_step_weight_blocks(design, Z))
    W, beta, steps, trace = W1, solve(W1), 1, []
    if weighting.kind != "one_step":
        for _ in range(1 if weighting.kind == "two_step" else weighting.max_iter):
            U_prev = scores(y - X @ beta)
            W, rank = invert(None, U_prev)
            beta_new = solve(W)
            steps += 1
            trace.append(float(np.max(np.abs(beta_new - beta))))
            beta = beta_new
            if weighting.kind == "n_step" and trace[-1] < weighting.tol:
                break
        else:
            if weighting.kind == "n_step":
                raise EstimationError("n-step GMM did not converge")
    U = scores(y - X @ beta)
    GW = G.T @ W
    P_inv = _cho(GW @ G, np.eye(X.shape[1]))
    Q = P_inv @ GW
    cov = Q @ (U.T @ U) @ Q.T
    if windmeijer and steps > 1:
        cov = _windmeijer_correct(X, Z, starts, W, W1, U_prev, U, G, P_inv, cov)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return {"coef": beta, "se": se, "W": W, "rank": rank, "steps": steps, "trace": trace}


def _max_rel(got, want, scale=None):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if scale is None:
        return float(np.max(np.abs(got - want) / np.abs(want)))
    return float(np.max(np.abs(got - want)) / scale)


WEIGHTINGS = {
    "n-step": (n_step(max_iter=300), False),
    "two-step": (TWO_STEP, False),
    "two-step+windmeijer": (TWO_STEP, True),
}


@pytest.mark.parametrize("how", sorted(WEIGHTINGS))
@pytest.mark.parametrize("wide", [True, False], ids=["L>N", "L<N"])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from([FD, OD]),
       missingness=st.sampled_from([0.0, 0.1, 0.2]))
def test_fit_gmm_matches_the_per_step_reference(wide, how, seed, kind, missingness):
    first = 2 if kind is FD else 1
    if wide:  # every lag of y: L > N, the pseudo-inverse path
        n, T, dyn = 8, 9, DynamicInstrument("y", first)
    else:  # two lags per period: L < N, the Cholesky path
        n, T, dyn = 40, 8, DynamicInstrument("y", first, first + 1)
    data = generate(DgpSpec(n, T, rho=0.5, missingness=missingness, seed=seed))
    model = ar1_model(kind)
    spec = InstrumentSpec(dynamic=(dyn,), static=(StaticInstrument("x1"),))
    weighting, windmeijer = WEIGHTINGS[how]

    def fit():
        return fit_gmm(model, data, spec, weighting=weighting, on_singular="pinv",
                       windmeijer=windmeijer)

    try:
        ref = reference_gmm(model, data, spec, weighting, windmeijer)
    except EstimationError:
        with pytest.raises(EstimationError, match="did not converge"):
            fit()
        return
    res = fit()
    zmat = res.instruments
    nonsingular = zmat.rank == zmat.n_columns and res.cross_sections >= zmat.n_columns
    assert nonsingular is not wide
    assert res.steps_taken == ref["steps"]
    assert res.weighting_rank == ref["rank"]
    if nonsingular:
        assert np.array_equal(res.coefficients, ref["coef"])
        assert np.array_equal(res.standard_errors, ref["se"])
        assert np.array_equal(res.weighting_matrix, ref["W"])
        assert list(res.iteration_trace) == ref["trace"]
    else:
        # trace entries are coefficient differences, so their rounding is on
        # the coefficients' scale
        scale = np.abs(ref["coef"]).max()
        assert _max_rel(res.coefficients, ref["coef"]) < 1e-10
        assert _max_rel(res.standard_errors, ref["se"]) < 1e-10
        assert _max_rel(res.weighting_matrix, ref["W"], np.abs(ref["W"]).max()) < 1e-10
        assert _max_rel(res.iteration_trace, ref["trace"], scale) < 1e-10


def _brand_fd(brand_panel):
    model = ModelSpec("pp", 1, (ExogTerm("bv"), ExogTerm("bt")), intercept=False,
                      transform=FD)
    spec = InstrumentSpec(dynamic=tuple(DynamicInstrument(v, 2) for v in ("pp", "bv", "bt")))
    return model, spec


def test_cross_moments_give_the_scores_of_any_beta(brand_panel):
    model, spec = _brand_fd(brand_panel)
    one = fit_gmm(model, brand_panel, spec, weighting=ONE_STEP, on_singular="pinv")
    Z, X = one.instruments.matrix, one.design_matrix
    y = build_design(model, brand_panel).y
    starts = entity_starts(one.entity_ids)
    assert Z.shape[1] > starts.size  # the brand FD fit is on the pseudo-inverse path
    beta1 = one.coefficients
    C = _cross_moments(Z, one.residuals, X, starts)
    rng = np.random.default_rng(7)
    for _ in range(20):
        beta = beta1 + rng.standard_normal(beta1.size) * 10.0 ** rng.uniform(-6, 1)
        direct = _scores(Z, y - X @ beta, starts)
        # rounding scale of the direct sums, term by term
        scale = _scores(np.abs(Z), np.abs(y) + np.abs(X) @ np.abs(beta), starts).max()
        assert np.abs(C @ np.append(1.0, beta1 - beta) - direct).max() <= 1e-12 * scale


def test_score_reductions_do_not_grow_with_the_step_count(brand_panel, monkeypatch):
    model, spec = _brand_fd(brand_panel)
    calls = []
    scores = estimators._scores
    monkeypatch.setattr(estimators, "_scores", lambda *a: calls.append(1) or scores(*a))
    counts = {}
    for weighting in (TWO_STEP, n_step(max_iter=500)):
        calls.clear()
        res = fit_gmm(model, brand_panel, spec, weighting=weighting, on_singular="pinv")
        counts[res.steps_taken] = len(calls)
    assert min(counts) == 2 and max(counts) > 100
    assert len(set(counts.values())) == 1


@pytest.mark.parametrize("bad_call", [1, 2, 5])
@pytest.mark.parametrize("wide", [True, False], ids=["L>N", "L<N"])
def test_a_non_finite_step_raises_at_once(monkeypatch, wide, bad_call):
    # the LAPACK solves check nothing for finiteness, so a NaN coefficient is
    # caught on the step that makes it, not after max_iter steps
    n = 8 if wide else 40
    data = generate(DgpSpec(n, 9, rho=0.5, missingness=0.1, seed=3))
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, None if wide else 3),),
                          static=(StaticInstrument("x1"),))
    calls = []
    solve = estimators._solve_normal

    def poisoned(*args):
        calls.append(1)
        beta = solve(*args)
        return beta * np.nan if len(calls) == bad_call else beta

    monkeypatch.setattr(estimators, "_solve_normal", poisoned)
    with pytest.raises(EstimationError, match=f"GMM step {bad_call} gave a non-finite"):
        fit_gmm(ar1_model(FD), data, spec, weighting=n_step(max_iter=100, tol=0.0),
                on_singular="pinv")
    assert len(calls) == bad_call


@pytest.mark.parametrize(
    "n, dynamic",
    [(8, DynamicInstrument("y", 2)), (60, DynamicInstrument("y", 2, 3))],
    ids=["eigenvalues", "cholesky"],
)
def test_overflowing_moment_products_are_named_as_an_overflow(n, dynamic):
    # at 1e100 the moment covariance U'U overflows: on the pseudo-inverse
    # path (L > N) its eigenvalues s^2 do, on the Cholesky path (L < N) A
    data = generate(DgpSpec(n, 10, missingness=0.1, seed=4))
    series = dict(data.series)
    for name in ("y", "x1"):
        series[name] = PanelSeries(series[name].values * 1e100, series[name].mask)
    data = PanelDataset(data.entities, data.periods, series)
    spec = InstrumentSpec(dynamic=(dynamic,), static=(StaticInstrument("x1"),))
    with pytest.raises(EstimationError, match="overflowed; rescale the data") as info:
        with np.errstate(over="ignore"):
            fit_gmm(ar1_model(FD), data, spec, weighting=n_step(), on_singular="pinv")
    assert type(info.value) is EstimationError
    assert str(info.value).startswith("moment covariance weighting matrix is not finite")


def _two_step_map(res):
    """The two-step estimate as a function of the estimate that builds its weight."""
    Z, X = res.instruments.matrix, res.design_matrix
    y = build_design(res.model, res.dataset).y
    starts = entity_starts(res.entity_ids)
    G, v = Z.T @ X, Z.T @ y

    def two_step(b):
        U = _scores(Z, y - X @ b, starts)
        W = np.linalg.inv(U.T @ U)
        return np.linalg.solve(G.T @ W @ G, G.T @ W @ v)

    return two_step


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from([FD, OD]),
       missingness=st.sampled_from([0.0, 0.15]))
def test_windmeijer_correction_matches_a_finite_difference_derivative(seed, kind, missingness):
    data = generate(DgpSpec(60, 7, rho=0.6, missingness=missingness, seed=seed))
    model = ar1_model(kind)
    first = 2 if kind is FD else 1
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", first, first + 1),),
                          static=(StaticInstrument("x1"),))
    one = fit_gmm(model, data, spec, weighting=ONE_STEP)
    two = fit_gmm(model, data, spec, weighting=TWO_STEP)
    corrected = fit_gmm(model, data, spec, weighting=TWO_STEP, windmeijer=True)
    assert two.cross_sections >= two.instruments.n_columns == two.instruments.rank

    # D = d beta2 / d beta1 by central differences. With step h the
    # truncation error is O(h^2) and the rounding error O(eps / h), both
    # about eps^(2/3) at h = eps^(1/3) |beta1|; the tolerance allows 100
    # times that for the derivatives' and the covariances' scales.
    eps = np.finfo(float).eps
    beta1 = one.coefficients
    h = eps ** (1 / 3) * np.abs(beta1).max()
    two_step = _two_step_map(one)
    assert np.allclose(two_step(beta1), two.coefficients, rtol=1e-10, atol=0)
    D = np.column_stack([
        (two_step(beta1 + h * e) - two_step(beta1 - h * e)) / (2 * h)
        for e in np.eye(beta1.size)
    ])
    V1, V2 = one.covariance, two.covariance
    expected = V2 + D @ V2 + V2 @ D.T + D @ V1 @ D.T
    tol = 100 * eps ** (2 / 3)
    scale = np.abs(expected).max()
    assert np.abs(corrected.covariance - expected).max() <= tol * scale
    # the correction itself is far larger than that
    assert np.abs(corrected.covariance - V2).max() > 100 * tol * scale
