"""The two-step and n-step GMM iteration of ``fit_gmm``.

When the moment covariance U'U is singular from the start, ``fit_gmm``
takes each step's scores from the one-step entity cross-moments, one
product [1, beta1 - beta] @ C. When N <= L, ``_gram_blocks`` forms the
N x N Gram blocks C_a C_b' and the products C_a Gv once per fit, so each
step's U U' and U Gv are products with a = [1, beta1 - beta]. A step that
``_certified_moments`` certifies solves with M = c^-1 c^-T U Gv, from the
Cholesky factor c'c = U U' and its trtri inverse; any other step is the
textbook one, the weight from ``_invert_weight`` and then ``_gmm_beta``.
The certificate is checked to be sound: whenever it returns M, the SVD
keeps every value of U and M'M is the SVD factor's Gv'F F'Gv to 1e-9, so
whenever the SVD cuts a value it returns None. That error grows as
eps ||c||_F^2 ||c^-1||_F^2, which is why the certificate stops at 1e3.
Textbook steps are checked against certified ones on the brand panel.
``reference_gmm`` below is the direct per-step form of the same
estimator: scores by ``reduceat`` at every step, the L x L
(pseudo-)inverse weight, and ``cho_factor``/``cho_solve``. The fits must
agree with it to 1e-10, and bit for bit when U'U is nonsingular.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, given, settings, strategies as st

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
    _certified_moments,
    _cross_moments,
    _gram_blocks,
    _invert_weight,
    _one_step_weight_blocks,
    _scores,
    _weight_factor,
    _windmeijer_correct,
    build_design,
)
from dynpanel.instruments import assemble
from dynpanel.panel import PanelDataset, PanelSeries
from dynpanel.simulate import DgpSpec, EstimatorConfig, ar1_model, generate
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
    zmat = assemble(spec, data, design.sample, transform=model.transform)
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

    W1, rank = invert(_one_step_weight_blocks(design, zmat))
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
    nonsingular = zmat.rank == zmat.n_columns and res.scores.shape[0] >= zmat.n_columns
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
    starts = entity_starts(one.design.entity_ids)
    assert Z.shape[1] > starts.size  # the brand FD fit is on the pseudo-inverse path
    beta1 = one.coefficients
    C = _cross_moments(Z, one.residuals, X, starts)
    rng = np.random.default_rng(7)
    for _ in range(20):
        beta = beta1 + rng.standard_normal(beta1.size) * 10.0 ** rng.uniform(-6, 1)
        direct = _scores(Z, y - X @ beta, starts)
        # rounding scale of the direct sums, term by term
        scale = _scores(np.abs(Z), np.abs(y) + np.abs(X) @ np.abs(beta), starts).max()
        scores = np.tensordot(np.append(1.0, beta1 - beta), C, axes=1)
        assert np.abs(scores - direct).max() <= 1e-12 * scale


def test_gram_blocks_give_the_products_of_any_beta(brand_panel):
    model, spec = _brand_fd(brand_panel)
    one = fit_gmm(model, brand_panel, spec, weighting=ONE_STEP, on_singular="pinv")
    Z, X = one.instruments.matrix, one.design_matrix
    y = build_design(model, brand_panel).y
    starts = entity_starts(one.design.entity_ids)
    n, beta1 = starts.size, one.coefficients
    C = _cross_moments(Z, one.residuals, X, starts).reshape(beta1.size + 1, -1)
    Gv = np.column_stack([Z.T @ X, Z.T @ y])
    blocks = _gram_blocks(C, Gv, n)
    rng = np.random.default_rng(7)
    for _ in range(20):
        beta = beta1 + rng.standard_normal(beta1.size) * 10.0 ** rng.uniform(-6, 1)
        a = np.append(1.0, beta1 - beta)
        U = _scores(Z, y - X @ beta, starts)
        K = (np.outer(a, a).ravel() @ blocks[0]).reshape(n, n)
        UGv = (a @ blocks[1]).reshape(n, -1)
        # rounding scale of the products, term by term in |a| and |C|
        bound = (np.abs(a) @ np.abs(C)).reshape(n, -1)
        assert np.abs(K - U @ U.T).max() <= 1e-12 * (bound @ bound.T).max()
        assert np.abs(UGv - U @ Gv).max() <= 1e-12 * (bound @ np.abs(Gv)).max()


def test_a_fit_with_more_entities_than_columns_builds_no_gram_blocks(monkeypatch):
    # x2 = 2 x1 makes Z rank deficient, so U'U is singular with N = 60 > L = 15:
    # no step can be certified, and the (k+1)^2 N^2 blocks would be wasted
    data = generate(DgpSpec(60, 9, rho=0.5, missingness=0.1, seed=14))
    series = dict(data.series)
    series["x2"] = PanelSeries(2.0 * series["x1"].values, series["x1"].mask)
    data = PanelDataset(data.entities, data.periods, series)
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 3),),
                          static=(StaticInstrument("x1"), StaticInstrument("x2")))
    blocks, gram_blocks = [], estimators._gram_blocks
    monkeypatch.setattr(estimators, "_gram_blocks",
                        lambda *a: blocks.append(gram_blocks(*a)) or blocks[-1])
    monkeypatch.setattr(estimators, "_certified_moments",
                        mock.Mock(side_effect=AssertionError))
    weighting = n_step(max_iter=300)
    res = fit_gmm(ar1_model(FD), data, spec, weighting=weighting, on_singular="pinv")
    ref = reference_gmm(ar1_model(FD), data, spec, weighting)
    assert res.scores.shape[0] > res.instruments.n_columns > res.instruments.rank
    assert blocks == [None]
    assert res.steps_taken == ref["steps"] > 2
    assert res.weighting_rank == ref["rank"]
    assert _max_rel(res.coefficients, ref["coef"]) < 1e-10
    assert _max_rel(res.standard_errors, ref["se"]) < 1e-10


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


# iterated level fits with L > N cycle instead of converging on these panels
SCORE_CASES = [(wide, kind, how) for wide in (True, False) for kind in TransformKind
               for how in ("one-step", "two-step", "n-step")
               if not (wide and how == "n-step" and not kind.is_calendar)]


@pytest.mark.parametrize(
    "wide, kind, how", SCORE_CASES,
    ids=[f"{'L>N' if w else 'L<N'}-{k.value}-{h}" for w, k, h in SCORE_CASES],
)
def test_a_fit_keeps_the_scores_of_its_residuals(wide, kind, how):
    weighting = {"one-step": ONE_STEP, "two-step": TWO_STEP, "n-step": n_step(max_iter=300)}
    if kind.is_calendar:  # every lag of y on 8 entities is L > N
        n, inst = (8, DynamicInstrument("y", 2)) if wide else (40, DynamicInstrument("y", 2, 3))
        spec = InstrumentSpec(dynamic=(inst,), static=(StaticInstrument("x1"),))
    else:  # 6 columns on 4 entities is L > N
        n, depth = (4, 4) if wide else (40, 2)
        spec = InstrumentSpec(static=(StaticInstrument("x1", 0, depth),),
                              include_intercept=True)
    data = generate(DgpSpec(n, 9, rho=0.5, missingness=0.1, seed=14))
    res = fit_gmm(ar1_model(kind), data, spec, weighting=weighting[how], on_singular="pinv")
    assert (res.scores.shape[0] < res.instruments.n_columns) is wide
    want = _scores(res.instruments.matrix, res.residuals,
                   entity_starts(res.design.entity_ids))
    assert res.scores.tobytes() == want.tobytes()
    assert res.scores.shape == want.shape


def test_a_plain_fit_keeps_no_scores():
    data = generate(DgpSpec(40, 9, rho=0.5, missingness=0.1, seed=5))
    for kind in (TransformKind.NONE, TransformKind.WITHIN, TransformKind.QUASI_DEMEAN):
        assert estimators.fit_plain(ar1_model(kind), data).scores is None


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


def test_overflowing_moment_products_raise_without_a_warning():
    # the pseudo-inverse repro above: R overflows, so its norm is inf and its
    # inverse's 0; the certificate must fail without forming inf * 0, and the
    # textbook step's SVD names the overflow
    data = _scaled(generate(DgpSpec(8, 10, missingness=0.1, seed=4)), 1e100)
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2),), static=(StaticInstrument("x1"),))
    with pytest.raises(EstimationError) as info:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore"):
                fit_gmm(ar1_model(FD), data, spec, weighting=n_step(), on_singular="pinv")
    assert type(info.value) is EstimationError
    assert str(info.value) == ("moment covariance weighting matrix is not finite: "
                               "the moment products overflowed; rescale the data")


def _scaled(data, scale):
    series = dict(data.series)
    for name in ("y", "x1"):
        series[name] = PanelSeries(series[name].values * scale, series[name].mask)
    return PanelDataset(data.entities, data.periods, series)


@pytest.mark.parametrize("scale", [1e160, 1e200])
@pytest.mark.parametrize(
    "n, dynamic",
    [(8, DynamicInstrument("y", 2)), (60, DynamicInstrument("y", 2, 3))],
    ids=["L>N", "L<N"],
)
def test_overflowing_instrument_cross_products_are_named_as_an_overflow(n, dynamic, scale):
    # from about 1e160 Z'X itself overflows, before any weight is built
    data = _scaled(generate(DgpSpec(n, 10, missingness=0.1, seed=4)), scale)
    spec = InstrumentSpec(dynamic=(dynamic,), static=(StaticInstrument("x1"),))
    with pytest.raises(EstimationError, match="overflowed; rescale the data") as info:
        with np.errstate(over="ignore", invalid="ignore"):
            fit_gmm(ar1_model(FD), data, spec, weighting=n_step(), on_singular="pinv")
    assert type(info.value) is EstimationError
    assert str(info.value).startswith("Z'X or Z'y is not finite")


def _counting_weight_factor():
    calls = []
    return calls, mock.patch.object(
        estimators, "_weight_factor", lambda *a: calls.append(1) or _weight_factor(*a)
    )


def _certified(U, Gv):
    """``_certified_moments`` of U's Gram products, formed as a step forms them.

    U is one block (k = 0) at a = [1]; None when N > L, where a fit builds
    no blocks.
    """
    blocks = _gram_blocks(U.reshape(1, -1), Gv, U.shape[0])
    return None if blocks is None else _certified_moments(blocks, np.ones(1))


def _certificate(U):
    """||c||_F ||c^-1||_F of the upper Cholesky factor c'c = U U'."""
    c = estimators._POTRF(U @ U.T, lower=False, clean=True)[0]
    return np.linalg.norm(c) * np.linalg.norm(estimators._TRTRI(c)[0])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["N<=L", "repeated", "N>L"]),
       n=st.integers(1, 12), extra=st.integers(0, 30), k=st.integers(1, 4))
def test_certified_moments_match_the_svd_factor(seed, shape, n, extra, k):
    rng = np.random.default_rng(seed)
    if shape == "N>L":
        n, L = n + extra + 1, n
    else:
        L = n + extra
    # rows of unequal size, as entity scores are
    U = rng.standard_normal((n, L)) * 10.0 ** rng.uniform(-2, 2, (n, 1))
    if shape == "repeated":
        U = np.vstack([U, U[:1]])
        n += 1
        if n > L:
            return
    Gv = rng.standard_normal((L, k + 1))
    M = _certified(U, Gv)
    F, rank = _weight_factor(U, "test")
    if shape == "N<=L":
        # every singular value kept; certified, with M'M = Gv'F F'Gv, unless
        # the product bound fails, as a square U or the row scales can make it
        assert rank == n
        event("certified" if M is not None else "uncertified")
        if M is None:
            assert _certificate(U) >= 1e3
            return
        assert M.shape == (n, k + 1)
        want = (F.T @ Gv).T @ (F.T @ Gv)
        assert np.abs(M.T @ M - want).max() <= 1e-9 * np.abs(want).max()
    else:
        # a value cut (two equal rows) or N > L: the step is the textbook one
        assert rank == (n - 1 if shape == "repeated" else L)
        assert M is None


def _with_singular_values(rng, s, L):
    """U = A diag(s) B' (N x L, N = len(s)), A orthogonal and B with orthonormal columns."""
    A = np.linalg.qr(rng.standard_normal((s.size, s.size)))[0]
    B = np.linalg.qr(rng.standard_normal((L, s.size)))[0]
    return (A * s) @ B.T


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), extra=st.integers(0, 30),
       log_cond=st.one_of(st.floats(0, 9), st.floats(2.7, 3.3), st.floats(4.7, 5.3),
                          st.floats(5.7, 6.3)),
       log_scale=st.floats(-3, 3), repeat=st.sampled_from([None, "row", "zero"]))
def test_a_certified_step_keeps_every_singular_value(seed, n, extra, log_cond, log_scale,
                                                     repeat):
    # cond2(U) = 10^log_cond, dense around the certificate's 1e3, around
    # 1e5, and around the 1e6 at which a value is cut; a repeated or zero
    # row makes U rank deficient (a cut, or potrf's info > 0 on a pivot
    # that rounding leaves at or below zero)
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n - 2)])
    U = _with_singular_values(rng, 10.0 ** (log_scale - log_cond * t), n + extra)
    if repeat == "row":
        U = np.vstack([U, U[:1]])
    elif repeat == "zero":
        U[rng.integers(n)] = 0.0
    if U.shape[0] > U.shape[1]:
        return
    Gv = rng.standard_normal((U.shape[1], 3))
    M = _certified(U, Gv)
    F, rank = _weight_factor(U, "test")
    # sound one way: a certified step keeps every value, so a cut is never certified
    event("certified" if M is not None else "cut" if rank < U.shape[0] else "keeps all")
    if M is not None:
        assert rank == U.shape[0]
        want = (F.T @ Gv).T @ (F.T @ Gv)
        assert np.abs(M.T @ M - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("cond, certified, cut", [
    (10.0, True, False),  # ||c||_F ||c^-1||_F <= N cond < 1e3
    (3e3, False, False),  # cond in [1e3, 1e5): the SVD keeps all, the bound fails
    (3e5, False, False),  # the bound is at least cond >= 1e3, though the SVD keeps all
    (1e7, False, True),   # the SVD cuts the smallest value
], ids=["certified", "uncertified-below-1e5", "uncertified-keeps-all", "cut"])
def test_certified_moments_reach_each_outcome(cond, certified, cut):
    rng = np.random.default_rng(16)
    U = _with_singular_values(rng, np.geomspace(1.0, 1.0 / cond, 6), 40)
    M = _certified(U, rng.standard_normal((40, 3)))
    assert (M is not None, _weight_factor(U, "test")[1]) == (certified, 6 - cut)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), extra=st.integers(0, 30),
       log_cond=st.floats(0, 3.3), log_scale=st.floats(-3, 3))
def test_a_certified_steps_error_grows_as_its_condition_squared(seed, n, extra, log_cond,
                                                                log_scale):
    # forming U U' squares the condition number in the error (Bjorck 1987):
    # M'M is within about 3 eps ||c||_F^2 ||c^-1||_F^2 of its largest entry,
    # so the certificate's 1e3 keeps it within 1e-9
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n - 2)])
    U = _with_singular_values(rng, 10.0 ** (log_scale - log_cond * t), n + extra)
    Gv = rng.standard_normal((n + extra, 3)) * 10.0 ** rng.uniform(-3, 3, 3)
    M = _certified(U, Gv)
    norms = _certificate(U)
    event("certified" if M is not None else "uncertified")
    if M is None:  # at these scales only the product bound can fail
        assert norms >= 1e3
        return
    F = _weight_factor(U, "test")[0]
    want = (F.T @ Gv).T @ (F.T @ Gv)
    bound = 4 * np.finfo(float).eps * norms**2
    assert np.abs(M.T @ M - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("scale, error", [
    (1e160, "test weighting matrix is not finite"),  # s^2 overflows
    (1e-170, "test weighting matrix is zero"),       # s^2 underflows to 0
])
def test_extreme_scales_are_uncertified_and_raise_as_the_svd_does(scale, error):
    # cond2 = 10 passes the product bound, but s^2 leaves the normal range:
    # U U' overflows to a non-finite K, or the norm bounds fail, and these
    # steps go to the SVD's errors
    rng = np.random.default_rng(16)
    U = _with_singular_values(rng, np.geomspace(scale, scale / 10, 6), 40)
    with np.errstate(over="ignore", under="ignore"):
        assert _certified(U, rng.standard_normal((40, 3))) is None
        with pytest.raises(EstimationError, match=error):
            _invert_weight(None, "pinv", "test", U)


def test_an_overflowing_u_gv_is_uncertified_without_a_warning():
    # U U' stays near 1e6 while U Gv overflows: the step must go to the
    # textbook one, not return a non-finite M
    rng = np.random.default_rng(16)
    U = _with_singular_values(rng, np.geomspace(1e3, 1e2, 6), 40)
    Gv = rng.standard_normal((40, 3)) * 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _certified(U, Gv) is None


def _counting_uncertified():
    """Records, per call of ``_certified_moments``, whether the step went uncertified."""
    calls = []
    certified = estimators._certified_moments

    def counted(*args):
        M = certified(*args)
        calls.append(M is None)
        return M

    return calls, mock.patch.object(estimators, "_certified_moments", counted)


def _brand_gmm(brand_panel, kind):
    model, spec = _brand_fd(brand_panel)
    return ModelSpec(model.dependent, 1, model.exogenous, intercept=False, transform=kind), spec


@pytest.mark.parametrize("kind", [FD, OD], ids=["fd", "od"])
def test_pseudo_inverse_steps_build_the_svd_factor_once(brand_panel, kind):
    model, spec = _brand_gmm(brand_panel, kind)
    calls, patch = _counting_weight_factor()
    uncertified, certified_patch = _counting_uncertified()
    blocks = mock.Mock(side_effect=_gram_blocks)
    with patch, certified_patch, mock.patch.object(estimators, "_gram_blocks", blocks):
        res = fit_gmm(model, brand_panel, spec, weighting=n_step(max_iter=500),
                      on_singular="pinv")
    assert res.instruments.n_columns > res.scores.shape[0] == res.weighting_rank == 31
    assert res.steps_taken > 100
    # the Gram blocks are built once; every step's full rank is certified by
    # the inverse of U U''s Cholesky factor, and the weight is built once,
    # after the loop
    assert blocks.call_count == 1
    assert uncertified == [False] * (res.steps_taken - 1)
    assert calls == [1]


@pytest.mark.parametrize("kind", [FD, OD], ids=["fd", "od"])
def test_textbook_steps_give_the_certified_fit(brand_panel, kind):
    # two-step, as the OD n-step iteration has two fixed points on this panel
    model, spec = _brand_gmm(brand_panel, kind)
    uncertified, certified_patch = _counting_uncertified()
    with certified_patch:
        certified = fit_gmm(model, brand_panel, spec, weighting=TWO_STEP, on_singular="pinv")
    assert uncertified == [False]
    with mock.patch.object(estimators, "_certified_moments", lambda *a: None):
        textbook = fit_gmm(model, brand_panel, spec, weighting=TWO_STEP, on_singular="pinv")
    assert textbook.weighting_rank == certified.weighting_rank == 31
    W = certified.weighting_matrix
    assert _max_rel(textbook.coefficients, certified.coefficients) < 1e-10
    assert _max_rel(textbook.standard_errors, certified.standard_errors) < 1e-10
    assert _max_rel(textbook.weighting_matrix, W, np.abs(W).max()) < 1e-10


@pytest.mark.parametrize("on_singular", ["raise", "Pinv", "ignore"])
def test_an_unknown_on_singular_is_rejected_before_any_work(brand_panel, monkeypatch,
                                                            on_singular):
    model, spec = _brand_gmm(brand_panel, OD)
    monkeypatch.setattr(estimators, "build_design", mock.Mock(side_effect=AssertionError))
    within = ModelSpec(model.dependent, 1, model.exogenous, transform=TransformKind.WITHIN)
    # a plain config never reads on_singular, yet rejects it as an instrumented one does
    for call in (lambda: fit_gmm(model, brand_panel, spec, TWO_STEP, on_singular),
                 lambda: EstimatorConfig("od", model, spec, TWO_STEP, on_singular),
                 lambda: EstimatorConfig("fe", within, on_singular=on_singular)):
        with pytest.raises(ValueError, match="on_singular must be 'error' or 'pinv'"):
            call()


def _with_a_duplicated_entity(data):
    """The panel with entity 0 repeated as one more entity: U gets two equal rows."""
    series = {
        name: PanelSeries(np.vstack([s.values, s.values[:1]]), np.vstack([s.mask, s.mask[:1]]))
        for name, s in data.series.items()
    }
    return PanelDataset(data.entities + ("copy",), data.periods, series)


@pytest.mark.parametrize("how", ["n-step", "two-step+windmeijer"])
@pytest.mark.parametrize("kind", [FD, OD], ids=["fd", "od"])
@pytest.mark.parametrize("seed", [14, 30])  # n-step converges for FD and OD at these
def test_fallback_steps_match_the_per_step_reference(seed, kind, how):
    data = _with_a_duplicated_entity(generate(DgpSpec(8, 9, rho=0.5, missingness=0.1,
                                                      seed=seed)))
    model = ar1_model(kind)
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2 if kind is FD else 1),),
                          static=(StaticInstrument("x1"),))
    weighting, windmeijer = WEIGHTINGS[how]
    ref = reference_gmm(model, data, spec, weighting, windmeijer)
    calls, patch = _counting_weight_factor()
    with patch:
        res = fit_gmm(model, data, spec, weighting=weighting, on_singular="pinv",
                      windmeijer=windmeijer)
    # every step is uncertified and builds its own SVD factor; none is built
    # after the loop
    assert calls == [1] * (res.steps_taken - 1)
    assert res.weighting_rank == ref["rank"] < res.scores.shape[0] == 9
    assert res.steps_taken == ref["steps"]
    assert _max_rel(res.coefficients, ref["coef"]) < 1e-10
    assert _max_rel(res.standard_errors, ref["se"]) < 1e-10
    assert _max_rel(res.weighting_matrix, ref["W"], np.abs(ref["W"]).max()) < 1e-10
    assert _max_rel(res.iteration_trace, ref["trace"], np.abs(ref["coef"]).max()) < 1e-10


def _two_step_map(res):
    """The two-step estimate as a function of the estimate that builds its weight."""
    Z, X = res.instruments.matrix, res.design_matrix
    y = res.design.y
    starts = entity_starts(res.design.entity_ids)
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
    assert two.scores.shape[0] >= two.instruments.n_columns == two.instruments.rank

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


@pytest.mark.parametrize("missingness, seed", [(0.1, 61), (0.2, 99)])
def test_a_negative_windmeijer_variance_raises(missingness, seed):
    # on these panels the corrected variance of y(-1) is below zero
    data = generate(DgpSpec(8, 9, missingness=missingness, seed=seed))
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 1),),
                          static=(StaticInstrument("x1"),))
    with pytest.raises(EstimationError, match=r"variance is negative for \['y\(-1\)'\]"):
        fit_gmm(ar1_model(OD), data, spec, weighting=TWO_STEP, windmeijer=True,
                on_singular="pinv")
    assert fit_gmm(ar1_model(OD), data, spec, weighting=TWO_STEP,
                   on_singular="pinv").standard_errors.all()
