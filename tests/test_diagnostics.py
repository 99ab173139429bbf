import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from dynpanel import (
    DiagnosticError,
    DynamicInstrument,
    EstimationError,
    InstrumentSpec,
    StaticInstrument,
    ONE_STEP,
    TWO_STEP,
    ab_serial_correlation,
    chi_square_sf,
    fit_gmm,
    fit_plain,
    from_arrays,
    hausman,
    j_test,
    lag_selection,
    report_for,
    swamy_arora,
)
from dynpanel import diagnostics, estimators
from dynpanel.estimators import ExogTerm, ModelSpec
from dynpanel.panel import PanelSeries, align_columns
from dynpanel.simulate import DgpSpec, ar1_model, fd_od_comparison_configs, generate
from dynpanel.transforms import TransformKind


# ---------------------------------------------------------------------------
# chi-square survival function

def quad_sf(x, df):
    val, _ = scipy.integrate.quad(
        lambda t: scipy.stats.chi2.pdf(t, df), x, np.inf, limit=200
    )
    return val


def test_chi_square_sf_at_zero():
    assert chi_square_sf(0.0, 5) == 1.0


def test_chi_square_sf_df2_closed_form():
    x = 2.0 * np.log(2.0)
    assert chi_square_sf(x, 2) == pytest.approx(0.5, abs=1e-12)  # exp(-x/2)


def test_chi_square_sf_table4_pair():
    p = chi_square_sf(29.2175, 29)
    assert 0.40 < p < 0.50
    assert p == pytest.approx(0.4538, abs=0.001)


def test_chi_square_sf_against_quadrature():
    for df in (1, 2, 5, 10, 29, 50):
        for x in (0.1, 1.0, 5.0, 10.0, 29.2175, 50.0, 100.0):
            assert chi_square_sf(x, df) == pytest.approx(
                quad_sf(x, df), abs=1e-8
            ), (x, df)


def test_chi_square_sf_strictly_decreasing():
    for df in (1, 3, 29):
        values = [chi_square_sf(x, df) for x in np.linspace(0.1, 100, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_chi_square_sf_validation():
    with pytest.raises(ValueError):
        chi_square_sf(-1.0, 3)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)
    for df in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            chi_square_sf(1.0, df)


def test_chi_square_sf_matches_gammaincc():
    # x up to 3 df + 50: e^-x/2 underflows there for df >= 450, which the
    # log-space sum covers
    got, want = [], []
    for df in range(1, 501):
        for x in np.linspace(0.0, 3.0 * df + 50.0, 21):
            got.append(chi_square_sf(float(x), df))
            want.append(scipy.special.gammaincc(df / 2.0, x / 2.0))
    got, want = np.array(got), np.array(want)
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("df", [1, 2, 7, 30])
def test_chi_square_sf_at_zero_infinity_and_nan(df):
    assert chi_square_sf(0.0, df) == 1.0
    assert chi_square_sf(math.inf, df) == 0.0
    assert math.isnan(chi_square_sf(math.nan, df))


# ---------------------------------------------------------------------------
# J test

def fd_fit(n=100, T=8, rho=0.5, seed=101, rep=0, weighting=TWO_STEP, bound=3):
    data = generate(DgpSpec(n_entities=n, n_periods=T, rho=rho, seed=seed), rep)
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, bound),),
                          static=(StaticInstrument("x1"),))
    return fit_gmm(model, data, inst, weighting=weighting)


def test_j_exactly_identified_zero():
    rng = np.random.default_rng(1)
    n = 150
    x = rng.standard_normal(n)
    y = 2 * x + rng.normal(0, 0.5, n)
    from dynpanel import from_arrays

    data = from_arrays([f"i{k}" for k in range(n)], [1],
                       {"y": y.reshape(-1, 1), "x1": x.reshape(-1, 1)})
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=False)
    res = fit_gmm(model, data, InstrumentSpec(static=(StaticInstrument("x1"),)))
    jt = j_test(res)
    assert jt.statistic == pytest.approx(0.0, abs=1e-8)
    assert jt.df == 0
    assert jt.p_value == 1.0


def test_j_df_counts_instruments_minus_params():
    res = fd_fit()
    jt = j_test(res)
    assert jt.df == res.instruments.rank - len(res.coefficients)
    assert 0 <= jt.p_value <= 1


def test_j_needs_gmm_result():
    data = generate(DgpSpec(n_entities=30, n_periods=6, seed=3))
    pooled = fit_plain(ar1_model(TransformKind.NONE), data)
    with pytest.raises(DiagnosticError):
        j_test(pooled)


def test_j_impossible_df_guard():
    res = fd_fit()
    # feign an instrument rank below the parameter count
    crippled = dataclasses.replace(
        res, instruments=dataclasses.replace(res.instruments, rank=1), weighting_rank=1
    )
    with pytest.raises(DiagnosticError, match="impossible"):
        j_test(crippled)


def within_gmm_model(dep, exog):
    return ModelSpec(dep, ar_lags=1, exogenous=exog, intercept=True,
                     effects="fixed", transform=TransformKind.WITHIN)


def test_j_df_excludes_within_grand_mean(brand_panel):
    # the within fit's const is the mean of the entity effects, derived
    # after the fit: 6 instrument columns over-identify 3 slopes by 3
    model = within_gmm_model("pp", (ExogTerm("bv"), ExogTerm("bt")))
    inst = InstrumentSpec(static=(StaticInstrument("bv", 0, 2), StaticInstrument("bt", 0, 2)),
                          include_intercept=True)
    res = fit_gmm(model, brand_panel, inst, weighting=TWO_STEP, on_singular="pinv")
    assert res.param_names[-1] == "const"
    jt = j_test(res)
    assert jt.df == res.instruments.rank - 3 == 3
    assert jt.p_value == chi_square_sf(jt.statistic, 3)


def test_j_just_identified_within_fit_with_intercept():
    # 3 slopes, 3 instrument columns once the intercept column is pruned
    data = generate(DgpSpec(n_entities=30, n_periods=7, rho=0.5, seed=4))
    model = within_gmm_model("y", (ExogTerm("x1", 1),))
    inst = InstrumentSpec(static=(StaticInstrument("x1", 0, 2),), include_intercept=True)
    res = fit_gmm(model, data, inst, weighting=TWO_STEP)
    jt = report_for(res).j
    assert (jt.df, jt.p_value) == (0, 1.0)


@pytest.mark.parametrize("kind, start, seed", [
    (TransformKind.ORTHOGONAL_DEVIATION, 1, 18), (TransformKind.FIRST_DIFFERENCE, 2, 103),
], ids=["od", "fd"])
def test_one_step_j_with_fewer_entities_than_instruments(kind, start, seed):
    # 12 entities, 16 instrument columns of full rank: S = U'U has rank 12,
    # and gbar = U'1 lies in U's row space, so J = 1'U (U'U)^+ U'1 = N
    # exactly, on rank - k = 12 - 2 degrees of freedom
    data = generate(DgpSpec(12, 7, rho=0.5, seed=seed))
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", start),),
                          static=(StaticInstrument("x1", 0, 0),))
    res = fit_gmm(ar1_model(kind), data, inst, weighting=ONE_STEP, on_singular="pinv")
    assert res.instruments.rank == res.instruments.n_columns == 16
    jt = j_test(res)
    assert jt.statistic == pytest.approx(12.0, rel=1e-9)
    assert jt.df == 10
    assert jt.p_value == chi_square_sf(jt.statistic, 10)
    assert jt.p_value == pytest.approx(0.285, abs=5e-4)


# ---------------------------------------------------------------------------
# Arellano-Bond serial correlation

def test_ab_fd_signature():
    res = fd_fit(n=200, T=8)
    ar1 = ab_serial_correlation(res, 1)
    ar2 = ab_serial_correlation(res, 2)
    assert ar1.statistic < -2.0          # mechanical MA(1) in differences
    assert abs(ar2.statistic) < 3.0
    assert 0 <= ar2.p_value <= 1


@pytest.mark.parametrize("order", [0, -1])
def test_ab_serial_correlation_needs_a_positive_order(order):
    with pytest.raises(ValueError, match="^order must be >= 1$"):
        ab_serial_correlation(fd_fit(n=50, T=6), order)


def test_ab_od_uses_differenced_residuals():
    data = generate(DgpSpec(n_entities=200, n_periods=8, rho=0.5, seed=55))
    model = ar1_model(TransformKind.ORTHOGONAL_DEVIATION)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 1, 3),),
                          static=(StaticInstrument("x1"),))
    res = fit_gmm(model, data, inst, weighting=TWO_STEP)
    ar1 = ab_serial_correlation(res, 1)
    assert ar1.statistic < -2.0


def test_ar_variance_falls_back_to_its_leading_term():
    # a covariance that drives the three-term variance negative leaves
    # z = b / sqrt(sum_i w_i^2), w_i entity i's sum of e_t e_{t-2}
    data = generate(DgpSpec(n_entities=200, n_periods=8, rho=0.5, seed=4))
    fd = {c.name: c for c in fd_od_comparison_configs()}["fd"]
    res = fd.fit(data)
    broken = dataclasses.replace(res, covariance=-1e6 * np.eye(res.coefficients.size))
    w, n_pairs = [], 0
    for a in np.unique(res.design.entity_ids):
        rows = res.design.entity_ids == a
        e = dict(zip(res.design.periods[rows].tolist(), res.residuals[rows]))
        pairs = [e[t] * e[t - 2] for t in e if t - 2 in e]
        w.append(sum(pairs))
        n_pairs += len(pairs)
    ar2 = ab_serial_correlation(broken, 2)
    assert ar2.statistic == pytest.approx(sum(w) / math.sqrt(sum(x * x for x in w)), rel=1e-12)
    assert ar2.statistic == pytest.approx(-0.6020, abs=1e-4)
    assert ar2.n_pairs == n_pairs
    assert ab_serial_correlation(res, 2).statistic == pytest.approx(-0.6121, abs=1e-4)


def test_ab_insufficient_periods():
    res = fd_fit(T=4)
    with pytest.raises(DiagnosticError, match="too few periods"):
        ab_serial_correlation(res, 2)


def test_ab_rejects_level_results():
    data = generate(DgpSpec(n_entities=30, n_periods=6, seed=3))
    pooled = fit_plain(ar1_model(TransformKind.NONE), data)
    with pytest.raises(DiagnosticError):
        ab_serial_correlation(pooled, 1)


# ---------------------------------------------------------------------------
# Swamy-Arora components

def static_model(intercept=True):
    return ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),),
                     intercept=intercept, transform=TransformKind.NONE)


def test_swamy_arora_recovers_ratio():
    # sigma_u^2 = 4, sigma_e^2 = 1 -> rho_u = 0.8
    rhos = []
    for rep in range(20):
        data = generate(DgpSpec(n_entities=500, n_periods=8, rho=0.0,
                                sigma_effect=2.0, sigma_noise=1.0, seed=606),
                        replication=rep)
        vc = swamy_arora(static_model(), data)
        rhos.append(vc.rho_u)
    assert np.mean(rhos) == pytest.approx(0.8, abs=0.05)


def test_swamy_arora_zero_effect_dgp():
    rhos = []
    for rep in range(20):
        data = generate(DgpSpec(n_entities=300, n_periods=8, rho=0.0,
                                sigma_effect=0.0, seed=607), replication=rep)
        vc = swamy_arora(static_model(), data)
        rhos.append(vc.rho_u)
        assert vc.rho_u + vc.rho_e == pytest.approx(1.0, abs=1e-15)
    assert np.mean(rhos) < 0.02


def test_swamy_arora_floor_flag():
    data = generate(DgpSpec(n_entities=100, n_periods=8, rho=0.5,
                            sigma_effect=0.0, seed=0))
    vc = swamy_arora(ar1_model(TransformKind.NONE), data)
    assert vc.floored
    assert vc.sigma_u2 == 0.0
    assert vc.rho_u == 0.0


def test_swamy_arora_within_df_guard():
    data = generate(DgpSpec(n_entities=30, n_periods=1, rho=0.0, seed=1))
    with pytest.raises(EstimationError, match="degrees of freedom"):
        swamy_arora(static_model(), data)


# ---------------------------------------------------------------------------
# Hausman

def test_hausman_degenerate_invalid():
    data = generate(DgpSpec(n_entities=100, n_periods=8, rho=0.5,
                            sigma_effect=0.0, seed=0))
    fe = fit_plain(ar1_model(TransformKind.WITHIN), data)
    re = fit_plain(ar1_model(TransformKind.QUASI_DEMEAN), data)
    h = hausman(fe, re)
    assert not h.valid
    assert "pooled" in h.reason


def test_hausman_zero_distance_when_pd():
    data = generate(DgpSpec(n_entities=80, n_periods=8, rho=0.3,
                            sigma_effect=1.0, seed=9))
    fe = fit_plain(ar1_model(TransformKind.WITHIN), data)
    fake_re = dataclasses.replace(
        fe,
        param_names=fe.param_names,
        coefficients=fe.coefficients.copy(),
        classical_covariance=fe.classical_covariance * 0.5,
    )
    h = hausman(fe, fake_re)
    assert h.valid
    assert h.statistic == pytest.approx(0.0, abs=1e-12)


def test_hausman_power_under_correlated_effects():
    m_fe = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=False,
                     transform=TransformKind.WITHIN, effects="fixed")
    m_re = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=True,
                     transform=TransformKind.QUASI_DEMEAN, effects="random")
    rejected = 0
    reps = 100
    for rep in range(reps):
        data = generate(DgpSpec(n_entities=150, n_periods=8, rho=0.0,
                                effect_loading=0.8, seed=404), replication=rep)
        h = hausman(fit_plain(m_fe, data), fit_plain(m_re, data))
        if h.valid and h.p_value < 0.05:
            rejected += 1
    assert rejected / reps >= 0.80


def test_hausman_verdict_ignores_the_units_of_a_regressor():
    # dV reads 9.0e-5 at scale 1 and 9.0e-11 at scale 1,000: an absolute
    # cut would call the second not positive definite
    m_fe = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=False,
                     transform=TransformKind.WITHIN)
    m_re = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=True,
                     transform=TransformKind.QUASI_DEMEAN)
    data = generate(DgpSpec(n_entities=150, n_periods=8, rho=0.0,
                            effect_loading=0.8, seed=404))
    x = data.series["x1"]
    for scale in (1.0, 1e3, 1e5):
        scaled = dataclasses.replace(data, series={
            **data.series, "x1": PanelSeries(x.values * scale, x.mask)})
        h = hausman(fit_plain(m_fe, scaled), fit_plain(m_re, scaled))
        assert h.valid, (scale, h.reason)
        assert h.statistic == pytest.approx(1245.0168, abs=5e-5)
        assert h.df == 1


def test_hausman_no_common_slopes():
    data = generate(DgpSpec(n_entities=50, n_periods=6, seed=5))
    fe = fit_plain(ar1_model(TransformKind.WITHIN), data)
    other = dataclasses.replace(
        fe, param_names=("something_else",), coefficients=np.array([1.0])
    )
    with pytest.raises(DiagnosticError, match="common"):
        hausman(fe, other)


# ---------------------------------------------------------------------------
# lag selection

def test_lag_selection_single_dataset():
    data = generate(DgpSpec(n_entities=120, n_periods=10, rho=0.8,
                            sigma_effect=0.0, seed=300))
    sel = lag_selection(data, static_model(), max_ar=3, max_exog={"x1": 1})
    # On this grid at n = 840 rows Schwarz and Hannan-Quinn pick the true
    # order with asymptotic probability 0.98 and 0.89 per draw.
    for crit in ("schwarz", "hannan_quinn"):
        ar, exog = sel.chosen_orders(crit)
        assert ar == 1
        assert exog["x1"] == 0
    # AIC picks it with probability only about 0.66 per draw; what holds on
    # every draw is that its smaller penalty never chooses fewer parameters.
    assert sel.chosen["aic"].n_params >= sel.chosen["schwarz"].n_params


def test_lag_selection_entity_order_invariant():
    data = generate(DgpSpec(n_entities=50, n_periods=9, rho=0.6,
                            sigma_effect=0.0, seed=21))
    perm = np.random.default_rng(0).permutation(data.n_entities)
    shuffled = from_arrays([data.entities[i] for i in perm], data.periods,
                           {v: s.values[perm] for v, s in data.series.items()})
    s1 = lag_selection(data, static_model(), max_ar=2, max_exog={"x1": 1})
    s2 = lag_selection(shuffled, static_model(), max_ar=2, max_exog={"x1": 1})
    for crit in ("aic", "schwarz", "hannan_quinn"):
        assert s1.chosen_orders(crit) == s2.chosen_orders(crit)


def test_lag_selection_pure_noise_regressor_gets_zero():
    hits = 0
    for rep in range(20):
        data = generate(DgpSpec(n_entities=100, n_periods=9, rho=0.6,
                                exogenous_betas=(0.0,), sigma_effect=0.0,
                                seed=31), replication=rep)
        sel = lag_selection(data, static_model(), max_ar=1, max_exog={"x1": 2})
        _, exog = sel.chosen_orders("schwarz")
        hits += exog["x1"] == 0
    assert hits >= 18


def test_lag_selection_degenerate_grid():
    data = generate(DgpSpec(n_entities=40, n_periods=6, rho=0.5, seed=2))
    sel = lag_selection(data, static_model(), max_ar=0, max_exog={"x1": 0})
    assert len(sel.candidates) == 1
    ar, exog = sel.chosen_orders("aic")
    assert ar == 0 and exog["x1"] == 0


def test_lag_selection_an_empty_max_exog_puts_every_term_at_depth_0():
    data = generate(DgpSpec(n_entities=60, n_periods=9, seed=2))
    template = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1", 2),),
                         transform=TransformKind.NONE)
    empty, zero = (lag_selection(data, template, max_ar=1, max_exog=m)
                   for m in ({}, {"x1": 0}))
    assert len(empty.candidates) == 1
    assert empty.candidates == zero.candidates
    assert len(lag_selection(data, template, max_ar=1).candidates) == 3


def hand_built_lag_selection(data, template, max_ar, max_exog):
    """Every candidate's columns laid out one by one on the deepest-lag sample."""
    dep, names = template.dependent, [t.name for t in template.exogenous]
    depth = {dep: max(max_ar, 0), **{x: max_exog.get(x, 0) for x in names}}
    sample, _ = align_columns(data, [(v, l) for v in [dep] + names for l in range(depth[v] + 1)])

    def column(v, l):
        return sample.matrix[:, sample.columns.index((v, l))]

    y = column(dep, 0)
    n = y.size
    candidates = []
    for ar in range(1, max_ar + 1) if max_ar >= 1 else [0]:
        for combo in itertools.product(*[range(depth[x] + 1) for x in names]):
            cols = [column(dep, i) for i in range(1, ar + 1)]
            labels = [f"{dep}(-{i})" for i in range(1, ar + 1)]
            for x, d in zip(names, combo):
                cols += [column(x, l) for l in range(d + 1)]
                labels += [x if l == 0 else f"{x}(-{l})" for l in range(d + 1)]
            if template.intercept:
                cols.append(np.ones(n))
                labels.append("const")
            X = np.column_stack(cols)
            resid = y - X @ estimators._ols(y, X, labels)
            ssr = float(resid @ resid)
            if ssr <= 0:
                ssr = np.finfo(float).tiny
            loglik = -0.5 * n * (math.log(2.0 * math.pi) + math.log(ssr / n) + 1.0)
            p = X.shape[1]
            candidates.append(diagnostics.LagCandidate(
                ar, tuple(zip(names, combo)), p, loglik,
                aic=-2.0 * loglik + 2.0 * p,
                schwarz=-2.0 * loglik + p * math.log(n),
                hannan_quinn=-2.0 * loglik + 2.0 * p * math.log(math.log(n)),
            ))
    return candidates


@pytest.mark.parametrize("max_ar, max_x", [(0, 0), (1, 0), (2, 2), (3, 1)])
@pytest.mark.parametrize("intercept", [True, False], ids=["const", "noconst"])
@pytest.mark.parametrize("n_x", [1, 2])
@pytest.mark.parametrize("missingness", [0.0, 0.1, 0.2, 0.3])
def test_lag_selection_matches_hand_built_candidates(missingness, n_x, intercept, max_ar, max_x):
    data = generate(DgpSpec(60, 9, exogenous_betas=(1.0, -0.5)[:n_x], missingness=missingness))
    names = [f"x{j + 1}" for j in range(n_x)]
    template = ModelSpec("y", ar_lags=0, exogenous=tuple(ExogTerm(x) for x in names),
                         intercept=intercept)
    max_exog = {x: max_x for x in names}
    sel = lag_selection(data, template, max_ar=max_ar, max_exog=max_exog)
    reference = hand_built_lag_selection(data, template, max_ar, max_exog)
    assert sel.candidates == tuple(reference)
    for crit in diagnostics.CRITERIA:
        assert sel.chosen[crit] == min(reference, key=lambda c: getattr(c, crit))


def test_lag_selection_rejects_a_negative_exogenous_depth():
    data = generate(DgpSpec(n_entities=40, n_periods=6, seed=2))
    with pytest.raises(ValueError, match="exogenous lag count must be >= 0"):
        lag_selection(data, static_model(), max_ar=1, max_exog={"x1": -1})


def test_lag_selection_rejects_a_negative_ar_order():
    data = generate(DgpSpec(60, 9, seed=2))
    template = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1", 1),))
    with pytest.raises(ValueError, match="ar_lags must be >= 0"):
        lag_selection(data, template, max_ar=-1)


@pytest.mark.parametrize("max_exog", [{"x1": 1, "x2": 3}, {"x2": 3}])
def test_lag_selection_rejects_a_max_exog_key_that_names_no_exogenous_term(max_exog):
    data = generate(DgpSpec(n_entities=60, n_periods=9, exogenous_betas=(1.0, -0.5), seed=2))
    with pytest.raises(ValueError) as info:
        lag_selection(data, static_model(), max_ar=1, max_exog=max_exog)
    assert str(info.value) == "max_exog names no exogenous term of the template: ['x2']"


def test_lag_selection_rejects_an_empty_model():
    data = generate(DgpSpec(n_entities=40, n_periods=6, seed=2))
    template = ModelSpec("y", ar_lags=1, intercept=False)
    with pytest.raises(ValueError, match="no regressor and no intercept"):
        lag_selection(data, template, max_ar=0)


def test_lag_selection_common_sample():
    data = generate(DgpSpec(n_entities=30, n_periods=8, rho=0.5,
                            sigma_effect=0.0, seed=3))
    sel = lag_selection(data, static_model(), max_ar=3, max_exog={"x1": 0})
    # all candidates share the deepest-lag sample, so likelihoods are
    # commensurable: every candidate reports the same implicit n through
    # consistent penalty terms (check monotone penalty ordering instead)
    aic = {c.ar: c.aic for c in sel.candidates}
    bic = {c.ar: c.schwarz for c in sel.candidates}
    assert set(aic) == {1, 2, 3}
    for ar in (2, 3):
        assert bic[ar] - aic[ar] > bic[1] - aic[1] - 1e-9


# ---------------------------------------------------------------------------
# report composition

def test_report_for_gmm_includes_j_and_ar():
    res = fd_fit(n=120, T=8)
    rep = report_for(res)
    assert rep.j is not None
    orders = [t.order for t in rep.ar_tests]
    assert orders == [1, 2]
    d = rep.to_json_dict()
    assert "j" in d and "ar" in d


@pytest.mark.parametrize("kind, calls", [
    (TransformKind.FIRST_DIFFERENCE, 0), (TransformKind.ORTHOGONAL_DEVIATION, 1),
], ids=["fd", "od"])
def test_report_for_forms_scores_only_for_an_od_fits_differenced_system(
        brand_panel, monkeypatch, kind, calls):
    # an FD fit's J and AR tests read the fit's own scores; an OD fit's AR
    # test forms those of the differenced equations, once for both orders
    model = ModelSpec("pp", 1, (ExogTerm("bv"), ExogTerm("bt")), intercept=False,
                      transform=kind)
    spec = InstrumentSpec(dynamic=tuple(DynamicInstrument(v, 2) for v in ("pp", "bv", "bt")))
    res = fit_gmm(model, brand_panel, spec, weighting=ONE_STEP, on_singular="pinv")
    counted = []
    scores = estimators._scores
    for module in (estimators, diagnostics):
        monkeypatch.setattr(module, "_scores", lambda *a: counted.append(1) or scores(*a))
    rep = report_for(res)
    assert rep.j is not None and [t.order for t in rep.ar_tests] == [1, 2]
    assert len(counted) == calls


@pytest.mark.parametrize("kind", [TransformKind.FIRST_DIFFERENCE,
                                  TransformKind.ORTHOGONAL_DEVIATION], ids=["fd", "od"])
def test_report_for_leaves_out_an_ar_order_the_panel_cannot_test(kind):
    # four periods leave no FD residuals two periods apart
    data = generate(DgpSpec(n_entities=100, n_periods=4, seed=0))
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 3),),
                          static=(StaticInstrument("x1", 0, 0),))
    res = fit_gmm(ar1_model(kind), data, inst, weighting=ONE_STEP)
    with pytest.raises(DiagnosticError, match=r"too few periods for AR\(2\)"):
        ab_serial_correlation(res, 2)
    assert [t.order for t in report_for(res).ar_tests] == [1]


def test_report_for_re_includes_components():
    data = generate(DgpSpec(n_entities=60, n_periods=8, rho=0.3,
                            sigma_effect=1.0, seed=10))
    re = fit_plain(ar1_model(TransformKind.QUASI_DEMEAN), data)
    rep = report_for(re)
    assert rep.variance_components is not None
    d = rep.to_json_dict()
    assert "variance_components" in d
