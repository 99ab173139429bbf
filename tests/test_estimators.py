import copy
import csv
import functools
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

from dynpanel import (
    AlignmentError,
    DynpanelError,
    EstimationError,
    InstrumentSpec,
    DynamicInstrument,
    PanelDataset,
    PanelSeries,
    StaticInstrument,
    ONE_STEP,
    TWO_STEP,
    RankError,
    SingularWeightingError,
    from_arrays,
    fit_gmm,
    fit_plain,
    n_step,
)
from dynpanel import cli, estimators
from dynpanel.cli import _write_fitted
from dynpanel.diagnostics import report_for
from dynpanel.estimators import ExogTerm, ModelSpec, VarianceComponents, build_design, swamy_arora
from dynpanel.instruments import certified_full_rank
from dynpanel.simulate import DgpSpec, ar1_model, fd_od_comparison_configs, generate, run_experiment
from dynpanel.transforms import TransformKind, reconstruct_levels


def cross_section(y, X, names=("x1", "x2"), extra=None):
    """One-period panel: plain cross-section regression data."""
    n = len(y)
    variables = {"y": np.asarray(y, dtype=float).reshape(n, 1)}
    for j, name in enumerate(names[: X.shape[1]]):
        variables[name] = X[:, j].reshape(n, 1)
    for name, col in (extra or {}).items():
        variables[name] = np.asarray(col, dtype=float).reshape(n, 1)
    return from_arrays([f"i{k}" for k in range(n)], [1], variables)


# ---------------------------------------------------------------------------
# pooled OLS

def test_pooled_exact_fit():
    x = np.arange(1.0, 9.0)
    data = cross_section(2.0 * x, x.reshape(-1, 1), names=("x1",))
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=False)
    res = fit_plain(model, data)
    assert res.coefficient("x1") == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(res.residuals, 0.0, atol=1e-12)


@pytest.mark.parametrize("kind", [TransformKind.FIRST_DIFFERENCE,
                                  TransformKind.ORTHOGONAL_DEVIATION], ids=lambda k: k.value)
def test_fit_plain_rejects_differenced_and_deviated_models(kind):
    data = generate(DgpSpec(n_entities=20, n_periods=5, seed=2))
    with pytest.raises(ValueError, match=f"'{kind.value}' models need instruments; "
                                         "fit them with fit_gmm"):
        fit_plain(ar1_model(kind), data)


EFFECTS = {TransformKind.NONE: "none", TransformKind.WITHIN: "fixed",
           TransformKind.QUASI_DEMEAN: "random", TransformKind.FIRST_DIFFERENCE: "none",
           TransformKind.ORTHOGONAL_DEVIATION: "none"}


@pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
def test_effects_follow_the_transform(kind):
    effects = EFFECTS[kind]
    derived = ModelSpec("y", intercept=not kind.is_calendar, transform=kind)
    assert derived.effects == effects
    # an explicit value that agrees, as callers may still pass, changes nothing
    assert ModelSpec("y", intercept=not kind.is_calendar, effects=effects,
                     transform=kind) == derived
    # (within, "none") and (quasi_demean, "none") among them
    for other in {"none", "fixed", "random", "both"} - {effects}:
        with pytest.raises(ValueError, match=f"implies '{effects}' effects, not '{other}'"):
            replace(derived, effects=other)
    for target in TransformKind:
        if not target.is_calendar:
            moved = replace(derived, intercept=True, effects=None, transform=target)
            assert moved.effects == EFFECTS[target]


def test_random_effects_builds_one_design(monkeypatch):
    data = generate(DgpSpec(n_entities=30, n_periods=6, seed=4))
    calls = []
    build = estimators.build_design

    def counted(model, data):
        calls.append(model)
        return build(model, data)

    monkeypatch.setattr(estimators, "build_design", counted)
    model = ar1_model(TransformKind.QUASI_DEMEAN)
    fit_plain(model, data)
    assert calls == [model]


def test_random_effects_aligns_its_rows_once(monkeypatch):
    data = generate(DgpSpec(n_entities=30, n_periods=6, seed=4))
    model = ar1_model(TransformKind.QUASI_DEMEAN)
    want = swamy_arora(model, data)
    calls = []
    align = estimators.align_columns

    def counted(*args):
        calls.append(args)
        return align(*args)

    monkeypatch.setattr(estimators, "align_columns", counted)
    res = fit_plain(model, data)
    assert len(calls) == 1
    assert res.design.components == want


def test_random_effects_with_only_an_intercept():
    data = generate(DgpSpec(n_entities=30, n_periods=6, sigma_effect=2.0, seed=4))
    res = fit_plain(ModelSpec("y", ar_lags=0, transform=TransformKind.QUASI_DEMEAN), data)
    assert res.param_names == ("const",)
    assert res.design.components.sigma_u2 > 0


@pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
def test_design_carries_the_intercept_column(kind):
    data = generate(DgpSpec(n_entities=30, n_periods=6, missingness=0.1, seed=4))
    design = build_design(ar1_model(kind, intercept=not kind.is_calendar), data)
    slopes = ["y(-1)", "x1"]
    if kind not in (TransformKind.NONE, TransformKind.QUASI_DEMEAN):
        assert design.x_names == slopes
        assert design.X.shape[1] == design.X_level.shape[1] == 2
        return
    assert design.x_names == slopes + ["const"]
    const = np.ones(design.n)
    if kind is TransformKind.QUASI_DEMEAN:
        const = 1.0 - design.theta[design.entity_ids]
    assert design.X[:, -1].tobytes() == const.tobytes()
    assert design.X_level[:, -1].tobytes() == np.ones(design.n).tobytes()
    assert np.array_equal(design.X_level[:, :-1], design.sample.matrix[:, 1:])


@pytest.mark.parametrize("kwargs, message", [
    ({"ar_lags": 0, "intercept": False}, "no regressor and no intercept"),
    ({"exogenous": (ExogTerm("x1"), ExogTerm("y", 1))}, "'y' is the dependent"),
    ({"exogenous": (ExogTerm("x1"), ExogTerm("x2"), ExogTerm("x1", 2))},
     r"^exogenous variable\(s\) \['x1'\] named by more than one term$"),
    ({"transform": TransformKind.FIRST_DIFFERENCE, "intercept": True}, "have no intercept"),
    ({"transform": TransformKind.ORTHOGONAL_DEVIATION, "intercept": True}, "have no intercept"),
])
def test_model_spec_rejects_degenerate_models(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ModelSpec("y", **kwargs)


@pytest.mark.parametrize("make, message", [
    (lambda: estimators.Weighting("n_step", max_iter=2.5), "max_iter must be an integer, got 2.5"),
    (lambda: estimators.Weighting("n_step", max_iter=True), "max_iter must be an integer, got True"),
    (lambda: ModelSpec("y", ar_lags=1.5), "ar_lags must be an integer, got 1.5"),
    (lambda: ExogTerm("x1", 0.5), "lags must be an integer, got 0.5"),
], ids=["max_iter", "max_iter-bool", "ar_lags", "lags"])
def test_spec_counts_must_be_integers(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_spec_counts_may_be_numpy_integers():
    model = ModelSpec("y", ar_lags=np.int64(1), exogenous=(ExogTerm("x1", np.int32(0)),))
    assert model == ar1_model(TransformKind.NONE)
    assert n_step(max_iter=np.int64(3)) == n_step(max_iter=3)


def test_fixed_effects_without_slope_raise():
    data = generate(DgpSpec(n_entities=20, n_periods=5, seed=2))
    with pytest.raises(EstimationError, match="need a slope regressor"):
        fit_plain(ModelSpec("y", ar_lags=0, transform=TransformKind.WITHIN), data)


def test_pooled_monte_carlo_recovery():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1000)
    y = 1.0 + 0.5 * x + rng.normal(0, 0.01, size=1000)
    data = cross_section(y, x.reshape(-1, 1), names=("x1",))
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=True)
    res = fit_plain(model, data)
    assert res.coefficient("const") == pytest.approx(1.0, abs=0.01)
    assert res.coefficient("x1") == pytest.approx(0.5, abs=0.01)


def test_pooled_duplicate_regressor_rank_error():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(30)
    data = cross_section(x * 2, np.column_stack([x, x]))
    model = ModelSpec(
        "y", ar_lags=0,
        exogenous=(ExogTerm("x1"), ExogTerm("x2")), intercept=False,
    )
    with pytest.raises(RankError, match="collinear"):
        fit_plain(model, data)


def test_all_zero_regressors_rank_error_names_them():
    data = cross_section(np.arange(6.0), np.zeros((6, 2)))
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"), ExogTerm("x2")),
                      intercept=False)
    with pytest.raises(RankError) as info:
        fit_plain(model, data)
    assert str(info.value) == "regressor matrix is rank deficient; collinear column(s): ['x1', 'x2']"
    assert info.value.columns == ("x1", "x2")


def test_coefficient_of_an_unknown_name_is_a_key_error():
    res = fit_plain(ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),)),
                    generate(DgpSpec(n_entities=20, n_periods=5, seed=1)))
    with pytest.raises(KeyError) as info:
        res.coefficient("nope")
    assert info.value.args == ("no coefficient 'nope'; have ('x1', 'const')",)


def test_pooled_r2_consistency():
    dgp = DgpSpec(n_entities=50, n_periods=6, seed=2)
    res = fit_plain(ar1_model(TransformKind.NONE), generate(dgp))
    assert 0 <= res.r_squared_unweighted <= 1
    assert res.r_squared_weighted == res.r_squared_unweighted
    assert res.t_statistics == pytest.approx(
        res.coefficients / res.standard_errors
    )


# ---------------------------------------------------------------------------
# fixed effects

def two_entity_same_slope():
    # y = 3x within each entity, entity levels 0 and 100
    x = np.array([[1.0, 2, 3, 4], [1.0, 2, 3, 4]])
    y = 3.0 * x + np.array([[0.0], [100.0]])
    return from_arrays(["a", "b"], range(1, 5), {"y": y, "x1": x})


def test_fe_removes_levels():
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),),
                      intercept=True, effects="fixed", transform=TransformKind.WITHIN)
    res = fit_plain(model, two_entity_same_slope())
    assert res.coefficient("x1") == pytest.approx(3.0, abs=1e-10)


def reference_lsdv(model, data):
    """Least squares of the levels on the slopes and one dummy per entity
    in the sample: slopes, residuals, and effects by entity index (NaN
    for entities outside the sample)."""
    design = build_design(model, data)
    ents = np.unique(design.entity_ids)
    X = np.column_stack([design.X_level, design.entity_ids[:, None] == ents])
    coef, *_ = np.linalg.lstsq(X, design.y_level, rcond=None)
    k = design.X_level.shape[1]
    effects = np.full(data.n_entities, np.nan)
    effects[ents] = coef[k:]
    return coef[:k], design.y_level - X @ coef, effects


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n_entities=st.integers(3, 30),
    n_periods=st.integers(4, 10),
    rho=st.floats(-0.9, 0.9),
    sigma_effect=st.floats(0.0, 5.0),
    missingness=st.floats(0.0, 0.4),
    intercept=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_lsdv_equals_within(n_entities, n_periods, rho, sigma_effect, missingness,
                            intercept, seed):
    data = generate(DgpSpec(n_entities=n_entities, n_periods=n_periods, rho=rho,
                            sigma_effect=sigma_effect, missingness=missingness, seed=seed))
    model = ar1_model(TransformKind.WITHIN, intercept=intercept)
    try:
        within = fit_plain(model, data)
    except DynpanelError:
        assume(False)
    # leave out exact fits, whose SEs are rounding noise
    k = within.design_matrix.shape[1]
    assume(within.sample_size - np.unique(within.design.entity_ids).size - k >= 3)
    slopes, resid, effects = reference_lsdv(model, data)
    scale = float(np.abs(within.design.y_level).max())

    def close(got, want, scale):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * scale

    close(slopes, within.coefficients[:k], np.abs(within.coefficients).max())
    if intercept:
        close(np.nanmean(effects), within.coefficient("const"), scale)
    close(resid, within.residuals, scale)
    present = np.isfinite(within.entity_effects)
    assert np.array_equal(np.isfinite(effects), present)
    close(effects[present], within.entity_effects[present], scale)


def test_fe_on_one_entity_raises():
    data = generate(DgpSpec(n_entities=1, n_periods=6, seed=1))
    with pytest.raises(EstimationError, match="^fixed effects need at least 2 entities in sample$"):
        fit_plain(ar1_model(TransformKind.WITHIN), data)


def test_fe_monte_carlo_recovery():
    rng = np.random.default_rng(77)
    n, T = 200, 6
    effects = rng.uniform(-5, 5, size=n)
    x = rng.standard_normal((n, T))
    y = 0.7 * x + effects[:, None] + rng.normal(0, 0.5, size=(n, T))
    data = from_arrays([f"e{i}" for i in range(n)], range(1, T + 1),
                       {"y": y, "x1": x})
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),),
                      intercept=True, effects="fixed", transform=TransformKind.WITHIN)
    res = fit_plain(model, data)
    assert res.coefficient("x1") == pytest.approx(0.7, abs=0.03)


# ---------------------------------------------------------------------------
# random effects

def test_re_zero_sigma_u_equals_pooled():
    # flooring verified for this seed: the between variance falls below
    # sigma_e^2 / T so the u-component is clamped to zero and theta = 0
    data = generate(DgpSpec(n_entities=100, n_periods=8, rho=0.5,
                            sigma_effect=0.0, seed=0))
    pooled = fit_plain(ar1_model(TransformKind.NONE), generate(
        DgpSpec(n_entities=100, n_periods=8, rho=0.5, sigma_effect=0.0, seed=0)))
    re = fit_plain(ar1_model(TransformKind.QUASI_DEMEAN), data)
    assert re.design.components.sigma_u2 == 0.0
    assert np.allclose(re.coefficients, pooled.coefficients, atol=1e-12)
    assert np.allclose(re.standard_errors, pooled.standard_errors, atol=1e-12)


def test_re_theta_one_limit_approaches_fe(monkeypatch):
    data = generate(DgpSpec(n_entities=60, n_periods=8, rho=0.4,
                            sigma_effect=2.0, seed=3))
    model = ar1_model(TransformKind.QUASI_DEMEAN)
    # choose sigma_u2 so that theta = 0.9999 for every entity (balanced T)
    design = build_design(
        ModelSpec("y", 1, (ExogTerm("x1"),), False, "none", TransformKind.NONE),
        data,
    )
    T = int(np.bincount(design.entity_ids).max())
    sigma_e2 = 1.0
    theta = 0.9999
    sigma_u2 = sigma_e2 / T * (1.0 / (1.0 - theta) ** 2 - 1.0)
    comp = VarianceComponents(sigma_u2=sigma_u2, sigma_e2=sigma_e2, floored=False)
    monkeypatch.setattr(estimators, "_swamy_arora", lambda model, sample: comp)
    re = fit_plain(model, data)
    fe = fit_plain(ar1_model(TransformKind.WITHIN), data)
    for name in ("y(-1)", "x1"):
        assert re.coefficient(name) == pytest.approx(fe.coefficient(name), abs=1e-4)


def test_re_coverage_static_dgp():
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=True,
                      effects="random", transform=TransformKind.QUASI_DEMEAN)
    cover = 0
    reps = 200
    for rep in range(reps):
        data = generate(DgpSpec(n_entities=100, n_periods=6, rho=0.0,
                                sigma_effect=1.5, seed=505), replication=rep)
        res = fit_plain(model, data)
        b, se = res.coefficient("x1"), res.se("x1")
        cover += abs(b - 1.0) <= 1.96 * se
    assert cover / reps >= 0.90


def test_swamy_arora_needs_more_entities_than_between_parameters():
    data = generate(DgpSpec(n_entities=2, n_periods=5, seed=1))
    with pytest.raises(EstimationError) as info:
        swamy_arora(ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),)), data)
    assert str(info.value) == "too few entities (2) for the between regression with 1 slopes"


def test_re_negative_sigma_e_rejected(monkeypatch):
    data = generate(DgpSpec(n_entities=20, n_periods=5, seed=1))
    comp = VarianceComponents(sigma_u2=1.0, sigma_e2=0.0, floored=False)
    monkeypatch.setattr(estimators, "_swamy_arora", lambda model, sample: comp)
    with pytest.raises(EstimationError):
        fit_plain(ar1_model(TransformKind.QUASI_DEMEAN), data)


# ---------------------------------------------------------------------------
# GMM

def test_gmm_exactly_identified_equals_ols():
    rng = np.random.default_rng(21)
    n = 200
    x1, x2 = rng.standard_normal((2, n))
    y = 1.5 * x1 - 0.5 * x2 + rng.normal(0, 0.3, n)
    data = cross_section(y, np.column_stack([x1, x2]))
    model = ModelSpec("y", ar_lags=0,
                      exogenous=(ExogTerm("x1"), ExogTerm("x2")), intercept=False)
    inst = InstrumentSpec(static=(StaticInstrument("x1"), StaticInstrument("x2")))
    ols = fit_plain(model, data)
    for weighting in (ONE_STEP, TWO_STEP):
        gmm = fit_gmm(model, data, inst, weighting=weighting)
        assert np.allclose(gmm.coefficients, ols.coefficients, atol=1e-10)
    # exact identification zeroes the sample moments
    gmm = fit_gmm(model, data, inst)
    Z = gmm.instruments.matrix
    assert np.max(np.abs(Z.T @ gmm.residuals)) < 1e-8


def brute_force_gmm(y, X, Z, W):
    def objective(beta):
        g = Z.T @ (y - X @ beta)
        return float(g @ W @ g)

    best = None
    for start in ([0.0, 0.0], [1.0, 1.0], [-1.0, 2.0]):
        r = scipy.optimize.minimize(objective, start, method="Nelder-Mead",
                                    options={"xatol": 1e-12, "fatol": 1e-14,
                                             "maxiter": 20000})
        if best is None or r.fun < best.fun:
            best = r
    return best.x, objective


def test_gmm_overidentified_matches_brute_force():
    rng = np.random.default_rng(4)
    n = 300
    z = rng.standard_normal((n, 3))
    x1 = z[:, 0] + 0.5 * z[:, 1] + rng.standard_normal(n)
    x2 = z[:, 2] - 0.3 * z[:, 1] + rng.standard_normal(n)
    y = 2.0 * x1 + 1.0 * x2 + rng.standard_normal(n)
    data = cross_section(
        y, np.column_stack([x1, x2]),
        extra={"z1": z[:, 0], "z2": z[:, 1], "z3": z[:, 2]},
    )
    model = ModelSpec("y", ar_lags=0,
                      exogenous=(ExogTerm("x1"), ExogTerm("x2")), intercept=False)
    inst = InstrumentSpec(static=tuple(StaticInstrument(f"z{k}") for k in (1, 2, 3)))
    res = fit_gmm(model, data, inst, weighting=ONE_STEP)
    design = build_design(model, data)
    Z = res.instruments.matrix
    W = res.weighting_matrix
    beta_bf, objective = brute_force_gmm(design.y, design.X, Z, W)
    assert np.allclose(res.coefficients, beta_bf, atol=1e-8)
    # local optimality of the quadratic form at the estimate
    f0 = objective(res.coefficients)
    rng2 = np.random.default_rng(11)
    for _ in range(100):
        delta = rng2.standard_normal(2)
        delta *= rng2.uniform(0, 0.1) / np.linalg.norm(delta)
        assert objective(res.coefficients + delta) >= f0 - 1e-12


def test_gmm_od_recovers_rho_across_seeds():
    model = ar1_model(TransformKind.ORTHOGONAL_DEVIATION)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 1, 3),),
                          static=(StaticInstrument("x1"),))
    for seed in (1, 2, 3):
        est = []
        for rep in range(10):
            data = generate(DgpSpec(n_entities=500, n_periods=8, rho=0.5,
                                    seed=seed), replication=rep)
            res = fit_gmm(model, data, inst, weighting=TWO_STEP)
            est.append(res.coefficient("y(-1)"))
        assert np.mean(est) == pytest.approx(0.5, abs=0.05)


def _fd_od_fits(data, dep, exog, instruments):
    """OD and FD fits with their reports at one, two and n steps, the last
    two with and without the Windmeijer correction."""
    fits = {}
    for kind in (TransformKind.ORTHOGONAL_DEVIATION, TransformKind.FIRST_DIFFERENCE):
        model = ModelSpec(dep, ar_lags=1, exogenous=exog, intercept=False, transform=kind)
        for weighting in (ONE_STEP, TWO_STEP, n_step(max_iter=500)):
            for windmeijer in (False,) if weighting is ONE_STEP else (False, True):
                res = fit_gmm(model, data, instruments(kind), weighting=weighting,
                              on_singular="pinv", windmeijer=windmeijer)
                fits[kind.value, weighting.kind, windmeijer] = res, report_for(res)
    return fits


@pytest.fixture(scope="module")
def order_invariance_cases(brand_panel):
    """Per panel: the data, how to fit it, and its fits in the given order.

    The brand panel's OD and FD instruments (108 and 135 columns) have
    rank 107 and 131; the generated panel's have full rank.
    """
    brand_inst = InstrumentSpec(dynamic=(
        DynamicInstrument("pp", 2), DynamicInstrument("bv", 2), DynamicInstrument("bt", 2)))
    cases = {
        "brand": (brand_panel, ("pp", (ExogTerm("bv"), ExogTerm("bt")), lambda _: brand_inst)),
        "generated": (generate(DgpSpec(n_entities=50, n_periods=8, rho=0.5, seed=13)),
                      ("y", (ExogTerm("x1"),), _ar1_instruments)),
    }
    return {name: (data, how, _fd_od_fits(data, *how)) for name, (data, how) in cases.items()}


@pytest.mark.parametrize("panel", ["brand", "generated"])
@settings(max_examples=6, derandomize=True, deadline=None)
@given(draw=st.data(), shift=st.integers(-30, 30))
def test_gmm_fits_do_not_depend_on_entity_order_or_year_labels(
    order_invariance_cases, panel, draw, shift
):
    data, how, want = order_invariance_cases[panel]
    perm = draw.draw(st.permutations(range(data.n_entities)))
    moved = from_arrays([data.entities[i] for i in perm], [p + shift for p in data.periods],
                        {name: s.values[perm] for name, s in data.series.items()})

    def stats(res, report):
        return np.array([*res.standard_errors, report.j.statistic,
                         *(t.statistic for t in report.ar_tests)])

    for key, (res, report) in _fd_od_fits(moved, *how).items():
        ref, ref_report = want[key]
        assert res.steps_taken == ref.steps_taken, key
        assert len(report.ar_tests) == len(ref_report.ar_tests), key
        assert np.allclose(res.coefficients, ref.coefficients, rtol=1e-10, atol=0), key
        assert np.allclose(stats(res, report), stats(ref, ref_report), rtol=1e-8, atol=0), key


def test_gmm_instrument_scaling_invariance():
    dgp = DgpSpec(n_entities=60, n_periods=7, rho=0.5, seed=14)
    data = generate(dgp)
    # z = 37 x1 enters only as an instrument, in place of x1
    data = from_arrays(data.entities, data.periods, {
        **{name: s.values for name, s in data.series.items()},
        "z": 37.0 * data.series["x1"].values,
    })
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)

    def fit(static):
        inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2),),
                              static=(StaticInstrument(static),))
        return fit_gmm(model, data, inst, weighting=TWO_STEP)

    r1, r2 = fit("x1"), fit("z")
    assert not np.array_equal(r1.instruments.matrix, r2.instruments.matrix)
    assert np.allclose(r1.coefficients, r2.coefficients, atol=1e-8)


def test_two_step_equals_n_step_on_immediate_convergence():
    # exactly identified: every weighting step returns the same estimate,
    # so the n-step iteration stops at step 2 with the two-step numbers
    rng = np.random.default_rng(3)
    n = 100
    x = rng.standard_normal(n)
    y = 2.0 * x + rng.normal(0, 0.2, n)
    data = cross_section(y, x.reshape(-1, 1), names=("x1",))
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=False)
    inst = InstrumentSpec(static=(StaticInstrument("x1"),))
    two = fit_gmm(model, data, inst, weighting=TWO_STEP)
    iterated = fit_gmm(model, data, inst, weighting=n_step())
    assert iterated.steps_taken == 2
    assert np.allclose(two.coefficients, iterated.coefficients, atol=1e-14)


def test_n_step_non_convergence_error():
    dgp = DgpSpec(n_entities=40, n_periods=8, rho=0.5, seed=15)
    data = generate(dgp)
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2),),
                          static=(StaticInstrument("x1"),))
    with pytest.raises(EstimationError, match="did not converge"):
        fit_gmm(model, data, inst, weighting=n_step(max_iter=1, tol=0.0))


@pytest.mark.parametrize("max_iter, tol", [(0, 1e-8), (-3, 1e-8), (10, float("nan")),
                                           (10, float("inf")), (10, -1e-8)])
def test_weighting_rejects_bad_iteration_settings(max_iter, tol):
    with pytest.raises(ValueError, match="max_iter|tol"):
        n_step(max_iter=max_iter, tol=tol)
    assert n_step(max_iter=1, tol=0.0).tol == 0.0


def test_weighting_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown weighting 'three_step'$"):
        estimators.Weighting("three_step")


def test_singular_weighting_error_and_pinv_escape():
    # more instrument columns than entities makes the two-step moment
    # covariance rank deficient
    dgp = DgpSpec(n_entities=6, n_periods=10, rho=0.5, seed=16)
    data = generate(dgp)
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2),),
                          static=(StaticInstrument("x1"),))
    with pytest.raises(SingularWeightingError, match="collapse"):
        fit_gmm(model, data, inst, weighting=TWO_STEP)
    res = fit_gmm(model, data, inst, weighting=TWO_STEP, on_singular="pinv")
    assert res.weighting_rank <= 6


def test_rank_deficient_instruments_make_the_one_step_weight_singular():
    # Z is 48 x 37 of rank 36, so the one-step weight is singular; whether
    # a Cholesky of it succeeds depends on rounding, and so on entity order
    data = generate(DgpSpec(8, 10, rho=0.5, missingness=0.1, seed=21))
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2),),
                          static=(StaticInstrument("x1"),))
    rng = np.random.default_rng(21)
    fits = []
    for order in [np.arange(8)] + [rng.permutation(8) for _ in range(8)]:
        shuffled = from_arrays([data.entities[i] for i in order], data.periods,
                               {v: s.values[order] for v, s in data.series.items()})
        with pytest.raises(SingularWeightingError):
            fit_gmm(model, shuffled, inst, weighting=ONE_STEP)
        fits.append(fit_gmm(model, shuffled, inst, weighting=ONE_STEP, on_singular="pinv"))
    assert fits[0].instruments.n_columns == 37 and fits[0].instruments.rank == 36
    for res in fits:
        assert res.weighting_rank == 36
        assert np.allclose(res.coefficients, fits[0].coefficients, rtol=1e-10, atol=0)


def test_gmm_windmeijer_correction_widens_se():
    dgp = DgpSpec(n_entities=100, n_periods=10, rho=0.8, seed=11)
    data = generate(dgp)
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 4),),
                          static=(StaticInstrument("x1"),))
    plain = fit_gmm(model, data, inst, weighting=TWO_STEP)
    corrected = fit_gmm(model, data, inst, weighting=TWO_STEP, windmeijer=True)
    assert np.allclose(plain.coefficients, corrected.coefficients)
    assert corrected.se("y(-1)") >= plain.se("y(-1)")


def test_gmm_zx_rank_error():
    # x1 and x2 are independent, so build_design passes them; the
    # instruments z1 and 3 z1 span one direction, so Z'X has rank 1
    rng = np.random.default_rng(2)
    n = 50
    x = rng.standard_normal((n, 2))
    z = rng.standard_normal(n)
    y = x @ [1.0, -0.5] + rng.standard_normal(n)
    data = cross_section(y, x, extra={"z1": z, "z2": 3.0 * z})
    model = ModelSpec("y", ar_lags=0,
                      exogenous=(ExogTerm("x1"), ExogTerm("x2")), intercept=False)
    inst = InstrumentSpec(static=(StaticInstrument("z1"), StaticInstrument("z2")))
    with pytest.raises(RankError, match="Z'X is rank deficient"):
        fit_gmm(model, data, inst)


def test_gmm_zx_rank_error_names_the_regressors():
    # static(x1, 0) twice: two instrument columns, but Z'X has rank 1 for two slopes
    data = generate(DgpSpec(n_entities=40, n_periods=6, seed=2))
    inst = InstrumentSpec(static=(StaticInstrument("x1"), StaticInstrument("x1")))
    with pytest.raises(RankError) as info:
        fit_gmm(ar1_model(TransformKind.FIRST_DIFFERENCE), data, inst, ONE_STEP)
    assert str(info.value) == "Z'X is rank deficient; instruments do not identify ['y(-1)', 'x1']"


# ---------------------------------------------------------------------------
# fitted values and level reconstruction

def test_fitted_levels_zero_residuals():
    x = np.arange(1.0, 7.0).reshape(1, 6)
    data = from_arrays(["a"], range(1, 7), {"y": 2 * x, "x1": x})
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),), intercept=False)
    res = fit_plain(model, data)
    assert np.allclose(res.fitted_level, res.design.y_level, atol=1e-10)


def test_plain_fe_transformed_columns_are_within_demeaned():
    data = generate(DgpSpec(n_entities=25, n_periods=6, rho=0.4, missingness=0.1, seed=8))
    res = fit_plain(ar1_model(TransformKind.WITHIN), data)
    design = res.design
    demeaned = design.y_level.copy()
    for e in np.unique(design.entity_ids):
        rows = design.entity_ids == e
        demeaned[rows] -= design.y_level[rows].mean()
    assert np.allclose(design.y, demeaned, rtol=0, atol=1e-10)
    assert np.allclose(design.y - res.fitted_transformed, res.residuals, rtol=0, atol=1e-10)


def reference_fit_csv(res, path):
    """Row-by-row writer of the ``--fitted-out`` layout."""
    design = res.design
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["entity", "period", "actual_transformed", "fitted_transformed",
                         "actual_level", "fitted_level"])
        for i in range(design.n):
            level = res.level_mask[i]
            writer.writerow([
                design.data.entities[design.entity_ids[i]],
                int(design.periods[i]),
                repr(float(design.y[i])),
                repr(float(res.fitted_transformed[i])),
                repr(float(design.y_level[i])) if level else "",
                repr(float(res.fitted_level[i])) if level else "",
            ])


@pytest.mark.parametrize("kind", [TransformKind.FIRST_DIFFERENCE,
                                  TransformKind.ORTHOGONAL_DEVIATION, TransformKind.WITHIN])
def test_fitted_out_csv_matches_row_writer(brand_panel, tmp_path, kind):
    model = ModelSpec("pp", exogenous=(ExogTerm("bv"),), intercept=False, transform=kind)
    if kind is TransformKind.WITHIN:
        res = fit_plain(model, brand_panel)
    else:
        inst = InstrumentSpec(dynamic=(DynamicInstrument("pp", 2, 3),))
        res = fit_gmm(model, brand_panel, inst, ONE_STEP, on_singular="pinv")
        # blank some level cells, as where a level fit has no anchor: the mask is
        # derived on first read, so seed its cached value on a copy
        mask = res.level_mask & (np.arange(res.level_mask.size) % 5 > 0)
        res = copy.copy(res)
        res.__dict__["level_mask"] = mask
    _write_fitted(res, tmp_path / "table.csv")
    reference_fit_csv(res, tmp_path / "reference.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_fitted_levels_od_table(brand_panel):
    model = ModelSpec("pp", ar_lags=1,
                      exogenous=(ExogTerm("bv"), ExogTerm("bt")), intercept=False,
                      transform=TransformKind.ORTHOGONAL_DEVIATION)
    inst = InstrumentSpec(dynamic=(
        DynamicInstrument("pp", 2), DynamicInstrument("bv", 2),
        DynamicInstrument("bt", 2)))
    res = fit_gmm(model, brand_panel, inst, weighting=ONE_STEP, on_singular="pinv")
    assert res.fitted_level.size == res.design.entity_ids.size == 258
    assert res.sample_size == 258
    # transformed-scale R^2 is the squared correlation by definition
    r2 = np.corrcoef(res.design.y, res.fitted_transformed)[0, 1] ** 2
    assert r2 == pytest.approx(res.r_squared_unweighted)


def test_fd_fitted_levels_anchor_on_lagged_actuals(brand_panel):
    model = ModelSpec("pp", ar_lags=1, exogenous=(ExogTerm("bv"), ExogTerm("bt")),
                      intercept=False, transform=TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("pp", 2),),
                          static=(StaticInstrument("bv"), StaticInstrument("bt")))
    res = fit_gmm(model, brand_panel, inst, weighting=ONE_STEP, on_singular="pinv")
    design = res.design
    pp = brand_panel.series["pp"]
    for i in range(min(50, design.n)):
        e, t = design.entity_ids[i], design.periods[i]
        j = t - brand_panel.periods[0]
        expected = pp.values[e, j - 1] + res.fitted_transformed[i]
        assert res.fitted_level[i] == pytest.approx(expected)


# ---------------------------------------------------------------------------
# level fits and R-squared, derived on first read

def eager_level_fit(res):
    """The level fit and its mask by the formulas fits once ran on every fit:
    FD/OD through ``reconstruct_levels`` on the grid, within fits alpha_a +
    x'beta, others the level regressors times beta."""
    design, model = res.design, res.design.model
    beta = res.coefficients[:len(design.x_names)]
    if model.transform.is_calendar:
        data = design.data
        rows = (design.entity_ids, design.periods - data.periods[0])
        grid = np.full((data.n_entities, data.n_periods), np.nan)
        mask = np.zeros(grid.shape, dtype=bool)
        grid[rows], mask[rows] = res.fitted_transformed, True
        dep = data.require(model.dependent)
        level, level_mask = reconstruct_levels(grid, mask, dep.values, dep.mask, model.transform)
        return level[rows], level_mask[rows]
    fitted = design.X_level @ beta
    if model.transform is TransformKind.WITHIN:
        fitted = res.entity_effects[design.entity_ids] + fitted
    return fitted, np.ones(design.n, dtype=bool)


def eager_r_squared(res, level):
    """(weighted, unweighted) R-squared by the formulas fits once ran on every fit."""
    design, kind = res.design, res.design.model.transform
    quasi = kind is TransformKind.QUASI_DEMEAN
    if res.instruments is None:
        def r2(y, fitted):
            center = design.model.intercept or kind is not TransformKind.NONE
            dev = y - y.mean() if center else y
            ss_tot = float(dev @ dev)
            return 1.0 - float((y - fitted) @ (y - fitted)) / ss_tot if ss_tot > 0 else np.nan
        unweighted = r2(design.y_level, level)
        return (r2(design.y, res.fitted_transformed) if quasi else unweighted), unweighted
    def corr2(y, fitted):
        if y.size < 2 or np.std(y) == 0 or np.std(fitted) == 0:
            return np.nan
        return float(np.corrcoef(y, fitted)[0, 1] ** 2)
    weighted = corr2(design.y, res.fitted_transformed)
    return weighted, (corr2(design.y_level, level) if quasi else weighted)


def _derived_cases():
    level_inst = InstrumentSpec(static=(StaticInstrument("x1", 0, 2),), include_intercept=True)
    calendar_inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 3),),
                                   static=(StaticInstrument("x1"),))
    models = [ar1_model(kind) for kind in TransformKind]
    models.append(ar1_model(TransformKind.WITHIN, intercept=True))  # grand-mean const
    for model in models:
        kind = model.transform
        inst = calendar_inst if kind.is_calendar else level_inst
        label = kind.value + ("+const" if kind is TransformKind.WITHIN and model.intercept else "")
        if not kind.is_calendar:
            yield pytest.param(model, None, None, id=f"{label}-plain")
        for weighting in (ONE_STEP, TWO_STEP, n_step(max_iter=500)):
            yield pytest.param(model, inst, weighting, id=f"{label}-{weighting.kind}")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("model, inst, weighting", _derived_cases())
def test_derived_attributes_match_the_eager_formulas(model, inst, weighting, seed):
    data = generate(DgpSpec(n_entities=40, n_periods=8, missingness=0.15, seed=seed))
    if inst is None:
        res = fit_plain(model, data)
    else:
        res = fit_gmm(model, data, inst, weighting, on_singular="pinv")
    assert "fitted_level" not in res.__dict__  # nothing derived before the first read
    level, mask = eager_level_fit(res)
    assert res.fitted_level.tobytes() == level.tobytes()
    assert res.level_mask.tobytes() == mask.tobytes()
    weighted, unweighted = eager_r_squared(res, level)
    assert repr(res.r_squared_weighted) == repr(weighted)
    assert repr(res.r_squared_unweighted) == repr(unweighted)
    assert (res.entity_effects is None) == (model.transform is not TransformKind.WITHIN)


def counted(monkeypatch, module, name):
    """The calls to ``module.name`` from now on, one entry each."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_monte_carlo_derives_no_level_fit_or_r_squared(monkeypatch):
    calls = [counted(monkeypatch, estimators, name)
             for name in ("reconstruct_levels", "_squared_correlation", "_r_squared")]
    summary = run_experiment(DgpSpec(n_entities=60, n_periods=8, rho=0.5, seed=4),
                             fd_od_comparison_configs(), reps=2)
    assert [e.n_success for e in summary.estimators] == [2, 2]
    assert calls == [[], [], []]


def test_replicate_computes_each_r_squared_once(monkeypatch, brand_panel_csv, tmp_path, capsys):
    rebuilt = counted(monkeypatch, estimators, "reconstruct_levels")
    corr = counted(monkeypatch, estimators, "_squared_correlation")
    code = cli.main(["replicate", "--data", brand_panel_csv, "--out", "json",
                     "--output-dir", str(tmp_path)])
    records = json.loads(capsys.readouterr().out)
    assert code == 0
    # one per column, and random effects' level R-squared besides its weighted one
    assert [r["r2"] == r["r2_weighted"] for r in records.values()].count(False) == 1
    assert (len(corr), rebuilt) == (len(records) + 1, [])


def test_a_derived_attribute_is_computed_once(monkeypatch, brand_panel):
    model = ModelSpec("pp", exogenous=(ExogTerm("bv"),), intercept=False,
                      transform=TransformKind.FIRST_DIFFERENCE)
    res = fit_gmm(model, brand_panel, InstrumentSpec(dynamic=(DynamicInstrument("pp", 2, 3),)),
                  ONE_STEP, on_singular="pinv")
    calls = counted(monkeypatch, estimators, "reconstruct_levels")
    assert res.fitted_level is res.fitted_level
    assert res.level_mask.all()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the rank certificate from the k x k Gram

def qr_dependent_columns(X, names):
    """The columns the pivoted QR of X's scaled columns names after the rank,
    [] at full rank: the test ``_check_rank`` ran on every design."""
    Xs = X / estimators._column_scale(X)
    r, piv = scipy.linalg.qr(Xs, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = 0 if diag[0] == 0.0 else int(np.sum(diag > 1e-12 * diag[0]))
    return [names[j] for j in piv[rank:]]


def _dependent_designs():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(200)
    for scale in (1e-90, 1e-45, 1.0, 1e45, 1e90):
        yield pytest.param(scale * np.column_stack([x, 2.0 * x]), id=f"double-{scale:g}")
    yield pytest.param(np.column_stack([x, x * (1 + 1e-13 * rng.standard_normal(200))]),
                       id="near-copy-1e-13")
    yield pytest.param(np.column_stack([x, np.zeros(200)]), id="zero-column")
    # the Gram's products are subnormal and keep few digits at 1e-160
    yield pytest.param(1e-160 * np.column_stack([x[:20], 3.0 * x[:20]]), id="gram-underflows")


@pytest.mark.parametrize("X", _dependent_designs())
def test_the_certificate_passes_no_rank_deficient_design(X):
    names = ["x1", "x2"]
    assert not certified_full_rank(X.T @ X, estimators._column_scale(X), X.shape[0])
    expected = qr_dependent_columns(X, names)
    assert expected
    with pytest.raises(RankError) as info:
        estimators._check_rank(X, names)
    assert info.value.columns == tuple(expected)
    assert str(info.value) == f"regressor matrix is rank deficient; collinear column(s): {expected}"


@pytest.mark.parametrize("scale", [1e-160, 1e-90, 1e-45, 1.0, 1e45, 1e90])
def test_the_certificate_passes_no_rank_deficient_cross_moments(scale):
    # x1 and x2 are independent; the instruments s z and 2 s z give Z'X rank 1
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 2))
    z = scale * rng.standard_normal(50)
    data = cross_section(x @ [1.0, -0.5] + rng.standard_normal(50), x,
                         extra={"z1": z, "z2": 2.0 * z})
    model = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"), ExogTerm("x2")),
                      intercept=False)
    inst = InstrumentSpec(static=(StaticInstrument("z1"), StaticInstrument("z2")))
    Z = np.column_stack([z, 2.0 * z])
    G = Z.T @ x
    assert not certified_full_rank(G.T @ G, estimators._column_scale(G), G.shape[0])
    with pytest.raises(RankError) as info:
        fit_gmm(model, data, inst, ONE_STEP)
    assert str(info.value) == "Z'X is rank deficient; instruments do not identify ['x1', 'x2']"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.integers(3, 60), k=st.integers(2, 4), digits=st.integers(0, 17),
    spread=st.integers(0, 90), seed=st.integers(0, 2**32 - 1),
)
def test_a_certified_matrix_has_full_rank_by_qr_and_svd(n, k, digits, spread, seed):
    # the last column repeats a mix of the others up to noise at 10^-digits
    assume(n >= k)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    X[:, -1] = X[:, :-1] @ rng.standard_normal(k - 1) + 10.0**-digits * X[:, -1]
    X *= 10.0 ** rng.uniform(-spread, spread, k)
    scale = estimators._column_scale(X)
    if certified_full_rank(X.T @ X, scale, n):
        assert qr_dependent_columns(X, list(range(k))) == []
        assert np.linalg.matrix_rank(X / scale) == k


def test_comparison_fits_certify_their_designs_without_a_factorization(monkeypatch):
    data = generate(DgpSpec(500, 11, rho=0.85))
    qr = counted(monkeypatch, scipy.linalg, "qr")
    matrix_rank = counted(monkeypatch, np.linalg, "matrix_rank")
    fits = [config.fit(data) for config in fd_od_comparison_configs()]
    assert all(np.isfinite(fit.coefficients).all() for fit in fits)
    assert (qr, matrix_rank) == ([], [])


# ---------------------------------------------------------------------------
# entity-block algebra against its per-entity definitions

def gapped_panel(seed=5, n=14, T=10):
    """Random unbalanced panel with interior gaps and ragged spans."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, T)).cumsum(axis=1)
    x1 = rng.standard_normal((n, T))
    absent = rng.random((n, T)) < 0.12
    absent[0] = False
    absent[0, 5] = True      # one interior hole
    absent[1, :2] = True     # late entry
    y[absent] = np.nan
    x1[absent] = np.nan
    return from_arrays([f"e{a}" for a in range(n)], range(2001, 2001 + T),
                       {"y": y, "x1": x1})


def fd_design_and_instruments(data):
    from dynpanel.instruments import assemble

    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    design = build_design(model, data)
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 4),),
                          static=(StaticInstrument("x1"),))
    zmat = assemble(spec, data, design.sample, transform=TransformKind.FIRST_DIFFERENCE)
    return model, spec, design, zmat


def entity_rows(entity_ids):
    return [np.flatnonzero(entity_ids == e) for e in np.unique(entity_ids)]


def test_fd_one_step_weight_equals_explicit_h():
    from dataclasses import replace

    from dynpanel.estimators import _one_step_weight_blocks

    _, _, design, zmat = fd_design_and_instruments(gapped_panel())
    Z = zmat.matrix
    # move the first entity's second row one period earlier, so that its
    # adjacent rows are two periods apart and must get no -1 in H
    periods = design.periods.copy()
    rows0 = entity_rows(design.entity_ids)[0]
    assert rows0.size >= 3
    periods[rows0[0]] = periods[rows0[1]] - 2
    design = replace(design, sample=replace(design.sample, periods=periods))
    gaps = [np.diff(periods[r]) for r in entity_rows(design.entity_ids)]
    assert any((g == 2).any() for g in gaps)
    assert any((g > 2).any() for g in gaps)

    expected = np.zeros((Z.shape[1], Z.shape[1]))
    for rows in entity_rows(design.entity_ids):
        p = periods[rows]
        H = 2.0 * np.eye(rows.size)
        H[np.abs(p[:, None] - p[None, :]) == 1] = -1.0
        expected += Z[rows].T @ H @ Z[rows]
    got = _one_step_weight_blocks(design, zmat)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_moment_covariance_equals_entity_outer_products():
    from dynpanel.estimators import _scores
    from dynpanel.transforms import entity_starts

    _, _, design, zmat = fd_design_and_instruments(gapped_panel())
    Z = zmat.matrix
    e = np.random.default_rng(1).standard_normal(design.n)
    U = _scores(Z, e, entity_starts(design.entity_ids))
    expected = sum(
        np.outer(Z[r].T @ e[r], Z[r].T @ e[r]) for r in entity_rows(design.entity_ids)
    )
    assert U.shape == (np.unique(design.entity_ids).size, Z.shape[1])
    assert np.allclose(U.T @ U, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_windmeijer_matches_entity_loop_reference():
    data = gapped_panel(seed=9, n=40)
    model, spec, design, zmat = fd_design_and_instruments(data)
    Z = zmat.matrix
    one = fit_gmm(model, data, spec, weighting=ONE_STEP)
    two = fit_gmm(model, data, spec, weighting=TWO_STEP)
    corrected = fit_gmm(model, data, spec, weighting=TWO_STEP, windmeijer=True)

    X, y = design.X, design.y
    W1, W = one.weighting_matrix, two.weighting_matrix
    e1, e2 = one.residuals, y - X @ two.coefficients
    G = Z.T @ X
    P_inv = np.linalg.inv(G.T @ W @ G)
    gbar = Z.T @ e2
    k = X.shape[1]
    D = np.zeros((k, k))
    for j in range(k):
        dS = np.zeros((Z.shape[1], Z.shape[1]))
        for rows in entity_rows(design.entity_ids):
            g = Z[rows].T @ e1[rows]
            h = Z[rows].T @ X[rows, j]
            dS -= np.outer(h, g) + np.outer(g, h)
        D[:, j] = -P_inv @ G.T @ W @ dS @ W @ gbar
    Q1 = np.linalg.inv(G.T @ W1 @ G) @ G.T @ W1
    S1 = sum(np.outer(Z[r].T @ e1[r], Z[r].T @ e1[r])
             for r in entity_rows(design.entity_ids))
    V1 = Q1 @ S1 @ Q1.T
    V2 = two.covariance
    expected = V2 + D @ V2 + V2 @ D.T + D @ V1 @ D.T
    assert np.allclose(corrected.covariance, expected, rtol=1e-9, atol=0.0)
    assert not np.allclose(corrected.covariance, V2, rtol=1e-3)


def test_entity_starts_rejects_interleaved_entities():
    from dynpanel.transforms import entity_starts

    assert entity_starts(np.array([0, 0, 2, 2, 2, 5])).tolist() == [0, 2, 5]
    with pytest.raises(ValueError, match="not grouped by entity"):
        entity_starts(np.array([0, 0, 1, 0]))


def test_entity_starts_accepts_grouped_entities_in_descending_order():
    from dynpanel.transforms import entity_starts

    assert entity_starts(np.array([3, 3, 1, 1])).tolist() == [0, 2]
    with pytest.raises(ValueError, match="not grouped by entity"):
        entity_starts(np.array([3, 1, 3]))


def test_pinv_weight_rank_matches_eigh_threshold_when_columns_exceed_entities():
    from dynpanel.estimators import _invert_weight, _scores
    from dynpanel.transforms import entity_starts

    data = gapped_panel(seed=3, n=7, T=12)
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    spec = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 4),),
                          static=(StaticInstrument("x1"),))
    one = fit_gmm(model, data, spec, weighting=ONE_STEP)
    two = fit_gmm(model, data, spec, weighting=TWO_STEP, on_singular="pinv")
    Z = one.instruments.matrix
    n_entities = np.unique(one.design.entity_ids).size
    assert Z.shape[1] > n_entities

    U = _scores(Z, one.residuals, entity_starts(one.design.entity_ids))
    S = U.T @ U
    w, V = np.linalg.eigh(S)
    keep = w > 1e-12 * w[-1]
    reference = (V[:, keep] / w[keep]) @ V[:, keep].T
    W, rank = _invert_weight(S, "pinv", "test", U)
    assert rank == int(keep.sum()) == two.weighting_rank <= n_entities
    assert np.allclose(W, reference, rtol=0, atol=1e-8 * np.abs(reference).max())
    assert np.allclose(two.weighting_matrix, W, rtol=1e-10, atol=0)
    with pytest.raises(SingularWeightingError, match="collapse"):
        _invert_weight(S, "error", "moment covariance", U)

    # the cut is on s^2 (the eigenvalues of S), not on s: s = 1e-7 goes
    P, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    Vt = np.linalg.qr(np.random.default_rng(1).standard_normal((9, 4)))[0].T
    U = P @ np.diag([1.0, 1e-3, 1e-5, 1e-7]) @ Vt
    assert _invert_weight(None, "pinv", "test", U)[1] == 3


# ---------------------------------------------------------------------------
# FD/OD design errors and attached variance components

FD_OD = [TransformKind.FIRST_DIFFERENCE, TransformKind.ORTHOGONAL_DEVIATION]


def _ar1_instruments(kind):
    first = 2 if kind is TransformKind.FIRST_DIFFERENCE else 1
    return InstrumentSpec(dynamic=(DynamicInstrument("y", first),),
                          static=(StaticInstrument("x1", 0, 0),))


@pytest.mark.parametrize("kind", FD_OD)
def test_fd_od_fit_on_unalignable_panel_raises_alignment_error(kind):
    # y is present in one period per entity, so y and y(-1) never meet
    y = np.full((3, 3), np.nan)
    y[[0, 1, 2], [0, 1, 2]] = 1.0
    data = from_arrays(["a", "b", "c"], [1, 2, 3], {"y": y, "x1": np.ones((3, 3))})
    with pytest.raises(AlignmentError) as info:
        fit_gmm(ar1_model(kind), data, _ar1_instruments(kind))
    assert str(info.value) == "no estimable observations after alignment"


@pytest.mark.parametrize("kind", FD_OD)
def test_fd_od_fit_aligned_but_empty_after_transform_raises(kind):
    # two periods align y and y(-1), but no transformed y(-1) survives
    data = from_arrays(["a", "b"], [1, 2], {"y": np.ones((2, 2)), "x1": np.ones((2, 2))})
    with pytest.raises(EstimationError, match=f"after {kind.value} transform"):
        fit_gmm(ar1_model(kind), data, _ar1_instruments(kind))


def test_variance_components_reported_only_for_random_effects(monkeypatch):
    data = generate(DgpSpec(n_entities=40, n_periods=6, rho=0.5, seed=3))
    comp = VarianceComponents(5.0, 1.0, False)
    monkeypatch.setattr(estimators, "_swamy_arora", lambda model, sample: comp)
    fd = fit_gmm(ar1_model(TransformKind.FIRST_DIFFERENCE), data,
                 _ar1_instruments(TransformKind.FIRST_DIFFERENCE))
    assert fd.design.components is None
    re_inst = InstrumentSpec(static=(StaticInstrument("x1", 0, 1),), include_intercept=True)
    re = fit_gmm(ar1_model(TransformKind.QUASI_DEMEAN), data, re_inst)
    assert re.design.components == comp


# ---------------------------------------------------------------------------
# a regressor's units

def _rescaled(data, name, scale):
    series = dict(data.series)
    series[name] = PanelSeries(series[name].values * scale, series[name].mask)
    return PanelDataset(data.entities, data.periods, series)


def _assert_rescaled_fit(base, fit, name, scale):
    """``fit`` on ``name`` times ``scale``: its coefficient and SE divide by
    ``scale`` to within 1e-8, and every other coefficient stays put."""
    i = base.param_names.index(name)
    assert fit.param_names == base.param_names
    assert fit.coefficients[i] * scale == pytest.approx(base.coefficients[i], rel=1e-8)
    assert fit.standard_errors[i] * scale == pytest.approx(base.standard_errors[i], rel=1e-8)
    others = [j for j in range(len(base.param_names)) if j != i]
    assert fit.coefficients[others] == pytest.approx(base.coefficients[others], rel=1e-8)
    assert fit.standard_errors[others] == pytest.approx(base.standard_errors[others], rel=1e-8)


@pytest.mark.parametrize("scale", [1e12, 1e-12])
@pytest.mark.parametrize("kind", [TransformKind.NONE, TransformKind.WITHIN],
                         ids=lambda k: k.value)
def test_plain_fits_follow_a_regressors_units(brand_panel, kind, scale):
    model = ModelSpec("pp", 1, (ExogTerm("bv"), ExogTerm("bt")), transform=kind)
    _assert_rescaled_fit(fit_plain(model, brand_panel),
                         fit_plain(model, _rescaled(brand_panel, "bv", scale)), "bv", scale)


@pytest.mark.parametrize("n_entities", [200, 2000])
@pytest.mark.parametrize("scale", [1e12, 1e-12])
@pytest.mark.parametrize("weighting", [ONE_STEP, TWO_STEP], ids=lambda w: w.kind)
def test_fd_gmm_fits_follow_a_regressors_units(weighting, scale, n_entities):
    # N entities against 3 instrument columns: every weight is a plain inverse, and
    # at N = 2000 an unscaled rank tolerance would count a rescaled x1 as noise
    data = generate(DgpSpec(n_entities=n_entities, n_periods=6, missingness=0.1, seed=3))
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 3),),
                          static=(StaticInstrument("x1", 0, 0),))
    fit = functools.partial(fit_gmm, model, instruments=inst, weighting=weighting,
                            windmeijer=weighting is TWO_STEP)
    _assert_rescaled_fit(fit(data=data), fit(data=_rescaled(data, "x1", scale)), "x1", scale)


@pytest.mark.parametrize("level", [3e2, 3e5, 3e8, 3e11])
@pytest.mark.parametrize("kind, gmm", [
    (TransformKind.WITHIN, False), (TransformKind.WITHIN, True),
    (TransformKind.FIRST_DIFFERENCE, True), (TransformKind.ORTHOGONAL_DEVIATION, True),
], ids=["fe-plain", "fe-gmm", "fd-gmm", "od-gmm"])
def test_firm_constant_slope_is_unidentifiable_at_any_level(brand_panel, kind, gmm, level):
    # fc's transformed column is zero or rounding noise of its own levels
    data = _with_firm_constant(brand_panel, level)
    model = ModelSpec("pp", 1, (ExogTerm("bv"), ExogTerm("fc")), intercept=False,
                      transform=kind)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("pp", 2, 3),),
                          static=(StaticInstrument("bv"), StaticInstrument("fc")))
    with pytest.raises(RankError, match="constant within every entity") as info:
        if gmm:
            fit_gmm(model, data, inst, on_singular="pinv")
        else:
            fit_plain(model, data)
    assert info.value.columns == ("fc",)


def _with_firm_constant(brand_panel, level):
    """The brand panel plus ``fc``, constant within each firm at about ``level``."""
    n, T = brand_panel.n_entities, brand_panel.n_periods
    fc = np.repeat(level * (1.0 + np.arange(n) / n), T).reshape(n, T)
    return PanelDataset(brand_panel.entities, brand_panel.periods, dict(
        brand_panel.series, fc=PanelSeries(fc, np.ones((n, T), dtype=bool))))


@pytest.mark.parametrize("level", [3e2, 3e5, 3e8, 3e11])
@pytest.mark.parametrize("kind", [TransformKind.WITHIN, TransformKind.ORTHOGONAL_DEVIATION],
                         ids=["fe", "od"])
def test_a_firm_constant_instrument_is_pruned_at_any_level(brand_panel, kind, level):
    # within and OD leave only rounding noise of fc's levels, which the static
    # block zeroes; the fit is then the one without fc
    data = _with_firm_constant(brand_panel, level)
    model = ModelSpec("pp", 1, (ExogTerm("bv"),), intercept=False, transform=kind)
    dynamic = (DynamicInstrument("pp", 2, 3),)
    with_fc = fit_gmm(model, data, InstrumentSpec(
        dynamic=dynamic, static=(StaticInstrument("bv"), StaticInstrument("fc"))),
        on_singular="pinv")
    without = fit_gmm(model, data, InstrumentSpec(
        dynamic=dynamic, static=(StaticInstrument("bv"),)), on_singular="pinv")
    assert with_fc.instruments.pruned == ("fc",)
    assert with_fc.coefficients.tobytes() == without.coefficients.tobytes()
