import functools
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynpanel import DgpSpec, TransformKind, fit_gmm, from_arrays, generate, run_experiment
from dynpanel.estimators import ONE_STEP, ExogTerm, ModelSpec, fit_plain
from dynpanel.instruments import DynamicInstrument, InstrumentSpec, StaticInstrument
from dynpanel.simulate import (
    EstimatorConfig,
    _entity_streams,
    ar1_model,
    fd_od_comparison_configs,
    true_coefficients,
)


def _reference_generate(dgp, replication=0):
    """``generate`` with numpy's own SeedSequence and PCG64 built per entity
    and the recursion run cell by cell in Python floats.

    The draws of entity a come from ``default_rng(SeedSequence(seed,
    spawn_key=(replication, a)))`` in the order omega, x paths, noise,
    mask. A cell's x'beta is b1*x1 + b2*x2 + ..., added left to right from
    the first product; with no regressor there is no such term. ``generate``
    must match it bit for bit.
    """
    n_x = len(dgp.exogenous_betas)
    N, T = dgp.n_entities, dgp.n_periods
    burn = 0 if dgp.y0 is not None else dgp.burn_in
    total = burn + T
    betas = [float(b) for b in dgp.exogenous_betas]
    beta_sum = functools.reduce(operator.add, betas, 0.0)
    x_path = np.empty((N, n_x, total))
    path = np.empty((N, total))
    keep = np.ones((N, T), dtype=bool)
    for a in range(N):
        rng = np.random.default_rng(
            np.random.SeedSequence(dgp.seed, spawn_key=(replication, a))
        )
        omega = rng.standard_normal() * dgp.sigma_effect
        x_path[a] = rng.standard_normal((n_x, total)) + dgp.effect_loading * omega
        eps = (rng.standard_normal(total) * dgp.sigma_noise).tolist()
        if dgp.missingness > 0.0:
            drop = rng.random(T) < dgp.missingness
            if drop.all():
                drop[0] = False
            keep[a] = ~drop
        if dgp.y0 is not None:
            path[a, 0] = y = float(dgp.y0)
            first = 1
        else:
            y = (omega + beta_sum * (dgp.effect_loading * omega)) / (1.0 - dgp.rho)
            first = 0
        for t, x in enumerate(x_path[a].T.tolist()[first:], start=first):
            y = dgp.rho * y
            if n_x:
                y = y + functools.reduce(operator.add, [b * v for b, v in zip(betas, x)])
            path[a, t] = y = y + omega + eps[t]
    grids = {"y": path[:, burn:], **{f"x{j + 1}": x_path[:, j, burn:] for j in range(n_x)}}
    return {name: (np.where(keep, g, np.nan), keep.copy()) for name, g in grids.items()}


def _assert_equals_reference(dgp, replication=0):
    data = generate(dgp, replication)
    want = _reference_generate(dgp, replication)
    assert set(data.series) == set(want)
    for name, (values, mask) in want.items():
        assert np.array_equal(data.series[name].mask, mask)
        assert np.array_equal(data.series[name].values, values, equal_nan=True)
        assert (np.signbit(data.series[name].values) == np.signbit(values)).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(n_entities=10, n_periods=5, rho=1.0)
    with pytest.raises(ValueError):
        DgpSpec(n_entities=10, n_periods=5, missingness=1.0)
    with pytest.raises(ValueError):
        DgpSpec(n_entities=0, n_periods=5)


@pytest.mark.parametrize("field, value, message", [
    ("sigma_effect", -0.5, "sigma_effect must be finite and >= 0"),
    ("sigma_effect", float("nan"), "sigma_effect must be finite and >= 0"),
    ("sigma_noise", -1.0, "sigma_noise must be finite and >= 0"),
    ("sigma_noise", float("inf"), "sigma_noise must be finite and >= 0"),
    ("exogenous_betas", (1.0, float("nan")), "exogenous_betas must be finite"),
    ("effect_loading", float("-inf"), "effect_loading must be finite"),
    ("y0", float("nan"), "y0 must be finite"),
    ("burn_in", -1, "burn_in must be >= 0"),
])
def test_spec_rejects_nonsense_simulation_parameters_by_name(field, value, message):
    with pytest.raises(ValueError, match=message):
        DgpSpec(n_entities=10, n_periods=5, **{field: value})


def test_spec_accepts_zero_sigmas():
    data = generate(DgpSpec(n_entities=4, n_periods=5, sigma_effect=0.0, sigma_noise=0.0,
                            exogenous_betas=(0.0,), burn_in=0, y0=0.0))
    assert np.array_equal(data.require("y").values, np.zeros((4, 5)))


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
def test_spec_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        DgpSpec(n_entities=10, n_periods=5, seed=seed)


def test_spec_accepts_numpy_and_huge_seeds():
    assert DgpSpec(n_entities=2, n_periods=2, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    generate(DgpSpec(n_entities=2, n_periods=2, seed=2**300))


@pytest.mark.parametrize("replication", [-1, -(2**70), 0.0])
def test_generate_rejects_a_negative_replication(replication):
    with pytest.raises(ValueError, match="replication must be a non-negative integer"):
        generate(DgpSpec(n_entities=3, n_periods=4), replication=replication)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    replication=st.integers(0, 2**64 - 1),
    entities=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)
def test_entity_streams_equal_numpys_seeded_pcg64(seed, replication, entities):
    got = _entity_streams(seed, replication, np.array(entities, dtype=np.int64))
    want = [
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(replication, a))).state
        for a in entities
    ]
    assert got == want


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    n_entities=st.integers(1, 40),
    n_periods=st.integers(1, 12),
    n_x=st.integers(1, 3),
    missingness=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    y0=st.sampled_from([None, 2.0]),
    burn_in=st.integers(0, 60),
    effect_loading=st.sampled_from([0.0, 0.7]),
    seed=st.one_of(st.integers(0, 2**16), st.integers(0, 2**160)),
    replication=st.one_of(st.integers(0, 8), st.integers(0, 2**80)),
)
def test_generate_is_bit_identical_to_the_per_entity_seed_sequence_loop(
    n_entities, n_periods, n_x, missingness, y0, burn_in, effect_loading, seed, replication,
):
    # non-dyadic betas: their products round, so the order of the sum shows
    dgp = DgpSpec(n_entities, n_periods, rho=0.7, exogenous_betas=(1.25, -0.5, 0.3)[:n_x],
                  sigma_effect=1.3, sigma_noise=0.8, burn_in=burn_in,
                  missingness=missingness, seed=seed, effect_loading=effect_loading, y0=y0)
    _assert_equals_reference(dgp, replication)


@pytest.mark.parametrize("betas, sigma, y0", [
    ((), 1.0, None),
    ((), 0.0, -0.0),
    ((0.0,), 0.0, -0.0),  # every cell a signed zero: x'beta keeps the sign of b1*x1
])
def test_generate_equals_the_reference_with_no_regressor_and_on_signed_zeros(betas, sigma, y0):
    for seed in range(4):
        _assert_equals_reference(DgpSpec(8, 6, rho=0.5, exogenous_betas=betas, sigma_effect=sigma,
                                         sigma_noise=sigma, seed=seed, y0=y0))


def test_noise_free_recursion():
    dgp = DgpSpec(n_entities=3, n_periods=6, rho=0.5, exogenous_betas=(0.0,),
                  sigma_effect=0.0, sigma_noise=0.0, y0=1.0, seed=4)
    data = generate(dgp)
    y = data.series["y"].values
    for t in range(6):
        assert np.allclose(y[:, t], 0.5 ** t, atol=1e-15)


def test_same_seed_identical_datasets():
    dgp = DgpSpec(n_entities=20, n_periods=8, rho=0.6, missingness=0.1, seed=9)
    a, b = generate(dgp), generate(dgp)
    for name in a.variables:
        assert np.array_equal(a.series[name].mask, b.series[name].mask)
        assert np.array_equal(
            a.series[name].values[a.series[name].mask],
            b.series[name].values[b.series[name].mask],
        )


def test_different_replications_differ():
    dgp = DgpSpec(n_entities=20, n_periods=8, seed=9)
    a = generate(dgp, replication=0)
    b = generate(dgp, replication=1)
    assert not np.allclose(a.series["y"].values, b.series["y"].values)


def test_missingness_binomial_expectation():
    deleted = []
    dgp = DgpSpec(n_entities=31, n_periods=11, rho=0.5, missingness=0.1, seed=70)
    for rep in range(200):
        data = generate(dgp, replication=rep)
        deleted.append(31 * 11 - int(data.series["y"].mask.sum()))
    assert np.mean(deleted) == pytest.approx(34.1, abs=1.5)


def test_every_entity_keeps_a_cell():
    dgp = DgpSpec(n_entities=40, n_periods=3, missingness=0.85, seed=3)
    data = generate(dgp)  # PanelDataset construction enforces the invariant
    assert data.series["y"].mask.any(axis=1).all()


def test_true_coefficients_mapping():
    dgp = DgpSpec(n_entities=10, n_periods=5, rho=0.7, exogenous_betas=(1.5, -2.0))
    model = ar1_model(TransformKind.NONE, n_x=2)
    truth = true_coefficients(dgp, model)
    assert truth["y(-1)"] == 0.7
    assert truth["x1"] == 1.5
    assert truth["x2"] == -2.0


def test_single_rep_summary_matches_fit():
    dgp = DgpSpec(n_entities=80, n_periods=8, rho=0.5, seed=12)
    cfg = fd_od_comparison_configs()[0]
    summary = run_experiment(dgp, [cfg], reps=1)
    res = cfg.fit(generate(dgp, replication=0))
    stats = summary.estimator("od").coef_stats["y(-1)"]
    assert stats.mean == pytest.approx(res.coefficient("y(-1)"))
    assert stats.bias == pytest.approx(res.coefficient("y(-1)") - 0.5)
    assert stats.rmse == pytest.approx(abs(stats.bias))


def test_summary_of_an_unknown_estimator_is_a_key_error():
    summary = run_experiment(DgpSpec(n_entities=30, n_periods=6, seed=1),
                             fd_od_comparison_configs()[:1], reps=1)
    with pytest.raises(KeyError) as info:
        summary.estimator("nope")
    assert info.value.args == ("no estimator 'nope' in summary",)


def test_summary_reproducible():
    dgp = DgpSpec(n_entities=40, n_periods=8, rho=0.5, seed=31)
    cfgs = fd_od_comparison_configs()
    s1 = run_experiment(dgp, cfgs, reps=5)
    s2 = run_experiment(dgp, cfgs, reps=5)
    assert s1.to_json() == s2.to_json()
    assert s1.to_csv() == s2.to_csv()


def test_rmse_dominates_bias():
    dgp = DgpSpec(n_entities=50, n_periods=8, rho=0.5, seed=18)
    summary = run_experiment(dgp, fd_od_comparison_configs(), reps=10)
    for est in summary.estimators:
        for stats in est.coef_stats.values():
            assert stats.rmse ** 2 >= stats.bias ** 2 - 1e-12


def test_od_bias_shrinks_with_n():
    cfg = fd_od_comparison_configs()[0]
    biases = {}
    for n in (50, 100, 200):
        dgp = DgpSpec(n_entities=n, n_periods=8, rho=0.5, seed=44)
        summary = run_experiment(dgp, [cfg], reps=60)
        biases[n] = abs(summary.estimator("od").coef_stats["y(-1)"].bias)
    assert biases[200] <= biases[50] + 0.01


def test_nickell_bias_demonstration():
    # within-OLS on the dynamic model is biased downward at small T;
    # the deviation-transformed GMM is not
    dgp = DgpSpec(n_entities=200, n_periods=6, rho=0.5, seed=52)
    configs = [
        EstimatorConfig("within", ar1_model(TransformKind.WITHIN)),
        fd_od_comparison_configs()[0],
    ]
    summary = run_experiment(dgp, configs, reps=40)
    within_bias = summary.estimator("within").coef_stats["y(-1)"].bias
    od_bias = summary.estimator("od").coef_stats["y(-1)"].bias
    assert within_bias < -0.05
    assert abs(od_bias) < 0.05


def cut_ends(data, seed, trailing):
    """Drop 0-3 leading (or trailing) periods of each entity's y."""
    y = data.require("y").values.copy()
    cut = np.random.default_rng(seed).integers(0, 4, data.n_entities)
    cols = np.arange(data.n_periods)[None, :]
    y[cols >= data.n_periods - cut[:, None] if trailing else cols < cut[:, None]] = np.nan
    return from_arrays(data.entities, data.periods, {"y": y})


def one_step_fd_and_od_rho(data):
    """rho from one-step FD with dyn(y,2) and from one-step OD with dyn(y,1)."""
    return [
        fit_gmm(ar1_model(kind, n_x=0), data,
                InstrumentSpec(dynamic=(DynamicInstrument("y", start),)),
                weighting=ONE_STEP).coefficients[0]
        for kind, start in ((TransformKind.FIRST_DIFFERENCE, 2),
                            (TransformKind.ORTHOGONAL_DEVIATION, 1))
    ]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", ["balanced", "ragged start", "ragged end"])
def test_one_step_fd_and_od_coincide_only_with_a_common_last_period(shape, seed):
    # Arellano and Bover (1995): with every lagged level as an instrument
    # the two are one estimator when the forward-deviation weights agree
    data = generate(DgpSpec(60, 8, rho=0.6, exogenous_betas=(), seed=seed))
    if shape != "balanced":
        data = cut_ends(data, seed, trailing=shape == "ragged end")
    fd, od = one_step_fd_and_od_rho(data)
    if shape == "ragged end":
        assert abs(fd - od) > 1e-3 * abs(od)
    else:
        assert abs(fd - od) <= 1e-12 * abs(od)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(n=st.integers(20, 80), T=st.integers(5, 9), seed=st.integers(0, 10_000),
       ragged_start=st.booleans())
def test_one_step_fd_and_od_coincide_over_panel_sizes(n, T, seed, ragged_start):
    # the identity above, over N, T and seeds, on balanced and ragged-start panels
    data = generate(DgpSpec(n, T, rho=0.6, exogenous_betas=(), seed=seed))
    if ragged_start:
        data = cut_ends(data, seed, trailing=False)
    fd, od = one_step_fd_and_od_rho(data)
    assert abs(fd - od) <= 1e-12 * abs(od)


@pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
def test_estimator_config_without_instruments_is_the_plain_fit(kind):
    data = generate(DgpSpec(n_entities=30, n_periods=6, missingness=0.1, seed=7))
    model = ar1_model(kind)
    cfg = EstimatorConfig(kind.value, model)
    if kind.is_calendar:
        with pytest.raises(ValueError, match="fit them with fit_gmm"):
            cfg.fit(data)
    else:
        res, want = cfg.fit(data), fit_plain(model, data)
        assert res.coefficients.tobytes() == want.coefficients.tobytes()
        assert res.covariance.tobytes() == want.covariance.tobytes()


def test_repeated_configuration_names_are_rejected():
    # both entries would share one draws entry, each printed with the pooled draws
    od = fd_od_comparison_configs()[0]
    with pytest.raises(ValueError, match="names repeat"):
        run_experiment(DgpSpec(60, 8, rho=0.5, seed=1), [od, od], reps=5)


def test_failures_recorded_and_excluded():
    # 5 entities cannot support the unbounded two-step weighting: the
    # moment covariance is singular every replication
    dgp = DgpSpec(n_entities=5, n_periods=10, rho=0.5, seed=61)
    from dynpanel.estimators import TWO_STEP

    cfg = EstimatorConfig(
        "fragile",
        ar1_model(TransformKind.FIRST_DIFFERENCE),
        InstrumentSpec(dynamic=(DynamicInstrument("y", 2),),
                       static=(StaticInstrument("x1"),)),
        TWO_STEP,
    )
    summary = run_experiment(dgp, cfg and [cfg], reps=3)
    est = summary.estimator("fragile")
    assert est.n_failed == 3
    assert est.n_success == 0
    assert est.coef_stats == {}


def test_regressor_the_generator_lacks_fails_every_replication():
    # the generated panel holds y and x1 only; a term named x is no x<j>
    dgp = DgpSpec(n_entities=20, n_periods=6, seed=4)
    model = ModelSpec("y", 1, (ExogTerm("x"),), intercept=True)
    summary = run_experiment(dgp, [EstimatorConfig("pooled-x", model)], reps=3)
    est = summary.estimator("pooled-x")
    assert (est.n_success, est.n_failed, est.coef_stats) == (0, 3, {})
    assert true_coefficients(dgp, model) == {"y(-1)": 0.5, "x": 0.0}


def test_true_coefficients_zero_off_the_generator():
    # deeper lags and names the generator does not draw (x3, x0) have 0
    dgp = DgpSpec(n_entities=10, n_periods=5, rho=0.7, exogenous_betas=(1.5, -2.0))
    model = ModelSpec("y", 2, (ExogTerm("x2", 1), ExogTerm("x3"), ExogTerm("x0")),
                      intercept=False)
    assert true_coefficients(dgp, model) == {
        "y(-1)": 0.7, "y(-2)": 0.0, "x2": -2.0, "x2(-1)": 0.0, "x3": 0.0, "x0": 0.0,
    }


def test_summary_json_records_the_whole_dgp():
    dgp = DgpSpec(n_entities=20, n_periods=6, rho=0.4, exogenous_betas=(1.0, -0.5),
                  y0=2.0, effect_loading=0.7, seed=5)
    summary = run_experiment(dgp, [fd_od_comparison_configs(n_x=2)[0]], reps=1)
    recorded = json.loads(summary.to_json())["dgp"]
    recorded["exogenous_betas"] = tuple(recorded["exogenous_betas"])
    assert DgpSpec(**recorded) == dgp


def test_seed_ledger():
    dgp = DgpSpec(n_entities=30, n_periods=6, rho=0.4, seed=77)
    summary = run_experiment(dgp, [fd_od_comparison_configs()[0]], reps=4)
    assert summary.seed_ledger == ((77, 0), (77, 1), (77, 2), (77, 3))


def test_csv_layout_one_row_per_estimator():
    dgp = DgpSpec(n_entities=40, n_periods=7, rho=0.5, seed=83)
    summary = run_experiment(dgp, fd_od_comparison_configs(), reps=3)
    lines = summary.to_csv().strip().split("\n")
    assert len(lines) == 3  # header + od + fd
    assert lines[0].startswith("estimator,n_success,n_failed,j_rejection_rate")
