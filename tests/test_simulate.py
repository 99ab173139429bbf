import json

import numpy as np
import pytest

from dynpanel import DgpSpec, TransformKind, generate, run_experiment
from dynpanel.estimators import ONE_STEP
from dynpanel.instruments import DynamicInstrument, InstrumentSpec, StaticInstrument
from dynpanel.simulate import (
    EstimatorConfig,
    ar1_model,
    fd_od_comparison_configs,
    true_coefficients,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(n_entities=10, n_periods=5, rho=1.0)
    with pytest.raises(ValueError):
        DgpSpec(n_entities=10, n_periods=5, missingness=1.0)
    with pytest.raises(ValueError):
        DgpSpec(n_entities=0, n_periods=5)


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
