"""Acceptance suite.

Each test prints one line `ACCEPTANCE <n>: PASS|FAIL - <detail>` (visible
with `pytest -s`) and enforces the stated tolerance and runtime budget.
"""

import csv
import json
import os
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats

import dynpanel as dp
from dynpanel.cli import main as cli_main
from dynpanel.diagnostics import (
    ab_serial_correlation,
    chi_square_sf,
    hausman,
    j_test,
    lag_selection,
)
from dynpanel.estimators import (
    ExogTerm,
    ModelSpec,
    ONE_STEP,
    TWO_STEP,
    build_design,
    fit_gmm,
    fit_plain,
)
from dynpanel.instruments import DynamicInstrument, InstrumentSpec, StaticInstrument
from dynpanel.simulate import (
    DgpSpec,
    ar1_model,
    fd_od_comparison_configs,
    generate,
    run_experiment,
)
from dynpanel.transforms import TransformKind, apply_grid, reconstruct_levels

from suite_helpers import TABLE1, demean_grid


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"
    return status


def test_acceptance_01_rating_codec():
    t0 = time.time()
    expected = {
        "AAA+": 100.00, "AAA": 97.50, "AAA-": 95.00, "AA+": 92.50, "AA": 90.00,
        "AA-": 87.50, "A+": 85.00, "A": 82.50, "A-": 80.00, "BBB+": 75.00,
        "BBB": 72.50, "BBB-": 70.00, "BB+": 67.50, "BB": 65.00, "BB-": 62.50,
        "B+": 60.00, "B": 57.50, "B-": 55.00, "CCC+": 50.00, "CCC": 47.50,
        "CCC-": 45.00, "CC+": 42.50, "CC": 40.00, "CC-": 37.50, "C+": 35.00,
        "C": 32.50, "C-": 30.00, "D": 25.00,
    }
    exact = all(dp.grade_to_numeric(g) == v for g, v in expected.items())
    round_trip = all(
        dp.numeric_to_grade(dp.grade_to_numeric(g)) == g for g in expected
    )
    ok = exact and round_trip and len(expected) == 28
    report(1, ok, f"28 grade mappings exact={exact}, round-trip={round_trip}",
           time.time() - t0, 1.0)
    assert ok


def test_acceptance_02_premium_table_column_sums():
    t0 = time.time()
    data = dp.ingest_wide_csv(TABLE1, "pp")
    s = data.series["pp"]
    sums = np.where(s.mask, s.values, 0.0).sum(axis=0)
    printed = data.checksums["pp"]
    rel = np.abs(sums - printed) / printed
    ok = (
        bool(np.all(rel < 0.005))
        and printed[0] == pytest.approx(7816.49)
        and printed[-1] == pytest.approx(31025.90)
    )
    report(2, ok, f"max column-sum error {rel.max():.5%} (tolerance 0.5%)",
           time.time() - t0, 1.0)
    assert ok


def test_acceptance_03_transform_algebra():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    kinds = (
        TransformKind.WITHIN,
        TransformKind.FIRST_DIFFERENCE,
        TransformKind.ORTHOGONAL_DEVIATION,
    )
    worst = 0.0
    for _ in range(1000):
        n_e = int(rng.integers(2, 7))
        n_t = int(rng.integers(4, 12))
        x = rng.standard_normal((n_e, n_t))
        mask = rng.random((n_e, n_t)) > 0.3
        for i in range(n_e):
            if mask[i].sum() < 2:
                mask[i, :2] = True
        x[~mask] = np.nan
        y = rng.standard_normal((n_e, n_t))
        y[~mask] = np.nan
        a, b = rng.standard_normal(2)
        const = np.where(mask, 2.5, np.nan)
        for kind in kinds:
            if kind is TransformKind.WITHIN:  # demean_by_entity over present cells
                tx, ty, tz, cv = (demean_grid(v, mask) for v in (x, y, a * x + b * y, const))
                tm = cm = mask
            else:
                tx, tm = apply_grid(kind, x, mask)
                ty, _ = apply_grid(kind, y, mask)
                tz, _ = apply_grid(kind, a * x + b * y, mask)
                cv, cm = apply_grid(kind, const, mask)
            worst = max(worst, float(np.max(np.abs(tz[tm] - (a * tx + b * ty)[tm]))))
            if cm.any():
                worst = max(worst, float(np.max(np.abs(cv[cm]))))
            if kind is not TransformKind.WITHIN:
                rec, rm = reconstruct_levels(tx, tm, x, mask, kind)
                if rm.any():
                    worst = max(worst, float(np.max(np.abs(rec[rm] - x[rm]))))
    ok = worst < 1e-10
    report(3, ok, f"1000 random unbalanced panels, worst identity error {worst:.2e}",
           time.time() - t0, 10.0)
    assert ok


def test_acceptance_04_serial_correlation_signature():
    t0 = time.time()
    rng = np.random.default_rng(777)
    values = rng.standard_normal((2000, 12))
    mask = np.ones(values.shape, dtype=bool)

    def pooled_lag1(v, m):
        a, b = [], []
        for i in range(v.shape[0]):
            p = np.flatnonzero(m[i])
            adj = p[1:][np.diff(p) == 1]
            a.extend(v[i, adj - 1])
            b.extend(v[i, adj])
        return float(np.corrcoef(a, b)[0, 1])

    fd_v, fd_m = apply_grid(TransformKind.FIRST_DIFFERENCE, values, mask)
    od_v, od_m = apply_grid(TransformKind.ORTHOGONAL_DEVIATION, values, mask)
    r_fd = pooled_lag1(fd_v, fd_m)
    r_od = pooled_lag1(od_v, od_m)
    ok = abs(r_fd - (-0.5)) < 0.03 and abs(r_od) < 0.03
    report(4, ok, f"white-noise lag-1 autocorr: FD {r_fd:+.4f} (target -0.5), "
                  f"OD {r_od:+.4f} (target 0)", time.time() - t0, 30.0)
    assert ok


def test_acceptance_05_gmm_reductions():
    t0 = time.time()
    rng = np.random.default_rng(55)
    n = 200
    x1, x2 = rng.standard_normal((2, n))
    y = 1.5 * x1 - 0.5 * x2 + rng.normal(0, 0.4, n)
    data = dp.from_arrays(
        [f"i{k}" for k in range(n)], [1],
        {"y": y.reshape(-1, 1), "x1": x1.reshape(-1, 1), "x2": x2.reshape(-1, 1)},
    )
    model = ModelSpec("y", ar_lags=0,
                      exogenous=(ExogTerm("x1"), ExogTerm("x2")), intercept=False)
    exact = fit_gmm(model, data,
                    InstrumentSpec(static=(StaticInstrument("x1"),
                                           StaticInstrument("x2"))))
    ols = fit_plain(model, data)
    err_exact = float(np.max(np.abs(exact.coefficients - ols.coefficients)))

    z = rng.standard_normal((n, 3))
    x1 = z[:, 0] + 0.5 * z[:, 1] + rng.standard_normal(n)
    x2 = z[:, 2] - 0.3 * z[:, 1] + rng.standard_normal(n)
    y = 2.0 * x1 + 1.0 * x2 + rng.standard_normal(n)
    data2 = dp.from_arrays(
        [f"i{k}" for k in range(n)], [1],
        {
            "y": y.reshape(-1, 1), "x1": x1.reshape(-1, 1), "x2": x2.reshape(-1, 1),
            "z1": z[:, 0].reshape(-1, 1), "z2": z[:, 1].reshape(-1, 1),
            "z3": z[:, 2].reshape(-1, 1),
        },
    )
    over = fit_gmm(
        model, data2,
        InstrumentSpec(static=tuple(StaticInstrument(f"z{k}") for k in (1, 2, 3))),
        weighting=ONE_STEP,
    )
    design = build_design(model, data2)
    Z, W = over.instruments.matrix, over.weighting_matrix

    def objective(beta):
        g = Z.T @ (design.y - design.X @ beta)
        return float(g @ W @ g)

    best = None
    for start in ([0.0, 0.0], [1.0, 1.0], [3.0, -1.0]):
        r = scipy.optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 50000},
        )
        if best is None or r.fun < best.fun:
            best = r
    err_brute = float(np.max(np.abs(over.coefficients - best.x)))
    ok = err_exact < 1e-10 and err_brute < 1e-8
    report(5, ok, f"exact-id vs OLS err {err_exact:.1e} (tol 1e-10); "
                  f"overid vs brute force err {err_brute:.1e} (tol 1e-8)",
           time.time() - t0, 5.0)
    assert ok


def test_acceptance_06_re_degeneracy():
    t0 = time.time()
    # sigma_u = 0 data generating process; seed chosen so the between
    # variance falls under the floor (the mechanism under test)
    dgp = DgpSpec(n_entities=100, n_periods=8, rho=0.5, sigma_effect=0.0, seed=0)
    data = generate(dgp)
    pooled = fit_plain(ar1_model(TransformKind.NONE), data)
    re = fit_plain(ar1_model(TransformKind.QUASI_DEMEAN), data)
    fe = fit_plain(ar1_model(TransformKind.WITHIN), data)
    coef_err = float(np.max(np.abs(re.coefficients - pooled.coefficients)))
    h = hausman(fe, re)
    ok = (
        re.design.components.sigma_u2 == 0.0
        and coef_err < 1e-12
        and not h.valid
    )
    report(6, ok, f"sigma_u floored, RE-pooled coefficient gap {coef_err:.1e} "
                  f"(tol 1e-12), Hausman invalidity flag={not h.valid}",
           time.time() - t0, 5.0)
    assert ok


def test_acceptance_07_consistency_and_fd_od_ordering():
    t0 = time.time()
    od_cfg, fd_cfg = fd_od_comparison_configs(weighting=ONE_STEP)

    recovery = run_experiment(
        DgpSpec(n_entities=500, n_periods=11, rho=0.85, seed=202),
        [od_cfg], reps=200,
    )
    rho_mean = recovery.estimator("od").coef_stats["y(-1)"].mean

    comparison = run_experiment(
        DgpSpec(n_entities=100, n_periods=10, rho=0.8, seed=11),
        [od_cfg, fd_cfg], reps=500,
    )
    od_bias = abs(comparison.estimator("od").coef_stats["y(-1)"].bias)
    fd_bias = abs(comparison.estimator("fd").coef_stats["y(-1)"].bias)
    ok = abs(rho_mean - 0.85) < 0.05 and od_bias <= fd_bias
    report(7, ok, f"mean rho_hat {rho_mean:.4f} (target 0.85 +/- 0.05); "
                  f"|bias| OD {od_bias:.4f} <= FD {fd_bias:.4f}",
           time.time() - t0, 300.0)
    assert ok


def test_acceptance_08_inference_calibration():
    t0 = time.time()
    dgp = DgpSpec(n_entities=200, n_periods=8, rho=0.5, seed=101)
    model = ar1_model(TransformKind.FIRST_DIFFERENCE)
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 3),),
                          static=(StaticInstrument("x1"),))
    pvals, ar2_rej = [], []
    reps = 1000
    for rep in range(reps):
        data = generate(dgp, replication=rep)
        res = fit_gmm(model, data, inst, weighting=TWO_STEP)
        pvals.append(j_test(res).p_value)
        if rep < 500:
            ar2_rej.append(ab_serial_correlation(res, 2).p_value < 0.05)
    pvals = np.array(pvals)
    j_rate = float(np.mean(pvals < 0.05))
    grid_p = np.sort(pvals)
    ks = float(np.max(np.abs(grid_p - np.arange(1, reps + 1) / reps)))
    ar2_rate = float(np.mean(ar2_rej))

    worst_sf = 0.0
    for df in (1, 2, 5, 10, 29, 50):
        for x in (0.1, 1.0, 5.0, 10.0, 29.2175, 50.0, 100.0):
            quad, _ = scipy.integrate.quad(
                lambda t: scipy.stats.chi2.pdf(t, df), x, np.inf, limit=200
            )
            worst_sf = max(worst_sf, abs(chi_square_sf(x, df) - quad))
    p_anchor = chi_square_sf(29.2175, 29)

    ok = (
        0.02 <= j_rate <= 0.08
        and 0.02 <= ar2_rate <= 0.09
        and ks < 0.08
        and worst_sf < 1e-8
        and 0.40 < p_anchor < 0.50
    )
    report(8, ok, f"J rejection {j_rate:.3f} (in [.02,.08]); "
                  f"AR(2) rejection {ar2_rate:.3f} (~5%); KS {ks:.3f} (<.08); "
                  f"sf-vs-quadrature {worst_sf:.1e} (<1e-8); "
                  f"sf(29.2175,29)={p_anchor:.4f} in (0.40,0.50)",
           time.time() - t0, 300.0)
    assert ok


def _true_order_probability(c):
    """Asymptotic chance that a penalty of c per parameter keeps AR 1, x1 lag 0.

    On the AR 1-3 x x1 lag 0-1 grid the true model is nested in every other
    candidate. AR 1 survives when LR(AR 2 vs 1) = chi2_1 < c and
    LR(AR 3 vs 1) = chi2_1 + chi2_1' < 2c; x1 lag 0 survives when its own
    chi2_1 < c. The product treats the two blocks as independent; on this
    DGP the y(-2) and x1(-1) scores are correlated, which moves the exact
    AIC limit from 0.664 to about 0.68, well inside the 3-SE band.
    """
    chi2 = scipy.stats.chi2
    ar_part, _ = scipy.integrate.quad(
        lambda u: chi2.pdf(u, 1) * chi2.cdf(2.0 * c - u, 1), 0.0, c
    )
    return ar_part * chi2.cdf(c, 1)


def test_acceptance_09_lag_selection():
    t0 = time.time()
    template = ModelSpec("y", ar_lags=0, exogenous=(ExogTerm("x1"),),
                         intercept=True, transform=TransformKind.NONE)
    dgp = DgpSpec(n_entities=600, n_periods=10, rho=0.8, sigma_effect=0.0, seed=303)
    reps = 200
    hits = {"aic": 0, "schwarz": 0, "hannan_quinn": 0}
    misordered = 0
    for rep in range(reps):
        data = generate(dgp, replication=rep)
        sel = lag_selection(data, template, max_ar=3, max_exog={"x1": 1})
        for crit in hits:
            ar, exog = sel.chosen_orders(crit)
            hits[crit] += (ar == 1 and exog["x1"] == 0)
        # Penalties per parameter: 2 < 2 log log n < log n, so a criterion
        # with a larger penalty never picks a model with more parameters.
        p = {crit: sel.chosen[crit].n_params for crit in hits}
        misordered += not (p["aic"] >= p["hannan_quinn"] >= p["schwarz"])
    rates = {k: v / reps for k, v in hits.items()}
    # Schwarz and Hannan-Quinn are consistent: they must find the true order.
    # AIC is not (Shibata 1976): it keeps a fixed chance of overselection, so
    # its rate must match the asymptotic prediction within 3 binomial SEs.
    aic_pred = _true_order_probability(2.0)
    aic_half = 3.0 * np.sqrt(aic_pred * (1.0 - aic_pred) / reps)
    bounds = {
        "aic": (float(aic_pred - aic_half), float(aic_pred + aic_half)),
        "schwarz": (0.90, 1.0),
        "hannan_quinn": (0.90, 1.0),
    }
    ok = misordered == 0 and all(
        lo <= rates[k] <= hi for k, (lo, hi) in bounds.items()
    )
    report(9, ok, "selection rates " + ", ".join(
        f"{k}={rates[k]:.3f} in [{lo:.3f}, {hi:.3f}]"
        for k, (lo, hi) in bounds.items()
    ) + f"; penalty ordering broken in {misordered}/{reps} replications",
        time.time() - t0, 120.0)
    assert ok, (
        f"rates {rates}, bounds {bounds}, misordered {misordered}: Schwarz "
        "and Hannan-Quinn must pick AR 1, x1 lag 0 in at least 90% of "
        "replications; Akaike's criterion keeps a fixed overselection "
        f"probability and should pick it with probability {aic_pred:.3f} "
        "(0.787 for the AR order times 0.843 for the x1 lag); a larger "
        "penalty must never choose more parameters"
    )


def test_acceptance_10_determinism(tmp_path, capsys):
    t0 = time.time()
    out_dir = tmp_path / "determinism"
    args = ["simulate", "--entities", "60", "--periods", "8", "--rho", "0.6",
            "--reps", "10", "--seed", "42", "--estimators", "od,fd",
            "--weighting", "one-step", "--output-dir", str(out_dir)]
    assert cli_main(list(args)) == 0
    first = {n: (out_dir / n).read_bytes() for n in sorted(os.listdir(out_dir))}
    assert cli_main(list(args)) == 0
    second = {n: (out_dir / n).read_bytes() for n in sorted(os.listdir(out_dir))}
    capsys.readouterr()
    ok = first == second and set(first) == {
        "mc_summary.csv", "mc_summary.json", "simulate_manifest.json"
    }
    report(10, ok, f"two identical-seed runs byte-identical across "
                   f"{len(first)} output files (incl. manifest)",
           time.time() - t0, 60.0)
    assert ok
