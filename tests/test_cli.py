import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from dynpanel.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# ratings

def test_ratings_grade(capsys):
    code, out, _ = run_cli(capsys, "ratings", "--grade", "AAA")
    assert code == 0
    assert out.strip() == "97.50"


def test_ratings_value(capsys):
    code, out, _ = run_cli(capsys, "ratings", "--value", "96.3")
    assert code == 0
    assert out.strip() == "AAA"


def test_ratings_unknown_grade_exit_2(capsys):
    code, _, err = run_cli(capsys, "ratings", "--grade", "ZZZ")
    assert code == 2
    assert "unknown grade" in err


def test_ratings_without_an_option_exit_2(capsys):
    code, _, err = run_cli(capsys, "ratings")
    assert code == 2
    assert err == "error: ratings needs --grade, --value, or --export-csv\n"


def test_ratings_export(tmp_path, capsys):
    path = tmp_path / "scale.csv"
    code, _, _ = run_cli(capsys, "ratings", "--export-csv", str(path))
    assert code == 0
    assert path.read_text().startswith("grade,description,value")


@pytest.mark.parametrize("argv", [
    ("ratings", "--grade", "AAA"),
    ("describe", "--data", "panel.csv"),
])
def test_commands_that_write_no_manifest_take_no_output_dir(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --output-dir" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# describe

def test_describe_table1(table1_path, capsys):
    code, out, _ = run_cli(
        capsys, "describe", "--data", table1_path, "--wide", "pp",
        "--vars", "pp", "--out", "json",
    )
    assert code == 0
    stats = json.loads(out)["pp"]
    assert stats["n"] > 250
    assert set(stats) == {"mean", "median", "max", "min", "sd",
                          "skewness", "kurtosis", "n"}


@pytest.mark.parametrize("token", ["abc", "nan"])
def test_describe_wide_bad_total_cell_exit_2(tmp_path, capsys, token):
    path = tmp_path / "wide.csv"
    path.write_text(f"name,2005,2006\nfirm,1,2\nfirm2,2,4\nTOTAL,{token},3\n")
    code, _, err = run_cli(capsys, "describe", "--data", str(path), "--wide", "pp")
    assert code == 2
    assert "wide.csv:4: cell (TOTAL, 2005)" in err
    assert "Traceback" not in err


def test_describe_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "describe", "--data", "/no/such/file.csv")
    assert code == 2
    assert "/no/such/file.csv" in err


def test_describe_empty_file_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "describe", "--data", str(path))
    assert code == 2
    assert err == f"error: {path}: empty file\n"


@pytest.mark.parametrize("wide", [False, True])
def test_describe_latin1_csv_exit_2(tmp_path, capsys, wide):
    path = tmp_path / "latin1.csv"
    text = ("name,2005,2006\nMünchener Rück,1,2\nfirm2,2,4\n" if wide else
            "entity,period,pp\nMünchener Rück,2005,1\nMünchener Rück,2006,2\n")
    path.write_bytes(text.encode("latin-1"))
    extra = ("--wide", "pp") if wide else ()
    code, _, err = run_cli(capsys, "describe", "--data", str(path), *extra)
    assert code == 2
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("layout", ["quote-free", "quoted", "wide"])
def test_describe_csv_field_over_the_size_limit_exit_2(tmp_path, capsys, layout):
    # csv.reader rejects a field longer than csv.field_size_limit(); the
    # long reader's column split leaves such a line to it
    name = "a" * (csv.field_size_limit() + 1)
    path = tmp_path / "big.csv"
    path.write_text({"quote-free": f"entity,period,x\nb,2000,1\n{name},2000,1\n",
                     "quoted": f'entity,period,x\nb,2000,1\n"{name}",2000,1\n',
                     "wide": f"name,2005,2006\nfirm1,1,2\n{name},2,4\n"}[layout])
    extra = ("--wide", "x") if layout == "wide" else ("--vars", "x")
    code, _, err = run_cli(capsys, "describe", "--data", str(path), *extra)
    assert code == 2
    assert err.startswith(f"error: {path}:3: field larger than field limit")
    assert "Traceback" not in err


def test_describe_csv_with_byte_order_mark(brand_panel_csv, tmp_path, capsys):
    # Excel's "CSV UTF-8" starts the file with EF BB BF
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + Path(brand_panel_csv).read_bytes())
    code, out, _ = run_cli(capsys, "describe", "--data", brand_panel_csv, "--vars", "pp")
    assert code == 0
    assert run_cli(capsys, "describe", "--data", str(path), "--vars", "pp") == (code, out, "")


def test_describe_table_layout(brand_panel_csv, capsys):
    code, out, _ = run_cli(capsys, "describe", "--data", brand_panel_csv, "--vars", "pp,bt")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == ("variable            mean      median         max         min"
                      "          sd    skewness    kurtosis           n")
    assert [r[:12] for r in rows] == ["pp          ", "bt          "]
    code, out, _ = run_cli(capsys, "describe", "--data", brand_panel_csv,
                           "--vars", "pp", "--out", "json")
    stats = json.loads(out)["pp"]
    cells = [rows[0][12 + 12 * i: 24 + 12 * i] for i in range(8)]
    assert len(rows[0]) == 12 + 8 * 12
    assert cells[-1] == f"{stats['n']:>12}"
    assert cells[:-1] == [f"{stats[c]:>12.4f}" for c in
                          ("mean", "median", "max", "min", "sd", "skewness", "kurtosis")]


# ---------------------------------------------------------------------------
# estimate

def test_estimate_od_json_schema(brand_panel_csv, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "od",
        "--dep", "pp", "--ar", "1", "--exog", "bv", "--exog", "bt",
        "--instruments", "dyn(pp,2),dyn(bv,2),dyn(bt,2)",
        "--on-singular", "pinv", "--weighting", "two-step",
        "--out", "json", "--output-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    for key in ("coefficients", "se", "t", "r2", "j", "j_p"):
        assert key in payload
    assert set(payload["coefficients"]) == {"pp(-1)", "bv", "bt"}
    assert payload["n"] == 258
    manifest = json.loads((tmp_path / "estimate_manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert brand_panel_csv in manifest["inputs"]


def no_effects_csv(tmp_path, seed):
    """A 40-entity panel with no between-entity variance: RE collapses to pooled."""
    rng = np.random.default_rng(seed)
    rows = ["entity,period,y,x"]
    for a in range(40):
        y_prev = 0.0
        for t in range(1, 9):
            x = rng.standard_normal()
            y = 0.3 * y_prev + x + rng.standard_normal()
            rows.append(f"e{a},{t},{y!r},{x!r}")
            y_prev = y
    path = tmp_path / "nofx.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_estimate_re_degenerate_annotated(tmp_path, capsys):
    path = no_effects_csv(tmp_path, 2)
    code, out, _ = run_cli(
        capsys, "estimate", "--data", str(path), "--spec", "re", "--dep", "y",
        "--ar", "1", "--exog", "x", "--plain", "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert "rho_u = 0; coefficients identical to pooled" in out


def test_estimate_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(tmp_path / "absent.csv"),
        "--spec", "od", "--dep", "pp", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "absent.csv" in err


def test_estimate_negative_ar_exit_2(brand_panel_csv, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "fd",
        "--dep", "pp", "--ar", "-1", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error: ar_lags must be >= 0")


@pytest.mark.parametrize("argv, message", [
    (["--spec", "fd", "--ar", "0"], "no regressor and no intercept"),
    (["--spec", "pooled", "--ar", "0", "--no-intercept"], "no regressor and no intercept"),
    (["--spec", "pooled", "--ar", "0", "--no-intercept", "--plain"],
     "no regressor and no intercept"),
    (["--spec", "pooled", "--plain", "--exog", "pp"], "'pp' is the dependent variable"),
    (["--spec", "fd", "--exog", "bv", "--exog", "bv"],
     "exogenous variable(s) ['bv'] named by more than one term"),
])
def test_estimate_degenerate_model_exit_2(brand_panel_csv, tmp_path, capsys, argv, message):
    code, _, err = run_cli(capsys, "estimate", "--data", brand_panel_csv, "--dep", "pp",
                           *argv, "--output-dir", str(tmp_path))
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("fit", [["--plain"], ["--instruments", "static(bv,0..1)"]])
def test_estimate_fe_without_slope_exit_1(brand_panel_csv, tmp_path, capsys, fit):
    code, _, err = run_cli(capsys, "estimate", "--data", brand_panel_csv, "--spec", "fe",
                           *fit, "--dep", "pp", "--ar", "0", "--output-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: fixed effects need a slope regressor")


@pytest.mark.parametrize("plain", [[], ["--plain"]])
def test_estimate_re_with_only_an_intercept(brand_panel_csv, tmp_path, capsys, plain):
    code, out, _ = run_cli(capsys, "estimate", "--data", brand_panel_csv, "--spec", "re",
                           "--dep", "pp", "--ar", "0", *plain, "--out", "json",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert list(json.loads(out)["coefficients"]) == ["const"]


@pytest.mark.parametrize("option, value, message", [
    ("--max-iter", "-3", "max_iter must be >= 1"),
    ("--max-iter", "0", "max_iter must be >= 1"),
    ("--tol", "nan", "tol must be finite and >= 0"),
    ("--tol", "inf", "tol must be finite and >= 0"),
    ("--tol", "-1e-8", "tol must be finite and >= 0"),
])
def test_estimate_bad_iteration_setting_exit_2(brand_panel_csv, tmp_path, capsys,
                                               option, value, message):
    code, _, err = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "fd", "--dep", "pp",
        "--weighting", "n-step", f"{option}={value}", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith(f"error: {message}")


def test_estimate_bad_instrument_lag_exit_2(brand_panel_csv, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "fd",
        "--dep", "pp", "--instruments", "dyn(pp,0)", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "starting lag must be >= 1" in err


def test_estimate_nan_cell_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(4)
    rows = ["entity,period,y"]
    for a in range(20):
        for t in range(1, 9):
            rows.append(f"e{a},{t},{rng.standard_normal()!r}")
    rows[5] = "e0,5,nan"
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(path), "--spec", "fd", "--dep", "y",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "nan.csv:6: cell (e0, 5, y)" in err
    assert "Traceback" not in err


def test_estimate_failure_exit_1(brand_panel_csv, tmp_path, capsys):
    # singular weighting with on-singular=error is an estimation failure
    code, _, err = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "od",
        "--dep", "pp", "--ar", "1", "--exog", "bv", "--exog", "bt",
        "--weighting", "two-step", "--output-dir", str(tmp_path),
    )
    assert code == 1
    assert "singular" in err.lower()


def test_estimate_fitted_out(brand_panel_csv, tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "fd",
        "--dep", "pp", "--ar", "1", "--exog", "bv", "--exog", "bt",
        "--on-singular", "pinv", "--weighting", "one-step",
        "--fitted-out", "fit.csv", "--output-dir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "fit.csv").read_text().strip().split("\n")
    assert lines[0] == ("entity,period,actual_transformed,fitted_transformed,"
                        "actual_level,fitted_level")
    assert len(lines) == 1 + 258


@pytest.mark.parametrize("extra", [("--spec", "pooled", "--plain"),
                                   ("--spec", "fd", "--weighting", "one-step")])
def test_estimate_csv_cells_are_plain_floats(brand_panel_csv, tmp_path, capsys, extra):
    args = ["estimate", "--data", brand_panel_csv, "--dep", "pp", "--exog", "bv",
            "--exog", "bt", "--on-singular", "pinv", *extra,
            "--output-dir", str(tmp_path)]
    code, out_csv, _ = run_cli(capsys, *args, "--out", "csv")
    assert code == 0
    code, out_json, _ = run_cli(capsys, *args, "--out", "json")
    assert code == 0
    payload = json.loads(out_json)
    lines = out_csv.strip().split("\n")
    assert lines[0] == "name,coefficient,se,t"
    assert len(lines) == 1 + len(payload["coefficients"])
    for line in lines[1:]:
        name, *cells = line.split(",")
        values = [float(c) for c in cells]
        assert values == [payload[k][name] for k in ("coefficients", "se", "t")]


def test_estimate_plain_fe(brand_panel_csv, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "fe",
        "--dep", "pp", "--ar", "1", "--exog", "bv", "--exog", "bt",
        "--plain", "--out", "json", "--output-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert "pp(-1)" in payload["coefficients"]


def test_estimate_json_records_share_one_key_set(brand_panel_csv, tmp_path, capsys):
    key_sets = set()
    for spec in ("pooled", "fe", "re", "od", "fd"):
        for plain in ((), ("--plain",)) if spec in ("pooled", "fe", "re") else ((),):
            code, out, _ = run_cli(
                capsys, "estimate", "--data", brand_panel_csv, "--spec", spec,
                "--dep", "pp", "--exog", "bv", "--exog", "bt", "--on-singular", "pinv",
                "--weighting", "one-step", *plain, "--out", "json",
                "--output-dir", str(tmp_path),
            )
            assert code == 0
            key_sets.add(tuple(json.loads(out)))
    assert len(key_sets) == 1
    assert {"j", "j_p", "j_df", "ar", "variance_components"} <= set(key_sets.pop())


@pytest.mark.parametrize("argv, message", [
    (["--spec", "od"], "--plain fits --spec pooled, fe or re; drop --plain for --spec od"),
    (["--spec", "fd"], "--plain fits --spec pooled, fe or re; drop --plain for --spec fd"),
    (["--spec", "pooled", "--instruments", "static(bv,0..1)"], "take no --instruments"),
    (["--spec", "fe", "--windmeijer"], "take no --instruments or --windmeijer"),
], ids=["od", "fd", "instruments", "windmeijer"])
def test_estimate_plain_conflict_exit_2(brand_panel_csv, tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, "estimate", "--data", brand_panel_csv, "--dep", "pp",
                             "--exog", "bv", "--plain", *argv, "--output-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert "fit_gmm" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["--spec", "fd", "--intercept"], "differenced/deviated equations have no intercept"),
    (["--spec", "od", "--intercept"], "differenced/deviated equations have no intercept"),
    (["--spec", "fd", "--weighting", "one-step", "--windmeijer"],
     "drop it for --weighting one-step"),
], ids=["fd-intercept", "od-intercept", "one-step-windmeijer"])
def test_estimate_option_the_fit_would_ignore_exit_2(brand_panel_csv, tmp_path, capsys,
                                                     argv, message):
    code, out, err = run_cli(capsys, "estimate", "--data", brand_panel_csv, "--dep", "pp",
                             "--exog", "bv", *argv, "--output-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.iterdir())


def test_estimate_fd_no_intercept_is_the_default_fit(brand_panel_csv, tmp_path, capsys):
    outs = []
    for flag in ([], ["--no-intercept"]):
        code, out, _ = run_cli(capsys, "estimate", "--data", brand_panel_csv, "--spec", "fd",
                               "--dep", "pp", "--exog", "bv", "--on-singular", "pinv", *flag,
                               "--out", "json", "--output-dir", str(tmp_path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("term", ["bv(-2)", "bv(0..2)"])
def test_estimate_exog_lag_terms(brand_panel_csv, tmp_path, capsys, term):
    code, out, _ = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "pooled", "--plain",
        "--dep", "pp", "--exog", term, "--out", "csv", "--output-dir", str(tmp_path),
    )
    assert code == 0
    # the names of ExogTerm("bv", 2): bv at lags 0..2
    names = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert names == ["pp(-1)", "bv", "bv(-1)", "bv(-2)", "const"]


@pytest.mark.parametrize("term", ["bv(1..2)", "bv(-x)"])
def test_estimate_bad_exog_term_exit_2(brand_panel_csv, tmp_path, capsys, term):
    code, _, err = run_cli(
        capsys, "estimate", "--data", brand_panel_csv, "--spec", "pooled", "--plain",
        "--dep", "pp", "--exog", term, "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error: ") and repr(term) in err


# ---------------------------------------------------------------------------
# replicate

def test_replicate_five_columns_csv(brand_panel_csv, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "replicate", "--data", brand_panel_csv,
        "--out", "csv", "--output-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "row,pooled,fe,re,od,fd"
    n_row = [l for l in lines if l.startswith("n,")][0]
    assert n_row.split(",")[4:6] == ["258", "258"]  # od and fd samples


def test_replicate_table_renders_258(brand_panel_csv, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "replicate", "--data", brand_panel_csv,
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert "258" in out
    for label in ("pp(-1)", "bv", "bt", "R-squared", "J-stat"):
        assert label in out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replicate_notes_a_floored_re_variance(tmp_path, capsys, seed):
    code, out, _ = run_cli(capsys, "replicate", "--data", str(no_effects_csv(tmp_path, seed)),
                           "--dep", "y", "--exog-vars", "x", "--weighting", "two-step",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert out.endswith("\nnote: rho_u = 0; RE coefficients identical to pooled\n")


def test_replicate_requires_brand_series(tmp_path, capsys):
    rows = ["entity,period,pp"] + [f"e{a},{t},{a + t}.0" for a in range(5)
                                   for t in range(1, 6)]
    path = tmp_path / "pp_only.csv"
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "replicate", "--data", str(path), "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "bv" in err and "bt" in err


def test_replicate_has_no_wide_option(table1_path, tmp_path, capsys):
    # a wide CSV holds one series and replicate needs at least two
    with pytest.raises(SystemExit) as info:
        main(["replicate", "--data", table1_path, "--wide", "pp", "--exog-vars", "bv",
              "--output-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --wide pp" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_replicate_empty_exog_vars_is_usage_error(brand_panel_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["replicate", "--data", brand_panel_csv, "--exog-vars",
              "--output-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "--exog-vars: expected at least one argument" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_replicate_dependent_as_exog_var_is_usage_error(brand_panel_csv, tmp_path, capsys):
    code, _, err = run_cli(capsys, "replicate", "--data", brand_panel_csv, "--exog-vars", "bv",
                           "pp", "--output-dir", str(tmp_path))
    assert code == 2
    assert err == "error: exogenous term 'pp' is the dependent variable\n"


def test_replicate_manifest_config(brand_panel_csv, tmp_path, capsys):
    code, _, _ = run_cli(capsys, "replicate", "--data", brand_panel_csv, "--exog-vars", "bt",
                         "bv", "--weighting", "one-step", "--out", "csv",
                         "--output-dir", str(tmp_path))
    assert code == 0
    config = json.loads((tmp_path / "replicate_manifest.json").read_text())["config"]
    assert config == {
        "command": "replicate", "data": brand_panel_csv, "dep": "pp",
        "exog_vars": ["bt", "bv"], "max_iter": 500, "out": "csv",
        "output_dir": str(tmp_path), "tol": 1e-8, "weighting": "one-step",
    }


# ---------------------------------------------------------------------------
# simulate

def test_simulate_determinism(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    args = ["simulate", "--entities", "40", "--periods", "8", "--rho", "0.5",
            "--reps", "5", "--seed", "7", "--estimators", "od,fd",
            "--weighting", "one-step", "--output-dir", str(out_dir)]
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    first = {
        name: (out_dir / name).read_bytes()
        for name in os.listdir(out_dir)
    }
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    second = {
        name: (out_dir / name).read_bytes()
        for name in os.listdir(out_dir)
    }
    assert first == second
    assert "mc_summary.csv" in first and "simulate_manifest.json" in first


def test_simulate_manifest_contents(tmp_path, capsys):
    out_dir = tmp_path / "sim2"
    code, _, _ = run_cli(
        capsys, "simulate", "--entities", "30", "--periods", "6",
        "--reps", "2", "--seed", "3", "--weighting", "one-step",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "simulate_manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["version"]
    assert sorted(manifest["outputs"]) == ["mc_summary.csv", "mc_summary.json"]


def test_simulate_one_replication_writes_strict_json(tmp_path, capsys):
    # one replication has sd = 0 and no SE/SD ratio: JSON null, an empty CSV cell
    code, _, _ = run_cli(capsys, "simulate", "--entities", "30", "--periods", "6",
                         "--reps", "1", "--weighting", "one-step", "--output-dir", str(tmp_path))
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((tmp_path / "mc_summary.json").read_text(), parse_constant=reject)
    ratios = [s["se_sd_ratio"] for e in summary["estimators"] for s in e["coefficients"].values()]
    assert ratios and all(r is None for r in ratios)
    with open(tmp_path / "mc_summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    cells = [v for row in rows for k, v in row.items() if k.endswith(":se_sd_ratio")]
    assert cells and all(v == "" for v in cells)


def test_simulate_plain_estimators(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--entities", "30", "--periods", "6", "--reps", "2",
        "--estimators", "pooled,fe,re", "--output-dir", str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "mc_summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(row["estimator"], row["n_success"]) for row in rows] == [
        ("pooled", "2"), ("fe", "2"), ("re", "2")]
    assert "fe: mean rho_hat" in out


def test_simulate_unknown_estimator_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--estimators", "bogus",
        "--reps", "1", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "bogus" in err


def test_simulate_repeated_estimator_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--estimators", "od,fd,od", "--reps", "1",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error: estimator configuration names repeat")
    assert not list(tmp_path.iterdir())


def test_simulate_nonstationary_rho_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--rho", "1.0", "--reps", "1",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error: |rho| must be < 1")


def test_simulate_negative_seed_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--seed", "-1", "--reps", "1",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error: seed must be a non-negative integer, got -1")
    assert not list(tmp_path.iterdir())


def test_simulate_zero_reps_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--reps", "0", "--output-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("error: reps must be >= 1")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (("--sigma-noise", "-1"), "sigma_noise must be finite and >= 0, got -1.0"),
    (("--sigma-effect", "nan"), "sigma_effect must be finite and >= 0, got nan"),
    (("--sigma-effect", "inf"), "sigma_effect must be finite and >= 0, got inf"),
    (("--betas", "nan"), "exogenous_betas must be finite, got (nan,)"),
    (("--betas", "1,inf"), "exogenous_betas must be finite, got (1.0, inf)"),
    (("--betas", "1,,2"), "--betas must be comma-separated numbers, got '1,,2'"),
    (("--betas", ""), "--betas must be comma-separated numbers, got ''"),
])
def test_simulate_bad_dgp_parameter_exit_2(tmp_path, capsys, argv, message):
    code, _, err = run_cli(capsys, "simulate", *argv, "--reps", "1",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# golden outputs on the suite's brand panel: the 4-decimal tables byte for
# byte, the full-precision CSV and JSON records after parsing. To
# regenerate, write conftest.build_brand_panel() with to_long_csv and run
# the same arguments through ``python -m dynpanel.cli`` with
# OPENBLAS_NUM_THREADS=1.

GOLDEN = Path(__file__).parent / "data" / "golden"
GMM_ARGS = ("--dep", "pp", "--exog", "bv", "--exog", "bt",
            "--on-singular", "pinv", "--max-iter", "500")


@pytest.mark.parametrize("golden, argv", [
    ("replicate_table.txt", ("replicate",)),
    ("estimate_fe_table.txt", ("estimate", "--spec", "fe", *GMM_ARGS)),
    ("estimate_re_table.txt", ("estimate", "--spec", "re", *GMM_ARGS)),
    ("estimate_fd_table.txt", ("estimate", "--spec", "fd", *GMM_ARGS)),
])
def test_golden_table(brand_panel_csv, tmp_path, capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv, "--data", brand_panel_csv,
                           "--out", "table", "--output-dir", str(tmp_path))
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def _assert_close(got, want, where="output"):
    """Same keys or labels in the same order, numbers within 1e-10 relative.

    Full-precision cells move by about 1e-12 with the BLAS thread count, so
    the records are compared after parsing rather than byte for byte.
    """
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-10) or (
            math.isnan(got) and math.isnan(want)), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def _parse_record(text: str, fmt: str):
    if fmt == "json":
        return json.loads(text)

    def cell(c):
        try:
            return float(c)
        except ValueError:
            return c

    return [[label] + [cell(c) for c in cells]
            for label, *cells in (line.split(",") for line in text.splitlines())]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("stem, argv", [
    ("replicate", ("replicate",)),
    ("estimate_fe", ("estimate", "--spec", "fe", *GMM_ARGS)),
    ("estimate_re", ("estimate", "--spec", "re", *GMM_ARGS)),
    ("estimate_fd", ("estimate", "--spec", "fd", *GMM_ARGS)),
    ("estimate_fe_plain", ("estimate", "--spec", "fe", "--plain", *GMM_ARGS)),
    ("estimate_pooled_plain", ("estimate", "--spec", "pooled", "--plain", *GMM_ARGS)),
    ("estimate_re_plain", ("estimate", "--spec", "re", "--plain", *GMM_ARGS)),
])
def test_golden_record(brand_panel_csv, tmp_path, capsys, stem, argv, fmt):
    code, out, _ = run_cli(capsys, *argv, "--data", brand_panel_csv,
                           "--out", fmt, "--output-dir", str(tmp_path))
    assert code == 0
    want = (GOLDEN / f"{stem}.{fmt}").read_text(encoding="utf-8")
    _assert_close(_parse_record(out, fmt), _parse_record(want, fmt))
