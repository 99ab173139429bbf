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


def test_ratings_export(tmp_path, capsys):
    path = tmp_path / "scale.csv"
    code, _, _ = run_cli(capsys, "ratings", "--export-csv", str(path))
    assert code == 0
    assert path.read_text().startswith("grade,description,value")


# ---------------------------------------------------------------------------
# describe

def test_describe_table1(table1_path, capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "describe", "--data", table1_path, "--wide", "pp",
        "--vars", "pp", "--out", "json", "--output-dir", str(tmp_path),
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
    code, _, err = run_cli(
        capsys, "describe", "--data", str(path), "--wide", "pp",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "wide.csv:4: cell (TOTAL, 2005)" in err
    assert "Traceback" not in err


def test_describe_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "describe", "--data", "/no/such/file.csv")
    assert code == 2
    assert "/no/such/file.csv" in err


@pytest.mark.parametrize("wide", [False, True])
def test_describe_latin1_csv_exit_2(tmp_path, capsys, wide):
    path = tmp_path / "latin1.csv"
    text = ("name,2005,2006\nMünchener Rück,1,2\nfirm2,2,4\n" if wide else
            "entity,period,pp\nMünchener Rück,2005,1\nMünchener Rück,2006,2\n")
    path.write_bytes(text.encode("latin-1"))
    extra = ("--wide", "pp") if wide else ()
    code, _, err = run_cli(capsys, "describe", "--data", str(path), *extra,
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


def test_describe_table_layout(brand_panel_csv, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "describe", "--data", brand_panel_csv,
                           "--vars", "pp,bt", "--output-dir", str(tmp_path))
    assert code == 0
    header, *rows = out.splitlines()
    assert header == ("variable            mean      median         max         min"
                      "          sd    skewness    kurtosis           n")
    assert [r[:12] for r in rows] == ["pp          ", "bt          "]
    code, out, _ = run_cli(capsys, "describe", "--data", brand_panel_csv,
                           "--vars", "pp", "--out", "json", "--output-dir", str(tmp_path))
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


def test_estimate_re_degenerate_annotated(tmp_path, capsys):
    # a panel with no between-entity variance: RE collapses to pooled
    rng = np.random.default_rng(2)
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
        for plain in ((), ("--plain",)):
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


def test_simulate_unknown_estimator_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--estimators", "bogus",
        "--reps", "1", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "bogus" in err


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
])
def test_golden_record(brand_panel_csv, tmp_path, capsys, stem, argv, fmt):
    code, out, _ = run_cli(capsys, *argv, "--data", brand_panel_csv,
                           "--out", fmt, "--output-dir", str(tmp_path))
    assert code == 0
    want = (GOLDEN / f"{stem}.{fmt}").read_text(encoding="utf-8")
    _assert_close(_parse_record(out, fmt), _parse_record(want, fmt))
