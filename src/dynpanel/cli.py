"""Command-line front end.

Subcommands: ``estimate`` (one specification on one dataset),
``replicate`` (the five-column pooled/FE/RE/OD/FD comparison on a long
CSV, since it needs the dependent and at least one exogenous series),
``simulate`` (Monte Carlo harness), ``describe`` (summary statistics),
and ``ratings`` (letter-grade codec). A spec name maps to its model's
transform through ``SPEC_TRANSFORMS``; a plain (``--plain``) pooled,
FE or RE fit is ``fit_plain`` of that model, and ``--plain`` with an FD
or OD spec, ``--instruments`` or ``--windmeijer`` is a usage error, as are
``--intercept`` with an FD or OD spec and ``--windmeijer`` with one-step
weighting.
``estimate``, ``replicate`` and ``simulate`` write a manifest with the
configuration, seed, input digests, and package version; manifests
carry no timestamps so reruns are byte-identical.

Exit codes: 0 success, 1 estimation or diagnostic failure, 2 usage or
input/output error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DiagnosticsReport, report_for
from .errors import DataError, DynpanelError, RatingError
from .estimators import (
    EstimationResult,
    ExogTerm,
    ModelSpec,
    Weighting,
    fit_gmm,
    fit_plain,
)
from .instruments import InstrumentSpec, StaticInstrument, DynamicInstrument, parse_instruments
from .panel import PanelDataset, describe, ingest_long_csv, ingest_wide_csv
from .ratings import grade_to_numeric, numeric_to_grade, scale_as_csv
from .simulate import (
    DgpSpec,
    EstimatorConfig,
    ar1_model,
    fd_od_comparison_configs,
    run_experiment,
)
from .transforms import TransformKind

# each ``--spec`` name and the transform of its model
SPEC_TRANSFORMS = {
    "pooled": TransformKind.NONE,
    "fe": TransformKind.WITHIN,
    "re": TransformKind.QUASI_DEMEAN,
    "od": TransformKind.ORTHOGONAL_DEVIATION,
    "fd": TransformKind.FIRST_DIFFERENCE,
}
SPEC_CHOICES = tuple(SPEC_TRANSFORMS)

_EXOG_RE = re.compile(r"^(?P<name>\w+)(?:\((?:-(?P<single>\d+)|(?P<from>\d+)\.\.(?P<to>\d+))\))?$")


@contextmanager
def _spec_errors():
    """Report a spec's ``ValueError`` on bad arguments as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _weighting(args) -> Weighting:
    """The ``--weighting``, ``--max-iter`` and ``--tol`` options; bad values are usage errors."""
    with _spec_errors():
        return Weighting(args.weighting.replace("-", "_"), max_iter=args.max_iter, tol=args.tol)


def _parse_exog(terms: list[str]) -> tuple[ExogTerm, ...]:
    """Terms like ``bv``, ``bv(-2)`` (lags up to 2), or ``bv(0..2)``."""
    out = []
    for raw in terms:
        m = _EXOG_RE.match(raw.strip())
        if not m:
            raise DataError(f"cannot parse regressor term {raw!r}")
        if m.group("single") is not None:
            lags = int(m.group("single"))
        elif m.group("to") is not None:
            if int(m.group("from")) != 0:
                raise DataError(f"exogenous lag ranges must start at 0: {raw!r}")
            lags = int(m.group("to"))
        else:
            lags = 0
        out.append(ExogTerm(m.group("name"), lags))
    return tuple(out)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, command: str, inputs: list[str], outputs: list[str],
                    seed: int | None) -> None:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_")
    }
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _load_dataset(args) -> PanelDataset:
    if getattr(args, "wide", None):
        return ingest_wide_csv(args.data, args.wide)
    return ingest_long_csv(args.data)


def _model_for(spec: str, dep: str, ar: int, exog: tuple[ExogTerm, ...],
               intercept: bool | None) -> ModelSpec:
    kind = SPEC_TRANSFORMS[spec]
    if intercept is None:
        intercept = not kind.is_calendar
    return ModelSpec(dependent=dep, ar_lags=ar, exogenous=exog, intercept=intercept,
                     transform=kind)


def _default_instruments(model: ModelSpec) -> InstrumentSpec:
    """The documented defaults: dynamic blocks with starting lag 2 for
    differenced/deviated runs, two static lags of each exogenous
    regressor plus the intercept for level runs."""
    if model.transform.is_calendar:
        dyn = [DynamicInstrument(model.dependent, 2)]
        dyn += [DynamicInstrument(t.name, 2) for t in model.exogenous]
        return InstrumentSpec(dynamic=tuple(dyn))
    static = tuple(StaticInstrument(t.name, 0, 2) for t in model.exogenous)
    return InstrumentSpec(static=static, include_intercept=True)


def _fit_one(model: ModelSpec, data: PanelDataset, args) -> EstimationResult:
    weighting = _weighting(args)
    if args.plain:
        if model.transform.is_calendar:
            raise DataError(f"--plain fits --spec pooled, fe or re; drop --plain for "
                            f"--spec {args.spec}")
        if args.instruments or args.windmeijer:
            raise DataError("--plain fits take no --instruments or --windmeijer")
        with _spec_errors():
            return fit_plain(model, data)
    if args.windmeijer and weighting.kind == "one_step":
        raise DataError("--windmeijer corrects two-step or n-step standard errors; "
                        "drop it for --weighting one-step")
    if args.instruments:
        with _spec_errors():
            inst = parse_instruments(args.instruments)
    else:
        inst = _default_instruments(model)
    # instrumented level specifications keep the intercept inside the
    # instrument set; the within transform prunes it automatically
    return fit_gmm(
        model, data, inst, weighting=weighting,
        on_singular=args.on_singular, windmeijer=args.windmeijer,
    )


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "-"
    return f"{x:.4f}"


def _record(result: EstimationResult, report: DiagnosticsReport) -> dict:
    """The one record of a fit that every ``--out`` format renders."""
    names = result.param_names
    return {
        "method": result.method,
        "coefficients": dict(zip(names, map(float, result.coefficients))),
        "se": dict(zip(names, map(float, result.standard_errors))),
        "t": dict(zip(names, map(float, result.t_statistics))),
        "r2": result.r_squared_unweighted,
        "r2_weighted": result.r_squared_weighted,
        "n": result.sample_size,
        "cross_sections": int(np.unique(result.design.entity_ids).size),
        "periods": int(np.unique(result.design.periods).size),
        "steps": result.steps_taken,
        **report.to_json_dict(),
    }


def _render_column(rec: dict) -> str:
    lines = [
        f"Method: {rec['method']}   weighting steps: {rec['steps']}",
        f"Sample: {rec['n']} obs, {rec['cross_sections']} cross-sections, "
        f"{rec['periods']} periods",
    ]
    width = max(len("J-statistic"), *(len(n) for n in rec["coefficients"])) + 2
    for name, coef in rec["coefficients"].items():
        lines.append(f"{name:<{width}}{_fmt(coef)}")
        lines.append(f"{'':<{width}}({_fmt(rec['se'][name])})")
        lines.append(f"{'':<{width}}[{_fmt(rec['t'][name])}]")
    if rec["r2_weighted"] != rec["r2"]:
        lines.append(f"{'R-squared':<{width}}{_fmt(rec['r2_weighted'])} (weighted)")
        lines.append(f"{'':<{width}}{_fmt(rec['r2'])} (unweighted)")
    else:
        lines.append(f"{'R-squared':<{width}}{_fmt(rec['r2'])}")
    if rec["j"] is not None:
        lines.append(
            f"{'J-statistic':<{width}}{_fmt(rec['j'])} ({_fmt(rec['j_p'])})"
            f"  df={rec['j_df']}"
        )
    for t in rec["ar"]:
        label = f"AR({t['order']})"
        lines.append(f"{label:<{width}}{_fmt(t['z'])} ({_fmt(t['p'])})")
    vc = rec["variance_components"]
    if vc is not None:
        lines.append(f"{'rho_u/rho_e':<{width}}{_fmt(vc['rho_u'])} / {_fmt(vc['rho_e'])}")
        if vc["sigma_u2"] == 0.0:
            lines.append("note: rho_u = 0; coefficients identical to pooled")
    return "\n".join(lines)


def _write_fitted(result: EstimationResult, path) -> None:
    """The ``--fitted-out`` table: one row per sample row, actual and fitted
    values in transformed and level units; level cells are empty outside
    the fit's ``level_mask``."""
    design = result.design
    level = result.level_mask.tolist()
    actual, fitted = ([repr(x) if m else "" for x, m in zip(col.tolist(), level)]
                      for col in (design.y_level, result.fitted_level))
    rows = zip([design.sample.entities[e] for e in design.entity_ids.tolist()],
               design.periods.tolist(), map(repr, design.y.tolist()),
               map(repr, result.fitted_transformed.tolist()), actual, fitted)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["entity", "period", "actual_transformed", "fitted_transformed",
                         "actual_level", "fitted_level"])
        writer.writerows(rows)


def cmd_estimate(args) -> int:
    data = _load_dataset(args)
    with _spec_errors():
        exog = _parse_exog(args.exog or [])
        model = _model_for(args.spec, args.dep, args.ar, exog, args.intercept)
    result = _fit_one(model, data, args)
    rec = _record(result, report_for(result))

    outputs = []
    out_dir = Path(args.output_dir)
    if args.fitted_out:
        out_dir.mkdir(parents=True, exist_ok=True)
        fit_path = out_dir / args.fitted_out
        _write_fitted(result, fit_path)
        outputs.append(str(fit_path))
    if args.out == "json":
        print(json.dumps(rec, indent=2, sort_keys=True))
    elif args.out == "csv":
        print("name,coefficient,se,t")
        for name, coef in rec["coefficients"].items():
            print(",".join([name] + [repr(v) for v in (coef, rec["se"][name], rec["t"][name])]))
    else:
        print(_render_column(rec))
    _write_manifest(args, "estimate", [args.data], outputs, None)
    return 0


def _replicate_rows(records: dict[str, dict]):
    """The replicate grid, row by row: (CSV label, table label, table cell
    format, one value per spec). Each parameter of any spec gives a
    coefficient, SE and t row, None where a spec has no such parameter;
    R-squared, J, its p-value and n follow."""
    cols = [records[s] for s in SPEC_CHOICES]
    for name in dict.fromkeys(n for r in cols for n in r["coefficients"]):
        for key, suffix, label, deco in (("coefficients", "", name, "%s"),
                                         ("se", ":se", "", "(%s)"), ("t", ":t", "", "[%s]")):
            yield name + suffix, label, deco, [r[key].get(name) for r in cols]
    for key, label, deco in (("r2", "R-squared", "%s"), ("j", "J-stat", "%s"),
                             ("j_p", "", "(%s)"), ("n", "n", "%s")):
        yield key, label, deco, [r[key] for r in cols]


def cmd_replicate(args) -> int:
    data = _load_dataset(args)
    needed = [args.dep] + list(args.exog_vars)
    missing = [v for v in needed if v not in data.variables]
    if missing:
        raise DataError(
            f"replicate needs series {needed}, but {missing} are not in the dataset; "
            "supply a long CSV that includes them (the brand series are not "
            "published and must be provided by the user)"
        )
    exog = tuple(ExogTerm(v, 0) for v in args.exog_vars)
    weighting = _weighting(args)
    records = {}
    for spec in SPEC_CHOICES:
        with _spec_errors():
            model = _model_for(spec, args.dep, 1, exog, None)
        inst = _default_instruments(model)
        result = fit_gmm(model, data, inst, weighting=weighting, on_singular="pinv")
        records[spec] = _record(result, report_for(result))

    if args.out == "json":
        print(json.dumps(records, indent=2, sort_keys=True))
    elif args.out == "csv":
        print("row," + ",".join(SPEC_CHOICES))
        for label, _, _, values in _replicate_rows(records):
            print(label + "," + ",".join("" if v is None else repr(v) for v in values))
    else:
        colw = 14
        header = f"{'':<12}" + "".join(f"{s:>{colw}}" for s in SPEC_CHOICES)
        print(header + "\n" + "-" * len(header))
        for _, label, deco, values in _replicate_rows(records):
            cells = ["-" if v is None else deco % (_fmt(v) if isinstance(v, float) else v)
                     for v in values]
            print(f"{label:<12}" + "".join(f"{c:>{colw}}" for c in cells))
        re_vc = records["re"]["variance_components"]
        if re_vc is not None and re_vc["sigma_u2"] == 0.0:
            print("note: rho_u = 0; RE coefficients identical to pooled")
    _write_manifest(args, "replicate", [args.data], [], None)
    return 0


def cmd_simulate(args) -> int:
    try:
        betas = tuple(float(b) for b in args.betas.split(","))
    except ValueError:
        raise DataError(f"--betas must be comma-separated numbers, got {args.betas!r}") from None
    with _spec_errors():
        dgp = DgpSpec(
            n_entities=args.entities,
            n_periods=args.periods,
            rho=args.rho,
            exogenous_betas=betas,
            sigma_effect=args.sigma_effect,
            sigma_noise=args.sigma_noise,
            burn_in=args.burn_in,
            missingness=args.missingness,
            seed=args.seed,
        )
    n_x = len(betas)
    weighting = _weighting(args)
    fresh = {
        c.name: c for c in fd_od_comparison_configs(n_x=n_x, weighting=weighting)
    }
    configs = []
    for spec in args.estimators.split(","):
        spec = spec.strip()
        if spec not in SPEC_CHOICES:
            raise DataError(f"unknown estimator {spec!r}; choose from {SPEC_CHOICES}")
        # od/fd use the fresh-lag bounded dynamic blocks of the canonical
        # comparison sets
        configs.append(fresh[spec] if spec in ("od", "fd") else
                       EstimatorConfig(spec, ar1_model(SPEC_TRANSFORMS[spec], n_x=n_x)))
    with _spec_errors():
        summary = run_experiment(dgp, configs, reps=args.reps)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.out_prefix}_summary.csv"
    json_path = out_dir / f"{args.out_prefix}_summary.json"
    csv_path.write_text(summary.to_csv(), encoding="utf-8")
    json_path.write_text(summary.to_json() + "\n", encoding="utf-8")
    print(f"wrote {csv_path} and {json_path}")
    print(f"seed ledger: root seed {dgp.seed}, replications 0..{args.reps - 1}")
    for est in summary.estimators:
        stats = est.coef_stats.get("y(-1)")
        if stats:
            print(
                f"{est.name}: mean rho_hat {stats.mean:.4f} "
                f"(bias {stats.bias:+.4f}, rmse {stats.rmse:.4f}), "
                f"failures {est.n_failed}"
            )
    _write_manifest(args, "simulate", [], [str(csv_path), str(json_path)], args.seed)
    return 0


def cmd_describe(args) -> int:
    data = _load_dataset(args)
    variables = args.vars.split(",") if args.vars else list(data.variables)
    records = {v: describe(data, v).to_json_dict() for v in variables}
    if args.out == "json":
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        cols = list(next(iter(records.values())))
        print(f"{'variable':<12}" + "".join(f"{c:>12}" for c in cols))
        for v, d in records.items():
            print(f"{v:<12}" + "".join(
                f"{d[c]:>12}" if c == "n" else f"{d[c]:>12.4f}" for c in cols
            ))
    return 0


def cmd_ratings(args) -> int:
    if args.export_csv:
        Path(args.export_csv).write_text(scale_as_csv(), encoding="utf-8")
        print(f"wrote {args.export_csv}")
        return 0
    if args.grade is not None:
        print(f"{grade_to_numeric(args.grade):.2f}")
        return 0
    if args.value is not None:
        print(numeric_to_grade(args.value))
        return 0
    raise DataError("ratings needs --grade, --value, or --export-csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynpanel",
        description="Dynamic panel estimation: pooled/FE/RE and Arellano-Bond "
                    "style GMM on FD/OD-transformed panels.",
    )
    parser.add_argument("--version", action="version", version=f"dynpanel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, max_iter=100):
        p.add_argument("--output-dir", default=os.environ.get("DYNPANEL_OUTPUT_DIR", "."),
                       help="directory for output files and the run manifest")
        p.add_argument("--weighting", default="n-step",
                       choices=["one-step", "two-step", "n-step"])
        p.add_argument("--max-iter", type=int, default=max_iter)
        p.add_argument("--tol", type=float, default=1e-8)

    p_est = sub.add_parser("estimate", help="fit one specification")
    p_est.add_argument("--data", required=True, help="input CSV path")
    p_est.add_argument("--wide", metavar="VAR",
                       help="treat input as wide-format CSV holding VAR")
    p_est.add_argument("--spec", required=True, choices=SPEC_CHOICES)
    p_est.add_argument("--dep", required=True, help="dependent variable name")
    p_est.add_argument("--ar", type=int, default=1, help="lags of the dependent")
    p_est.add_argument("--exog", action="append", metavar="TERM",
                       help="exogenous term: name, name(-K), or name(0..K)")
    p_est.add_argument("--instruments", help="dyn(VAR,S[,B])[:collapse], "
                       "static(VAR,F..T), intercept; comma-separated")
    p_est.add_argument("--plain", action="store_true",
                       help="plain OLS/within/GLS instead of instrumented GMM "
                            "for pooled/fe/re")
    p_est.add_argument("--intercept", action=argparse.BooleanOptionalAction,
                       default=None)
    p_est.add_argument("--on-singular", default="error", choices=["error", "pinv"])
    p_est.add_argument("--windmeijer", action="store_true")
    p_est.add_argument("--out", default="table", choices=["table", "csv", "json"])
    p_est.add_argument("--fitted-out", metavar="FILE.csv",
                       help="write the aligned actual/fitted table")
    add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_rep = sub.add_parser("replicate",
                           help="five-column pooled/FE/RE/OD/FD comparison")
    p_rep.add_argument("--data", required=True, help="long-format CSV path")
    p_rep.add_argument("--dep", default="pp")
    p_rep.add_argument("--exog-vars", nargs="+", default=["bv", "bt"])
    p_rep.add_argument("--out", default="table", choices=["table", "csv", "json"])
    add_common(p_rep, max_iter=500)
    p_rep.set_defaults(func=cmd_replicate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiment")
    p_sim.add_argument("--entities", type=int, default=100)
    p_sim.add_argument("--periods", type=int, default=10)
    p_sim.add_argument("--rho", type=float, default=0.5)
    p_sim.add_argument("--betas", default="1.0", help="comma-separated x coefficients")
    p_sim.add_argument("--sigma-effect", type=float, default=1.0)
    p_sim.add_argument("--sigma-noise", type=float, default=1.0)
    p_sim.add_argument("--burn-in", type=int, default=50)
    p_sim.add_argument("--missingness", type=float, default=0.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--estimators", default="od,fd")
    p_sim.add_argument("--out-prefix", default="mc")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_desc = sub.add_parser("describe", help="descriptive statistics")
    p_desc.add_argument("--data", required=True)
    p_desc.add_argument("--wide", metavar="VAR")
    p_desc.add_argument("--vars", help="comma-separated variable names")
    p_desc.add_argument("--out", default="table", choices=["table", "json"])
    p_desc.set_defaults(func=cmd_describe)

    p_rat = sub.add_parser("ratings", help="letter-grade codec")
    group = p_rat.add_mutually_exclusive_group()
    group.add_argument("--grade", help="letter grade to convert to its value")
    group.add_argument("--value", type=float, help="numeric value to convert to a grade")
    group.add_argument("--export-csv", metavar="PATH", help="dump the scale as CSV")
    p_rat.set_defaults(func=cmd_ratings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except (DataError, RatingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DynpanelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
