"""Command-line front end: simulation, explanation, validation and the
approximator benchmark.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 validation
failure. Every subcommand echoes its resolved configuration into a
run-manifest JSON next to its outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import (
    InteractionExplanation,
    PredictionTarget,
    SurvivalDataset,
    build_time_grid,
)
from .games import ConditionalGaussianImputer, MarginalEmpiricalImputer
from .interactions import ApproximatorConfig, explain
from .metrics import smooth_explanation
from .models import CoxModel, model_from_json
from .simulate import (
    SCENARIO_IDS,
    T_MAX,
    build_scenario,
    dep_demo_covariance,
    pairwise_covariance,
    rng_stream,
    simulate_dataset,
)
from .validation import SUITES, run_benchmark, run_suites

ENV_OUT = "SURVIX_OUT"

USAGE_ERROR, COMPUTATION_ERROR, VALIDATION_FAILURE = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


@dataclass
class RunConfig:
    """Resolved, validated options for one subcommand invocation."""

    subcommand: str
    options: dict
    out_dir: Path

    def write_manifest(self) -> Path:
        payload = {
            "subcommand": self.subcommand,
            "options": self.options,
            "versions": {
                "survix": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }
        path = self.out_dir / f"{self.subcommand}_manifest.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        return path


def _parse_scenario(value: str):
    if value == "dep_demo":
        return value
    try:
        scenario = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown scenario {value!r}")
    if scenario not in SCENARIO_IDS:
        raise argparse.ArgumentTypeError(f"scenario must be 1..10 or dep_demo")
    return scenario


def _build_parser() -> _Parser:
    parser = _Parser(prog="survix", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=None,
                        help=f"output directory (default ${ENV_OUT} or ./survix_out)")
    common.add_argument("--config", type=Path, default=None,
                        help="JSON file with default option values")
    common.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="write a simulated dataset CSV plus metadata")
    p_sim.add_argument("--scenario", type=_parse_scenario, default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--rho", type=float, default=None)
    p_sim.add_argument("--t-max", type=float, default=None)
    p_sim.add_argument("--split", action="store_true", default=None,
                       help="also write an 80/20 train/test split")

    p_exp = sub.add_parser("explain", parents=[common],
                           help="compute attribution curves for one instance")
    p_exp.add_argument("--scenario", type=_parse_scenario, default=None)
    p_exp.add_argument("--model-file", type=Path, default=None,
                       help="risk-model or Cox-model JSON instead of a scenario")
    p_exp.add_argument("--data", type=Path, default=None,
                       help="dataset CSV; simulated from the scenario if omitted")
    p_exp.add_argument("--instance", type=str, default=None,
                       help="row index into the dataset, or comma-separated values")
    p_exp.add_argument("--target", choices=[t.value for t in PredictionTarget],
                       default=None)
    p_exp.add_argument("--order", type=int, default=None)
    p_exp.add_argument("--method", choices=["exact", "mc", "perm", "regression"],
                       default=None)
    p_exp.add_argument("--budget", type=int, default=None)
    p_exp.add_argument("--timepoints", type=int, default=None)
    p_exp.add_argument("--t-max", type=float, default=None)
    p_exp.add_argument("--n", type=int, default=None,
                       help="simulated dataset size when --data is omitted")
    p_exp.add_argument("--rho", type=float, default=None)
    p_exp.add_argument("--imputation", choices=["marginal", "conditional"],
                       default=None)
    p_exp.add_argument("--background-size", type=int, default=None,
                       help="subsample the marginal background for speed")
    p_exp.add_argument("--n-samples", type=int, default=None,
                       help="Monte-Carlo draws for conditional imputation")
    p_exp.add_argument("--smooth", action="store_true", default=None)
    p_exp.add_argument("--svg", action="store_true", default=None)

    p_val = sub.add_parser("validate", parents=[common],
                           help="run the decomposition-theory check suites")
    p_val.add_argument("--only", type=str, default=None,
                       help=f"comma-separated subset of {sorted(SUITES)}")
    p_val.add_argument("--tol", type=float, default=None,
                       help="override the time-dependence classification tolerance")

    p_ben = sub.add_parser("benchmark", parents=[common],
                           help="error-vs-budget comparison of the estimators")
    p_ben.add_argument("--budgets", type=str, default=None,
                       help="comma-separated evaluation budgets")
    p_ben.add_argument("--reps", type=int, default=None)
    p_ben.add_argument("--p", type=int, default=None)
    p_ben.add_argument("--timepoints", type=int, default=None)
    p_ben.add_argument("--order", type=int, default=None)
    return parser


_DEFAULTS = {
    "simulate": {"scenario": 1, "n": 1000, "seed": 7, "rho": 0.0,
                 "t_max": T_MAX, "split": False},
    "explain": {"scenario": 1, "target": "loghazard", "order": 2,
                "method": "exact", "budget": 256, "timepoints": 41,
                "t_max": T_MAX, "n": 1000, "seed": 7, "rho": 0.0,
                "imputation": "marginal", "background_size": 0,
                "n_samples": 1000, "smooth": False, "svg": False},
    "validate": {"seed": 7, "only": "", "tol": 0.0},
    "benchmark": {"budgets": "64,128,256,512", "reps": 30, "seed": 7,
                  "p": 10, "timepoints": 11, "order": 2},
}


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: explicit flags > config file > built-in defaults."""
    sub = args.subcommand
    options = dict(_DEFAULTS[sub])
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        for key, value in loaded.get("options", loaded).items():
            if key in options:
                options[key] = value
    for key, value in vars(args).items():
        if key in ("subcommand", "config", "out"):
            continue
        if value is not None:
            options[key] = value
    out_dir = args.out or Path(os.environ.get(ENV_OUT, "survix_out"))
    out_dir = Path(out_dir)
    _validate_options(sub, options)
    out_dir.mkdir(parents=True, exist_ok=True)
    return RunConfig(subcommand=sub, options=options, out_dir=out_dir)


def _validate_options(sub: str, opt: dict) -> None:
    def bad(msg):
        print(f"survix {sub}: error: {msg}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)

    if sub in ("simulate", "explain"):
        if opt.get("n", 1) < 1:
            bad("--n must be >= 1")
        if not 0 <= opt.get("rho", 0.0) < 1:
            bad("--rho must lie in [0, 1)")
        if opt.get("t_max", 1.0) <= 0:
            bad("--t-max must be positive")
    if sub == "explain":
        if opt.get("scenario") is None and opt.get("model_file") is None:
            bad("one of --scenario or --model-file is required")
        if opt.get("model_file") is not None and opt.get("data") is None:
            bad("--model-file requires --data")
        if opt.get("model_file") is None:
            try:  # a config file's scenario has not been parsed
                p = build_scenario(opt["scenario"]).p
            except ValueError as exc:
                bad(str(exc))
            if not 1 <= opt["order"] <= p:
                bad(f"--order must lie in 1..{p}")
        elif opt["order"] < 1:
            bad("--order must be >= 1")
        if opt["timepoints"] < 1:
            bad("--timepoints must be >= 1")
        if opt["method"] != "exact" and opt["budget"] < 2:
            bad("--budget must be >= 2")
    if sub == "benchmark":
        if opt["reps"] < 1:
            bad("--reps must be >= 1")
        if opt["p"] < 1:
            bad("--p must be >= 1")
        if opt["p"] > 16:
            bad("the exact oracle restricts --p to at most 16")
        if not 1 <= opt["order"] <= opt["p"]:
            bad(f"--order must lie in 1..{opt['p']}")
        try:
            budgets = [int(tok) for tok in str(opt["budgets"]).split(",")]
        except ValueError:
            bad("--budgets must be comma-separated integers")
        if max(budgets) > (1 << opt["p"]):
            bad("budget exceeds full enumeration for this p")
        opt["budgets"] = budgets
    if sub == "validate" and opt.get("only"):
        names = [tok for tok in str(opt["only"]).split(",") if tok]
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            bad(f"unknown suites {unknown}; choose from {sorted(SUITES)}")
        opt["only"] = names


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig) -> int:
    opt = cfg.options
    data, meta = simulate_dataset(opt["scenario"], n=opt["n"], seed=opt["seed"],
                                  rho=opt["rho"], t_max=opt["t_max"])
    data.to_csv(cfg.out_dir / "dataset.csv")
    with open(cfg.out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    if opt["split"]:
        n_train = int(round(0.8 * data.n))
        perm = rng_stream(opt["seed"], "features", index=1).permutation(data.n)
        for name, idx in (("train", perm[:n_train]), ("test", perm[n_train:])):
            subset = SurvivalDataset(data.features[idx], data.times[idx],
                                     data.events[idx])
            subset.to_csv(cfg.out_dir / f"{name}.csv")
    print(f"wrote {data.n} rows to {cfg.out_dir / 'dataset.csv'} "
          f"(censoring rate {meta['censoring_rate']:.3f})")
    return 0


def _load_model(opt: dict):
    """Returns (predict builder, model tag). Model files hold either a
    risk-model spec (terms) or a Cox export (beta/baseline)."""
    if opt.get("model_file"):
        with open(opt["model_file"]) as fh:
            payload = json.load(fh)
        if "terms" in payload:
            model = model_from_json(opt["model_file"])
            return model.prediction_function, f"model:{opt['model_file']}"
        model = CoxModel.from_json(opt["model_file"])
        return model.prediction_function, f"cox:{opt['model_file']}"
    model = build_scenario(opt["scenario"])
    return model.prediction_function, f"scenario:{opt['scenario']}"


def _resolve_instance(token: str, data: SurvivalDataset | None, p: int):
    if token is None:
        token = "0"
    if "," in token:
        x = np.array([float(v) for v in token.split(",")])
        if x.size != p:
            raise ValueError(f"instance needs {p} values")
        return x
    idx = int(token)
    if data is None:
        raise ValueError("an index instance requires a dataset")
    if not 0 <= idx < data.n:
        raise ValueError(f"instance index {idx} out of range 0..{data.n - 1}")
    return data.features[idx]


def cmd_explain(cfg: RunConfig) -> int:
    opt = cfg.options
    target = PredictionTarget(opt["target"])
    predict_builder, model_tag = _load_model(opt)
    if opt.get("data"):
        data = SurvivalDataset.from_csv(opt["data"])
    else:
        data, _ = simulate_dataset(opt["scenario"], n=opt["n"],
                                   seed=opt["seed"], rho=opt["rho"],
                                   t_max=opt["t_max"])
    x = _resolve_instance(opt.get("instance"), data, data.p)

    background = data.features
    if opt["background_size"] and opt["background_size"] < background.shape[0]:
        pick = rng_stream(opt["seed"], "features", index=2).choice(
            background.shape[0], size=opt["background_size"], replace=False
        )
        background = background[pick]
    if opt["imputation"] == "conditional":
        cov = dep_demo_covariance() if opt.get("scenario") == "dep_demo" else \
            pairwise_covariance(data.p, opt["rho"])
        imputer = ConditionalGaussianImputer(np.zeros(data.p), cov,
                                             n_samples=opt["n_samples"],
                                             seed=opt["seed"])
    else:
        imputer = MarginalEmpiricalImputer(background)

    grid = build_time_grid(opt["t_max"], opt["timepoints"])
    if opt["method"] == "exact":
        method = "exact"
    else:
        method = ApproximatorConfig(
            method={"mc": "mc", "perm": "permutation",
                    "regression": "regression"}[opt["method"]],
            budget=opt["budget"], seed=opt["seed"],
        )
    expl = explain(predict_builder(target), x, imputer, grid, opt["order"],
                   target, method=method)
    expl.to_csv(cfg.out_dir / "explanation.csv")
    expl.to_json(cfg.out_dir / "explanation.json")
    if opt["smooth"]:
        smooth_explanation(expl).to_csv(cfg.out_dir / "explanation_smoothed.csv")
    if opt["svg"]:
        _write_svg(expl, cfg.out_dir / "explanation.svg")
    print(f"explained {model_tag} target={target.value} order={opt['order']} "
          f"method={expl.info.get('method')}")
    if "design_rank" in expl.info:
        print(f"regression design rank {expl.info['design_rank']} "
              f"(basis {expl.info['n_basis']}, "
              f"unstable={expl.info['unstable']})")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    opt = cfg.options
    kwargs = {}
    only = opt.get("only") or None
    if opt.get("tol"):
        # the tolerance knob only applies to the classification suites
        only = only or ["thm1", "thm2"]
        kwargs["tol"] = opt["tol"]
    results = run_suites(only, seed=opt["seed"], **kwargs)
    rows = []
    for check in results:
        print(check.line())
        rows.append([check.suite, check.name, int(check.passed),
                     repr(check.value), repr(check.threshold)])
    with open(cfg.out_dir / "validate_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "check", "passed", "value", "threshold"])
        writer.writerows(rows)
    failed = [c for c in results if not c.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return VALIDATION_FAILURE if failed else 0


def cmd_benchmark(cfg: RunConfig) -> int:
    opt = cfg.options
    rows = run_benchmark(seed=opt["seed"], budgets=opt["budgets"],
                         repetitions=opt["reps"], order=opt["order"],
                         p=opt["p"], n_timepoints=opt["timepoints"])
    path = cfg.out_dir / "benchmark.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "budget", "run", "mse"])
        for row in rows:
            writer.writerow([row["method"], row["budget"], row["run"],
                             repr(row["mse"])])
    medians = {}
    for row in rows:
        medians.setdefault((row["method"], row["budget"]), []).append(row["mse"])
    for (method, budget), errs in sorted(medians.items()):
        print(f"{method:12s} budget {budget:5d} median MSE "
              f"{float(np.median(errs)):.4e}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# SVG plot data
# ---------------------------------------------------------------------------

_PALETTE = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
            "#a6761d", "#666666", "#1f78b4", "#b2182b"]


def _write_svg(expl: InteractionExplanation, path, width=640, height=400) -> None:
    """One polyline per coalition; a thin plot-data writer, not a chart engine."""
    from .core import coalition_label

    margin = 45
    ts = expl.grid.points
    curves = list(expl.values.items())
    lo = min(min(c.min() for _, c in curves), 0.0)
    hi = max(max(c.max() for _, c in curves), 0.0)
    if hi == lo:
        hi = lo + 1.0
    span_x = ts[-1] - ts[0] if ts[-1] > ts[0] else 1.0

    def sx(t):
        return margin + (t - ts[0]) / span_x * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - lo) / (hi - lo) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.append(f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
                 f'y2="{height - margin}" stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                 f'y2="{height - margin}" stroke="black"/>')
    zero_y = sy(0.0)
    parts.append(f'<line x1="{margin}" y1="{zero_y:.1f}" x2="{width - margin}" '
                 f'y2="{zero_y:.1f}" stroke="#bbbbbb" stroke-dasharray="4 3"/>')
    for i, (key, curve) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(t):.1f},{sy(v):.1f}" for t, v in zip(ts, curve))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{sy(curve[-1]):.1f}" '
                     f'font-size="10" fill="{color}">{coalition_label(key)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        cfg = _resolve(args)
    except SystemExit as exc:
        return exc.code
    cfg.write_manifest()
    handler = {
        "simulate": cmd_simulate,
        "explain": cmd_explain,
        "validate": cmd_validate,
        "benchmark": cmd_benchmark,
    }[cfg.subcommand]
    try:
        return handler(cfg)
    except (ValueError, FloatingPointError, MemoryError, RuntimeError,
            OSError) as exc:
        print(f"survix {cfg.subcommand}: computation error: {exc}",
              file=sys.stderr)
        return COMPUTATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
