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
from .approximators import estimators, least_budget
from .core import (
    InteractionExplanation,
    PredictionTarget,
    SurvivalDataset,
    build_time_grid,
    coalition_label,
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

    def path(self, name: str) -> Path:
        """``name`` in the output directory, which the first write creates:
        a run that ends in a usage error leaves no directory behind."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

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
        path = self.path(f"{self.subcommand}_manifest.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        return path


def _parse_scenario(value: str):
    scenarios = {str(scenario): scenario for scenario in SCENARIO_IDS}
    if value not in scenarios:
        raise argparse.ArgumentTypeError(f"unknown scenario {value}; "
                                         "choose 1..10 or dep_demo")
    return scenarios[value]


def _build_parser():
    """The parser and, by name, its subcommands' parsers."""
    parser = _Parser(prog="survix", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=None,
                        help=f"output directory (default ${ENV_OUT} or ./survix_out)")
    common.add_argument("--config", type=Path, default=None,
                        help="JSON file of option values, parsed as flags before "
                             "the command line's own (a manifest replays its run)")
    common.add_argument("--seed", type=int, default=7)
    cohort = argparse.ArgumentParser(add_help=False)
    cohort.add_argument("--scenario", type=_parse_scenario, default=1)
    cohort.add_argument("--n", type=int, default=1000,
                        help="simulated dataset size (explain: when --data is omitted)")
    cohort.add_argument("--rho", type=float, default=0.0)
    cohort.add_argument("--t-max", type=float, default=T_MAX)

    p_sim = sub.add_parser("simulate", parents=[common, cohort],
                           help="write a simulated dataset CSV plus metadata")
    p_sim.add_argument("--split", action="store_true",
                       help="also write an 80/20 train/test split")

    p_exp = sub.add_parser("explain", parents=[common, cohort],
                           help="compute attribution curves for one instance")
    p_exp.add_argument("--model-file", type=Path, default=None,
                       help="risk-model or Cox-model JSON instead of a scenario")
    p_exp.add_argument("--data", type=Path, default=None,
                       help="dataset CSV; simulated from the scenario if omitted")
    p_exp.add_argument("--instance", type=str, default="0",
                       help="row index into the dataset, or comma-separated values")
    p_exp.add_argument("--target", choices=[t.value for t in PredictionTarget],
                       default="loghazard")
    p_exp.add_argument("--order", type=int, default=2)
    p_exp.add_argument("--method", choices=["exact", *estimators()], default="exact")
    p_exp.add_argument("--budget", type=int, default=256)
    p_exp.add_argument("--timepoints", type=int, default=41)
    p_exp.add_argument("--imputation", choices=["marginal", "conditional"],
                       default="marginal")
    p_exp.add_argument("--background-size", type=int, default=0,
                       help="subsample the marginal background for speed")
    p_exp.add_argument("--n-samples", type=int, default=1000,
                       help="Monte-Carlo draws for conditional imputation")
    p_exp.add_argument("--smooth", action="store_true")
    p_exp.add_argument("--svg", action="store_true")

    p_val = sub.add_parser("validate", parents=[common],
                           help="run the decomposition-theory check suites")
    p_val.add_argument("--only", type=str, default="",
                       help=f"comma-separated subset of {sorted(SUITES)}")
    p_val.add_argument("--tol", type=float, default=None,
                       help="override the time-dependence classification tolerance")

    p_ben = sub.add_parser("benchmark", parents=[common],
                           help="error-vs-budget comparison of the estimators")
    p_ben.add_argument("--budgets", type=str, default="64,128,256,512",
                       help="comma-separated evaluation budgets")
    p_ben.add_argument("--reps", type=int, default=30)
    p_ben.add_argument("--p", type=int, default=10)
    p_ben.add_argument("--timepoints", type=int, default=11)
    p_ben.add_argument("--order", type=int, default=2)
    return parser, sub.choices


def _config_flags(path: Path, parser: argparse.ArgumentParser) -> list:
    """A config file's options, or a manifest's, as flags of ``parser``:
    ``"t_max": 9`` becomes ``--t-max=9`` and ``true`` a bare flag; ``null``,
    ``false`` and keys that name no option of the subcommand are skipped."""
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"{path} must hold a JSON object")
    names = {a.dest: a.option_strings[0] for a in parser._actions
             if a.dest not in ("help", "config", "out")}
    flags = []
    for key, value in loaded.get("options", loaded).items():
        if key in names and value is not None and value is not False:
            flags.append(names[key] if value is True else f"{names[key]}={value}")
    return flags


def _resolve(argv: list) -> RunConfig:
    """Flags > config file > defaults: argparse parses the config's flags
    between the subcommand (argv[0]; the top level takes no other argument)
    and the command line's own, so it checks both alike and the later wins."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            flags = _config_flags(args.config, commands[args.subcommand])
        except (OSError, ValueError) as exc:
            commands[args.subcommand].error(f"--config: {exc}")
        args = parser.parse_args([argv[0], *flags, *argv[1:]])
    options = {key: value for key, value in vars(args).items()
               if key not in ("subcommand", "config", "out")}
    _validate_options(args.subcommand, options)
    out_dir = Path(args.out or os.environ.get(ENV_OUT, "survix_out"))
    # created on first write, so a path that cannot become one is caught now
    if not next(d for d in (out_dir, *out_dir.parents) if d.exists()).is_dir():
        commands[args.subcommand].error(f"--out {out_dir} is no directory")
    return RunConfig(subcommand=args.subcommand, options=options, out_dir=out_dir)


def _budgets(text: str) -> list:
    return [int(tok) for tok in text.split(",")]


def _suites(text: str) -> list:
    return [tok for tok in text.split(",") if tok]


def _validate_options(sub: str, opt: dict) -> None:
    """Checks across options, or of a value beyond its type and choices."""
    def bad(msg):
        print(f"survix {sub}: error: {msg}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)

    if opt["seed"] < 0:
        bad("--seed must be >= 0")
    if sub in ("simulate", "explain"):
        if opt["n"] < 1:
            bad("--n must be >= 1")
        if not 0 <= opt["rho"] < 1:
            bad("--rho must lie in [0, 1)")
        if opt["t_max"] <= 0:
            bad("--t-max must be positive")
    if sub == "explain":
        if opt["model_file"] is not None and opt["data"] is None:
            bad("--model-file requires --data")
        if opt["model_file"] is None and (problem := _explain_problem(
                opt, build_scenario(opt["scenario"]).p)):
            bad(problem)
        if opt["timepoints"] < 1:
            bad("--timepoints must be >= 1")
        if opt["background_size"] < 0:
            bad("--background-size must be >= 0")
        if opt["n_samples"] < 1:
            bad("--n-samples must be >= 1")
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
            budgets = _budgets(opt["budgets"])
        except ValueError:
            bad("--budgets must be comma-separated integers")
        if max(budgets) > (1 << opt["p"]):
            bad("budget exceeds full enumeration for this p")
        if min(budgets) < max(least_budget(m, opt["order"], opt["p"]) for m in estimators()):
            bad("regression needs budget >= 2*(order+1)")
    if sub == "validate":
        if opt["tol"] is not None and opt["tol"] < 0:
            bad("--tol must be >= 0")
        unknown = [n for n in _suites(opt["only"]) if n not in SUITES]
        if unknown:
            bad(f"unknown suites {unknown}; choose from {sorted(SUITES)}")


def _explain_problem(opt: dict, p: int):
    """explain's error over p features, if its order or budget has one."""
    least = least_budget(opt["method"], opt["order"], p)
    if not 1 <= opt["order"] <= p:
        return f"--order must lie in 1..{p}"
    if opt["method"] != "exact" and opt["budget"] < least:
        return f"--budget must be >= {least} for {opt['method']} at order {opt['order']}"
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig) -> int:
    opt = cfg.options
    data, meta = simulate_dataset(opt["scenario"], n=opt["n"], seed=opt["seed"],
                                  rho=opt["rho"], t_max=opt["t_max"])
    data.to_csv(cfg.path("dataset.csv"))
    with open(cfg.path("metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    if opt["split"]:
        n_train = int(round(0.8 * data.n))
        perm = rng_stream(opt["seed"], "features", index=1).permutation(data.n)
        for name, idx in (("train", perm[:n_train]), ("test", perm[n_train:])):
            subset = SurvivalDataset(data.features[idx], data.times[idx],
                                     data.events[idx])
            subset.to_csv(cfg.path(f"{name}.csv"))
    print(f"wrote {data.n} rows to {cfg.out_dir / 'dataset.csv'} "
          f"(censoring rate {meta['censoring_rate']:.3f})")
    return 0


def _load_model(opt: dict):
    """Returns (predict builder, model tag). Model files hold either a
    risk-model spec (terms) or a Cox export (beta/baseline)."""
    if opt["model_file"]:
        with open(opt["model_file"]) as fh:
            payload = json.load(fh)
        if "terms" in payload:
            model = model_from_json(opt["model_file"])
            return model.prediction_function, f"model:{opt['model_file']}"
        model = CoxModel.from_json(opt["model_file"])
        return model.prediction_function, f"cox:{opt['model_file']}"
    model = build_scenario(opt["scenario"])
    return model.prediction_function, f"scenario:{opt['scenario']}"


def _resolve_instance(token: str, data: SurvivalDataset) -> np.ndarray:
    """The instance ``--instance`` names: a row index into ``data``, or
    comma-separated values of its p features."""
    if "," in token:
        try:
            x = np.array([float(v) for v in token.split(",")])
        except ValueError:
            x = np.empty(0)
        if x.size != data.p or not np.isfinite(x).all():
            raise ValueError(f"--instance needs {data.p} finite values, got {token!r}")
        return x
    if not token.isdigit() or int(token) >= data.n:
        raise ValueError(f"--instance {token} is no row index 0..{data.n - 1}")
    return data.features[int(token)]


def cmd_explain(cfg: RunConfig) -> int:
    opt = cfg.options
    target = PredictionTarget(opt["target"])
    predict_builder, model_tag = _load_model(opt)
    if opt["data"]:
        data = SurvivalDataset.from_csv(opt["data"])
    else:
        data, _ = simulate_dataset(opt["scenario"], n=opt["n"],
                                   seed=opt["seed"], rho=opt["rho"],
                                   t_max=opt["t_max"])
    problem = _explain_problem(opt, data.p)  # a model file's p, known only now
    try:
        x = _resolve_instance(opt["instance"], data)
    except ValueError as exc:
        problem = problem or str(exc)
    if problem:
        print(f"survix explain: error: {problem}", file=sys.stderr)
        return USAGE_ERROR

    background = data.features
    if opt["background_size"] and opt["background_size"] < background.shape[0]:
        pick = rng_stream(opt["seed"], "features", index=2).choice(
            background.shape[0], size=opt["background_size"], replace=False
        )
        background = background[pick]
    if opt["imputation"] == "conditional":
        cov = dep_demo_covariance() if opt["scenario"] == "dep_demo" else \
            pairwise_covariance(data.p, opt["rho"])
        imputer = ConditionalGaussianImputer(np.zeros(data.p), cov,
                                             n_samples=opt["n_samples"],
                                             seed=opt["seed"])
    else:
        imputer = MarginalEmpiricalImputer(background)

    grid = build_time_grid(opt["t_max"], opt["timepoints"])
    method = "exact" if opt["method"] == "exact" else ApproximatorConfig(
        opt["method"], budget=opt["budget"], seed=opt["seed"])
    expl = explain(predict_builder(target), x, imputer, grid, opt["order"],
                   target, method=method)
    expl.to_csv(cfg.path("explanation.csv"))
    expl.to_json(cfg.path("explanation.json"))
    if opt["smooth"]:
        smooth_explanation(expl).to_csv(cfg.path("explanation_smoothed.csv"))
    if opt["svg"]:
        _write_svg(expl, cfg.path("explanation.svg"))
    print(f"explained {model_tag} target={target.value} order={opt['order']} "
          f"method={expl.info.get('method')}")
    if "design_rank" in expl.info:
        print(f"regression design rank {expl.info['design_rank']} "
              f"(basis {expl.info['n_basis']}, "
              f"condition {expl.info['condition']:.3g}, "
              f"unstable={expl.info['unstable']})")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    opt = cfg.options
    kwargs = {} if opt["tol"] is None else {"tol": opt["tol"]}
    # the tolerance knob only applies to the classification suites
    only = _suites(opt["only"]) or (["thm1", "thm2"] if kwargs else None)
    results = run_suites(only, seed=opt["seed"], **kwargs)
    rows = []
    for check in results:
        print(check.line())
        rows.append([check.suite, check.name, int(check.passed),
                     repr(check.value), repr(check.threshold)])
    with open(cfg.path("validate_report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "check", "passed", "value", "threshold"])
        writer.writerows(rows)
    failed = [c for c in results if not c.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return VALIDATION_FAILURE if failed else 0


def cmd_benchmark(cfg: RunConfig) -> int:
    opt = cfg.options
    rows = run_benchmark(seed=opt["seed"], budgets=_budgets(opt["budgets"]),
                         repetitions=opt["reps"], order=opt["order"],
                         p=opt["p"], n_timepoints=opt["timepoints"])
    path = cfg.path("benchmark.csv")
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


def _write_svg(expl: InteractionExplanation, path) -> None:
    """One polyline per coalition; a thin plot-data writer, not a chart engine."""
    width, height = 640, 400
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
    try:
        cfg = _resolve(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handler = {
        "simulate": cmd_simulate,
        "explain": cmd_explain,
        "validate": cmd_validate,
        "benchmark": cmd_benchmark,
    }[cfg.subcommand]
    try:
        code = handler(cfg)
    except (ValueError, FloatingPointError, MemoryError, RuntimeError,
            OSError) as exc:
        print(f"survix {cfg.subcommand}: computation error: {exc}",
              file=sys.stderr)
        code = COMPUTATION_ERROR
    if code != USAGE_ERROR:  # a usage error ran nothing to replay
        cfg.write_manifest()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
