"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in ``setup``, then
serves ops in fixed cycles: ``ops(state, c)`` lists the ops of cycle ``c``, so
every cycle has the same mix of op kinds and a run always measures whole
cycles. ``run`` issues one op through the public API and ``check`` verifies its
output against references the benchmark computes itself, never through the
callables it handed to the library.

A ``tracer`` argument of ``None`` means an untraced run: the library gets the
predict callables and imputers unwrapped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from survix import interactions, metrics, models, simulate, validation
from survix.core import PredictionTarget, build_time_grid
from survix.games import ConditionalGaussianImputer, MarginalEmpiricalImputer

SCALES = (PredictionTarget.LOG_HAZARD, PredictionTarget.HAZARD,
          PredictionTarget.SURVIVAL)
# acceptance criterion 1: efficiency bound (relative to the table scale on the
# hazard scale) and the local-accuracy bounds per scale
EFFICIENCY_TOL = 1e-9
SIGMA_BOUND = {PredictionTarget.LOG_HAZARD: 1e-5, PredictionTarget.HAZARD: 1e-5,
               PredictionTarget.SURVIVAL: 0.005}
# acceptance criterion 9: reference C-index and IBS for scenario 1
C_INDEX_BAND = (0.759 - 0.05, 0.759 + 0.05)
IBS_BAND = (0.143 - 0.05, 0.143 + 0.05)


def derive_seed(seed: int, *keys: int) -> int:
    """Independent 32-bit seed for one input stream of the workload seed."""
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    kind: str
    work: int
    args: dict = field(default_factory=dict)


def _hooks(tracer, predict, imputer, target):
    if tracer is None:
        return predict, imputer
    return tracer.predict(predict, target), tracer.imputer(imputer)


def _efficiency_gap(expl, truth, scaled: bool) -> float:
    """Largest |F(t|x) - (baseline + sum of curves)| over the grid, relative to
    the largest coalition value when ``scaled`` (criterion 1, hazard scale)."""
    gap = float(np.max(np.abs(truth - expl.attribution_sum())))
    if scaled:
        gap /= max(1.0, expl.info["table_scale"])
    return gap


def _finite(expl) -> bool:
    return bool(np.all(np.isfinite(expl.baseline))) and all(
        bool(np.all(np.isfinite(c))) for c in expl.values.values())


class Workload:
    name = ""
    why = ""
    work_name = ""   # the workload's own name for its throughput
    work_unit = ""
    # leaves >= 10 ops beyond it at run_seconds and sits inside one op kind
    tail_pct: float
    sizes: dict = {}

    def __init__(self, size: str = "full"):
        self.size = self.sizes[size]

    def summarize(self, records) -> dict:
        """Median ms per op kind."""
        by_kind: dict[str, list[float]] = {}
        for r in records:
            by_kind.setdefault(r.kind, []).append(r.ns / 1e6)
        return {"op_ms_median": {k: median(v) for k, v in by_kind.items()}}


# ---------------------------------------------------------------------------

class CohortExactP3(Workload):
    name = "cohort_exact_p3"
    why = ("acceptance criterion 1: exact order-2 explanations of all ten "
           "scenarios on three scales; survival quadrature and per-instance "
           "overhead of tiny games dominate")
    work_name = "instances_per_s"
    work_unit = "instance-scale explanations"
    tail_pct = 95.0
    sizes = {
        "full": dict(scenarios=tuple(range(1, 11)), n=1000, points=41, block=8),
        "tiny": dict(scenarios=(1, 10), n=40, points=11, block=2),
    }

    def setup(self, seed):
        s = self.size
        state = dict(grid=build_time_grid(70, s["points"]), models={}, data={},
                     imputers={}, predict={})
        for sc in s["scenarios"]:
            model = simulate.build_scenario(sc)
            data, _ = simulate.simulate_dataset(sc, n=s["n"], seed=derive_seed(seed, 1, sc))
            state["models"][sc] = model
            state["data"][sc] = data.features
            state["imputers"][sc] = MarginalEmpiricalImputer(data.features)
            for target in SCALES:
                state["predict"][sc, target] = model.prediction_function(target)
        return state

    def warm_up(self, state):
        for sc in self.size["scenarios"]:
            for target in SCALES:
                self.run(state, Op("warm", 1, dict(scenario=sc, target=target, start=0)), None)

    def ops(self, state, cycle):
        s = self.size
        start = (cycle * s["block"]) % s["n"]
        return [Op(f"scenario{sc}.{target.value}", s["block"],
                   dict(scenario=sc, target=target, start=start))
                for sc in s["scenarios"] for target in SCALES]

    def _rows(self, state, op):
        X = state["data"][op.args["scenario"]]
        start = op.args["start"]
        return X[start:start + op.work]

    def run(self, state, op, tracer):
        sc, target = op.args["scenario"], op.args["target"]
        predict, imputer = _hooks(tracer, state["predict"][sc, target],
                                  state["imputers"][sc], target)
        return interactions.explain_instances(predict, self._rows(state, op), imputer,
                                              state["grid"], 2, target)

    def check(self, state, op, out):
        sc, target = op.args["scenario"], op.args["target"]
        truth = state["models"][sc].predict(self._rows(state, op), state["grid"].points, target)
        problems = []
        gap = max(_efficiency_gap(e, truth[i], target is PredictionTarget.HAZARD)
                  for i, e in enumerate(out))
        if not gap < EFFICIENCY_TOL:
            problems.append(f"efficiency gap {gap:.3e}")
        if target is not PredictionTarget.HAZARD:
            # Criterion 1 bounds the hazard-scale sigma over all 1000 rows,
            # where a few extreme predictions set the denominator. On one
            # block the float64 residual (eps times the table scale, bounded
            # by the efficiency check above) exceeds that bound whenever the
            # background holds an extreme row, so hazard blocks are held to
            # the scale-relative efficiency bound alone.
            sigma = metrics.local_accuracy(out, truth).mean
            if not sigma < SIGMA_BOUND[target]:
                problems.append(f"local accuracy {sigma:.3e} >= {SIGMA_BOUND[target]}")
        return problems, {}

    def summarize(self, records):
        out = super().summarize(records)
        time_dep = {sc for sc in self.size["scenarios"]
                    if not simulate.build_scenario(sc).time_independent}
        groups: dict[str, list[int]] = {}
        for r in records:
            sc, scale = r.kind.split(".")
            keys = [scale]
            if scale == PredictionTarget.SURVIVAL.value:
                td = int(sc.removeprefix("scenario")) in time_dep
                keys.append(f"{scale}_{'time_dependent' if td else 'time_independent'}")
            for key in keys:
                acc = groups.setdefault(key, [0, 0])
                acc[0] += r.ns
                acc[1] += r.work
        out["ms_per_instance"] = {k: ns / 1e6 / work for k, (ns, work) in groups.items()}
        return out


# ---------------------------------------------------------------------------

class WideExactP12(Workload):
    name = "wide_exact_p12"
    why = ("one exact order-3 explanation at p=12 (4096 coalitions): bulk row "
           "building, coalition means and Moebius/k-SII loops; a third of ops "
           "use the conditional Gaussian imputer")
    work_name = "coalitions_per_s"
    work_unit = "coalitions"
    tail_pct = 60.0
    sizes = {
        "full": dict(p=12, n=100, points=41, instances=64),
        "tiny": dict(p=6, n=8, points=5, instances=2),
    }
    RHO = 0.5
    # (scale, imputer) per op of a cycle; the conditional share is 1/3
    CYCLE = ((PredictionTarget.LOG_HAZARD, "marginal"), (PredictionTarget.HAZARD, "marginal"),
             (PredictionTarget.LOG_HAZARD, "marginal"), (PredictionTarget.HAZARD, "marginal"),
             (PredictionTarget.LOG_HAZARD, "conditional"), (PredictionTarget.HAZARD, "conditional"))

    def _inputs(self, seed, n):
        s = self.size
        p = s["p"]
        marginal = simulate.sample_features(
            simulate.FeatureSampler.standard(p, seed=derive_seed(seed, 2, 0)),
            n + s["instances"])
        correlated = simulate.sample_features(
            simulate.FeatureSampler.standard(p, seed=derive_seed(seed, 2, 1), rho=self.RHO),
            s["instances"])
        cov = simulate.pairwise_covariance(p, self.RHO)
        return dict(
            imputers={
                "marginal": MarginalEmpiricalImputer(marginal[s["instances"]:]),
                "conditional": ConditionalGaussianImputer(
                    np.zeros(p), cov, n_samples=n, seed=derive_seed(seed, 2, 2)),
            },
            instances={"marginal": marginal[:s["instances"]], "conditional": correlated},
        )

    def setup(self, seed):
        s = self.size
        model = validation.benchmark_model(s["p"])
        state = dict(model=model, grid=build_time_grid(70, s["points"]),
                     predict={t: model.prediction_function(t) for t, _ in self.CYCLE})
        state.update(self._inputs(seed, s["n"]))
        return state

    def warm_up(self, state):
        # one op per imputer on a two-row reference set: fills the library's
        # order-3 weight caches without paying for a full op
        small = dict(state, **self._inputs(0, 2))
        first = {op.args["imputer"]: op for op in reversed(self.ops(small, 0))}
        for op in first.values():
            self.run(small, op, None)

    def ops(self, state, cycle):
        out = []
        for i, (target, imputer) in enumerate(self.CYCLE):
            index = (cycle * len(self.CYCLE) + i) % self.size["instances"]
            out.append(Op(f"{target.value}.{imputer}", 1 << self.size["p"],
                          dict(target=target, imputer=imputer, index=index)))
        return out

    def _x(self, state, op):
        return state["instances"][op.args["imputer"]][op.args["index"]]

    def run(self, state, op, tracer):
        target = op.args["target"]
        predict, imputer = _hooks(tracer, state["predict"][target],
                                  state["imputers"][op.args["imputer"]], target)
        return interactions.explain(predict, self._x(state, op), imputer, state["grid"],
                                    3, target)

    def check(self, state, op, out):
        x = self._x(state, op)
        truth = state["model"].predict(x[None, :], state["grid"].points, op.args["target"])[0]
        problems = []
        gap = _efficiency_gap(out, truth, scaled=True)
        if not gap < EFFICIENCY_TOL:
            problems.append(f"efficiency gap {gap:.3e}")
        if op.args["imputer"] == "marginal":
            # features 3.. do not enter the model: under the marginal imputer
            # every coalition holding one of them is exactly zero
            limit = EFFICIENCY_TOL * max(1.0, out.info["table_scale"])
            worst = max(float(np.max(np.abs(c))) for key, c in out.values.items()
                        if max(key) >= 3)
            if not worst <= limit:
                problems.append(f"inert coalition reaches {worst:.3e}")
        return problems, {}


# ---------------------------------------------------------------------------

class BudgetedP10(Workload):
    name = "budgeted_p10"
    why = ("criterion-8 game (p=10, hazard scale) explained by the MC, "
           "permutation and regression estimators at budgets 128 and 512; "
           "many tiny value batches")
    work_name = "estimates_per_s"
    work_unit = "estimates"
    tail_pct = 95.0
    METHODS = ("mc", "permutation", "regression")
    BUDGETS = (128, 512)
    sizes = {
        "full": dict(n=100, points=11),
        "tiny": dict(n=4, points=3),
    }

    def setup(self, seed):
        s = self.size
        game, model = validation.benchmark_game(seed=derive_seed(seed, 3), p=10,
                                                n_background=s["n"],
                                                n_timepoints=s["points"])
        target = PredictionTarget.HAZARD
        exact = interactions.explain(game.predict, game.x, game.imputer, game.grid, 2, target)
        truth = model.predict(game.x[None, :], game.grid.points, target)[0]
        return dict(game=game, predict=game.predict, target=target, exact=exact,
                    truth=truth, seed=seed)

    def warm_up(self, state):
        for op in self.ops(state, 0):
            self.run(state, op, None)

    def ops(self, state, cycle):
        est_seed = derive_seed(state["seed"], 3, cycle)
        return [Op(f"{m}.b{b}", 1, dict(config=interactions.ApproximatorConfig(m, b, est_seed)))
                for m in self.METHODS for b in self.BUDGETS]

    def run(self, state, op, tracer):
        game, target = state["game"], state["target"]
        predict, imputer = _hooks(tracer, state["predict"], game.imputer, target)
        with warnings.catch_warnings():
            # unstable regression designs are counted from the output instead
            warnings.simplefilter("ignore", RuntimeWarning)
            return interactions.explain(predict, game.x, imputer, game.grid, 2, target,
                                        method=op.args["config"])

    def check(self, state, op, out):
        cfg = op.args["config"]
        problems = []
        evaluations = out.info["evaluations"]
        if evaluations > cfg.budget:
            problems.append(f"{evaluations} evaluations > budget {cfg.budget}")
        if not _finite(out):
            problems.append("non-finite attribution curve")
        scale = state["exact"].info["table_scale"]
        if cfg.method == "regression":
            gap = float(np.max(np.abs(state["truth"] - out.attribution_sum())))
            gap /= max(1.0, scale)
            if not gap < EFFICIENCY_TOL:
                problems.append(f"efficiency gap {gap:.3e}")
        extra = dict(evaluations=evaluations, budget=cfg.budget,
                     unstable=bool(out.info.get("unstable", False)))
        if not problems:
            extra["mse"] = metrics.approximation_error(out, state["exact"])
        return problems, extra

    def summarize(self, records):
        out = super().summarize(records)
        for m in self.METHODS:
            errors = [r.extra["mse"] for r in records
                      if r.kind == f"{m}.b{max(self.BUDGETS)}" and "mse" in r.extra]
            out[f"mse_{m}_b512"] = median(errors) if errors else float("nan")
        return out


# ---------------------------------------------------------------------------

class SimulateFitScore(Workload):
    name = "simulate_fit_score"
    why = ("simulate a cohort, fit a Cox model and score it (C-index, "
           "integrated Brier); scenario 1 closed-form and scenario 10 "
           "root-found event times")
    work_name = "rows_per_s"
    work_unit = "cohort rows"
    tail_pct = 92.0
    SCENARIOS = (1, 10)
    sizes = {
        "full": dict(n=2000, points=41),
        "tiny": dict(n=300, points=11),
    }

    def setup(self, seed):
        return dict(seed=seed)

    def warm_up(self, state):
        # half-size cohorts: the same code paths at a fraction of the cost
        for op in self.ops(state, 0, self.size["n"] // 2):
            self.run(state, op, None)

    def ops(self, state, cycle, n=None):
        return [Op(f"scenario{sc}", n or self.size["n"],
                   dict(scenario=sc, seed=derive_seed(state["seed"], 4, cycle, sc)))
                for sc in self.SCENARIOS]

    def run(self, state, op, tracer):
        data, _ = simulate.simulate_dataset(op.args["scenario"], n=op.work,
                                            seed=op.args["seed"])
        cox = models.fit_coxph(data)
        c_index = metrics.concordance_index(cox.linear_predictor(data.features), data)
        grid = build_time_grid(min(65.0, 0.95 * float(data.times.max())),
                               self.size["points"])
        ibs = metrics.integrated_brier(cox.survival_matrix(data.features, grid.points),
                                       data, grid)
        return c_index, ibs

    def check(self, state, op, out):
        c, ibs = out
        problems = []
        if not 0.0 <= c <= 1.0:
            problems.append(f"C-index {c!r} outside [0, 1]")
        if not 0.0 <= ibs <= 1.0:
            problems.append(f"IBS {ibs!r} outside [0, 1]")
        if op.args["scenario"] == 1:
            if not C_INDEX_BAND[0] <= c <= C_INDEX_BAND[1]:
                problems.append(f"C-index {c:.4f} outside criterion-9 band {C_INDEX_BAND}")
            if not IBS_BAND[0] <= ibs <= IBS_BAND[1]:
                problems.append(f"IBS {ibs:.4f} outside criterion-9 band {IBS_BAND}")
        return problems, {}


WORKLOADS = {w.name: w for w in (CohortExactP3, WideExactP12, BudgetedP10, SimulateFitScore)}
