"""Edge inputs through ``explain``: one feature, one timepoint, one
reference row, a bounded cumulative hazard, a near-singular conditional
covariance, an order outside 1..p, a wrongly shaped prediction, an
instance of the wrong length and a coalition mask outside 0..2^p - 1 either
work or fail with a clear error. So do a fitted Cox model's predictions at a
NaN or negative time and on the wrong number of features."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survix
from survix.approximators import estimate
from survix.core import PredictionTarget, build_time_grid, indices_from_mask
from survix.games import (ConditionalGaussianImputer, MarginalEmpiricalImputer,
                          SurvivalGame, reference_mean)
from survix.interactions import ApproximatorConfig, explain
from survix.models import GroundTruthModel, RiskScoreSpec, RiskTerm, fit_coxph
from survix.simulate import build_scenario, simulate_dataset

EPS = np.finfo(float).eps
# efficiency of a p = 3 table: the Moebius pass and the contraction each add
# up to 2^p terms over p levels, so a few p 2^p ulps of the largest value
EFFICIENCY_ULPS = 8 * 3 * 2**3
X_STAR = np.array([-1.2650, 2.4162, -0.6436])
TARGET = PredictionTarget.LOG_HAZARD

# (p, timepoints, reference rows): each case puts one input at its minimum
EDGES = {"one_feature": (1, 5, 7), "one_timepoint": (6, 1, 7), "one_reference_row": (6, 5, 1)}


def additive_case(p, T, n_ref, seed=3):
    """An additive log-hazard game: feature j adds beta_j (x_j - b_j) log1p(t)
    under the marginal imputer, so every discrete derivative of a singleton
    is its own curve and every larger one vanishes, whatever is sampled."""
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.5, 2.0, p)
    grid = build_time_grid(70, T)

    def predict(X, t):
        return np.multiply.outer(X @ beta, np.log1p(t)) + 0.25

    return predict, rng.standard_normal(p), MarginalEmpiricalImputer(
        rng.standard_normal((n_ref, p))), grid


@pytest.mark.parametrize("method", ["mc", "permutation", "regression"])
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_estimators_at_edge_inputs(edge, method):
    p, T, n_ref = EDGES[edge]
    predict, x, imputer, grid = additive_case(p, T, n_ref)
    order = min(2, p)
    exact = explain(predict, x, imputer, grid, order, TARGET)
    # 50 of 64 coalitions leave regression two design rows per basis column
    budget = 2 if p == 1 else 50
    expl = explain(predict, x, imputer, grid, order, TARGET,
                   method=ApproximatorConfig(method, budget, seed=1))
    assert expl.info["method"] == ("exact_fallback" if p == 1 else method)
    assert expl.info["evaluations"] <= budget
    assert np.array_equal(expl.baseline, exact.baseline)
    assert list(expl.values) == list(exact.values)
    scale = max(1.0, exact.info["table_scale"])
    for key, curve in exact.values.items():
        assert expl.values[key].shape == (T,)
        assert np.max(np.abs(expl.values[key] - curve)) <= 64 * p * EPS * scale, key


# a = 1 + c1 < 0 on every row, so H(t|x) rises to the finite bound
# lam e^c0 / (-a) and S(t|x) stays above exp(-bound)
BOUNDED = GroundTruthModel(lam=0.03, risk=RiskScoreSpec(p=3, terms=(
    RiskTerm((0,), -2.0, time="log1p"),
    RiskTerm((1,), -0.8),
    RiskTerm((0, 2), 0.2),
)))


@pytest.mark.parametrize("target", list(PredictionTarget), ids=lambda t: t.value)
def test_bounded_cumulative_hazard_is_efficient(target):
    rng = np.random.default_rng(8)
    background = rng.standard_normal((200, 3))
    background[:, 0] = rng.uniform(0.6, 2.0, 200)  # c1 = -2 x_0 < -1
    x = np.array([1.3, -0.4, 0.9])
    grid = build_time_grid(500, 41)
    c0, c1 = BOUNDED.loads(np.vstack([background, x]))
    assert np.all(c1 < -1)
    expl = explain(BOUNDED.prediction_function(target), x,
                   MarginalEmpiricalImputer(background), grid, 2, target)
    prediction = BOUNDED.predict(x[None, :], grid.points, target)[0]
    bound = EFFICIENCY_ULPS * EPS * max(1.0, expl.info["table_scale"])
    assert all(np.all(np.isfinite(c)) for c in expl.values.values())
    assert np.max(np.abs(expl.attribution_sum() - prediction)) <= bound
    assert expl.info["efficiency_residual"] <= bound


@pytest.mark.parametrize("gap", [1e-9, 1e-15])
@pytest.mark.parametrize("target", list(PredictionTarget), ids=lambda t: t.value)
def test_near_singular_conditional_covariance(target, gap):
    # features 0 and 2 correlated at 1 - gap; the conditionals given one of
    # them are nearly degenerate, given both the solve is ill-conditioned
    cov = np.eye(3)
    cov[0, 2] = cov[2, 0] = 1.0 - gap
    imputer = ConditionalGaussianImputer(np.zeros(3), cov, n_samples=300, seed=4)
    model = build_scenario(10)
    grid = build_time_grid(70, 21)
    expl = explain(model.prediction_function(target), X_STAR, imputer, grid, 2, target)
    prediction = model.predict(X_STAR[None, :], grid.points, target)[0]
    assert all(np.all(np.isfinite(c)) for c in expl.values.values())
    bound = EFFICIENCY_ULPS * EPS * max(1.0, expl.info["table_scale"])
    assert np.max(np.abs(expl.attribution_sum() - prediction)) <= bound


ORDER_MESSAGE = r"order must lie in 1\.\.4"
BAD_ORDERS = (0, -1, 5)


@pytest.mark.parametrize("method", ["exact", "mc", "regression"])
@pytest.mark.parametrize("order", BAD_ORDERS)
def test_order_outside_one_to_p_is_rejected(method, order):
    predict, x, imputer, grid = additive_case(4, 3, 5)
    config = method if method == "exact" else ApproximatorConfig(method, 12, seed=1)
    with pytest.raises(ValueError, match=ORDER_MESSAGE):
        explain(predict, x, imputer, grid, order, TARGET, method=config)
    if method != "exact":
        game = SurvivalGame(predict, x, imputer, grid)
        with pytest.raises(ValueError, match=ORDER_MESSAGE):
            estimate(game, order, method, 12, 1)


# the permutation estimator draws no windows below order 1, and its budget
# loop then never ends; a subprocess with a timeout turns a hang into a failure
_PERMUTATION_ORDERS = """
import re, sys
sys.path.insert(0, {tests!r})
from test_edge_inputs import BAD_ORDERS, ORDER_MESSAGE, TARGET, additive_case
from survix.approximators import estimate
from survix.games import SurvivalGame
from survix.interactions import ApproximatorConfig, explain
predict, x, imputer, grid = additive_case(4, 3, 5)
for order in BAD_ORDERS:
    for run in (lambda: explain(predict, x, imputer, grid, order, TARGET,
                                method=ApproximatorConfig("permutation", 12, seed=1)),
                lambda: estimate(SurvivalGame(predict, x, imputer, grid),
                                 order, "permutation", 12, 1)):
        try:
            run()
        except ValueError as exc:
            assert re.fullmatch(ORDER_MESSAGE, str(exc)), exc
        else:
            raise AssertionError(f"order {{order}} was accepted")
print("rejected")
"""


def test_permutation_order_outside_one_to_p_is_rejected_without_hanging():
    src = str(Path(survix.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = _PERMUTATION_ORDERS.format(tests=str(Path(__file__).parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"


# a prediction of m rows on a T-point grid, reshaped wrongly
BAD_SHAPES = {
    "one_dimensional": lambda out: out[:, 0],
    "one_timepoint_too_many": lambda out: np.hstack([out, out[:, :1]]),
    "transposed": lambda out: out.T,
    "one_row_short": lambda out: out[:-1],
    "one_column_on_a_grid": lambda out: out[:, :1],
}


def _shape_message(m, T, bad):
    got = BAD_SHAPES[bad](np.zeros((m, T))).shape
    return re.escape(f"shape {(m, T)}, got shape {got}")


@pytest.mark.parametrize("bad", sorted(BAD_SHAPES))
def test_wrongly_shaped_prediction_is_rejected(bad):
    # 7 reference rows, 5 timepoints: the reference mean is the first call
    predict, x, imputer, grid = additive_case(3, 5, 7)

    def wrong(X, t):
        return BAD_SHAPES[bad](predict(X, t))
    with pytest.raises(ValueError, match=_shape_message(7, 5, bad)):
        explain(wrong, x, imputer, grid, 2, TARGET)
    # with the reference mean given, Monte Carlo first predicts the full
    # coalition (one row), and a value call two imputed coalitions (14 rows)
    game = SurvivalGame(wrong, x, imputer, grid,
                        reference_mean=reference_mean(predict, imputer, grid))
    with pytest.raises(ValueError, match=_shape_message(1, 5, bad)):
        estimate(game, 2, "mc", 6, 1)
    with pytest.raises(ValueError, match=_shape_message(14, 5, bad)):
        game.values_for_masks([1, 2])


# a length-1 instance was once broadcast over all p features
WRONG_INSTANCES = {"length_1": [9.0], "length_2": [1.0, 2.0], "length_4": [1.0, 2.0, 3.0, 4.0],
                   "row_matrix": [[1.0, 2.0, 3.0]], "scalar": 9.0}


@pytest.mark.parametrize("bad", sorted(WRONG_INSTANCES))
@pytest.mark.parametrize("conditional", [False, True], ids=["marginal", "conditional"])
def test_rows_for_rejects_an_instance_that_is_not_a_length_p_vector(conditional, bad):
    imputer = (ConditionalGaussianImputer(np.zeros(3), np.eye(3), n_samples=4) if conditional
               else MarginalEmpiricalImputer(np.arange(12.0).reshape(4, 3)))
    x = np.array(WRONG_INSTANCES[bad])
    with pytest.raises(ValueError, match=re.escape(
            f"instance must be a vector of length p = 3, got shape {x.shape}")):
        imputer.rows_for(x, [3])
    assert imputer.rows_for(np.array([9.0, 8.0, 7.0]), [3]).shape == (4, 3)


# at p = 3 the marginal imputer once served mask 8 as mask 0 and mask -1 as
# mask 7, the conditional imputer raised IndexError, and indices_from_mask(-1)
# never returned
@pytest.mark.parametrize("bad", [8, -1])
@pytest.mark.parametrize("conditional", [False, True], ids=["marginal", "conditional"])
def test_a_mask_outside_the_coalitions_is_rejected(conditional, bad):
    imputer = (ConditionalGaussianImputer(np.zeros(3), np.eye(3), n_samples=4) if conditional
               else MarginalEmpiricalImputer(np.arange(12.0).reshape(4, 3)))
    grid = build_time_grid(10.0, 3)
    game = SurvivalGame(build_scenario(1).prediction_function(TARGET), X_STAR, imputer, grid)
    message = re.escape(f"coalition mask {bad} outside 0..2^3 - 1 = 7")
    with pytest.raises(ValueError, match=message):
        imputer.rows_for(X_STAR, [3, bad])
    with pytest.raises(ValueError, match=message):
        game.values_for_masks([1, bad])
    assert game.values_for_masks([7]).shape == (1, 3)


def test_indices_from_a_negative_mask_are_rejected():
    with pytest.raises(ValueError, match="coalition mask -1 is negative"):
        indices_from_mask(-1)
    assert indices_from_mask(0) == () and indices_from_mask(13) == (0, 2, 3)


# a NaN time once got the final cumulative hazard (S = 0.00226 for a row of
# scenario 1), as a ground-truth model never did
@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_cox_predictions_reject_a_bad_time(bad):
    data = simulate_dataset(1, n=300, seed=4)[0]
    cox = fit_coxph(data)
    times = np.array([1.0, bad, 5.0])
    for predict in (cox.cumhaz_at, lambda t: cox.survival_matrix(data.features[:2], t),
                    lambda t: build_scenario(1).survival_matrix(data.features[:2], t)):
        with pytest.raises(ValueError, match="times must be finite and >= 0"):
            predict(times)
    assert cox.survival_matrix(data.features[:2], [0.0, 5.0]).shape == (2, 2)


# the wrong feature count once ended in "zip() argument 2 is shorter than
# argument 1"
@pytest.mark.parametrize("q", [2, 4])
def test_cox_linear_predictor_rejects_the_wrong_feature_count(q):
    cox = fit_coxph(simulate_dataset(1, n=300, seed=4)[0])
    with pytest.raises(ValueError, match=f"expected 3 features, got {q}"):
        cox.linear_predictor(np.ones((2, q)))
    with pytest.raises(ValueError, match=f"expected 3 features, got {q}"):
        cox.survival_matrix(np.ones(q), [1.0])
    assert cox.linear_predictor(np.ones(3)).shape == (1,)
