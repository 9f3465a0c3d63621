"""Time-constant prediction callables at width one.

``GroundTruthModel.prediction_function`` marks its log-hazard and hazard
callables ``time_constant`` when the model is time-independent, and the value
engine then predicts them at one timepoint. The oracle for every output is
the same callable with the mark stripped, ``lambda X, t: predict(X, t)``,
which the engine evaluates over all T columns.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survix import games
from survix.approximators import estimate
from survix.core import PredictionTarget, build_time_grid
from survix.games import (
    ConditionalGaussianImputer,
    MarginalEmpiricalImputer,
    SurvivalGame,
    evaluate_all_coalitions,
    reference_mean,
)
from survix.interactions import explain
from survix.models import CoxModel
from survix.simulate import (
    FeatureSampler,
    T_MAX,
    build_scenario,
    pairwise_covariance,
    sample_features,
)
from survix.validation import benchmark_model

EPS = np.finfo(float).eps
SCALES = tuple(PredictionTarget)
MARKED_SCALES = (PredictionTarget.LOG_HAZARD, PredictionTarget.HAZARD)

CATALOG = {f"scenario{s}": build_scenario(s) for s in range(1, 11)}
CATALOG["dep_demo"] = build_scenario("dep_demo")
CATALOG["benchmark_model10"] = benchmark_model(10)
CATALOG["benchmark_model12"] = benchmark_model(12)

TIME_INDEPENDENT = ("scenario1", "scenario3", "scenario6", "scenario8",
                    "benchmark_model10", "benchmark_model12")


def stripped(predict):
    return lambda X, t: predict(X, t)


# ---------------------------------------------------------------------------
# the mark is truthful
# ---------------------------------------------------------------------------

def test_time_independent_catalogue():
    assert sorted(name for name, m in CATALOG.items() if m.time_independent) == \
        sorted(TIME_INDEPENDENT)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(CATALOG)), target=st.sampled_from(SCALES),
       seed=st.integers(0, 2**16), m=st.integers(1, 9),
       times=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=6))
def test_mark_is_set_exactly_for_time_constant_scales(name, target, seed, m, times):
    model = CATALOG[name]
    predict = model.prediction_function(target)
    marked = getattr(predict, "time_constant", False)
    assert marked == (model.time_independent and target is not PredictionTarget.SURVIVAL)
    assert hasattr(predict, "time_constant") == marked
    if marked:
        X = 1.5 * np.random.default_rng(seed).standard_normal((m, model.p))
        out = predict(X, np.array(times))
        assert out.shape == (m, len(times))
        assert np.all(out == out[:, :1])


def test_cox_callable_is_unmarked():
    cox = CoxModel(beta=np.array([0.5, -0.2]), baseline_times=np.array([1.0, 2.0]),
                   baseline_cumhaz=np.array([0.1, 0.3]), mean=np.zeros(2))
    assert not hasattr(cox.prediction_function(), "time_constant")


def test_mark_is_read_through_wrappers():
    predict = CATALOG["scenario1"].prediction_function(PredictionTarget.HAZARD)
    grid = build_time_grid(T_MAX, 5)

    @functools.wraps(predict)
    def wrapped(X, t):
        return predict(X, t)
    assert games._width(predict, grid) == games._width(wrapped, grid) == 1
    assert games._width(stripped(predict), grid) == 5
    # an outer mark wins over the one it wraps
    wrapped.time_constant = False
    assert games._width(wrapped, grid) == 5
    # a grid of one point is evaluated as it is
    assert games._width(predict, build_time_grid(T_MAX, 1)) == 1


# ---------------------------------------------------------------------------
# outputs match the unmarked path
# ---------------------------------------------------------------------------

class _SharedRows:
    """Imputer proxy that builds the rows of each (instance, masks) request
    once: the marked and the stripped run of a case share the conditional
    imputer's per-coalition solves."""

    def __init__(self, inner):
        self._inner, self.p, self.n_reference = inner, inner.p, inner.n_reference
        self._rows = {}

    def reference_rows(self):
        return self._inner.reference_rows()

    def rows_for(self, x, masks):
        key = (x.tobytes(), np.asarray(masks, dtype=np.int64).tobytes())
        if key not in self._rows:
            self._rows[key] = self._inner.rows_for(x, masks)
        return self._rows[key]


def _case(name, target, T, conditional):
    model = CATALOG[name]
    p = model.p
    n_ref = 40 if p == 3 else 24
    features = sample_features(FeatureSampler.standard(p, seed=11), n_ref + 1)
    x, background = features[0], features[1:]
    if conditional:
        imputer = _SharedRows(ConditionalGaussianImputer(
            np.zeros(p), pairwise_covariance(p, 0.3), n_samples=n_ref, seed=5))
    else:
        imputer = MarginalEmpiricalImputer(background)
    predict = model.prediction_function(target)
    assert predict.time_constant
    return predict, x, imputer, build_time_grid(T_MAX, T)


CASES = [(name, target, T, conditional)
         for name in TIME_INDEPENDENT for target in MARKED_SCALES
         for T in (2, 11, 41) for conditional in (False, True)]


def _label(case):
    name, target, T, conditional = case
    return f"{name}-{target.value}-T{T}-{'conditional' if conditional else 'marginal'}"


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_tables_and_exact_curves_match_the_unmarked_path(case):
    predict, x, imputer, grid = _case(*case)
    plain = stripped(predict)
    base = reference_mean(predict, imputer, grid)
    assert np.array_equal(base, reference_mean(plain, imputer, grid))
    table, want_table = (evaluate_all_coalitions(SurvivalGame(f, x, imputer, grid))
                         for f in (predict, plain))
    assert table.shape == (1 << imputer.p, len(grid)) and not table.flags.writeable
    assert np.array_equal(table, want_table)
    got = explain(predict, x, imputer, grid, 2, case[1])
    want = explain(plain, x, imputer, grid, 2, case[1])
    assert np.array_equal(got.baseline, want.baseline)
    assert got.info["table_scale"] == want.info["table_scale"]
    bound = 4 * EPS * max(1.0, want.info["table_scale"])
    for key, curve in want.values.items():
        assert got.values[key].shape == curve.shape
        assert np.max(np.abs(got.values[key] - curve)) <= bound


# chunks of one coalition, and a p = 3 row's six imputed coalitions split
# 4 + 2: at width one a chunk of c coalitions predicts 3 c n_ref floats' worth
@pytest.mark.parametrize("per_chunk", [1, 4])
@pytest.mark.parametrize("name", ["scenario1", "scenario8"])
def test_chunks_match_the_unmarked_path(monkeypatch, name, per_chunk):
    monkeypatch.setattr(games, "_SPLIT_FLOATS", 0)
    for target in MARKED_SCALES:
        for conditional in (False, True):
            predict, x, imputer, grid = _case(name, target, 11, conditional)
            monkeypatch.setattr(games, "_CHUNK_FLOATS", per_chunk * imputer.n_reference * 3)
            pair = [SurvivalGame(f, x, imputer, grid) for f in (predict, stripped(predict))]
            assert np.array_equal(*[evaluate_all_coalitions(g) for g in pair])
            for masks in ([6, 3, 5], [5]):
                assert np.array_equal(*[g.values_for_masks(masks) for g in pair])


BUDGETS = {3: (6, 7), 10: (128, 512), 12: (128, 512)}


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_estimates_match_the_unmarked_path(case):
    predict, x, imputer, grid = _case(*case)
    plain = stripped(predict)
    base = reference_mean(plain, imputer, grid)
    for method in ("mc", "permutation", "regression"):
        for budget in BUDGETS[imputer.p]:
            runs = []
            for f in (predict, plain):
                game = SurvivalGame(f, x, imputer, grid, reference_mean=base)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    runs.append(estimate(game, 2, method, budget, 3))
            (got, info), (want, info_want) = runs
            assert info == info_want
            assert got.keys() == want.keys()
            scale = max(abs(c).max() for c in want.values())
            for S, curve in want.items():
                assert got[S].shape == curve.shape
                if method == "regression":
                    # a backward-stable solve of the same system with one
                    # right-hand side instead of T: relative forward error of
                    # a few eps per unit of condition number (the largest
                    # seen over these cases was 1.5)
                    assert np.max(np.abs(got[S] - curve)) <= \
                        16 * EPS * info["condition"] * scale, (method, budget, S)
                else:
                    assert np.array_equal(got[S], curve), (method, budget, S)
