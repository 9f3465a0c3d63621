"""Prediction callables that declare a time basis.

``GroundTruthModel.prediction_function`` declares the basis [1] on the
log-hazard and hazard scales of a time-independent model and [1, log1p(t)]
on the log-hazard scale of a time-dependent one, and the value engine then
predicts them at one and at two timepoints. The oracle for every output is
the same callable with the basis stripped, ``lambda X, t: predict(X, t)``,
which the engine evaluates over all T columns.
"""

import functools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cumulative_hazard_matrix, redistribution, term_local_moebius
from survix import games
from survix.approximators import estimate
from survix.core import PredictionTarget, build_time_grid, indices_from_mask
from survix.games import (
    ConditionalGaussianImputer,
    MarginalEmpiricalImputer,
    SurvivalGame,
    evaluate_all_coalitions,
    reference_mean,
)
from survix.interactions import explain
from survix.metrics import classify_time_dependence
from survix.models import CoxModel
from survix.simulate import (
    FeatureSampler,
    T_MAX,
    build_scenario,
    pairwise_covariance,
    sample_features,
    simulate_dataset,
)
from survix.validation import CLASSIFY_TOL, X_STAR, benchmark_model

EPS = np.finfo(float).eps
SCALES = tuple(PredictionTarget)
MARKED_SCALES = (PredictionTarget.LOG_HAZARD, PredictionTarget.HAZARD)

CATALOG = {f"scenario{s}": build_scenario(s) for s in range(1, 11)}
CATALOG["dep_demo"] = build_scenario("dep_demo")
CATALOG["benchmark_model10"] = benchmark_model(10)
CATALOG["benchmark_model12"] = benchmark_model(12)

TIME_INDEPENDENT = ("scenario1", "scenario3", "scenario6", "scenario8",
                    "benchmark_model10", "benchmark_model12")
TIME_DEPENDENT = ("scenario2", "scenario4", "scenario5", "scenario7", "scenario9",
                  "scenario10", "dep_demo")


def stripped(predict):
    return lambda X, t: predict(X, t)


# ---------------------------------------------------------------------------
# the mark is truthful
# ---------------------------------------------------------------------------

def test_time_independent_catalogue():
    assert sorted(name for name, m in CATALOG.items() if m.time_independent) == \
        sorted(TIME_INDEPENDENT)
    assert sorted(set(CATALOG) - set(TIME_INDEPENDENT)) == sorted(TIME_DEPENDENT)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(CATALOG)), target=st.sampled_from(SCALES),
       seed=st.integers(0, 2**16), m=st.integers(1, 9),
       times=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=6))
def test_mark_is_set_exactly_for_time_constant_scales(name, target, seed, m, times):
    model = CATALOG[name]
    predict = model.prediction_function(target)
    times = np.array(times)
    rank = len(predict.time_basis(times)) if hasattr(predict, "time_basis") else 0
    marked = rank == 1
    assert marked == (model.time_independent and target is not PredictionTarget.SURVIVAL)
    assert (rank == 2) == (not model.time_independent and target is PredictionTarget.LOG_HAZARD)
    X = 1.5 * np.random.default_rng(seed).standard_normal((m, model.p))
    out = predict(X, times)
    assert out.shape == (m, len(times))
    if marked:
        assert np.all(out == out[:, :1])
    elif rank:
        # each row is a combination of the basis rows
        basis = predict.time_basis(times)
        coeffs = np.linalg.lstsq(basis.T, out.T, rcond=None)[0]
        assert np.allclose(coeffs.T @ basis, out, rtol=0, atol=1e-12 * max(1.0, np.abs(out).max()))


def test_cox_callable_is_unmarked():
    cox = CoxModel(beta=np.array([0.5, -0.2]), baseline_times=np.array([1.0, 2.0]),
                   baseline_cumhaz=np.array([0.1, 0.3]), mean=np.zeros(2))
    assert not hasattr(cox.prediction_function(), "time_basis")


@pytest.mark.parametrize("a, b, target", [
    ("scenario1", "scenario3", PredictionTarget.HAZARD),
    ("scenario1", "benchmark_model10", PredictionTarget.LOG_HAZARD),
    ("scenario2", "scenario10", PredictionTarget.LOG_HAZARD),
    ("scenario10", "scenario10", PredictionTarget.LOG_HAZARD),
])
def test_fresh_callables_share_their_basis_and_its_map(a, b, target):
    # the engine caches a basis's map per grid, so a callable made for one
    # explanation finds the map that an earlier one built
    first, second = (CATALOG[name].prediction_function(target) for name in (a, b))
    assert first is not second and first.time_basis is second.time_basis
    grid = build_time_grid(T_MAX, 41)
    games._width(first, grid)
    before = games._nodes.cache_info()
    games._width(second, grid)
    after = games._nodes.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _cumulative_hazard(model):
    """lam e^c0 t, the cumulative hazard of a time-independent model, with the
    one-row basis [t / T_MAX], which is not constant over time."""
    def predict(X, t):
        return cumulative_hazard_matrix(model, X, t)
    predict.time_basis = lambda t: t[None, :] / T_MAX
    return predict


DECLARED = {
    "scenario1-hazard": (lambda: CATALOG["scenario1"].prediction_function(
        PredictionTarget.HAZARD), 1),
    "scenario10-loghazard": (lambda: CATALOG["scenario10"].prediction_function(
        PredictionTarget.LOG_HAZARD), 2),
    "scenario1-cumulative": (lambda: _cumulative_hazard(CATALOG["scenario1"]), 1),
}


@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("name", list(DECLARED))
def test_mark_is_read_through_wrappers(name, T):
    make, rank = DECLARED[name]
    predict = make()
    grid = build_time_grid(T_MAX, T)

    @functools.wraps(predict)
    def wrapped(X, t):
        return predict(X, t)
    nodes, basis_map = games._width(predict, grid)
    assert np.array_equal(games._width(wrapped, grid)[0], nodes)
    if T > rank:
        # the first grid point, then the last
        assert nodes.tolist() == [0, T - 1][:rank]
        basis = predict.time_basis(grid.points)
        assert np.allclose(basis[:, nodes] @ basis_map, basis, rtol=0, atol=4 * EPS * T)
    else:
        # a grid of at most r points is evaluated as it is
        assert nodes.tolist() == list(range(T)) and basis_map is None
    plain = games._width(stripped(predict), grid)
    assert plain[0].tolist() == list(range(T)) and plain[1] is None
    # the values mapped from the nodes are the stripped callable's
    imputer = MarginalEmpiricalImputer(np.random.default_rng(0).standard_normal((7, 3)))
    table, want = (evaluate_all_coalitions(SurvivalGame(f, X_STAR, imputer, grid))
                   for f in (wrapped, stripped(predict)))
    bound = two_node_unit(predict, X_STAR, imputer, grid) if T > rank else 0.0
    assert np.max(np.abs(table - want)) <= bound
    # an outer declaration wins over the one it wraps
    wrapped.time_basis = None
    assert games._width(wrapped, grid)[0].size == T and games._width(wrapped, grid)[1] is None


# a basis that is not (r, T), or whose block at the nodes is singular
BAD_BASES = {
    "1-D": (lambda t: np.ones_like(t), "(5,)"),
    "no rows": (lambda t: np.ones((0, t.size)), "(0, 5)"),
    "transposed": (lambda t: np.ones((t.size, 2)), "(5, 2)"),
    "extra column": (lambda t: np.ones((2, t.size + 1)), "(2, 6)"),
    "repeated row": (lambda t: np.ones((2, t.size)), None),
    "zero at the first point": (lambda t: (t - t[0])[None, :], None),
    "not finite": (lambda t: np.full((1, t.size), np.inf), None),
}


@pytest.mark.parametrize("bad", sorted(BAD_BASES))
def test_bad_time_basis_is_rejected(bad):
    time_basis, shape = BAD_BASES[bad]
    predict = stripped(CATALOG["scenario1"].prediction_function(PredictionTarget.HAZARD))
    predict.time_basis = time_basis
    rng = np.random.default_rng(0)
    imputer = MarginalEmpiricalImputer(rng.standard_normal((7, 3)))
    message = (re.escape(f"shape (r, 5), got shape {shape}") if shape else
               "time_basis must be finite and non-singular")
    with pytest.raises(ValueError, match=message):
        explain(predict, X_STAR, imputer, build_time_grid(T_MAX, 5), 2,
                PredictionTarget.HAZARD)


# ---------------------------------------------------------------------------
# outputs match the unmarked path
# ---------------------------------------------------------------------------

def _case(name, target, T, conditional):
    model = CATALOG[name]
    p = model.p
    n_ref = 40 if p == 3 else 24
    features = sample_features(FeatureSampler.standard(p, seed=11), n_ref + 1)
    x, background = features[0], features[1:]
    if conditional:
        imputer = ConditionalGaussianImputer(
            np.zeros(p), pairwise_covariance(p, 0.3), n_samples=n_ref, seed=5)
    else:
        imputer = MarginalEmpiricalImputer(background)
    predict = model.prediction_function(target)
    grid = build_time_grid(T_MAX, T)
    assert len(predict.time_basis(grid.points)) == (1 if model.time_independent else 2)
    return predict, x, imputer, grid


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
    assert got.info["width"] == 1 and want.info["width"] == len(grid)
    # both passes are element-wise over the columns: one column rounds as T do
    for key, curve in want.values.items():
        assert np.array_equal(got.values[key], curve)


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
            assert info.pop("width") == 1 and info_want.pop("width") == len(grid)
            assert info == info_want
            assert got.keys() == want.keys()
            scale = max(abs(c).max() for c in want.values())
            for S, curve in want.items():
                assert got[S].shape == curve.shape
                if method == "regression":
                    # the same least-squares problem solved with one
                    # right-hand side instead of T copies of it: the two
                    # backward-stable solves round differently, and each is
                    # within a few eps per unit of the solved matrix's
                    # condition number kappa of the exact coefficients, so
                    # they differ by at most 16 eps kappa scale (the largest
                    # gap seen over these cases is 0.055 of it)
                    assert np.max(np.abs(got[S] - curve)) <= \
                        16 * EPS * info["condition"] * scale, (method, budget, S)
                else:
                    assert np.array_equal(got[S], curve), (method, budget, S)


# ---------------------------------------------------------------------------
# time-dependent log-hazards at two nodes
# ---------------------------------------------------------------------------

def two_node_unit(predict, x, imputer, grid):
    """n_ref eps max(1, M), M the largest |prediction| of any coalition's rows
    for x: about the most that adding n_ref predictions in sequence rounds a
    mean by (pairwise, as the engine adds time-major predictions, rounds
    less). The stripped callable adds them at every grid point, the
    declared one at the nodes, and the values in between are mapped; over
    the cases below, tables, reference means, exact curves and Monte-Carlo
    and permutation estimates of the two differ by at most 0.049 of it at
    40 reference rows and 0.0022 at 1000."""
    rows = imputer.rows_for(x, np.arange(1 << imputer.p))
    largest = np.max(np.abs(predict(rows, grid.points)))
    return imputer.n_reference * EPS * max(1.0, largest)


TWO_NODE_CASES = [(name, PredictionTarget.LOG_HAZARD, T, conditional)
                  for name in TIME_DEPENDENT for T in (2, 11, 41)
                  for conditional in (False, True)]


@pytest.mark.parametrize("case", TWO_NODE_CASES, ids=_label)
def test_two_node_tables_and_curves_match_the_stripped_path(case):
    predict, x, imputer, grid = _case(*case)
    plain = stripped(predict)
    pairs = [(reference_mean(f, imputer, grid),
              evaluate_all_coalitions(SurvivalGame(f, x, imputer, grid)),
              explain(f, x, imputer, grid, 2, case[1])) for f in (predict, plain)]
    (base, table, got), (want_base, want_table, want) = pairs
    assert got.info.pop("width") == min(2, len(grid))
    assert want.info.pop("width") == len(grid)
    if len(grid) == 2:
        # two points are evaluated as they are
        assert np.array_equal(base, want_base) and np.array_equal(table, want_table)
        assert got.info == want.info
        assert all(np.array_equal(got.values[S], c) for S, c in want.values.items())
        return
    bound = two_node_unit(plain, x, imputer, grid)
    assert np.max(np.abs(base - want_base)) <= bound
    assert table.shape == want_table.shape and not table.flags.writeable
    assert np.max(np.abs(table - want_table)) <= bound
    assert abs(got.info["table_scale"] - want.info["table_scale"]) <= bound
    for S, curve in want.values.items():
        assert got.values[S].shape == curve.shape
        assert np.max(np.abs(got.values[S] - curve)) <= bound


@pytest.mark.parametrize("case", TWO_NODE_CASES, ids=_label)
def test_two_node_estimates_match_the_stripped_path(case):
    predict, x, imputer, grid = _case(*case)
    plain = stripped(predict)
    base = reference_mean(plain, imputer, grid)
    unit = two_node_unit(plain, x, imputer, grid)
    for method in ("mc", "permutation", "regression"):
        for budget in BUDGETS[imputer.p]:
            runs = []
            for f in (predict, plain):
                game = SurvivalGame(f, x, imputer, grid, reference_mean=base)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    runs.append(estimate(game, 2, method, budget, 3))
            (got, info), (want, info_want) = runs
            assert info.pop("width") == min(2, len(grid))
            assert info_want.pop("width") == len(grid)
            assert info == info_want
            bound = unit
            if len(grid) == 2:
                bound = 0.0
            elif method == "regression":
                # the fit is c0 + N z, z the least-squares solution of
                # B z = y for the solved matrix B of condition kappa: values
                # that move by at most ``unit`` move c0 by at most ``unit``
                # and z by |B^+ dy| <= kappa |dy| / sigma_max, where
                # |dy| <= (|sqrt w| + 2 |Aw|) unit is a few sigma_max unit
                # on these designs; differences that smooth over the grid
                # move the curves far less, by at most 0.025 kappa unit here
                bound *= info["condition"]
            for S, curve in want.items():
                assert got[S].shape == curve.shape
                assert np.max(np.abs(got[S] - curve)) <= bound, (method, budget, S)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", TIME_DEPENDENT)
def test_time_dependence_is_where_the_log1p_part_is_nonzero(name, order):
    # the suites' explanation: x*, 1000 simulated rows, 41 points
    model = CATALOG[name]
    scenario = int(name.removeprefix("scenario")) if name.startswith("scenario") else name
    background = simulate_dataset(scenario, n=1000, seed=7)[0].features
    grid = build_time_grid(T_MAX, 41)
    predict = model.prediction_function(PredictionTarget.LOG_HAZARD)
    imputer = MarginalEmpiricalImputer(background)
    expl, want = (explain(f, X_STAR, imputer, grid, order, PredictionTarget.LOG_HAZARD)
                  for f in (predict, stripped(predict)))
    # the forward-error bound at the suites' 1000 reference rows
    bound = two_node_unit(predict, X_STAR, imputer, grid)
    assert np.max(np.abs(expl.baseline - want.baseline)) <= bound
    assert all(np.max(np.abs(expl.values[S] - c)) <= bound for S, c in want.values.items())
    # each component is a_S + b_S log1p(t). Term by term, the Moebius
    # coefficients at the two nodes get the same additions off the subsets of
    # time-dependent terms, so b_S is exactly zero there
    mo = term_local_moebius(model, X_STAR, background, grid.points[[0, -1]])
    slope = mo[:, 1] - mo[:, 0]
    truth = {indices_from_mask(S) for S, supers, coeffs in redistribution(model.p, order)
             if coeffs @ slope[supers] != 0}
    assert truth
    dependent, _ = classify_time_dependence(expl, tol=CLASSIFY_TOL)
    assert dependent == truth
