"""The block exact path against the one-instance pipeline it replaced.

The oracle below is the earlier ``explain_instances``: one game per row, rows
built mask by mask, coalition means over each mask's own contiguous block of
predictions, a boolean-gather Moebius transform and one superset sum per
target coalition. Value tables and ``info`` must match it exactly; curves may
differ only by the order of float additions in the contraction.
"""

from functools import lru_cache

import numpy as np
import pytest

from survix import games
from survix.core import PredictionTarget, build_time_grid, coalition_iter, mask_size
from survix.games import (
    ConditionalGaussianImputer,
    MarginalEmpiricalImputer,
    SurvivalGame,
    all_coalition_values,
    evaluate_all_coalitions,
    reference_mean,
)
from survix.interactions import (
    ApproximatorConfig,
    _moebius_redistribution,
    _redistribution,
    explain,
    explain_instances,
)
from survix.simulate import build_scenario, dep_demo_covariance

from oracles import _submasks


def _oracle_table(predict, x, imputer, grid, baseline):
    p, T, n_ref = imputer.p, len(grid), imputer.n_reference
    full = (1 << p) - 1
    table = np.empty((1 << p, T))
    table[0] = 0.0
    table[full] = predict(x[None, :], grid.points)[0] - baseline
    pending = np.arange(1, full)
    if pending.size:
        rows = np.concatenate([imputer.rows_for(x, [m]) for m in pending])
        preds = np.asarray(predict(rows, grid.points))
        table[pending] = preds.reshape(pending.size, n_ref, T).mean(axis=1) - baseline
    return table


_scalar_weight = lru_cache(maxsize=None)(_moebius_redistribution)


def _oracle_plan(p, k):
    """One scalar weight per (target, superset) pair, supersets descending."""
    out = []
    for S in coalition_iter(p, k):
        if S == 0:
            continue
        s = mask_size(S)
        supers = _submasks(((1 << p) - 1) ^ S)
        coeffs = np.array([_scalar_weight(s, s + mask_size(int(m)), k) for m in supers])
        keep = coeffs != 0.0
        out.append((S, (supers | S)[keep], coeffs[keep]))
    return out


def _oracle_ksii(table, k):
    n = table.shape[0]
    p = n.bit_length() - 1
    mo = table.copy()
    idx = np.arange(n)
    for j in range(p):
        bit = 1 << j
        has = (idx & bit) != 0
        mo[has] -= mo[idx[has] ^ bit]
    return {S: coeffs @ mo[supers] for S, supers, coeffs in _oracle_plan(p, k)}


def _oracle_explain_instances(predict, X, imputer, grid, k):
    baseline = np.asarray(predict(imputer.reference_rows(), grid.points)).mean(axis=0)
    out = []
    for x in X:
        table = _oracle_table(predict, x, imputer, grid, baseline)
        out.append((baseline, table, _oracle_ksii(table, k)))
    return out


def _counting(predict):
    calls = []

    def counted(X, t):
        calls.append(X.shape[0])
        return predict(X, t)
    return counted, calls


# Every built-in scale is element-wise in each row's loads, so a row's
# prediction does not depend on the shape of its batch, and the block
# reproduces the oracle's tables bit for bit however it chunks the rows.
def _case(p, n_ref, T, n_rows, target=PredictionTarget.SURVIVAL, conditional=False, seed=0):
    model = build_scenario(1 if p < 3 else 10)
    rng = np.random.default_rng(seed)
    grid = build_time_grid(70, T)
    full = model.prediction_function(target)

    def predict(X, t):  # the first p features of a 3-feature scenario
        Z = np.zeros((X.shape[0], 3))
        Z[:, :p] = X
        return full(Z, t)
    if conditional:
        imputer = ConditionalGaussianImputer(np.zeros(p), dep_demo_covariance()[:p, :p],
                                             n_samples=n_ref, seed=seed)
    else:
        imputer = MarginalEmpiricalImputer(rng.standard_normal((n_ref, p)))
    return predict, imputer, grid, rng.standard_normal((n_rows, p))


CASES = {
    "p1": dict(p=1, n_ref=20, T=5, n_rows=3),
    "p2_many_rows": dict(p=2, n_ref=30, T=7, n_rows=9),
    "T1": dict(p=3, n_ref=40, T=1, n_rows=5),
    "T1_p2": dict(p=2, n_ref=40, T=1, n_rows=5),
    "one_background_row": dict(p=3, n_ref=1, T=6, n_rows=4),
    "conditional": dict(p=3, n_ref=50, T=6, n_rows=4, conditional=True),
    # one row's six coalitions fill a chunk, as in the oracle
    "hazard_one_row_per_chunk": dict(p=3, n_ref=10_000, T=4, n_rows=3,
                                     target=PredictionTarget.HAZARD),
}


def _assert_matches_oracle(predict, X, imputer, grid, k):
    oracle = _oracle_explain_instances(predict, X, imputer, grid, k)
    baseline = reference_mean(predict, imputer, grid)
    V = np.concatenate(list(all_coalition_values(predict, X, imputer, grid, baseline)))
    expls = explain_instances(predict, X, imputer, grid, k, PredictionTarget.HAZARD)
    eps = np.finfo(float).eps
    for i, (base, table, ksii) in enumerate(oracle):
        assert np.array_equal(V[i], table)
        expl = expls[i]
        assert np.array_equal(expl.baseline, base)
        assert expl.info["evaluations"] == 1 << imputer.p
        assert expl.info["table_scale"] == float(np.max(np.abs(table)))
        bound = 4 * eps * max(1.0, expl.info["table_scale"])
        assert len(expl.values) == len(ksii)
        for S, curve in ksii.items():
            got = expl.values[tuple(j for j in range(imputer.p) if S >> j & 1)]
            assert np.max(np.abs(got - curve)) <= bound
    return expls


@pytest.mark.parametrize("name", list(CASES))
def test_block_matches_one_instance_oracle(name):
    spec = dict(CASES[name])
    k = min(2, spec["p"])
    predict, imputer, grid, X = _case(**spec)
    _assert_matches_oracle(predict, X, imputer, grid, k)


def test_block_spanning_chunks_matches_oracle(monkeypatch):
    # 4-pair chunks split the 6 pending coalitions of a p = 3 row across chunks
    predict, imputer, grid, X = _case(p=3, n_ref=25, T=8, n_rows=5)
    monkeypatch.setattr(games, "_CHUNK_FLOATS", 4 * 25 * 8)
    monkeypatch.setattr(games, "_SPLIT_FLOATS", 0)
    _assert_matches_oracle(predict, X, imputer, grid, 2)
    _assert_matches_oracle(predict, X, imputer, grid, 3)


@pytest.mark.parametrize("p,n_ref,T,n_rows,chunk_floats,split_floats,row_calls", [
    # all of a row's imputed coalitions in one chunk, whatever the budget
    (3, 25, 8, 5, 250_000, 4_000_000, [150]),
    (2, 30, 7, 9, 250_000, 4_000_000, [60]),
    (3, 25, 8, 5, 4 * 25 * 8, 4_000_000, [150]),
    # a row above the split threshold is cut into chunks of 4 coalitions
    (3, 25, 8, 2, 4 * 25 * 8, 6 * 25 * 8 - 1, [100, 50]),
    # p = 1 has no imputed coalition
    (1, 10, 4, 3, 250_000, 4_000_000, []),
])
def test_predict_calls_per_block(monkeypatch, p, n_ref, T, n_rows, chunk_floats,
                                 split_floats, row_calls):
    monkeypatch.setattr(games, "_CHUNK_FLOATS", chunk_floats)
    monkeypatch.setattr(games, "_SPLIT_FLOATS", split_floats)
    predict, imputer, grid, X = _case(p=p, n_ref=n_ref, T=T, n_rows=n_rows)
    counted, calls = _counting(predict)
    explain_instances(counted, X, imputer, grid, 1, PredictionTarget.HAZARD)
    # the reference mean, the block's full coalitions, then each row's chunks
    assert calls == [n_ref, n_rows] + row_calls * n_rows


def test_predict_calls_at_the_cohort_shape():
    # criterion 1's block: 8 rows at p = 3, 1000 reference rows, 41 points
    predict, imputer, grid, X = _case(p=3, n_ref=1000, T=41, n_rows=8)
    counted, calls = _counting(predict)
    explain_instances(counted, X, imputer, grid, 2, PredictionTarget.SURVIVAL)
    assert calls == [1000, 8] + [6 * 1000] * 8


SCALES = [
    (3, PredictionTarget.SURVIVAL),
    (2, PredictionTarget.HAZARD),
    (2, PredictionTarget.LOG_HAZARD),
    (3, PredictionTarget.HAZARD),
    (3, PredictionTarget.LOG_HAZARD),
]


@pytest.mark.parametrize("p,target", SCALES)
def test_explain_is_the_one_row_block(p, target):
    predict, imputer, grid, X = _case(p=p, n_ref=30, T=6, n_rows=12, target=target)
    block = explain_instances(predict, X, imputer, grid, 2, target)
    for x, expl in zip(X, block):
        one = explain(predict, x, imputer, grid, 2, target)
        assert one.info == expl.info
        assert one.values.keys() == expl.values.keys()
        for key, curve in one.values.items():
            assert np.array_equal(curve, expl.values[key])


# The wrapper rounds a row by the size of its batch. The block's full
# coalitions share one predict call, so only their values may move; each
# imputed chunk holds one row's coalitions, whose values stay bit for bit.
@pytest.mark.parametrize("p,target", SCALES)
def test_batch_variant_callable_moves_only_the_full_coalition(p, target):
    shaped, imputer, grid, X = _case(p=p, n_ref=30, T=6, n_rows=12, target=target)

    def predict(Z, t):
        return shaped(Z, t) * (1.0 + np.finfo(float).eps * Z.shape[0])
    baseline = reference_mean(predict, imputer, grid)
    block = np.concatenate(list(all_coalition_values(predict, X, imputer, grid, baseline)))
    one = np.concatenate([next(all_coalition_values(predict, x[None, :], imputer, grid,
                                                    baseline)) for x in X])
    assert np.array_equal(block[:, :-1], one[:, :-1])
    assert not np.array_equal(block[:, -1], one[:, -1])


@pytest.mark.parametrize("p,k", [(1, 1), (2, 2), (3, 2), (3, 3), (12, 3), (14, 3)])
def test_plan_matches_per_superset_build(p, k):
    plan = _redistribution(p, k)
    oracle = _oracle_plan(p, k)
    assert len(plan) == len(oracle)
    for (S, supers, coeffs), (S_o, supers_o, coeffs_o) in zip(plan, oracle):
        assert S == S_o
        assert np.array_equal(supers, supers_o) and supers.dtype == supers_o.dtype
        assert np.array_equal(coeffs, coeffs_o)
        assert not (supers.flags.writeable or coeffs.flags.writeable)


def test_evaluate_all_coalitions_matches_oracle():
    predict, imputer, grid, X = _case(p=3, n_ref=30, T=6, n_rows=1, conditional=True)
    game = SurvivalGame(predict, X[0], imputer, grid)
    table = evaluate_all_coalitions(game)
    oracle = _oracle_table(predict, X[0], imputer, grid, game.baseline())
    assert np.array_equal(table, oracle)
    assert not table.flags.writeable


def test_instance_blocks_stay_within_the_float_budget(monkeypatch):
    # a budget of two p = 3 tables per block: five rows take three blocks
    predict, imputer, grid, X = _case(p=3, n_ref=10, T=4, n_rows=5)
    whole = explain_instances(predict, X, imputer, grid, 2, PredictionTarget.HAZARD)
    seen = []
    inner = games.coalition_values
    monkeypatch.setattr(games, "coalition_values",
                        lambda predict, X, *a: seen.append(len(X)) or inner(predict, X, *a))
    monkeypatch.setattr(games, "_BLOCK_FLOATS", 2 * 8 * 4)
    split = explain_instances(predict, X, imputer, grid, 2, PredictionTarget.HAZARD)
    assert seen == [2, 2, 1]
    for a, b in zip(whole, split):
        assert a.info == b.info
        for key in a.values:
            assert np.array_equal(a.values[key], b.values[key])


def test_estimators_share_one_reference_mean():
    predict, imputer, grid, X = _case(p=3, n_ref=30, T=6, n_rows=3)
    seen = []
    expls = explain_instances(lambda Z, t: seen.append(Z) or predict(Z, t), X, imputer,
                              grid, 2, PredictionTarget.HAZARD,
                              method=ApproximatorConfig("mc", 4, seed=1))
    assert sum(Z is imputer.reference_rows() for Z in seen) == 1
    base = reference_mean(predict, imputer, grid)
    assert all(np.array_equal(e.baseline, base) for e in expls)
