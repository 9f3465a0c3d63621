"""Order-k aggregation of interaction indices: the plan-based
``aggregate_ksii`` against its earlier dict loop, the k-SII axioms on
random games for both order-k routes, and linearity, the Moebius round
trip and the exact k-SII against exact rational arithmetic within their
forward-error bounds.

The oracle below is the earlier ``aggregate_ksii``, copied verbatim: a walk
over ``itertools.combinations`` of each target's complement, accumulated in
long double. The plan-based version sums in float64 in another order, so it
may differ by the forward error of an n-term dot product.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_sii, rational_ksii, redistribution
from survix import approximators
from survix.core import coalition_iter, indices_from_mask, mask_size
from survix.interactions import (
    _bernoulli_fractions,
    _ksii_block,
    _plan,
    aggregate_ksii,
    exact_ksii,
    moebius_transform,
    reconstruct_from_moebius,
)
from survix.validation import benchmark_game

EPS = np.finfo(float).eps


def oracle_aggregate_ksii(sii, k, p):
    bern = [float(b) for b in _bernoulli_fractions(k)]
    inputs = {S: np.asarray(v, dtype=np.longdouble) for S, v in sii.items()}
    out = {}
    for S, base in inputs.items():
        s = mask_size(S)
        if s > k:
            raise ValueError("input contains orders above k")
        acc = base.copy()
        comp = [j for j in range(p) if not (S >> j) & 1]
        for extra_size in range(1, k - s + 1):
            coeff = bern[extra_size]
            if coeff == 0.0:
                continue
            for extra in itertools.combinations(comp, extra_size):
                mask = S
                for j in extra:
                    mask |= 1 << j
                if mask not in inputs:
                    raise ValueError("missing interaction order in input")
                acc += coeff * inputs[mask]
        out[S] = acc.astype(float)
    return out


def assert_within_forward_error(sii, k, p):
    """|new - oracle| <= n eps sum|w x| + eps |oracle| per entry, n the
    number of non-zero terms in the target's sum."""
    got = aggregate_ksii(sii, k, p)
    want = oracle_aggregate_ksii(sii, k, p)
    assert list(got) == list(want)
    bern = _bernoulli_fractions(k)
    for S, curve in want.items():
        terms = [abs(float(bern[mask_size(R) - mask_size(S)])) * np.abs(x)
                 for R, x in sii.items() if R & S == S and bern[mask_size(R) - mask_size(S)]]
        bound = len(terms) * EPS * sum(terms) + EPS * np.abs(curve)
        assert np.all(np.abs(got[S] - curve) <= bound)


def random_table(p, T, seed, scale=1.0):
    vals = scale * np.random.default_rng(seed).standard_normal((1 << p, T))
    vals[0] = 0.0
    return vals


def table_of(p, T, value):
    """Table of the game mask -> value(mask), value returning a (T,) curve."""
    return np.array([value(m) for m in range(1 << p)], dtype=float)


def players(table):
    return table.shape[0].bit_length() - 1


def both_routes(table, k):
    return {"fused": exact_ksii(table, k),
            "composed": aggregate_ksii(exact_sii(table, k), k, players(table))}


def axiom_tol(table):
    # the Moebius pass adds up to 2^p values p times, the contraction up to
    # 2^p terms again: a few p 2^p ulps of the largest value
    p = players(table)
    return 4 * p * (1 << p) * EPS * max(1.0, np.max(np.abs(table)))


def subset_sums(x):
    """Row S of the result is the sum of the rows L of x over the subsets L
    of S: an O(4^p) product, independent of the library's passes."""
    masks = np.arange(x.shape[0])
    return ((masks[None, :] & ~masks[:, None]) == 0).astype(float) @ x


SCALES = st.sampled_from([1e-8, 1.0, 3.0, 1e6])
FACTORS = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1))


@settings(max_examples=60)
@given(p=st.integers(1, 7), T=st.integers(1, 4), data=st.data())
def test_matches_dict_loop_on_random_tables(p, T, data):
    k = data.draw(st.integers(1, p), label="order")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    scale = data.draw(SCALES, label="scale")
    assert_within_forward_error(exact_sii(random_table(p, T, seed, scale), k), k, p)


@pytest.mark.parametrize("method", ["mc", "permutation"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_matches_dict_loop_on_estimator_sums(monkeypatch, method, k):
    game, _ = benchmark_game(seed=5, p=8, n_background=20, n_timepoints=3)
    seen = []
    monkeypatch.setattr(approximators, "aggregate_ksii",
                        lambda sii, k, p: seen.append(sii) or aggregate_ksii(sii, k, p))
    for budget, seed in [(40, 0), (120, 1), (255, 2)]:
        approximators.estimate(game, k, method, budget, seed)
    assert len(seen) == 3
    for sii in seen:
        assert_within_forward_error(sii, k, game.p)


def test_errors_keep_their_messages():
    sii = exact_sii(random_table(4, 2, 0), 3)
    with pytest.raises(ValueError, match="input contains orders above k"):
        aggregate_ksii(sii, 2, 4)
    del sii[0b0111]
    with pytest.raises(ValueError, match="missing interaction order in input"):
        aggregate_ksii(sii, 3, 4)
    # a target whose supersets all carry weight zero needs none of them
    only_top = {S: v for S, v in exact_sii(random_table(4, 2, 1), 2).items()
                if mask_size(S) == 2}
    got = aggregate_ksii(only_top, 2, 4)
    assert got.keys() == only_top.keys()
    assert all(np.array_equal(got[S], v) for S, v in only_top.items())


@pytest.mark.parametrize("mask", [0, 0b1000, 1 << 63, 1 << 70])
def test_a_mask_outside_the_targets_is_named(mask):
    with pytest.raises(ValueError, match=f"mask {mask} is no coalition of size 1..1"):
        aggregate_ksii({mask: np.ones(2)}, 1, 3)


def oracle_aggregation_plan(p, k):
    """The earlier plan builder: every candidate coalition of size 1..k is
    tested against every target, so it costs targets x candidates."""
    bern = _bernoulli_fractions(k)
    table = np.array([[float(bern[r - s]) if s <= r <= k else 0.0 for r in range(p + 1)]
                      for s in range(k + 1)])
    masks = np.sort(np.fromiter(coalition_iter(p, k), dtype=np.int64))[1:]
    sizes = sum((masks >> j) & 1 for j in range(p))
    supers, coeffs = [], []
    for S in masks.tolist():
        hit = (masks & S) == S
        weights = table[mask_size(S), sizes[hit]]
        supers.append(masks[hit][weights != 0.0])
        coeffs.append(weights[weights != 0.0])
    return ({S: i for i, S in enumerate(masks.tolist())},
            np.searchsorted(masks, np.concatenate(supers)), np.concatenate(coeffs),
            np.cumsum([0] + [c.size for c in coeffs[:-1]]))


def _runs(plan):
    """Each target's superset masks and weights, in run order, of a plan
    (row map, rows, weights, run starts)."""
    row, rows, coeffs, starts = plan
    masks = np.array(list(row))
    return {S: (masks[rows[a:b]].tolist(), coeffs[a:b].tolist())
            for S, a, b in zip(row, starts, np.r_[starts[1:], rows.size])}


@pytest.mark.parametrize("p,k", [(p, k) for p in range(1, 13) for k in range(1, p + 1)]
                         + [(30, 3), (30, 4)])
def test_aggregation_plan_matches_the_all_pairs_build(p, k):
    # the same runs, targets in canonical order instead of ascending masks
    plan, want = _plan(p, k), oracle_aggregation_plan(p, k)
    targets = [S for S in coalition_iter(p, k) if S]
    assert plan.targets.tolist() == targets
    got = ({S: i for i, S in enumerate(targets)}, plan.rows, plan.coeffs, plan.starts)
    assert _runs(got) == _runs(want)
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert not a.flags.writeable
    assert list(plan.keys.items()) == [(S, indices_from_mask(S)) for S in targets]
    with pytest.raises(TypeError):
        plan.keys[targets[0]] = ()


@settings(max_examples=40)
@given(p=st.integers(2, 6), T=st.integers(1, 3), data=st.data())
def test_symmetry_axiom(p, T, data):
    k = data.draw(st.integers(1, p), label="order")
    i, j = sorted(data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2,
                                     unique=True), label="swapped players"))
    base = random_table(p, T, data.draw(st.integers(0, 2**16), label="seed"))

    def swap(m):
        bi, bj = (m >> i) & 1, (m >> j) & 1
        return m & ~((1 << i) | (1 << j)) | bi << j | bj << i
    table = table_of(p, T, lambda m: base[min(m, swap(m))])
    tol = axiom_tol(table)
    for route, ksii in both_routes(table, k).items():
        for S, curve in ksii.items():
            assert np.max(np.abs(curve - ksii[swap(S)])) <= tol, route


@settings(max_examples=40)
@given(p=st.integers(2, 6), T=st.integers(1, 3), data=st.data())
def test_dummy_axiom(p, T, data):
    # player d adds its own curve c to every coalition and interacts with none
    k = data.draw(st.integers(1, p), label="order")
    d = data.draw(st.integers(0, p - 1), label="dummy player")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    base = random_table(p, T, seed)
    c = np.random.default_rng(seed + 1).standard_normal(T)
    table = table_of(p, T, lambda m: base[m & ~(1 << d)] + ((m >> d) & 1) * c)
    tol = axiom_tol(table)
    for route, ksii in both_routes(table, k).items():
        assert np.max(np.abs(ksii[1 << d] - c)) <= tol, route
        for S, curve in ksii.items():
            if S >> d & 1 and S != 1 << d:
                assert np.max(np.abs(curve)) <= tol, route


@settings(max_examples=60)
@given(p=st.integers(1, 7), T=st.integers(1, 4), data=st.data())
def test_linearity_axiom(p, T, data):
    # exact_ksii(a v + b w) = a exact_ksii(v) + b exact_ksii(w). Each side
    # rounds a depth-p Moebius tree and a weighted sum over the n supersets R
    # of S with non-zero weight, the other terms exact zeros: per entry at
    # most (n + p) eps sum_R |c_R| M(R), with
    # M(R) = sum over L in R of |a v(L)| + |b w(L)|, once for each side and
    # once for forming a v + b w, plus the final scaling and addition
    k = data.draw(st.integers(1, p), label="order")
    v = random_table(p, T, data.draw(st.integers(0, 2**16), label="seed v"),
                     data.draw(SCALES, label="scale v"))
    w = random_table(p, T, data.draw(st.integers(0, 2**16), label="seed w"),
                     data.draw(SCALES, label="scale w"))
    a, b = data.draw(FACTORS, label="a"), data.draw(FACTORS, label="b")
    combined = exact_ksii(a * v + b * w, k)
    kv, kw = exact_ksii(v, k), exact_ksii(w, k)
    mass = subset_sums(np.abs(a * v) + np.abs(b * w))
    for S, supers, coeffs in redistribution(p, k):
        summed = a * kv[S] + b * kw[S]
        bound = (3 * (coeffs.size + p + 3) * EPS * (np.abs(coeffs) @ mass[supers])
                 + 2 * EPS * (np.abs(a * kv[S]) + np.abs(b * kw[S])))
        assert np.all(np.abs(combined[S] - summed) <= bound)


@settings(max_examples=60)
@given(p=st.integers(1, 7), T=st.integers(1, 4), data=st.data())
def test_moebius_round_trip(p, T, data):
    # each pass rounds a depth-p tree over the subsets of S: the transform
    # errs by at most p eps sum_{L in S} |v(L)| per entry, and the inverse
    # adds p eps sum_{R in S} |mo(R)| plus the first error summed over R in S
    v = random_table(p, T, data.draw(st.integers(0, 2**16), label="seed"),
                     data.draw(SCALES, label="scale"))
    mo = moebius_transform(v)
    bound = 1.01 * p * EPS * (subset_sums(np.abs(mo)) + subset_sums(subset_sums(np.abs(v))))
    assert np.all(np.abs(reconstruct_from_moebius(mo) - v) <= bound)


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    return n * EPS / 2 / (1 - n * EPS / 2)


@pytest.mark.parametrize("p", range(1, 9))
def test_forward_error_against_rational_oracle(p):
    # Integer tables below 2^20 have integer Moebius coefficients below 2^28,
    # which float64 holds exactly. A target S then errs only by the rounding
    # of its weights, of their products and of the subset-sum tree of depth
    # p - |S|: |curve - exact| <= gamma(p - |S| + 2) sum_{T >= S} |w| |m(T)|,
    # with w the order-k weight _moebius_redistribution(|S|, |T|, k). The
    # efficiency residual |sum_S curve_S - v(N)| is at most those bounds
    # summed plus gamma(n - 1) sum_S |curve_S| for the sequential sum over the
    # n targets, and one rounding of the difference
    rng = np.random.default_rng(p)
    table = rng.integers(-2**20, 2**20, size=(1 << p, 3)).astype(float)
    table[0] = 0.0
    for k in range(1, p + 1):
        curves = _ksii_block(table[None], k)[0]
        exact = rational_ksii(table, k)
        assert len(exact) == len(curves)
        budget = 0.0
        for (S, (want, mass)), got in zip(exact.items(), curves):
            bound = gamma(p - mask_size(S) + 2) * np.array([float(m) for m in mass])
            error = np.array([float(abs(Fraction(g) - w)) for g, w in zip(got, want)])
            assert np.all(error <= bound), (k, S)
            budget = budget + bound
        budget = (1 + EPS) * (budget + gamma(len(curves) - 1) * np.abs(curves).sum(axis=0))
        assert np.all(np.abs(curves.sum(axis=0) - table[-1]) <= budget), k
