import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

import oracles
from oracles import exact_sii
from scipy.stats import chi2

from survix import approximators, validation
from survix.approximators import (
    _COND_LIMIT,
    _mc_round,
    _regression_fit,
    _sample_coalitions,
    _unrank,
    approx_montecarlo,
    approx_permutation,
    approx_regression,
    estimate,
    estimators,
)
from survix.core import PredictionTarget, build_time_grid, coalition_iter, mask_size
from survix.games import (
    MarginalEmpiricalImputer,
    SurvivalGame,
    _to_grid,
    _width,
    evaluate_all_coalitions,
)
from survix.interactions import _plan, aggregate_ksii, exact_ksii, explain
from survix.simulate import FeatureSampler, build_scenario, sample_features
from survix.validation import benchmark_game, run_benchmark

X_STAR = np.array([-1.2650, 2.4162, -0.6436])


def small_game(scenario=8, target=PredictionTarget.HAZARD, seed=2, n_bg=64):
    model = build_scenario(scenario)
    bg = sample_features(FeatureSampler.standard(3, seed=seed), n_bg)
    grid = build_time_grid(70, 5)
    return SurvivalGame(model.prediction_function(target), X_STAR,
                        MarginalEmpiricalImputer(bg), grid)


def dummy_game(seed=3):
    model = build_scenario("dep_demo")  # feature 2 inert
    bg = sample_features(FeatureSampler.standard(3, seed=seed), 50)
    grid = build_time_grid(70, 4)
    return SurvivalGame(
        model.prediction_function(PredictionTarget.LOG_HAZARD),
        X_STAR, MarginalEmpiricalImputer(bg), grid,
    )


class TestMonteCarlo:
    def test_full_budget_falls_back_to_exact(self):
        game = small_game()
        exact = exact_ksii(evaluate_all_coalitions(game), 2)
        est, info = approx_montecarlo(game, 2, budget=8, seed=0)
        assert info["method"] == "exact_fallback"
        for mask in exact:
            assert np.allclose(est[mask], exact[mask], atol=1e-10)

    def test_dummy_feature_estimates_vanish(self):
        game = dummy_game()
        for seed in range(20):
            est, _ = approx_montecarlo(game, 2, budget=6, seed=seed)
            for mask in est:
                if mask & 0b100:
                    assert np.max(np.abs(est[mask])) < 1e-12

    def test_budget_accounting(self):
        game, _ = benchmark_game(seed=5, p=8, n_background=20, n_timepoints=3)
        for budget in (16, 64, 200):
            est, info = approx_montecarlo(game, 2, budget, seed=1)
            assert info["evaluations"] <= budget

    def test_error_shrinks_with_budget(self):
        game, _ = benchmark_game(seed=5, n_background=50, n_timepoints=3)
        exact = exact_ksii(evaluate_all_coalitions(game), 2)

        def med_abs_err(budget):
            errs = []
            for rep in range(7):
                est, _ = approx_montecarlo(game, 2, budget, seed=100 + rep)
                errs.append(np.mean([
                    np.abs(est[m] - exact[m]).mean() for m in exact
                ]))
            return float(np.median(errs))

        assert med_abs_err(512) < med_abs_err(64)

    def test_deterministic_given_seed(self):
        game = small_game()
        e1, _ = approx_montecarlo(game, 2, budget=6, seed=9)
        e2, _ = approx_montecarlo(game, 2, budget=6, seed=9)
        for mask in e1:
            assert np.array_equal(e1[mask], e2[mask])


class TestSamplingDraws:
    """The estimators' draws: their law, and one generator call per Monte
    Carlo round or per batch of permutations."""

    def test_numpy_permuted_rows_are_successive_permutations(self):
        # approx_permutation draws a batch with one permuted call and relies on
        # its rows being the permutations that successive permutation calls
        # return; the permutation oracle draws one at a time
        for p in range(1, 13):
            for seed in range(4):
                for n in (1, 3, 17):
                    batch = np.random.default_rng(seed).permuted(
                        np.tile(np.arange(p), (n, 1)), axis=1)
                    one = np.random.default_rng(seed)
                    rows = np.stack([one.permutation(p) for _ in range(n)])
                    assert np.array_equal(batch, rows), (
                        "numpy assumption broken: Generator.permuted on tiled "
                        "arange(p) rows no longer equals successive "
                        f"Generator.permutation(p) calls (p={p}, seed={seed}, n={n})")

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_round_law(self, k):
        # each target's M: size uniform on 0..|rest|, then uniform among the
        # subsets of that size, so P(M) = 1 / ((|rest| + 1) C(|rest|, |M|));
        # fixed seeds, so the chi-square verdict cannot change between runs
        p, n_seeds = 5, 3000
        targets = [K for K in coalition_iter(p, k) if K]
        inside = (np.array(targets)[:, None] >> np.arange(p)) & 1 == 1
        drawn = np.stack([
            _mc_round(np.random.default_rng(np.random.SeedSequence((seed, 101))),
                      inside)
            for seed in range(n_seeds)])
        for i, K in enumerate(targets):
            assert not np.any(drawn[:, i] & K)
            rest = [j for j in range(p) if not (K >> j) & 1]
            cells = [sum(1 << j for j in c) for s in range(len(rest) + 1)
                     for c in itertools.combinations(rest, s)]
            observed = np.array([np.sum(drawn[:, i] == M) for M in cells])
            assert observed.sum() == n_seeds
            expected = np.array([n_seeds / ((len(rest) + 1)
                                            * math.comb(len(rest), mask_size(M)))
                                 for M in cells])
            stat = float(np.sum((observed - expected) ** 2 / expected))
            assert stat < chi2.ppf(1 - 1e-4, len(cells) - 1), (K, stat)

    @staticmethod
    def counted_calls(monkeypatch, run):
        """The generator methods ``run`` calls, in order."""
        calls = []
        make = np.random.default_rng

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)
                return lambda *a, **kw: calls.append(name) or method(*a, **kw)

        monkeypatch.setattr(np.random, "default_rng", lambda *a: Counting(make(*a)))
        return run(), calls

    @pytest.mark.parametrize("k, budget", [(1, 128), (2, 128), (2, 512)])
    def test_montecarlo_two_calls_per_round(self, monkeypatch, k, budget):
        game, _ = benchmark_game(seed=7, p=10, n_background=20, n_timepoints=3)
        (_, info), calls = self.counted_calls(
            monkeypatch, lambda: approx_montecarlo(game, k, budget, 3))
        n_targets = sum(math.comb(10, s) for s in range(1, k + 1))
        # the round whose draw no longer fits is drawn whole
        rounds = sum(info["samples"].values()) // n_targets + 1
        assert calls == ["integers", "random"] * rounds

    @pytest.mark.parametrize("k, budget", [(1, 128), (2, 128), (2, 512)])
    def test_permutation_one_call_per_batch(self, monkeypatch, k, budget):
        game, _ = benchmark_game(seed=7, p=10, n_background=20, n_timepoints=3)
        (_, info), calls = self.counted_calls(
            monkeypatch, lambda: approx_permutation(game, k, budget, 3))
        assert set(calls) == {"permuted"}
        # one call per permutation would make more calls than permutations
        assert 4 * len(calls) <= info["permutations"]


def permutation_window_oracle(table, p, k):
    """Average discrete derivatives over all permutations and contiguous
    windows, the estimator's population value."""
    sums = {}
    counts = {}
    for perm in itertools.permutations(range(p)):
        prefix = [0]
        for j in perm:
            prefix.append(prefix[-1] | (1 << j))
        for order in range(1, k + 1):
            for pos in range(p - order + 1):
                K = 0
                for j in perm[pos:pos + order]:
                    K |= 1 << j
                M = prefix[pos]
                delta = np.zeros(table.shape[1])
                sub = K
                while True:
                    sign = (-1) ** (bin(K).count("1") - bin(sub).count("1"))
                    delta = delta + sign * table[M | sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & K
                sums[K] = sums.get(K, 0) + delta
                counts[K] = counts.get(K, 0) + 1
    return {K: sums[K] / counts[K] for K in sums}


class TestPermutation:
    def test_exhaustive_windows_equal_exact_sii(self):
        game = small_game()
        table = evaluate_all_coalitions(game)
        oracle = permutation_window_oracle(table, 3, 2)
        sii = exact_sii(table, 2)
        for mask in sii:
            assert np.allclose(oracle[mask], sii[mask], atol=1e-10)

    def test_full_budget_falls_back_to_exact(self):
        game = small_game()
        exact = exact_ksii(evaluate_all_coalitions(game), 2)
        est, info = approx_permutation(game, 2, budget=8, seed=0)
        assert info["method"] == "exact_fallback"
        for mask in exact:
            assert np.allclose(est[mask], exact[mask], atol=1e-10)

    def test_deterministic_given_seed(self):
        game, _ = benchmark_game(seed=5, p=8, n_background=20, n_timepoints=3)
        e1, i1 = approx_permutation(game, 2, budget=100, seed=4)
        e2, i2 = approx_permutation(game, 2, budget=100, seed=4)
        assert i1["evaluations"] == i2["evaluations"]
        for mask in e1:
            assert np.array_equal(e1[mask], e2[mask])

    def test_budget_accounting(self):
        game, _ = benchmark_game(seed=5, p=8, n_background=20, n_timepoints=3)
        for budget in (40, 100, 200):
            _, info = approx_permutation(game, 2, budget, seed=1)
            assert info["evaluations"] <= budget


class TestRegression:
    def test_full_enumeration_order_one_is_kernel_exact(self):
        # classic weighted-least-squares exactness at order 1, checked
        # against the permutation oracle rather than our own exact path
        game = small_game(scenario=3, target=PredictionTarget.LOG_HAZARD)
        table = evaluate_all_coalitions(game)
        perms = list(itertools.permutations(range(3)))
        oracle = {1 << j: np.zeros(table.shape[1]) for j in range(3)}
        for perm in perms:
            mask = 0
            for j in perm:
                oracle[1 << j] += table[mask | (1 << j)] - table[mask]
                mask |= 1 << j
        oracle = {m: v / len(perms) for m, v in oracle.items()}
        est, info = _regression_fit(game, 1, budget=8, seed=0)
        assert info["method"] == "regression"
        for mask, curve in oracle.items():
            assert np.allclose(est[mask], curve, atol=1e-6)

    def test_k_additive_game_recovered_exactly(self):
        # the basis spans any game whose interaction structure stops at
        # order 2, so the full-budget fit reproduces it
        game = small_game(scenario=8, target=PredictionTarget.LOG_HAZARD)
        table = evaluate_all_coalitions(game)
        exact = exact_ksii(table, 2)
        est, _ = _regression_fit(game, 2, budget=8, seed=0)
        for mask in exact:
            assert np.allclose(est[mask], exact[mask], atol=1e-8)

    def test_fallback_matches_exact(self):
        game = small_game()
        exact = exact_ksii(evaluate_all_coalitions(game), 2)
        est, info = approx_regression(game, 2, budget=8, seed=0)
        assert info["method"] == "exact_fallback"
        for mask in exact:
            assert np.allclose(est[mask], exact[mask], atol=1e-12)

    def test_efficiency_holds_at_any_budget(self):
        game, _ = benchmark_game(seed=5, n_background=40, n_timepoints=3)
        full = game.values_for_masks([game.full_mask])[0]
        for budget in (40, 130, 300):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                est, _ = approx_regression(game, 2, budget, seed=2)
            assert np.allclose(sum(est.values()), full, atol=1e-8)

    @pytest.mark.parametrize("budget", [2, 3])
    def test_budget_below_minimum_rejected_by_both_entry_points(self, budget):
        game, _ = benchmark_game(seed=5, p=6, n_background=20, n_timepoints=3)
        message = r"regression needs budget >= 2\*\(order\+1\)"
        with pytest.raises(ValueError, match=message):
            approx_regression(game, 2, budget, seed=0)
        with pytest.raises(ValueError, match=message):
            estimate(game, 2, "regression", budget, seed=0)

    def test_underdetermined_flagged_and_minimum_norm(self):
        game, _ = benchmark_game(seed=5, n_background=30, n_timepoints=3)
        with pytest.warns(RuntimeWarning, match="minimum-norm solve"):
            est, info = approx_regression(game, 2, budget=40, seed=2)
        assert info["unstable"]
        assert "ridge" not in info
        assert info["design_rank"] < info["n_basis"]

    def test_budget_error_trend(self):
        game, _ = benchmark_game(seed=5, n_background=50, n_timepoints=3)
        exact = exact_ksii(evaluate_all_coalitions(game), 2)

        def med_err(budget):
            errs = []
            for rep in range(5):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    est, _ = approx_regression(game, 2, budget, seed=50 + rep)
                errs.append(np.mean([
                    np.sum((est[m] - exact[m]) ** 2) for m in exact
                ]))
            return float(np.median(errs))

        assert med_err(512) <= med_err(128)


# ---------------------------------------------------------------------------
# oracles: the estimators as they were before planning and evaluation were
# split, fetching values as the sampling loops go and differencing one
# sample at a time
# ---------------------------------------------------------------------------

def _oracle_subsets_of(mask):
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return out


class _OracleValues:
    """Coalition-value cache that charges one budget unit per new coalition."""

    def __init__(self, game, budget):
        self.game = game
        self.budget = budget
        self.cache = {}
        self._fetch([0, game.full_mask])

    @property
    def spent(self):
        return len(self.cache)

    def affordable(self, masks):
        new = {m for m in masks if m not in self.cache}
        return self.spent + len(new) <= self.budget

    def _fetch(self, masks):
        new = sorted({m for m in masks if m not in self.cache})
        if not new:
            return
        values = self.game.values_for_masks(new)
        for mask, val in zip(new, values):
            self.cache[mask] = val

    def get(self, masks):
        if not self.affordable(masks):
            raise RuntimeError("budget exhausted")
        self._fetch(masks)
        return [self.cache[m] for m in masks]

    def delta(self, K, M):
        subsets = _oracle_subsets_of(K)
        vals = self.get([M | sub for sub in subsets])
        kp = mask_size(K)
        out = np.zeros_like(vals[0])
        for sub, val in zip(subsets, vals):
            sign = -1.0 if (kp - mask_size(sub)) % 2 else 1.0
            out += sign * val
        return out


def _oracle_fallback(game, k):
    ksii = exact_ksii(evaluate_all_coalitions(game), k)
    return ksii, {"method": "exact_fallback", "evaluations": 1 << game.p}


def _oracle_targets(p, k):
    return [m for m in coalition_iter(p, k) if m]


def oracle_montecarlo(game, k, budget, seed):
    p = game.p
    if budget >= (1 << p):
        return _oracle_fallback(game, k)
    bank = _OracleValues(game, budget)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 101)))
    targets = _oracle_targets(p, k)
    sums = {K: None for K in targets}
    counts = {K: 0 for K in targets}
    exhausted = False
    while not exhausted:
        progress = False
        sizes = rng.integers(0, np.array([p - mask_size(K) for K in targets]) + 1)
        keys = rng.random((len(targets), p))
        for i, K in enumerate(targets):
            rest = [j for j in range(p) if not (K >> j) & 1]
            m_size = int(sizes[i])
            chosen = sorted(rest, key=lambda j: (keys[i, j], j))[:m_size]
            M = 0
            for c in chosen:
                M |= 1 << c
            needed = [M | sub for sub in _oracle_subsets_of(K)]
            if not bank.affordable(needed):
                exhausted = True
                break
            d = bank.delta(K, M)
            sums[K] = d if sums[K] is None else sums[K] + d
            counts[K] += 1
            progress = True
        if not progress:
            break
    T = len(game.grid)
    sii = {K: (sums[K] / counts[K]) if counts[K] else np.zeros(T) for K in targets}
    ksii = aggregate_ksii(sii, k, p)
    info = {"method": "mc", "evaluations": bank.spent,
            "samples": {mask_size(K): 0 for K in targets}}
    for K in targets:
        info["samples"][mask_size(K)] += counts[K]
    return ksii, info


def oracle_permutation(game, k, budget, seed):
    p = game.p
    if budget >= (1 << p):
        return _oracle_fallback(game, k)
    bank = _OracleValues(game, budget)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 211)))
    targets = _oracle_targets(p, k)
    sums = {}
    counts = {K: 0 for K in targets}
    n_perms = 0
    while True:
        perm = rng.permutation(p)
        needed = set()
        samples = []
        prefix = 0
        prefixes = [0]
        for j in perm:
            prefix |= 1 << int(j)
            prefixes.append(prefix)
        for order in range(1, k + 1):
            for pos in range(p - order + 1):
                K = 0
                for j in perm[pos:pos + order]:
                    K |= 1 << int(j)
                M = prefixes[pos]
                samples.append((K, M))
                for sub in _oracle_subsets_of(K):
                    needed.add(M | sub)
        if not bank.affordable(needed):
            break
        for K, M in samples:
            d = bank.delta(K, M)
            sums[K] = d if K not in sums else sums[K] + d
            counts[K] += 1
        n_perms += 1
        if bank.spent >= budget:
            break
    T = len(game.grid)
    sii = {K: (sums[K] / counts[K]) if counts[K] else np.zeros(T) for K in targets}
    ksii = aggregate_ksii(sii, k, p)
    info = {"method": "permutation", "evaluations": bank.spent,
            "permutations": n_perms}
    return ksii, info


_ORACLE_RIDGE = 1e-8


def _oracle_design(game, k, budget, seed):
    """The sampled regression problem: basis, weighted design Aw, weighted
    values, the constraint rows C and their right-hand side d, and the
    value bank."""
    p = game.p
    basis = list(coalition_iter(p, k))
    bank = _OracleValues(game, budget)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 307)))
    n_rows = min(budget - 2, (1 << p) - 2)
    masks, weights = oracles.sample_coalitions(p, n_rows, rng)
    values = np.vstack(bank.get(masks))
    A = np.empty((len(masks), len(basis)))
    for col, S in enumerate(basis):
        A[:, col] = [1.0 if (m & S) == S else 0.0 for m in masks]
    sqrtw = np.sqrt(weights)
    C = np.zeros((2, len(basis)))
    C[0, 0] = 1.0
    C[1, :] = 1.0
    d = np.vstack([bank.cache[0], bank.cache[game.full_mask]])
    return basis, A * sqrtw[:, None], values * sqrtw[:, None], C, d, bank


def oracle_regression(game, k, budget, seed):
    """The fit through normal equations in a KKT system, with a ridge for a
    rank-deficient design; ``info["condition"]`` is that of [Aw; C]."""
    p = game.p
    if budget >= (1 << p):
        return _oracle_fallback(game, k)
    basis, Aw, vw, C, d, bank = _oracle_design(game, k, budget, seed)
    n_basis, n_rows = len(basis), Aw.shape[0]
    sv = np.linalg.svd(np.vstack([Aw, C]), compute_uv=False)
    rank = int(np.sum(sv > sv[0] * (n_rows + 2) * np.finfo(float).eps))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    full_design = n_rows == (1 << p) - 2
    underdetermined = rank < n_basis
    unstable = underdetermined or cond > _COND_LIMIT or (
        not full_design and n_rows < 2 * n_basis
    )
    H = Aw.T @ Aw
    ridge = _ORACLE_RIDGE if underdetermined else 0.0
    if ridge:
        H = H + ridge * np.eye(n_basis)
    rhs = Aw.T @ vw
    kkt = np.block([[2.0 * H, C.T], [C, np.zeros((2, 2))]])
    rhs_full = np.vstack([2.0 * rhs, d])
    try:
        sol = np.linalg.solve(kkt, rhs_full)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs_full, rcond=None)[0]
    coef = sol[:n_basis]
    ksii = {S: coef[col] for col, S in enumerate(basis) if S != 0}
    info = {
        "method": "regression",
        "evaluations": bank.spent,
        "n_basis": n_basis,
        "design_rows": n_rows,
        "design_rank": rank,
        "condition": cond,
        "unstable": bool(unstable),
        "ridge": ridge,
    }
    return ksii, info


def min_norm_regression(game, k, budget, seed):
    """The minimum-norm solution of the constrained least-squares fit, from
    pseudo-inverses: c0 = pinv(C) d, N an SVD basis of C's null space, and
    coefficients c0 + N pinv(Aw N) (vw - Aw c0)."""
    basis, Aw, vw, C, d, _ = _oracle_design(game, k, budget, seed)
    c0 = np.linalg.pinv(C) @ d
    N = null_space(C)
    coef = c0 + N @ (np.linalg.pinv(Aw @ N) @ (vw - Aw @ c0))
    return {S: coef[col] for col, S in enumerate(basis) if S != 0}


ESTIMATORS = {
    "mc": (approx_montecarlo, oracle_montecarlo),
    "permutation": (approx_permutation, oracle_permutation),
    "regression": (approx_regression, oracle_regression),
}


def _run(fn, game, k, budget, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(game, k, budget, seed)


def assert_same_estimate(got, want):
    (est, info), (est_want, info_want) = got, want
    assert info == info_want
    assert est.keys() == est_want.keys()
    for mask, curve in est_want.items():
        assert np.array_equal(est[mask], curve), mask


EPS = np.finfo(float).eps


def assert_close_estimate(est, want, bound):
    assert est.keys() == want.keys()
    for mask, curve in want.items():
        assert np.max(np.abs(est[mask] - curve)) <= bound, mask


def assert_regression_matches(game, k, budget, seed):
    """A sampled fit reports the reference's info, but for the condition of
    the matrix it solves, and has no ridge. A full-rank fit is within the
    KKT reference's forward error: that solves the normal equations, whose
    condition is the square of the solved matrix's kappa, so it is off by
    about eps kappa^2 per unit of the curves' scale (at most 10.5 eps
    kappa^2 scale over 95 full-rank designs of p = 2..10). A rank-deficient fit is the
    minimum-norm solution, which the ridge only approximates, within a
    backward-stable solve's eps kappa scale of the pseudo-inverse's."""
    got = _run(approx_regression, game, k, budget, seed)
    want = _run(oracle_regression, game, k, budget, seed)
    if want[1]["method"] == "exact_fallback":
        return assert_same_estimate(got, want)
    (est, info), (est_want, info_want) = got, want
    kappa = info.pop("condition")
    info_want.pop("condition")
    ridge = info_want.pop("ridge")
    assert info == info_want
    scale = max(1.0, max(np.max(np.abs(c)) for c in est_want.values()))
    if ridge:
        est_want = min_norm_regression(game, k, budget, seed)
        assert_close_estimate(est, est_want, 64 * EPS * kappa * scale)
    else:
        assert_close_estimate(est, est_want, 64 * EPS * kappa ** 2 * scale)
        # any orthonormal basis of the null space gives the solved matrix's
        # singular values
        _, Aw, _, C, _, _ = _oracle_design(game, k, budget, seed)
        assert kappa == pytest.approx(np.linalg.cond(Aw @ null_space(C)), rel=1e-8)


def elementwise_game(p, seed, n_ref, n_points):
    """Random game whose prediction is computed row by row with elementwise
    operations only, so a row's prediction cannot depend on its batch."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=p)
    pair = rng.normal(scale=0.5, size=(p, p))
    bg = rng.normal(size=(n_ref, p))
    x = rng.normal(size=p)

    def predict(X, t):
        lin = np.zeros(X.shape[0])
        for i in range(p):
            lin = lin + w[i] * X[:, i]
            for j in range(i + 1, p):
                lin = lin + pair[i, j] * X[:, i] * X[:, j]
        return np.exp(0.3 * lin)[:, None] * np.log1p(t)[None, :]

    return SurvivalGame(predict, x, MarginalEmpiricalImputer(bg),
                        build_time_grid(70, n_points))


class TestAgainstOracle:
    @pytest.mark.parametrize("p", [8, 10])
    @pytest.mark.parametrize("method", ["mc", "permutation"])
    def test_benchmark_game_bit_identical(self, p, method):
        game, _ = benchmark_game(seed=7, p=p)
        new, old = ESTIMATORS[method]
        for budget in (8, 16, 64, 128, 512):
            for seed in (0, 1):
                assert_same_estimate(_run(new, game, 2, budget, seed),
                                     _run(old, game, 2, budget, seed))

    @pytest.mark.parametrize("p", [8, 10])
    def test_benchmark_game_regression_matches(self, p):
        game, _ = benchmark_game(seed=7, p=p)
        for budget in (8, 16, 64, 128, 512):
            for seed in (0, 1):
                assert_regression_matches(game, 2, budget, seed)

    def test_rank_deficient_designs_are_minimum_norm(self):
        # fewer rows than basis columns: the fit is the minimum-norm one,
        # which a ridge-stabilized solve misses by 1e-8 to 1e-7 of the
        # curves' scale, far outside this bound
        for p, budgets in ((8, (12, 24, 36)), (10, (16, 40))):
            game, _ = benchmark_game(seed=7, p=p, n_background=20, n_timepoints=3)
            for budget in budgets:
                for seed in (0, 1):
                    est, info = _run(approx_regression, game, 2, budget, seed)
                    assert info["design_rank"] < info["n_basis"]
                    want = min_norm_regression(game, 2, budget, seed)
                    scale = max(1.0, max(np.max(np.abs(c)) for c in want.values()))
                    assert_close_estimate(est, want, 64 * EPS * info["condition"] * scale)

    @settings(max_examples=40)
    @given(p=st.integers(2, 6), data=st.data())
    def test_small_games(self, p, data):
        k = data.draw(st.integers(1, p), label="order")
        budget = data.draw(st.integers(2, (1 << p) - 1), label="budget")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        game = elementwise_game(p, seed, n_ref=data.draw(st.integers(1, 6)),
                                n_points=data.draw(st.integers(1, 4)))
        full = game.values_for_masks([game.full_mask])[0]
        for method, (new, old) in sorted(ESTIMATORS.items()):
            if method == "regression" and budget < 2 * (k + 1):
                with pytest.raises(ValueError, match="regression needs"):
                    estimate(game, k, method, budget, seed)
                continue
            got = _run(new, game, k, budget, seed)
            if method == "regression":
                assert_regression_matches(game, k, budget, seed)
            else:
                assert_same_estimate(got, _run(old, game, k, budget, seed))
            # determinism for a given seed, and the budget is never exceeded
            assert_same_estimate(_run(new, game, k, budget, seed), got)
            assert got[1]["evaluations"] <= budget
            if method == "regression":
                # efficiency is an exact constraint of the fit at any budget
                scale = max(1.0, float(np.max(np.abs(full))))
                assert np.allclose(sum(got[0].values()), full, rtol=0,
                                   atol=1e-8 * scale)

    def test_one_value_call_per_estimate(self, monkeypatch):
        # also through ``estimate``, which runs the estimator on a game over
        # the nodes of its own, so the calls are counted on the class
        game, _ = benchmark_game(seed=7, p=10, n_background=20, n_timepoints=3)
        calls = []
        fetch = SurvivalGame.values_for_masks
        monkeypatch.setattr(SurvivalGame, "values_for_masks",
                            lambda self, masks: calls.append(len(masks)) or fetch(self, masks))
        for method, (new, _) in sorted(ESTIMATORS.items()):
            for run in (new, lambda g, k, b, s, m=method: estimate(g, k, m, b, s)):
                calls.clear()
                _, info = _run(run, game, 2, 128, 0)
                assert calls == [info["evaluations"]], method


class TestEstimateChecks:
    """``estimate`` applies ``ApproximatorConfig``'s name and budget rules."""

    @pytest.mark.parametrize("method", ["mc", "permutation"])
    def test_budget_below_two_rejected(self, method):
        game, _ = benchmark_game(seed=5, p=4, n_background=10, n_timepoints=3)
        with pytest.raises(ValueError, match="budget must be at least 2"):
            estimate(game, 2, method, 1, 0)

    @pytest.mark.parametrize("method", ["mc", "permutation", "regression"])
    def test_runners_reject_a_budget_below_their_floor(self, method):
        game, _ = benchmark_game(seed=5, p=4, n_background=10, n_timepoints=3)
        with pytest.raises(ValueError, match="needs budget >=|budget must be at least 2"):
            estimators()[method](game, 1, 1, 0)

    def test_unknown_method_rejected(self):
        game, _ = benchmark_game(seed=5, p=4, n_background=10, n_timepoints=3)
        with pytest.raises(ValueError, match="unknown approximation method 'nope'"):
            estimate(game, 2, "nope", 64, 0)

    def test_benchmark_checks_every_budget_before_the_first_estimate(self, monkeypatch):
        monkeypatch.setattr(validation, "estimate", lambda *a: pytest.fail("an estimate ran"))
        with pytest.raises(ValueError, match=r"regression needs budget >= 2\*\(order\+1\)"):
            run_benchmark(budgets=(64, 4), repetitions=1, p=6, n_timepoints=3)

    def test_benchmark_runs_above_sixteen_features(self):
        # the exact oracle is bounded by the value engine's own limits only
        rows = run_benchmark(p=17, budgets=(64,), repetitions=1)
        assert [(r["method"], r["budget"]) for r in rows] == \
            [(m, 64) for m in estimators()]
        assert all(np.isfinite(r["mse"]) for r in rows)


class TestEstimateAtNodes:
    """Under a time basis, ``estimate`` runs the estimator on the plain game
    over the nodes and maps its curves to the grid once."""

    @pytest.mark.parametrize("method", sorted(estimators()))
    @pytest.mark.parametrize("scenario, target, r", [
        (8, PredictionTarget.HAZARD, 1), (10, PredictionTarget.LOG_HAZARD, 2)])
    def test_runner_gets_the_game_over_the_nodes(self, monkeypatch, method,
                                                 scenario, target, r):
        model = build_scenario(scenario)
        bg = sample_features(FeatureSampler.standard(3, seed=2), 32)
        game = SurvivalGame(model.prediction_function(target), X_STAR,
                            MarginalEmpiricalImputer(bg), build_time_grid(70, 11))
        nodes, basis_map = _width(game.predict, game.grid)
        assert nodes.size == r
        runner, seen = estimators()[method], []

        def recorded(g, *args):
            seen.append((g, runner(g, *args)))
            return seen[-1][1]
        monkeypatch.setattr(approximators, runner.__name__, recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            est, info = estimate(game, 2, method, 6, 0)
        [(inner, (ksii, inner_info))] = seen
        assert np.array_equal(inner.grid.points, game.grid.points[nodes])
        assert inner.grid.t_max == game.grid.t_max
        assert _width(inner.predict, inner.grid)[1] is None
        assert np.array_equal(inner.baseline(), game.baseline()[nodes])
        assert info == {**inner_info, "width": r}
        assert list(est) == list(ksii)
        want = _to_grid(np.array(list(ksii.values())), basis_map)
        for got, curve in zip(est.values(), want):
            assert np.array_equal(got, curve)


# ---------------------------------------------------------------------------
# the estimators' plan against one built target by target
# ---------------------------------------------------------------------------

class TestPlan:
    @pytest.mark.parametrize("p, k", [(p, k) for p in range(1, 13)
                                      for k in range(1, min(p, 4) + 1)] + [(30, 2)])
    def test_plan_matches_the_per_target_oracle(self, p, k):
        plan = _plan(p, k)
        targets = [K for K in coalition_iter(p, k) if K]
        sizes = [mask_size(K) for K in targets]
        subs = [oracles._submasks(K) for K in targets]
        assert plan.targets.tolist() == targets
        assert plan.targets[plan.sorter].tolist() == sorted(targets)
        assert plan.sizes.tolist() == sizes
        assert plan.first.tolist() == np.cumsum([0] + [1 << s for s in sizes])[:-1].tolist()
        assert plan.flat.tolist() == np.concatenate(subs).tolist()
        assert [signs.shape for signs in plan.signs] == [(1 << s,) for s in range(1, k + 1)]
        for i, s in enumerate(sizes):
            assert plan.signs[s - 1].tolist() == [-1.0 if (s - mask_size(int(L))) % 2
                                                  else 1.0 for L in subs[i]]
        assert list(plan.keys) == targets
        for a in [plan.targets, plan.sorter, plan.sizes, plan.first, plan.flat]:
            assert a.dtype == np.int64 and not a.flags.writeable
        for signs in plan.signs:
            assert signs.dtype == np.float64 and not signs.flags.writeable
        with pytest.raises(TypeError):
            plan.keys[targets[0]] = ()


def test_one_plan_serves_every_path():
    game, _ = benchmark_game(seed=5, p=5, n_background=10, n_timepoints=3)
    _plan.cache_clear()
    explain(game.predict, game.x, game.imputer, game.grid, 2, PredictionTarget.HAZARD)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for method in estimators():
            estimate(game, 2, method, 20, 0)
    assert _plan.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# the coalition sampler against the list-and-rejection sampler it replaced
# ---------------------------------------------------------------------------

def _popcounts(masks):
    return [bin(m).count("1") for m in masks.tolist()]


class TestSampler:
    @pytest.mark.parametrize("p", range(1, 13))
    def test_unrank_enumerates_in_combinations_order(self, p):
        for s in range(p + 1):
            want = [sum(1 << j for j in c) for c in itertools.combinations(range(p), s)]
            got = _unrank(p, np.full(len(want), s), np.arange(len(want)))
            assert got.dtype == np.int64 and got.tolist() == want

    @settings(max_examples=60)
    @given(p=st.integers(2, 20), data=st.data())
    def test_coalitions_match_the_list_sampler(self, p, data):
        # every C(p, s) up to p = 20 is within the list sampler's 200,000
        n_rows = data.draw(st.integers(0, min((1 << p) - 2, 3000)), label="rows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        self.assert_coalitions_match(p, n_rows, seed)

    # the largest strata: C(20, 10) = 184,756 of the list sampler's 200,000
    @pytest.mark.parametrize("p, n_rows", [(10, 1022), (16, 2046), (20, 2046), (20, 6000)])
    def test_large_strata_match_the_list_sampler(self, p, n_rows):
        self.assert_coalitions_match(p, n_rows, seed=p)

    @staticmethod
    def assert_coalitions_match(p, n_rows, seed):
        masks, weights = _sample_coalitions(p, n_rows, np.random.default_rng(seed))
        want, want_weights = oracles.sample_coalitions(
            p, n_rows, np.random.default_rng(seed))
        assert masks.dtype == np.int64 and masks.tolist() == want
        assert np.array_equal(weights, want_weights)

    @pytest.mark.parametrize("p", [21, 25, 30, 62])
    def test_coalitions_past_the_list_sampler(self, p):
        n_rows = 2046
        masks, weights = _sample_coalitions(p, n_rows, np.random.default_rng(p))
        assert masks.dtype == np.int64 and masks.size == weights.size == n_rows
        assert np.unique(masks).size == n_rows
        assert masks.min() > 0 and masks.max() < (1 << p) - 1
        # rows of one size are one stratum: equal weights, in one run
        sizes = np.array(_popcounts(masks))
        starts = np.flatnonzero(np.diff(sizes, prepend=-1))
        assert np.unique(sizes[starts]).size == starts.size
        for s, w in zip(sizes[starts], weights[starts]):
            assert np.all(weights[sizes == s] == w)
        again = _sample_coalitions(p, n_rows, np.random.default_rng(p))
        assert np.array_equal(masks, again[0]) and np.array_equal(weights, again[1])

    @pytest.mark.parametrize("p", [21, 25, 30, 62])
    def test_unrank_ends_and_sizes_past_the_list_sampler(self, p):
        for s in sorted({1, 2, p // 2, p - 1}):
            total = math.comb(p, s)
            ranks = np.random.default_rng(s).choice(total, size=min(total, 2000),
                                                    replace=False)
            masks = _unrank(p, np.full(ranks.size, s), ranks)
            assert np.unique(masks).size == ranks.size
            assert set(_popcounts(masks)) == {s}
            # lexicographic order is numeric order of the reversed bit strings
            order = np.argsort(ranks)
            keys = [int(format(m, f"0{p}b")[::-1], 2) for m in masks[order].tolist()]
            assert keys == sorted(keys, reverse=True)
            ends = _unrank(p, np.full(2, s), np.array([0, total - 1]))
            assert ends.tolist() == [(1 << s) - 1, ((1 << s) - 1) << (p - s)]
