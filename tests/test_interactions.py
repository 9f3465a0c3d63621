import itertools

import numpy as np
import pytest

from oracles import discrete_derivative, exact_sii, soum_game, soum_ksii, term_local_moebius
from survix.core import PredictionTarget, build_time_grid, mask_size
from survix.games import MarginalEmpiricalImputer, SurvivalGame, evaluate_all_coalitions
from survix.interactions import (
    ApproximatorConfig,
    aggregate_ksii,
    exact_ksii,
    explain,
    moebius_transform,
    reconstruct_from_moebius,
)
from survix.metrics import classify_time_dependence
from survix.models import _transform_fn
from survix.simulate import T_MAX, build_scenario, sample_features, FeatureSampler
from survix.validation import benchmark_model

X_STAR = np.array([-1.2650, 2.4162, -0.6436])


def table_from_values(p, values):
    """Single-timepoint (2^p, 1) table from a mask -> value mapping."""
    return np.array([[float(values[m])] for m in range(1 << p)])


def two_player_game():
    # nu(empty)=0, nu(1)=1, nu(2)=2, nu(12)=4
    return table_from_values(2, {0: 0.0, 1: 1.0, 2: 2.0, 3: 4.0})


def additive_table(p, coeffs, rng=None):
    values = {}
    for mask in range(1 << p):
        values[mask] = sum(c for j, c in enumerate(coeffs) if (mask >> j) & 1)
    return table_from_values(p, values)


def random_table(p, seed, T=3):
    vals = np.random.default_rng(seed).standard_normal((1 << p, T))
    vals[0] = 0.0
    return vals


def moebius_oracle(table):
    """Naive O(4^p) inclusion-exclusion, independent of the fast transform."""
    out = {}
    for S in range(table.shape[0]):
        acc = np.zeros(table.shape[1])
        for L in range(table.shape[0]):
            if L & ~S:
                continue
            sign = (-1) ** (bin(S).count("1") - bin(L).count("1"))
            acc = acc + sign * table[L]
        out[S] = acc
    return out


def shapley_permutation_oracle(table):
    p = table.shape[0].bit_length() - 1
    out = {1 << j: np.zeros(table.shape[1]) for j in range(p)}
    perms = list(itertools.permutations(range(p)))
    for perm in perms:
        mask = 0
        for j in perm:
            out[1 << j] += table[mask | (1 << j)] - table[mask]
            mask |= 1 << j
    return {m: v / len(perms) for m, v in out.items()}


class TestMoebius:
    def test_two_player_inclusion_exclusion(self):
        mo = moebius_transform(two_player_game())
        assert mo[0b11][0] == pytest.approx(4 - 1 - 2 + 0, abs=1e-14)
        assert mo[0b01][0] == pytest.approx(1.0, abs=1e-14)

    def test_additive_game_has_no_interactions(self):
        table = additive_table(4, [0.5, -1.0, 2.0, 0.3])
        mo = moebius_transform(table)
        for mask in range(1 << 4):
            if bin(mask).count("1") >= 2:
                assert abs(mo[mask][0]) < 1e-13

    def test_matches_naive_oracle(self):
        table = random_table(3, seed=10)
        mo = moebius_transform(table)
        oracle = moebius_oracle(table)
        for mask in range(8):
            assert np.allclose(mo[mask], oracle[mask], atol=1e-12)

    def test_reconstruction_identity(self):
        table = random_table(5, seed=11)
        recon = reconstruct_from_moebius(moebius_transform(table))
        assert np.allclose(recon, table, atol=1e-10)

    def test_incomplete_table_rejected(self):
        # a table is dense over all 2^p masks, p >= 1, one curve per mask
        for bad in (np.zeros((3, 1)), np.zeros((6, 2)), np.zeros((1, 1)),
                    np.zeros(4), np.zeros((1, 4, 1))):
            for transform in (moebius_transform, reconstruct_from_moebius,
                              lambda v: exact_ksii(v, 1)):
                with pytest.raises(ValueError, match=r"\(2\^p, T\) array with p >= 1"):
                    transform(bad)


class TestTermLocalOracle:
    @pytest.mark.parametrize("seed,p", [(3, 12), (4, 12), (3, 14), (4, 14)],
                             ids=["3", "4", "3-p14", "4-p14"])
    def test_wide_table_matches_per_term_alternating_sums(self, seed, p):
        # p - 3 inert features: five supported coalitions of 2^p
        model = benchmark_model(p)
        features = sample_features(FeatureSampler.standard(p, seed=seed), 101)
        x, background = features[0], features[1:]
        grid = build_time_grid(T_MAX, 11)
        game = SurvivalGame(model.prediction_function(PredictionTarget.LOG_HAZARD),
                            x, MarginalEmpiricalImputer(background), grid)
        mo = moebius_transform(evaluate_all_coalitions(game))
        oracle = term_local_moebius(model, x, background, grid.points)
        support = np.flatnonzero(np.abs(oracle).max(axis=1) > 0)
        assert sorted(support) == [0b1, 0b10, 0b11, 0b100, 0b101]
        # no imputed row predicts beyond |log lam| plus each term's |beta|
        # times its features' largest transformed magnitudes
        largest = abs(np.log(model.lam)) + sum(
            abs(t.beta) * np.prod([np.abs(_transform_fn(tag)(
                np.append(background[:, j], x[j]))).max()
                for j, tag in zip(t.features, t.transforms)])
            for t in model.risk.terms)
        # each value is a mean of 100 predictions, each within a few ulps,
        # and a coefficient adds 2^|A| of them over |A| levels
        sizes = np.array([mask_size(m) for m in range(1 << p)])
        bound = 2.0**sizes * (100 + sizes + 4) * np.finfo(float).eps * largest
        assert np.all(np.abs(mo - oracle).max(axis=1) <= bound)


class TestSoumClosedForm:
    @pytest.mark.parametrize("p", range(1, 11))
    def test_closed_form_matches_the_exact_path(self, p):
        rng = np.random.default_rng(p)
        terms = [(int(T), rng.normal(), rng.normal())
                 for T in rng.integers(1, 1 << p, size=10)]
        grid = build_time_grid(T_MAX, 7)
        table = evaluate_all_coalitions(soum_game(p, terms, grid))
        # every value sums at most len(terms) curves of |c_T| <= scale in
        # total, and the transform and the contraction make p passes over
        # them; measured at most 0.7 eps * scale
        scale = sum(abs(a) + abs(b) * np.log1p(grid.points) for _, a, b in terms).max()
        bound = (p + len(terms)) * np.finfo(float).eps * scale
        for k in range(1, p + 1):
            got, want = exact_ksii(table, k), soum_ksii(p, terms, k, grid.points)
            assert list(got) == list(want)
            assert max(np.abs(got[S] - want[S]).max() for S in want) <= bound


class TestDiscreteDerivative:
    def test_order_one_is_marginal_contribution(self):
        table = two_player_game()
        d = discrete_derivative(table, K=0b01, M=0b00)
        assert d[0] == pytest.approx(1.0)
        d = discrete_derivative(table, K=0b01, M=0b10)
        assert d[0] == pytest.approx(4.0 - 2.0)

    def test_pair_on_two_player_game(self):
        assert discrete_derivative(two_player_game(), 0b11, 0b00)[0] == \
            pytest.approx(1.0)

    def test_additive_game_pairs_vanish(self):
        table = additive_table(3, [1.0, 2.0, 3.0])
        for M in (0b000, 0b100):
            d = discrete_derivative(table, 0b011, M)
            assert abs(d[0]) < 1e-13

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            discrete_derivative(two_player_game(), 0b01, 0b01)


class TestExactSII:
    def test_two_player_shapley(self):
        sii = exact_sii(two_player_game(), 2)
        # oracle: permutation average, (1/2)(nu1-nu0) + (1/2)(nu12-nu2)
        assert sii[0b01][0] == pytest.approx(0.5 * 1 + 0.5 * 2)
        assert sii[0b10][0] == pytest.approx(0.5 * 2 + 0.5 * 3)
        assert sii[0b11][0] == pytest.approx(1.0)

    def test_matches_permutation_oracle(self):
        table = random_table(4, seed=12)
        sii = exact_sii(table, 1)
        oracle = shapley_permutation_oracle(table)
        for mask, curve in oracle.items():
            assert np.allclose(sii[mask], curve, atol=1e-12)

    def test_dummy_axiom(self):
        # feature 2 never changes the value
        rng = np.random.default_rng(13)
        base = {m: float(rng.standard_normal()) for m in range(4)}
        base[0] = 0.0
        values = {}
        for mask in range(8):
            values[mask] = base[mask & 0b011]
        table = table_from_values(3, values)
        sii = exact_sii(table, 3)
        for mask in sii:
            if mask & 0b100:
                assert abs(sii[mask][0]) < 1e-14

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            exact_sii(two_player_game(), 3)


class TestAggregation:
    def test_top_order_equals_raw_index(self):
        table = random_table(5, seed=14)
        for k in (2, 3):
            sii = exact_sii(table, k)
            agg = aggregate_ksii(sii, k, 5)
            for mask in sii:
                if bin(mask).count("1") == k:
                    assert np.allclose(agg[mask], sii[mask], atol=1e-13)

    def test_efficiency_at_every_order(self):
        table = random_table(5, seed=15)
        full = table[(1 << 5) - 1]
        for k in range(1, 6):
            agg = exact_ksii(table, k)
            assert np.allclose(sum(agg.values()), full, atol=1e-10)

    def test_order_one_is_shapley(self):
        table = random_table(4, seed=16)
        agg = exact_ksii(table, 1)
        oracle = shapley_permutation_oracle(table)
        for mask, curve in oracle.items():
            assert np.allclose(agg[mask], curve, atol=1e-10)

    def test_full_order_is_moebius(self):
        table = random_table(6, seed=17)
        agg = exact_ksii(table, 6)
        mo = moebius_transform(table)
        for mask, curve in agg.items():
            assert np.allclose(curve, mo[mask], atol=1e-12)

    def test_additive_game_any_order(self):
        coeffs = [0.7, -1.1, 0.4]
        table = additive_table(3, coeffs)
        for k in (1, 2, 3):
            agg = exact_ksii(table, k)
            for j, c in enumerate(coeffs):
                assert agg[1 << j][0] == pytest.approx(c, abs=1e-12)
            for mask in agg:
                if bin(mask).count("1") >= 2:
                    assert abs(agg[mask][0]) < 1e-12

    def test_fused_equals_composed(self):
        table = random_table(5, seed=18)
        for k in (1, 2, 4, 5):
            fused = exact_ksii(table, k)
            composed = aggregate_ksii(exact_sii(table, k), k, 5)
            for mask in fused:
                assert np.allclose(fused[mask], composed[mask], atol=1e-12)

    def test_linearity(self):
        t1 = random_table(4, seed=19)
        t2 = random_table(4, seed=20)
        a, b = 2.5, -0.75
        combo = a * t1 + b * t2
        k1 = exact_ksii(t1, 2)
        k2 = exact_ksii(t2, 2)
        kc = exact_ksii(combo, 2)
        for mask in kc:
            assert np.allclose(kc[mask], a * k1[mask] + b * k2[mask],
                               atol=1e-10)

    def test_symmetry(self):
        # a game invariant under swapping players 0 and 1 yields swapped
        # attributions
        rng = np.random.default_rng(21)
        values = {0: 0.0}
        for mask in range(1, 8):
            swapped = (mask & 0b100) | ((mask & 1) << 1) | ((mask & 2) >> 1)
            canon = min(mask, swapped)
            if canon not in values:
                values[canon] = float(rng.standard_normal())
            values[mask] = values[canon]
        table = table_from_values(3, values)
        agg = exact_ksii(table, 2)
        assert agg[0b001][0] == pytest.approx(agg[0b010][0], abs=1e-13)
        assert agg[0b101][0] == pytest.approx(agg[0b110][0], abs=1e-13)


class TestExplain:
    def _explain(self, scenario, target, order=2, seed=5, n_bg=400):
        model = build_scenario(scenario)
        bg = sample_features(FeatureSampler.standard(3, seed=seed), n_bg)
        grid = build_time_grid(70, 21)
        expl = explain(model.prediction_function(target), X_STAR,
                       MarginalEmpiricalImputer(bg), grid, order, target)
        pred = model.predict(X_STAR[None, :], grid.points, target)[0]
        return expl, pred

    def test_scenario9_time_dependence_pattern(self):
        expl, pred = self._explain(9, PredictionTarget.LOG_HAZARD)
        dependent, independent = classify_time_dependence(expl, tol=1e-6)
        assert (0,) in dependent
        for key in [(1,), (2,), (0, 1), (0, 2)]:
            assert key in independent
        assert np.max(np.abs(expl.values[(1, 2)])) < 1e-10

    def test_efficiency_all_targets(self):
        for target in PredictionTarget:
            expl, pred = self._explain(4, target)
            resid = np.abs(pred - expl.attribution_sum())
            assert np.max(resid) < 1e-9

    def test_additive_game_has_zero_pairs(self):
        expl, _ = self._explain(1, PredictionTarget.LOG_HAZARD)
        for key, curve in expl.values.items():
            if len(key) == 2:
                assert np.max(np.abs(curve)) < 1e-12

    def test_explanation_metadata(self):
        expl, _ = self._explain(3, PredictionTarget.HAZARD)
        assert expl.order == 2
        assert expl.info["method"] == "exact"
        assert set(len(k) for k in expl.values) == {1, 2}

    def test_one_feature_budget_covers_enumeration_for_every_method(self):
        # at p = 1 a budget of 2 enumerates both coalitions, so every method
        # is exact; regression's minimum applies only when it samples
        bg = np.linspace(-1.0, 1.0, 5)[:, None]
        grid = build_time_grid(70, 4)
        exact = explain(lambda X, t: X * np.log1p(t)[None, :], np.array([0.8]),
                        MarginalEmpiricalImputer(bg), grid, 1,
                        PredictionTarget.LOG_HAZARD)
        for method in ("mc", "permutation", "regression"):
            expl = explain(lambda X, t: X * np.log1p(t)[None, :], np.array([0.8]),
                           MarginalEmpiricalImputer(bg), grid, 1,
                           PredictionTarget.LOG_HAZARD,
                           method=ApproximatorConfig(method, 2))
            assert expl.info["method"] == "exact_fallback"
            assert np.array_equal(expl.values[(0,)], exact.values[(0,)])

    @pytest.mark.parametrize("budget, seed, message", [
        (20.0, 0, "budget must be an integer, got 20.0"),
        (20.5, 0, "budget must be an integer"),
        (True, 0, "budget must be an integer"),
        (20, -1, "seed must be a non-negative integer, got -1"),
        (20, 1.5, "seed must be a non-negative integer, got 1.5"),
        (20, 1.0, "seed must be a non-negative integer"),
    ])
    def test_config_rejects_non_integral_budget_and_bad_seed(self, budget, seed,
                                                             message):
        with pytest.raises(ValueError, match=message):
            ApproximatorConfig("mc", budget, seed=seed)

    def test_config_takes_numpy_integers(self):
        config = ApproximatorConfig("mc", np.int64(20), seed=np.uint32(7))
        assert config.budget == 20 and config.seed == 7

    def test_sampled_regression_below_minimum_budget_rejected(self):
        model = build_scenario(3)
        bg = sample_features(FeatureSampler.standard(3, seed=5), 20)
        with pytest.raises(ValueError, match="regression needs budget"):
            explain(model.prediction_function(PredictionTarget.HAZARD), X_STAR,
                    MarginalEmpiricalImputer(bg), build_time_grid(70, 3), 2,
                    PredictionTarget.HAZARD,
                    method=ApproximatorConfig("regression", 5))
