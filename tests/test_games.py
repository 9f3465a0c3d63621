import numpy as np
import pytest

import oracles
from survix import games
from survix.approximators import estimate
from survix.core import PredictionTarget, build_time_grid, indices_from_mask
from survix.games import (
    ConditionalGaussianImputer,
    MarginalEmpiricalImputer,
    SurvivalGame,
    all_coalition_values,
    conditional_gaussian_params,
    evaluate_all_coalitions,
    reference_mean,
)
from survix.models import GroundTruthModel, RiskScoreSpec, RiskTerm
from survix.simulate import (
    T_MAX,
    build_scenario,
    dep_demo_covariance,
    pairwise_covariance,
    simulate_dataset,
)
from survix.validation import benchmark_model

EPS = np.finfo(float).eps

X_STAR = np.array([-1.2650, 2.4162, -0.6436])


def _marginal_game(scenario=1, target=PredictionTarget.LOG_HAZARD, n_bg=50,
                   seed=0, n_points=7):
    model = build_scenario(scenario)
    rng = np.random.default_rng(seed)
    bg = rng.standard_normal((n_bg, 3))
    grid = build_time_grid(70, n_points)
    game = SurvivalGame(model.prediction_function(target), X_STAR,
                        MarginalEmpiricalImputer(bg), grid)
    return game, model, bg, grid


class TestConditionalGaussian:
    def test_independent_features(self):
        mean = np.array([0.5, -1.0, 2.0])
        cov = np.eye(3)
        cm, cc = conditional_gaussian_params(mean, cov, [1], np.array([3.0]))
        assert np.allclose(cm, mean[[0, 2]])
        assert np.allclose(cc, np.eye(2))

    def test_bivariate_textbook_case(self):
        cov = pairwise_covariance(2, 0.9)
        cm, cc = conditional_gaussian_params(np.zeros(2), cov, [0],
                                             np.array([1.0]))
        assert cm[0] == pytest.approx(0.9, abs=1e-12)
        assert cc[0, 0] == pytest.approx(1 - 0.81, abs=1e-12)

    def test_chain_consistency(self):
        # conditioning on {0,1} and then on feature 2 within the reduced
        # Gaussian equals conditioning on {0,1,2} jointly
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        cov = A @ A.T + 4 * np.eye(4)
        s = np.sqrt(np.diag(cov))
        cov = cov / np.outer(s, s)
        mean = rng.standard_normal(4)
        x = rng.standard_normal(4)
        m_joint, c_joint = conditional_gaussian_params(mean, cov, [0, 1, 2],
                                                       x[[0, 1, 2]])
        m1, c1 = conditional_gaussian_params(mean, cov, [0, 1], x[[0, 1]])
        # the reduced 2-d Gaussian covers features (2, 3); condition on the
        # first of them
        m2, c2 = conditional_gaussian_params(m1, c1, [0], np.array([x[2]]))
        assert np.allclose(m2, m_joint, atol=1e-10)
        assert np.allclose(c2, c_joint, atol=1e-10)

    def test_errors(self):
        cov = np.eye(2)
        with pytest.raises(ValueError):
            conditional_gaussian_params(np.zeros(2), cov, [], np.array([]))
        with pytest.raises(ValueError):
            conditional_gaussian_params(np.zeros(2), cov, [0, 1], np.zeros(2))
        singular = np.ones((3, 3))
        with pytest.raises(ValueError):
            conditional_gaussian_params(np.zeros(3), singular, [0, 1],
                                        np.zeros(2))

    def test_imputer_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"covariance \(p, p\), got shapes \(3,\) "
                                             r"and \(2, 2\)"):
            ConditionalGaussianImputer(np.zeros(3), np.eye(2))
        with pytest.raises(ValueError, match="mean must be a vector"):
            ConditionalGaussianImputer(np.zeros((1, 2)), np.eye(2))

    def test_imputer_rejects_non_finite_covariance(self):
        cov = np.eye(3)
        cov[0, 2] = cov[2, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            ConditionalGaussianImputer(np.zeros(3), cov)


class TestMarginalGame:
    def test_empty_coalition_is_zero(self):
        game, _, _, _ = _marginal_game()
        assert np.array_equal(game.values_for_masks([0])[0], np.zeros(len(game.grid)))

    def test_full_coalition_is_centered_prediction(self):
        game, model, bg, grid = _marginal_game(target=PredictionTarget.HAZARD)
        full = game.values_for_masks([7])[0]
        pred = model.predict(X_STAR[None, :], grid.points,
                             PredictionTarget.HAZARD)[0]
        base = model.predict(bg, grid.points, PredictionTarget.HAZARD).mean(axis=0)
        assert np.allclose(full, pred - base, atol=1e-14)

    def test_single_row_background_reduction(self):
        model = build_scenario(1)
        bg = np.array([[0.1, 0.2, 0.3]])
        grid = build_time_grid(70, 3)
        predict = model.prediction_function(PredictionTarget.LOG_HAZARD)
        game = SurvivalGame(predict, X_STAR, MarginalEmpiricalImputer(bg), grid)
        mixed = np.array([X_STAR[0], 0.2, 0.3])
        expected = predict(mixed[None, :], grid.points)[0] - \
            predict(bg, grid.points)[0]
        assert np.allclose(game.values_for_masks([0b001])[0], expected, atol=1e-14)

    def test_dummy_feature_changes_nothing(self):
        # feature 2 is inert in dep_demo, so adding it to any coalition
        # leaves the value identical (same predictions row-for-row)
        model = build_scenario("dep_demo")
        rng = np.random.default_rng(2)
        bg = rng.standard_normal((40, 3))
        grid = build_time_grid(70, 5)
        game = SurvivalGame(model.prediction_function(PredictionTarget.LOG_HAZARD),
                            X_STAR, MarginalEmpiricalImputer(bg), grid)
        for mask in (0b000, 0b001, 0b010, 0b011):
            with_j = game.values_for_masks([mask | 0b100])[0]
            without = game.values_for_masks([mask])[0]
            # identical predictions row-for-row; only the mean's rounding and
            # the full-coalition shortcut separate the two values
            assert np.allclose(with_j, without, atol=1e-13, rtol=0)

    def test_background_order_invariance(self):
        game, model, bg, grid = _marginal_game(n_bg=64)
        rng = np.random.default_rng(9)
        game2 = SurvivalGame(model.prediction_function(PredictionTarget.LOG_HAZARD),
                             X_STAR,
                             MarginalEmpiricalImputer(bg[rng.permutation(64)]),
                             grid)
        assert np.allclose(game.values_for_masks(range(8)), game2.values_for_masks(range(8)),
                           atol=1e-12)


class TestConditionalGame:
    def _game(self, seed=0, n_samples=500):
        model = build_scenario("dep_demo")
        imp = ConditionalGaussianImputer(np.zeros(3), dep_demo_covariance(),
                                         n_samples=n_samples, seed=seed)
        grid = build_time_grid(70, 5)
        return SurvivalGame(
            model.prediction_function(PredictionTarget.LOG_HAZARD),
            X_STAR, imp, grid,
        ), model, grid

    def test_centering_exact(self):
        game, _, _ = self._game()
        assert np.array_equal(game.values_for_masks([0])[0], np.zeros(5))

    def test_full_coalition(self):
        game, model, grid = self._game()
        pred = model.predict(X_STAR[None, :], grid.points,
                             PredictionTarget.LOG_HAZARD)[0]
        assert np.allclose(game.values_for_masks([7])[0], pred - game.baseline(),
                           atol=1e-12)

    def test_seed_determinism(self):
        g1, _, _ = self._game(seed=3)
        g2, _, _ = self._game(seed=3)
        assert np.array_equal(g1.values_for_masks([0b101]), g2.values_for_masks([0b101]))


class TestBatchedRows:
    MASKS = [5, 0, 15, 5, 8, 3, 12, 0b0110]

    def _imputers(self):
        rng = np.random.default_rng(6)
        return [
            MarginalEmpiricalImputer(rng.standard_normal((7, 4))),
            ConditionalGaussianImputer(np.zeros(4), pairwise_covariance(4, 0.4),
                                       n_samples=7, seed=2),
        ]

    def test_batch_equals_single_mask_calls(self):
        # batches are mask-major: every reference row of mask j, then j + 1
        x = np.array([0.3, -1.1, 2.0, 0.7])
        for imputer in self._imputers():
            batch = imputer.rows_for(x, np.array(self.MASKS))
            assert batch.shape == (7 * len(self.MASKS), 4)
            by_mask = batch.reshape(len(self.MASKS), 7, 4)
            for j, m in enumerate(self.MASKS):
                assert (by_mask[j] == imputer.rows_for(x, m)).all()

    def test_marginal_rows_pin_coalition_features(self):
        x = np.array([0.3, -1.1, 2.0, 0.7])
        imputer = self._imputers()[0]
        for mask in range(16):
            expected = imputer.background.copy()
            for j in range(4):
                if mask >> j & 1:
                    expected[:, j] = x[j]
            assert (imputer.rows_for(x, mask) == expected).all()

    def test_failed_prediction_names_count_and_first_labels(self):
        rng = np.random.default_rng(1)
        bg = rng.standard_normal((3, 9))
        model = build_scenario(1)
        inner = model.prediction_function(PredictionTarget.LOG_HAZARD)

        def predict(X, t):
            if X.shape[0] > bg.shape[0]:
                raise FloatingPointError("overflow in batch")
            return inner(X[:, :3], t)

        game = SurvivalGame(predict, rng.standard_normal(9),
                            MarginalEmpiricalImputer(bg), build_time_grid(70, 3))
        with pytest.raises(RuntimeError) as info:
            game.values_for_masks(range(1, 501))
        msg = str(info.value)
        assert msg == ("prediction failed for 500 coalitions, starting ['1', '2', "
                       "'1+2', '3', '1+3', '2+3', '1+2+3', '4']: overflow in batch")
        assert isinstance(info.value.__cause__, FloatingPointError)


# features 0 and 1 are perfectly correlated up to the last bits: the
# conditional variance of one given the other rounds to 1.1e-16, 0 or
# -1.1e-16 by coalition, and masks 2, 5 and 6 need the 1e-12 jitter
JITTER_COV = np.array([[2.6032931990309582, 1.317452357841548, 0.0],
                       [1.317452357841548, 0.6667250219177535, 0.0],
                       [0.0, 0.0, 1.0]])


def _mask_lists(p, rng):
    """Every mask in descending order; the empty and full masks alone;
    random masks with duplicates, unsorted."""
    full = (1 << p) - 1
    drawn = rng.integers(0, full + 1, 30)
    return [np.arange(full + 1)[::-1], [0], [full],
            np.concatenate([drawn, [full, 0], drawn[:7], [0]])]


class TestRowsMatchTheOracles:
    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("p", [1, 3, 10, 12])
    def test_marginal_rows_are_the_gathered_rows(self, p, n):
        rng = np.random.default_rng(100 * p + n)
        background, x = rng.standard_normal((n, p)), rng.standard_normal(p)
        imputer = MarginalEmpiricalImputer(background)
        for masks in _mask_lists(p, rng):
            rows = imputer.rows_for(x, masks)
            assert rows.flags.f_contiguous
            assert np.array_equal(rows, oracles.marginal_rows(background, x, masks))

    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("p", [1, 3, 10, 12])
    def test_conditional_rows_are_the_per_call_solves(self, p, n):
        rng = np.random.default_rng(100 * p + n)
        imputer = ConditionalGaussianImputer(rng.standard_normal(p), pairwise_covariance(p, 0.4),
                                             n_samples=n, seed=p)
        x = rng.standard_normal(p)
        for masks in _mask_lists(p, rng):
            want = oracles.conditional_rows(imputer, x, masks)
            # a second call reads the plans the first one made
            for _ in range(2):
                assert np.array_equal(imputer.rows_for(x, masks), want)

    def test_conditional_rows_with_the_jitter(self):
        needs_jitter = []
        for mask in range(1, 7):
            cond_cov = games._conditional(JITTER_COV, np.array(indices_from_mask(mask)))[2]
            try:
                np.linalg.cholesky(cond_cov)
            except np.linalg.LinAlgError:
                needs_jitter.append(mask)
        assert needs_jitter == [2, 5, 6]
        imputer = ConditionalGaussianImputer(np.zeros(3), JITTER_COV, n_samples=5, seed=1)
        x = np.array([0.4, -1.3, 0.8])
        masks = np.arange(8)[::-1]
        rows = imputer.rows_for(x, masks)
        assert np.all(np.isfinite(rows))
        assert np.array_equal(rows, oracles.conditional_rows(imputer, x, masks))


def test_plan_cache_stays_under_its_byte_budget(monkeypatch):
    # 50 Monte-Carlo runs at p = 30 solve about 25k coalitions, three times
    # what the budget holds
    solved, solve = [], games._conditional

    def recorded(cov, cond):
        solved.append(sum(1 << int(i) for i in cond))
        return solve(cov, cond)
    monkeypatch.setattr(games, "_conditional", recorded)
    p = 30
    model = GroundTruthModel(0.03, RiskScoreSpec(p, (
        RiskTerm((0,), 0.5), RiskTerm((3, 17), -0.4), RiskTerm((29,), 0.2, time="log1p"))))
    imputer = ConditionalGaussianImputer(np.zeros(p), pairwise_covariance(p, 0.3),
                                         n_samples=3, seed=2)
    x = np.random.default_rng(4).standard_normal(p)
    game = SurvivalGame(model.prediction_function(PredictionTarget.LOG_HAZARD), x, imputer,
                        build_time_grid(70, 3))
    first = None
    for seed in range(50):
        estimate(game, 1, "mc", 512, seed)
        assert imputer._plan_bytes <= games._PLAN_BYTE_BUDGET
        assert imputer._plan_bytes == sum(a.nbytes for plan in imputer._plans.values()
                                          for a in plan)
        if first is None:
            first = {mask: imputer.rows_for(x, mask) for mask in imputer._plans}
    # the budget filled up: the first run's plans are kept, and a coalition
    # past the budget is solved again on each call, to the same rows
    assert imputer._plan_bytes > games._PLAN_BYTE_BUDGET - 16 * p * p
    assert set(first) <= set(imputer._plans)
    unkept = [mask for mask in solved if mask not in imputer._plans][-20:]
    assert len(unkept) == 20
    for mask, rows in first.items():
        assert np.array_equal(imputer.rows_for(x, mask), rows)
    rows = imputer.rows_for(x, unkept)
    assert np.array_equal(imputer.rows_for(x, unkept), rows)
    assert np.array_equal(rows, oracles.conditional_rows(imputer, x, unkept))


class TestMeansMatchTheInSequenceOracle:
    """Each coalition mean is a pairwise sum over a contiguous run of
    reference rows for a time-major prediction, and the reference rows added
    in sequence for a row-major one, as ``oracles.in_sequence_table`` adds
    them for both. The unit is n_ref eps max(1, M), M the largest |prediction|
    of any coalition's rows for x: about the most that adding the rows in
    sequence rounds a mean by. The largest gap seen below was 0.021 of it."""

    @staticmethod
    def _largest_gap(predict, X, imputer, grid):
        """Largest difference from the oracle over the rows of X, in units."""
        V = next(all_coalition_values(predict, X, imputer, grid,
                                      reference_mean(predict, imputer, grid)))
        gaps = []
        for x, table in zip(X, V):
            rows = imputer.rows_for(x, np.arange(1 << imputer.p))
            unit = imputer.n_reference * EPS * max(1.0, np.max(np.abs(predict(
                rows, grid.points))))
            want = oracles.in_sequence_table(predict, x, imputer, grid)
            gaps.append(np.max(np.abs(table - want)) / unit)
        return max(gaps)

    @pytest.mark.parametrize("scenario", range(1, 11))
    def test_criterion_one_blocks(self, scenario):
        # acceptance criterion 1's tables: 1000 rows, 41 points, one block
        # of eight instances
        model = build_scenario(scenario)
        X = simulate_dataset(scenario, n=1000, seed=7 + scenario)[0].features
        imputer, grid = MarginalEmpiricalImputer(X), build_time_grid(70, 41)
        for target in PredictionTarget:
            assert self._largest_gap(model.prediction_function(target), X[:8],
                                     imputer, grid) <= 1.0

    @pytest.mark.parametrize("target", [PredictionTarget.LOG_HAZARD, PredictionTarget.HAZARD],
                             ids=lambda t: t.value)
    def test_p12_table(self, target):
        model = benchmark_model(12)
        rng = np.random.default_rng(12)
        imputer = MarginalEmpiricalImputer(rng.standard_normal((100, 12)))
        assert self._largest_gap(model.prediction_function(target),
                                 rng.standard_normal((1, 12)), imputer,
                                 build_time_grid(T_MAX, 41)) <= 1.0

    def test_row_major_predictions_are_added_in_sequence(self):
        model = build_scenario(10)
        rng = np.random.default_rng(3)
        grid = build_time_grid(70, 11)
        X = rng.standard_normal((3, 3))
        imputers = [MarginalEmpiricalImputer(rng.standard_normal((40, 3))),
                    ConditionalGaussianImputer(np.zeros(3), pairwise_covariance(3, 0.4),
                                               n_samples=40, seed=1)]
        for target in PredictionTarget:
            time_major = model.prediction_function(target)

            def row_major(X, t):
                return np.ascontiguousarray(time_major(X, t))
            for imputer in imputers:
                V = next(all_coalition_values(row_major, X, imputer, grid,
                                              reference_mean(row_major, imputer, grid)))
                for x, table in zip(X, V):
                    assert np.array_equal(
                        table, oracles.in_sequence_table(row_major, x, imputer, grid))


class TestValueTable:
    def test_complete_table_shape_and_bounds(self):
        game, model, bg, grid = _marginal_game()
        table = evaluate_all_coalitions(game)
        assert table.shape == (8, len(grid))
        assert not table.flags.writeable
        assert np.array_equal(table[0], np.zeros(len(grid)))
        pred = model.predict(X_STAR[None, :], grid.points,
                             PredictionTarget.LOG_HAZARD)[0]
        assert np.allclose(table[7], pred - game.baseline(), atol=1e-13)

    def test_log_hazard_table_time_invariant_for_ph_scenario(self):
        game, _, _, _ = _marginal_game(scenario=1)
        table = evaluate_all_coalitions(game)
        spread = np.max(table, axis=1) - np.min(table, axis=1)
        assert np.all(spread <= 1e-12)

    def test_memory_guard(self, monkeypatch):
        game, _, _, _ = _marginal_game()
        monkeypatch.setattr(games, "_TABLE_BYTE_BUDGET", 16)
        with pytest.raises(MemoryError):
            evaluate_all_coalitions(game)
