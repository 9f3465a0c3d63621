import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import coxph_survival_matrix
from survix.core import (
    InteractionExplanation,
    PredictionTarget,
    SurvivalDataset,
    build_time_grid,
)
from survix.games import MarginalEmpiricalImputer
from survix.interactions import explain, explain_instances
from survix.metrics import (
    _step_lookup,
    approximation_error,
    censoring_km,
    classify_time_dependence,
    concordance_index,
    integrated_brier,
    local_accuracy,
    savgol_smooth,
    smooth_explanation,
)
from survix.models import fit_coxph
from survix.simulate import (
    FeatureSampler,
    build_scenario,
    sample_features,
    simulate_dataset,
)


def _expl(values, baseline=None, order=2, n_points=5, target=PredictionTarget.HAZARD):
    grid = build_time_grid(10, n_points)
    T = len(grid)
    baseline = np.zeros(T) if baseline is None else baseline
    return InteractionExplanation(order=order, target=target, grid=grid,
                                  baseline=baseline, values=values)


class TestLocalAccuracy:
    def test_full_order_decomposition_is_exact(self):
        model = build_scenario(4)
        X = sample_features(FeatureSampler.standard(3, seed=1), 120)
        grid = build_time_grid(70, 9)
        target = PredictionTarget.LOG_HAZARD
        predict = model.prediction_function(target)
        imp = MarginalEmpiricalImputer(X)
        expls = explain_instances(predict, X[:25], imp, grid, 3, target)
        preds = predict(X[:25], grid.points)
        curve = local_accuracy(expls, preds)
        assert np.all(curve.sigma < 1e-9)
        assert curve.mean < 1e-9

    def test_known_residual(self):
        # two instances, constructed so the reconstruction misses by exactly
        # (1, -1); predictions are identically 2, so sigma = 1/2 everywhere
        T = 5
        e1 = _expl({(0,): np.ones(T)})
        e2 = _expl({(0,): 3 * np.ones(T)})
        preds = np.full((2, T), 2.0)
        curve = local_accuracy([e1, e2], preds)
        assert np.allclose(curve.sigma, 0.5)
        assert curve.mean == pytest.approx(0.5)

    def test_instance_permutation_invariance(self):
        rng = np.random.default_rng(3)
        expls = [_expl({(0,): rng.standard_normal(5)}) for _ in range(6)]
        preds = rng.standard_normal((6, 5)) + 3.0
        a = local_accuracy(expls, preds).sigma
        order = [4, 2, 0, 5, 1, 3]
        b = local_accuracy([expls[i] for i in order], preds[order]).sigma
        assert np.allclose(a, b, atol=1e-12)

    def test_zero_scale_rejected(self):
        expls = [_expl({(0,): np.zeros(5)})]
        with pytest.raises(ValueError):
            local_accuracy(expls, np.zeros((1, 5)))


# -- oracles: the direct loops the vectorised metrics must equal exactly --

def _concordance_oracle(risk_scores, data):
    risk = np.asarray(risk_scores, dtype=float)
    y, d = data.times, data.events
    concordant = 0.0
    comparable = 0
    for i in range(data.n):
        if d[i] != 1:
            continue
        later = y > y[i]
        comparable += int(later.sum())
        concordant += np.sum(risk[later] < risk[i])
        concordant += 0.5 * np.sum(risk[later] == risk[i])
    if comparable == 0:
        raise ValueError("no comparable pairs in the dataset")
    return float(concordant / comparable)


def _censoring_km_oracle(data):
    y, d = data.times, data.events
    order = np.argsort(y, kind="stable")
    ys, ds = y[order], d[order]
    uniq, first = np.unique(ys, return_index=True)
    at_risk = ys.size - first
    censored = np.array([np.sum((ys == t) & (ds == 0)) for t in uniq])
    return uniq, np.cumprod(1.0 - censored / at_risk)


def _integrated_brier_oracle(surv, data, grid):
    y, d = data.times, data.events
    if grid.points[-1] >= y.max():
        raise ValueError("grid must end before the largest observed time")
    km_t, km_v = _censoring_km_oracle(data)
    g_at_y = _step_lookup(km_t, km_v, y, side="left")
    bs = np.empty(len(grid))
    for ti, t in enumerate(grid.points):
        g_at_t = _step_lookup(km_t, km_v, t, side="right")
        event_by_t = (y <= t) & (d == 1)
        at_risk = y > t
        if np.any(at_risk) and g_at_t <= 0:
            raise ValueError(f"censoring survival reaches 0 before t={t}")
        terms = np.zeros(data.n)
        if np.any(event_by_t):
            if np.any(g_at_y[event_by_t] <= 0):
                raise ValueError("zero censoring weight at an event time")
            terms[event_by_t] = surv[event_by_t, ti] ** 2 / g_at_y[event_by_t]
        if np.any(at_risk):
            terms[at_risk] = (1.0 - surv[at_risk, ti]) ** 2 / g_at_t
        bs[ti] = terms.mean()
    span = grid.points[-1] - grid.points[0]
    if span == 0:
        return float(bs[0])
    return float(np.trapezoid(bs, grid.points) / span)


def _outcome(fn, *args):
    """The value, or the message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _cohorts(draw):
    """Small cohorts with tied times, tied risks, heavy censoring or a single
    event, plus a survival matrix and a grid for the Brier score."""
    n = draw(st.integers(1, 200))
    time_levels = draw(st.sampled_from([2, 5, 10_000]))
    risk_levels = draw(st.sampled_from([1, 3, 10_000]))
    times = draw(st.lists(st.integers(0, time_levels), min_size=n, max_size=n))
    risks = draw(st.lists(st.integers(-risk_levels, risk_levels), min_size=n, max_size=n))
    censoring = draw(st.sampled_from(["none", "mixed", "heavy", "single"]))
    if censoring == "single":
        events = [0] * n
        events[draw(st.integers(0, n - 1))] = 1
    else:
        share = {"none": 1.0, "mixed": 0.5, "heavy": 0.05}[censoring]
        events = [int(u < share) for u in
                  draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=n, max_size=n))]
        events[0] = 1
    data = SurvivalDataset(np.zeros((n, 1)), np.array(times, float),
                           np.array(events, int))
    risk = 0.37 * np.array(risks, float)
    n_points = draw(st.integers(1, 6))
    grid = build_time_grid(draw(st.floats(0.1, 1.2)) * max(time_levels, 1), n_points)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    surv = rng.uniform(size=(n, n_points))
    return data, risk, surv, grid


def _tied_cohort(n, seed, time_levels=60, risk_levels=20, n_points=6):
    """A fixed cohort of n rows whose times and risks take few levels (many
    ties), with about 40% censoring; shaped like a _cohorts() draw."""
    rng = np.random.default_rng(seed)
    times = rng.integers(0, time_levels + 1, size=n).astype(float)
    events = (rng.uniform(size=n) < 0.6).astype(int)
    events[0] = 1
    data = SurvivalDataset(np.zeros((n, 1)), times, events)
    risk = 0.37 * rng.integers(-risk_levels, risk_levels + 1, size=n)
    grid = build_time_grid(0.8 * time_levels, n_points)
    return data, risk, rng.uniform(size=(n, n_points)), grid


@pytest.fixture(scope="module")
def scenario_fits():
    """Cox fits on all ten scenarios at n = 2000 with their grids."""
    fits = []
    for scenario in range(1, 11):
        data, _ = simulate_dataset(scenario, n=2000, seed=40 + scenario)
        cox = fit_coxph(data)
        grid = build_time_grid(min(65.0, 0.95 * float(data.times.max())), 41)
        fits.append((data, cox, grid))
    return fits


class TestMetricsEqualOracles:
    def test_scenarios_concordance(self, scenario_fits):
        for data, cox, _ in scenario_fits:
            risk = cox.linear_predictor(data.features)
            assert concordance_index(risk, data) == _concordance_oracle(risk, data)
            tied = np.round(risk, 1)
            assert concordance_index(tied, data) == _concordance_oracle(tied, data)

    def test_scenarios_censoring_km_and_brier(self, scenario_fits):
        for data, cox, grid in scenario_fits:
            km_t, km_v = censoring_km(data)
            oracle_t, oracle_v = _censoring_km_oracle(data)
            assert np.array_equal(km_t, oracle_t) and np.array_equal(km_v, oracle_v)
            surv = cox.survival_matrix(data.features, grid.points)
            assert np.array_equal(surv, coxph_survival_matrix(cox, data.features,
                                                              grid.points))
            assert integrated_brier(surv, data, grid) == \
                _integrated_brier_oracle(surv, data, grid)

    @settings(max_examples=200)
    @given(_cohorts())
    # every edge of the C-index's 32-row blocks, and one row per IBS block of
    # grid rows with many tied times and risks
    @example(_tied_cohort(1, seed=1))
    @example(_tied_cohort(31, seed=2, time_levels=10_000))
    @example(_tied_cohort(32, seed=3, time_levels=10_000))
    @example(_tied_cohort(33, seed=4))
    @example(_tied_cohort(64, seed=5, time_levels=10_000))
    @example(_tied_cohort(65, seed=6))
    @example(_tied_cohort(5000, seed=7, n_points=41))
    def test_small_cohorts(self, cohort):
        data, risk, surv, grid = cohort
        assert _outcome(concordance_index, risk, data) == \
            _outcome(_concordance_oracle, risk, data)
        km_t, km_v = censoring_km(data)
        oracle_t, oracle_v = _censoring_km_oracle(data)
        assert np.array_equal(km_t, oracle_t) and np.array_equal(km_v, oracle_v)
        assert _outcome(integrated_brier, surv, data, grid) == \
            _outcome(_integrated_brier_oracle, surv, data, grid)


class TestConcordance:
    def _data(self, times, events, p=1):
        X = np.zeros((len(times), p))
        return SurvivalDataset(X, np.asarray(times, float),
                               np.asarray(events, int))

    def test_perfect_ordering(self):
        data = self._data([1, 2, 3, 4], [1, 1, 1, 1])
        risk = np.array([4.0, 3.0, 2.0, 1.0])
        assert concordance_index(risk, data) == 1.0

    def test_constant_risk_is_half(self):
        data = self._data([1, 2, 3, 4], [1, 1, 1, 1])
        assert concordance_index(np.ones(4), data) == 0.5

    def test_hand_case_two_thirds(self):
        # times 1<2<3 all events, risks (3,1,2):
        # pairs (1,2): 3>1 ok; (1,3): 3>2 ok; (2,3): 1<2 wrong -> 2/3
        data = self._data([1, 2, 3], [1, 1, 1])
        assert concordance_index(np.array([3.0, 1.0, 2.0]), data) == \
            pytest.approx(2 / 3)

    def test_censored_pairs_excluded(self):
        data = self._data([1, 2, 3], [0, 1, 1])
        # only the (2,3) pair is comparable
        assert concordance_index(np.array([0.0, 5.0, 1.0]), data) == 1.0

    def test_no_comparable_pairs(self):
        data = self._data([2.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            concordance_index(np.array([1.0, 2.0]), data)

    def test_length_mismatch_rejected(self):
        data = self._data([1, 2, 3], [1, 1, 1])
        with pytest.raises(ValueError, match="length 3"):
            concordance_index(np.array([1.0, 2.0]), data)

    def test_non_finite_risk_rejected(self):
        # the direct loop scored this 0.0: every comparison with NaN is false
        data = self._data([1, 2, 3], [1, 1, 1])
        with pytest.raises(ValueError, match="finite"):
            concordance_index(np.array([np.nan, 1.0, 2.0]), data)
        with pytest.raises(ValueError, match="finite"):
            concordance_index(np.array([np.inf, 1.0, 2.0]), data)


class TestIntegratedBrier:
    def test_oracle_predictions_score_zero(self):
        times = np.array([2.0, 4.0, 6.0, 8.0])
        data = SurvivalDataset(np.zeros((4, 1)), times, np.ones(4, int))
        grid = build_time_grid(7.0, 7)
        surv = (grid.points[None, :] < times[:, None]).astype(float)
        assert integrated_brier(surv, data, grid) == pytest.approx(0.0, abs=1e-12)

    def test_constant_half_scores_quarter(self):
        times = np.array([2.0, 4.0, 6.0, 8.0])
        data = SurvivalDataset(np.zeros((4, 1)), times, np.ones(4, int))
        grid = build_time_grid(7.0, 7)
        surv = np.full((4, 7), 0.5)
        assert integrated_brier(surv, data, grid) == pytest.approx(0.25, abs=1e-12)

    def test_no_censoring_equals_unweighted_average(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(1, 10, size=30)
        data = SurvivalDataset(np.zeros((30, 1)), times, np.ones(30, int))
        grid = build_time_grid(float(times.max()) * 0.9, 9)
        surv = np.clip(rng.uniform(size=(30, 9)), 0.01, 0.99)
        ibs = integrated_brier(surv, data, grid)
        # unweighted oracle
        bs = np.empty(9)
        for ti, t in enumerate(grid.points):
            label = (times > t).astype(float)
            bs[ti] = np.mean((label - surv[:, ti]) ** 2)
        oracle = np.trapezoid(bs, grid.points) / (grid.points[-1] - grid.points[0])
        assert ibs == pytest.approx(oracle, abs=1e-12)

    def test_censoring_km_hand_case(self):
        # censorings at t=2 (3 at risk) and t=3 (2 at risk):
        # G = 1, then 2/3, then 1/3
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 0, 0, 1])
        data = SurvivalDataset(np.zeros((4, 1)), times, events)
        km_t, km_v = censoring_km(data)
        assert km_t.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert np.allclose(km_v, [1.0, 2 / 3, 1 / 3, 1 / 3])

    def test_non_finite_or_out_of_range_survival_rejected(self):
        # the censored row's cells were ignored, and a NaN elsewhere gave nan
        data = SurvivalDataset(np.zeros((3, 1)), np.array([1.0, 2.0, 5.0]),
                               np.array([1, 0, 1]))
        grid = build_time_grid(4.0, 4)
        for row, value in ((1, np.nan), (0, np.nan), (2, np.inf), (0, -np.inf),
                           (2, 1.5), (1, -1e-300)):
            surv = np.full((3, 4), 0.5)
            surv[row, 3] = value
            with pytest.raises(ValueError, match="finite and lie in"):
                integrated_brier(surv, data, grid)

    def test_grid_must_end_before_last_time(self):
        data = SurvivalDataset(np.zeros((2, 1)), np.array([1.0, 5.0]),
                               np.array([1, 1]))
        with pytest.raises(ValueError):
            integrated_brier(np.full((2, 3), 0.5), data, build_time_grid(6.0, 3))


class TestSavgol:
    def test_constant_series_unchanged(self):
        series = np.full(30, 2.5)
        assert np.allclose(savgol_smooth(series, 11, 3), series, atol=1e-12)

    def test_quadratic_reproduced(self):
        t = np.linspace(0, 1, 41)
        series = 3 * t ** 2 - 2 * t + 0.5
        assert np.allclose(savgol_smooth(series, 11, 3), series, atol=1e-10)

    def test_interior_matches_convolution_oracle(self):
        # oracle: per-window least-squares polynomial fit evaluated at the
        # window center
        rng = np.random.default_rng(7)
        series = rng.standard_normal(60)
        window, order = 11, 3
        sm = savgol_smooth(series, window, order)
        half = window // 2
        x = np.arange(window) - half
        for center in range(half, 60 - half):
            seg = series[center - half:center + half + 1]
            coeffs = np.polyfit(x, seg, order)
            assert sm[center] == pytest.approx(np.polyval(coeffs, 0.0),
                                               abs=1e-10)

    def test_step_series_bounded(self):
        series = np.concatenate([np.zeros(20), np.ones(20)])
        sm = savgol_smooth(series, 11, 3)
        assert sm.shape == series.shape
        assert np.all(sm > -0.5) and np.all(sm < 1.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            savgol_smooth(np.zeros(20), 10, 3)
        with pytest.raises(ValueError):
            savgol_smooth(np.zeros(20), 11, 11)
        with pytest.raises(ValueError):
            savgol_smooth(np.zeros(5), 11, 3)

    def test_smooth_explanation_preserves_structure(self):
        rng = np.random.default_rng(8)
        expl = _expl({(0,): rng.standard_normal(15), (1,): np.ones(15)},
                     baseline=np.ones(15), n_points=15)
        sm = smooth_explanation(expl)
        assert set(sm.values) == set(expl.values)
        assert np.allclose(sm.values[(1,)], 1.0, atol=1e-12)
        assert sm.info.get("smoothed") is True


class TestClassification:
    def test_scale_consistency(self):
        rng = np.random.default_rng(9)
        values = {(0,): rng.standard_normal(8), (1,): np.full(8, 0.3)}
        expl = _expl(values, n_points=8)
        c = 37.5
        scaled = _expl({k: c * v for k, v in values.items()}, n_points=8)
        tol = 0.5
        assert classify_time_dependence(expl, tol) == \
            classify_time_dependence(scaled, c * tol)

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(10)
        values = {(0,): rng.standard_normal(8), (1,): np.zeros(8),
                  (0, 1): np.full(8, 2.0)}
        expl = _expl(values, n_points=8)
        dep, indep = classify_time_dependence(expl, 1e-6)
        assert dep | indep == set(values)
        assert not dep & indep
        assert (0,) in dep and (1,) in indep and (0, 1) in indep

    def test_needs_two_points(self):
        expl = _expl({(0,): np.ones(1)}, n_points=1)
        with pytest.raises(ValueError):
            classify_time_dependence(expl, 1e-6)


class TestApproximationError:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(11)
        expl = _expl({(0,): rng.standard_normal(5), (1,): rng.standard_normal(5)})
        assert approximation_error(expl, expl) == 0.0

    def test_single_perturbation(self):
        rng = np.random.default_rng(12)
        values = {(0,): rng.standard_normal(5), (1,): rng.standard_normal(5)}
        exact = _expl(values)
        delta = 0.3
        perturbed = {k: v.copy() for k, v in values.items()}
        perturbed[(0,)] = perturbed[(0,)].copy()
        perturbed[(0,)][2] += delta
        approx = _expl(perturbed)
        n_entries = 2 * 5
        assert approximation_error(approx, exact) == \
            pytest.approx(delta ** 2 / n_entries, abs=1e-15)

    def test_shape_mismatch(self):
        e1 = _expl({(0,): np.zeros(5)}, order=1)
        e2 = _expl({(1,): np.zeros(5)}, order=1)
        with pytest.raises(ValueError):
            approximation_error(e1, e2)
