import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cumulative_hazard,
    cumulative_hazard_matrix,
    scenario_catalog,
    simulate_event_time,
)
from survix.core import SurvivalDataset
from survix.models import GroundTruthModel, RiskScoreSpec, RiskTerm
from survix.simulate import (
    _TIME_CAP,
    SCENARIO_IDS,
    FeatureSampler,
    apply_censoring,
    build_scenario,
    ground_truth_partition,
    sample_features,
    simulate_dataset,
    simulate_event_times,
)

X_STAR = np.array([-1.2650, 2.4162, -0.6436])

# x = (c0, c1) sets the time-constant and log1p-time loads directly
LOAD_MODEL = GroundTruthModel(lam=0.03, risk=RiskScoreSpec(2, (
    RiskTerm((0,), 1.0), RiskTerm((1,), 1.0, time="log1p"))))
C1_LOADS = st.one_of(
    st.floats(-6.0, 4.0),
    st.just(-1.0),
    st.floats(-1e-6, 1e-6).map(lambda d: -1.0 + d),
)
UNIFORMS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestScenarioCatalog:
    def test_scenario1_linear_time_independent(self):
        model = build_scenario(1)
        assert len(model.risk.terms) == 3
        assert model.time_independent
        assert model.lam == 0.03

    def test_scenario10_time_dependent_interaction(self):
        model = build_scenario(10)
        last = model.risk.terms[-1]
        assert last.features == (0, 2)
        assert last.transforms == ("identity", "square")
        assert last.time == "log1p"
        assert ground_truth_partition(10) == frozenset({(0, 2)})

    def test_dep_demo_has_inert_third_feature(self):
        model = build_scenario("dep_demo")
        assert len(model.risk.terms) == 2
        used = {j for term in model.risk.terms for j in term.features}
        assert used == {0, 1}
        assert model.risk.p == 3

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            build_scenario(11)

    def test_each_entry_equals_the_fully_built_catalogue(self):
        catalog = scenario_catalog()
        assert set(catalog) == set(SCENARIO_IDS)
        for scenario in SCENARIO_IDS:
            assert build_scenario(scenario) == catalog[scenario]


class TestFeatureSampling:
    def test_independent_features_uncorrelated(self):
        sampler = FeatureSampler.standard(3, seed=5, rho=0.0)
        X = sample_features(sampler, 100_000)
        corr = np.corrcoef(X.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.02)

    def test_strong_correlation_recovered(self):
        sampler = FeatureSampler.standard(3, seed=5, rho=0.9)
        X = sample_features(sampler, 100_000)
        assert abs(np.corrcoef(X[:, 0], X[:, 1])[0, 1] - 0.9) < 0.02

    def test_same_seed_identical(self):
        sampler = FeatureSampler.standard(4, seed=42, rho=0.2)
        assert np.array_equal(sample_features(sampler, 100),
                              sample_features(sampler, 100))

    def test_not_positive_definite_rejected(self):
        cov = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValueError):
            FeatureSampler(p=2, mean=np.zeros(2), covariance=cov, seed=0)


class TestEventTimes:
    def test_closed_form_hand_value(self):
        model = build_scenario(1)
        g = 0.4 * X_STAR[0] - 0.8 * X_STAR[1] - 0.6 * X_STAR[2]
        expected = -math.log(0.5) / (0.03 * math.exp(g))
        t = simulate_event_time(model, X_STAR, 0.5)
        assert t == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(180.0, abs=0.1)

    def test_u_near_one_gives_tiny_times(self):
        model = build_scenario(1)
        t = simulate_event_time(model, X_STAR, 1 - 1e-12)
        assert 0 < t < 1e-8

    @pytest.mark.parametrize("scenario", [1, 3, 6, 8])
    def test_root_finder_matches_closed_form_on_ph_models(self, scenario):
        # cross-check oracle: a zero-coefficient time term forces the general
        # time-dependent inversion while leaving the hazard unchanged
        model = build_scenario(scenario)
        forced = GroundTruthModel(
            lam=model.lam,
            risk=RiskScoreSpec(
                p=3, terms=model.risk.terms + (RiskTerm((0,), 0.0, time="log1p"),)
            ),
        )
        assert not forced.time_independent
        rng = np.random.default_rng(17)
        X = rng.standard_normal((50, 3))
        U = rng.uniform(0.01, 0.99, size=50)
        closed = simulate_event_times(model, X, U)
        rooted = simulate_event_times(forced, X, U)
        assert np.all(np.abs(closed - rooted) / np.maximum(closed, 1.0) < 1e-6)

    def test_root_residual_below_tolerance(self):
        model = build_scenario(2)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 3))
        U = rng.uniform(0.05, 0.95, size=30)
        times = simulate_event_times(model, X, U)
        for x, u, t in zip(X, U, times):
            if math.isfinite(t):
                assert abs(cumulative_hazard(model, x, t) + math.log(u)) < 1e-9

    def test_unreachable_event_returns_sentinel(self):
        # negative time-dependent load makes the cumulative hazard bounded
        model = GroundTruthModel(
            lam=0.001,
            risk=RiskScoreSpec(1, (RiskTerm((0,), -4.0, time="log1p"),)),
        )
        t = simulate_event_time(model, np.array([1.0]), 0.05)
        assert t == math.inf

    def test_time_cap_applies_to_both_hazard_forms(self):
        # the proportional-hazards shortcut and the general inversion of the
        # same hazard (zero-coefficient log1p term) both cap at _TIME_CAP
        model = build_scenario(1)
        forced = GroundTruthModel(
            lam=model.lam,
            risk=RiskScoreSpec(
                p=3, terms=model.risk.terms + (RiskTerm((0,), 0.0, time="log1p"),)
            ),
        )
        x = np.array([-10.0, 10.0, 10.0])
        assert simulate_event_time(model, x, 0.5) == math.inf
        assert simulate_event_time(forced, x, 0.5) == math.inf

    @settings(max_examples=300)
    @given(c0=st.floats(-5.0, 5.0), c1=C1_LOADS, u=UNIFORMS)
    def test_inversion_round_trip(self, c0, c1, u):
        x = np.array([c0, c1])
        t = simulate_event_time(LOAD_MODEL, x, u)
        if math.isfinite(t):
            H = cumulative_hazard_matrix(LOAD_MODEL, x[None, :], [t])[0, 0]
            assert H == pytest.approx(-math.log(u), rel=1e-12)

    @settings(max_examples=300)
    @given(c0=st.floats(-5.0, 5.0), c1=st.floats(-6.0, -1.0, exclude_max=True),
           u=UNIFORMS)
    def test_infinite_exactly_when_bounded_below_target(self, c0, c1, u):
        # for a = c1 + 1 < 0, H rises to lam * e^c0 / (-a) and never beyond
        x = np.array([c0, c1])
        target = -math.log(u)
        bound = 0.03 * math.exp(c0) / -(c1 + 1.0)
        t = simulate_event_time(LOAD_MODEL, x, u)
        if bound <= target * (1 - 1e-12):
            assert t == math.inf
        elif bound > target * (1 + 1e-12):
            H_cap = cumulative_hazard_matrix(LOAD_MODEL, x[None, :], [_TIME_CAP])[0, 0]
            # reachable: finite unless the event lies beyond the horizon cap
            assert math.isfinite(t) == (H_cap >= target)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError):
            simulate_event_time(build_scenario(1), X_STAR, 0.0)

    def test_empirical_survival_matches_analytic(self):
        model = build_scenario(1)
        g = float(model.risk.term_products(X_STAR[None, :]).sum())
        rate = 0.03 * math.exp(g)
        rng = np.random.default_rng(123)
        U = rng.uniform(size=100_000)
        U = np.clip(U, 1e-12, 1 - 1e-12)
        times = simulate_event_times(model, np.tile(X_STAR, (U.size, 1)), U)
        for t in (10.0, 30.0, 50.0):
            s_true = math.exp(-rate * t)
            s_hat = float(np.mean(times > t))
            se = math.sqrt(s_true * (1 - s_true) / U.size)
            assert abs(s_hat - s_true) < 3 * se


class TestCensoring:
    def test_forced_censoring(self):
        y, d = apply_censoring([180.0], 70)
        assert y.tolist() == [70.0] and d.tolist() == [0]

    def test_event_kept(self):
        y, d = apply_censoring([12.3], 70)
        assert y.tolist() == [12.3] and d.tolist() == [1]

    def test_all_censored_surfaces_dataset_error(self):
        y, d = apply_censoring([100.0, 90.0, 80.0], 70)
        with pytest.raises(ValueError):
            SurvivalDataset(np.zeros((3, 2)), y, d)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            apply_censoring([1.0], 0.0)


class TestSimulateDataset:
    def test_metadata_and_determinism(self):
        d1, m1 = simulate_dataset(1, n=500, seed=3)
        d2, m2 = simulate_dataset(1, n=500, seed=3)
        assert m1["censoring_rate"] == m2["censoring_rate"]
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.times, d2.times)
        assert set(m1) == {"scenario", "seed", "n", "rho", "t_max",
                           "censoring_rate"}

    def test_dep_demo_correlation_structure(self):
        data, _ = simulate_dataset("dep_demo", n=50_000, seed=8)
        corr = np.corrcoef(data.features.T)
        assert abs(corr[0, 2] - 0.9) < 0.02
        assert abs(corr[0, 1]) < 0.02
