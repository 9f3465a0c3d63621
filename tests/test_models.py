import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from oracles import (
    QUAD_ABS_TOL,
    breslow_derivatives,
    coxph_survival,
    cumulative_hazard,
    eval_risk_score,
    eval_target,
)
from survix import models
from survix.core import PredictionTarget, SurvivalDataset
from survix.models import (
    ConvergenceError,
    CoxModel,
    GroundTruthModel,
    RiskScoreSpec,
    RiskTerm,
    fit_coxph,
    model_from_json,
    model_to_json,
)
from survix.simulate import build_scenario, simulate_dataset

X_STAR = np.array([-1.2650, 2.4162, -0.6436])

# x = (c0, c1) sets the time-constant and log1p-time loads directly
LOAD_MODEL = GroundTruthModel(lam=0.03, risk=RiskScoreSpec(2, (
    RiskTerm((0,), 1.0), RiskTerm((1,), 1.0, time="log1p"))))
# a = c1 + 1 spans bounded (a < 0), logarithmic (a = 0) and growing hazards
C1_LOADS = st.one_of(
    st.floats(-6.0, 4.0),
    st.just(-1.0),
    st.floats(-1e-6, 1e-6).map(lambda d: -1.0 + d),
)


class TestRiskScore:
    def test_scenario1_hand_value(self):
        # oracle: plain arithmetic on the published coefficients
        expected = 0.4 * -1.2650 + (-0.8) * 2.4162 + (-0.6) * -0.6436
        model = build_scenario(1)
        for t in (0.0, 5.0, 70.0):
            assert eval_risk_score(model.risk, X_STAR, t) == pytest.approx(
                expected, abs=1e-12
            )
        assert expected == pytest.approx(-2.0528, abs=1e-4)

    def test_empty_terms(self):
        risk = RiskScoreSpec(p=2, terms=())
        assert eval_risk_score(risk, np.zeros(2), 3.0) == 0.0

    def test_scenario2_time_zero_kills_log_term(self):
        expected = (-0.8) * 2.4162 + (-0.6) * -0.6436
        model = build_scenario(2)
        assert eval_risk_score(model.risk, X_STAR, 0.0) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(-1.5468, abs=1e-4)

    def test_dimension_error(self):
        model = build_scenario(1)
        with pytest.raises(ValueError):
            eval_risk_score(model.risk, np.zeros(2), 0.0)

    def test_term_validation(self):
        with pytest.raises(ValueError):
            RiskTerm((), 1.0)
        with pytest.raises(ValueError):
            RiskTerm((0, 1), 1.0, ("identity",))
        with pytest.raises(ValueError):
            RiskTerm((0,), 1.0, ("cube",))
        with pytest.raises(ValueError):
            RiskTerm((0,), 1.0, ("identity",), "sqrt")


class TestTargets:
    def test_hazard_hand_value(self):
        model = build_scenario(1)
        g = 0.4 * -1.2650 + (-0.8) * 2.4162 + (-0.6) * -0.6436
        expected = 0.03 * math.exp(g)
        assert eval_target(model, PredictionTarget.HAZARD, X_STAR, 3.0) == \
            pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.003851, abs=1e-6)

    def test_survival_closed_form_constant_hazard(self):
        model = build_scenario(1)
        h = eval_target(model, PredictionTarget.HAZARD, X_STAR, 0.0)
        expected = math.exp(-h * 70)
        assert eval_target(model, PredictionTarget.SURVIVAL, X_STAR, 70.0) == \
            pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.7637, abs=1e-4)

    def test_survival_at_zero_is_one(self):
        for scen in (1, 2, 10):
            model = build_scenario(scen)
            assert eval_target(model, PredictionTarget.SURVIVAL, X_STAR, 0.0) == 1.0

    def test_hazard_is_exp_log_hazard(self):
        rng = np.random.default_rng(5)
        for scen in (1, 4, 9):
            model = build_scenario(scen)
            for _ in range(5):
                x = rng.standard_normal(3)
                t = float(rng.uniform(0, 70))
                lh = eval_target(model, PredictionTarget.LOG_HAZARD, x, t)
                hz = eval_target(model, PredictionTarget.HAZARD, x, t)
                assert hz == pytest.approx(math.exp(lh), rel=1e-12)

    def test_time_independent_targets_are_time_invariant(self):
        model = build_scenario(8)
        for target in (PredictionTarget.LOG_HAZARD, PredictionTarget.HAZARD):
            vals = [eval_target(model, target, X_STAR, t) for t in (1, 10, 70)]
            assert max(vals) - min(vals) == 0.0

    def test_overflow_reported(self):
        model = GroundTruthModel(
            lam=1.0, risk=RiskScoreSpec(2, (RiskTerm((0,), 500.0),))
        )
        with pytest.raises(FloatingPointError):
            eval_target(model, PredictionTarget.HAZARD, np.array([5.0, 0.0]), 1.0)


class TestCumulativeHazard:
    def test_time_independent_closed_form_vs_quadrature(self):
        model = build_scenario(3)
        x = X_STAR
        for t in (1.0, 10.0, 70.0):
            closed = cumulative_hazard(model, x, t)
            g = eval_risk_score(model.risk, x, 0.0)
            ref, _ = integrate.quad(lambda u: 0.03 * math.exp(g), 0, t)
            assert closed == pytest.approx(ref, abs=1e-10)

    def test_zero_time(self):
        assert cumulative_hazard(build_scenario(2), X_STAR, 0.0) == 0.0

    def test_scenario2_vs_composite_trapezoid_oracle(self):
        # oracle: 1e4-point composite trapezoid on the hazard integrand
        model = build_scenario(2)
        x = X_STAR
        u = np.linspace(0, 10, 10_001)
        g = (0.4 * x[0] * np.log1p(u) + (-0.8) * x[1] + (-0.6) * x[2])
        oracle = np.trapezoid(0.03 * np.exp(g), u)
        assert cumulative_hazard(model, x, 10.0) == pytest.approx(oracle, abs=1e-8)

    def test_batch_matches_scalar(self):
        model = build_scenario(9)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3))
        times = np.array([2.0, 11.0, 33.0, 70.0])
        H = model.cumulative_hazard_matrix(X, times)
        for i in range(4):
            for j, t in enumerate(times):
                assert H[i, j] == pytest.approx(
                    cumulative_hazard(model, X[i], t), abs=1e-10, rel=1e-12
                )

    @pytest.mark.parametrize("scenario", [2, 4, 5, 7, 9, 10])
    def test_closed_form_matches_adaptive_quadrature(self, scenario):
        model = build_scenario(scenario)
        rng = np.random.default_rng(scenario)
        X = 1.5 * rng.standard_normal((6, 3))
        times = np.array([0.5, 3.4, 17.0, 41.0, 70.0])
        H = model.cumulative_hazard_matrix(X, times)
        oracle = np.array([[cumulative_hazard(model, x, t) for t in times] for x in X])
        assert np.max(np.abs(H - oracle) / oracle) < 1e-12

    @settings(max_examples=300)
    @given(c0=st.floats(-5.0, 5.0), c1=C1_LOADS, t=st.floats(0.0, 1e3))
    def test_closed_form_property_vs_adaptive_quadrature(self, c0, c1, t):
        x = np.array([c0, c1])
        H = LOAD_MODEL.cumulative_hazard_matrix(x[None, :], [t])[0, 0]
        assert H == pytest.approx(cumulative_hazard(LOAD_MODEL, x, t),
                                  rel=1e-12, abs=QUAD_ABS_TOL)

    def test_flat_load_takes_the_log_limit(self):
        # a = 0 exactly: H = lam * e^c0 * log1p(t)
        times = np.array([0.0, 1.0, 70.0])
        H = LOAD_MODEL.cumulative_hazard_matrix(np.array([[0.3, -1.0]]), times)[0]
        assert np.allclose(H, 0.03 * math.exp(0.3) * np.log1p(times), rtol=1e-15, atol=0)

    def test_survival_monotone_and_consistent(self):
        model = build_scenario(7)
        times = np.linspace(1, 70, 30)
        S = model.survival_matrix(X_STAR[None, :], times)[0]
        assert np.all(np.diff(S) <= 0)
        assert np.all((S > 0) & (S <= 1))
        H = model.cumulative_hazard_matrix(X_STAR[None, :], times)[0]
        assert np.allclose(S, np.exp(-H), rtol=0, atol=1e-14)


class TestModelJson:
    def test_round_trip(self, tmp_path):
        model = build_scenario(10)
        path = tmp_path / "m.json"
        model_to_json(model, path)
        back = model_from_json(path)
        assert back.lam == model.lam
        assert back.risk == model.risk


def _cox_data(n=800, seed=11):
    data, _ = simulate_dataset(1, n=n, seed=seed)
    return data


class TestCoxFit:
    def test_recovers_simulation_coefficients(self):
        model = fit_coxph(_cox_data())
        truth = np.array([0.4, -0.8, -0.6])
        assert np.all(np.abs(model.beta - truth) < 3 * model.stderr)

    def test_single_event_binary_feature(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        data = SurvivalDataset(X, np.array([1.0, 2.0, 3.0, 4.0]),
                               np.array([0, 1, 0, 0]))
        model = fit_coxph(data)
        assert np.all(np.isfinite(model.beta))
        assert model.baseline_times.size == 1

    def test_permutation_invariance(self):
        data = _cox_data(n=300, seed=4)
        model = fit_coxph(data)
        rng = np.random.default_rng(0)
        perm = rng.permutation(data.n)
        shuffled = SurvivalDataset(data.features[perm], data.times[perm],
                                   data.events[perm])
        model2 = fit_coxph(shuffled)
        assert np.allclose(model.beta, model2.beta, atol=1e-10, rtol=0)

    def test_feature_scaling_rescales_beta(self):
        data = _cox_data(n=400, seed=9)
        c = np.array([2.0, 0.5, 4.0])
        scaled = SurvivalDataset(data.features * c, data.times, data.events)
        m1 = fit_coxph(data)
        m2 = fit_coxph(scaled)
        assert np.allclose(m1.beta, m2.beta * c, atol=1e-6, rtol=0)

    def test_large_cohort_converges(self):
        # at n = 20k the log-likelihood's rounding error exceeds an absolute
        # step-halving guard of 1e-12, which stalled the Newton iterations
        model = fit_coxph(simulate_dataset(1, n=20000, seed=3)[0])
        assert model.iterations < 10
        truth = np.array([0.4, -0.8, -0.6])
        assert np.all(np.abs(model.beta - truth) < 3 * model.stderr)

    def test_scenario10_cohort_converges(self):
        model = fit_coxph(simulate_dataset(10, n=2000, seed=3940036142)[0])
        assert model.iterations < 10
        assert np.all(np.isfinite(model.beta))

    @pytest.mark.parametrize("columns", [[0, 0], [0, 1, 1], [2, 1, 0, 1]])
    def test_duplicated_column_names_the_singular_information(self, columns):
        data = _cox_data(n=300, seed=4)
        dup = SurvivalDataset(data.features[:, columns], data.times, data.events)
        with pytest.raises(ConvergenceError, match="singular information matrix"):
            fit_coxph(dup)

    def test_one_feature_fits(self):
        data = _cox_data(n=300, seed=4)
        model = fit_coxph(SurvivalDataset(data.features[:, :1], data.times,
                                          data.events))
        assert model.p == 1 and model.iterations < 10
        assert np.all(np.isfinite(model.beta)) and np.all(np.isfinite(model.stderr))

    def test_constant_column_rejected(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        data = SurvivalDataset(X, np.arange(1.0, 11.0), np.ones(10, dtype=int))
        with pytest.raises(ValueError):
            fit_coxph(data)

    def test_breslow_baseline_monotone(self):
        model = fit_coxph(_cox_data(n=200, seed=2))
        assert model.baseline_cumhaz[0] >= 0
        assert np.all(np.diff(model.baseline_cumhaz) >= 0)

    def test_json_round_trip(self, tmp_path):
        model = fit_coxph(_cox_data(n=200, seed=2))
        path = tmp_path / "cox.json"
        model.to_json(path)
        back = CoxModel.from_json(path)
        assert np.array_equal(back.beta, model.beta)
        assert np.array_equal(back.baseline_cumhaz, model.baseline_cumhaz)
        x = np.array([0.3, -0.2, 1.0])
        assert coxph_survival(back, x, 35.0) == coxph_survival(model, x, 35.0)


_BRESLOW_DERIVATIVES = models._breslow_derivatives


def _fit_coxph_oracle(data, tol=1e-8, max_iter=100):
    """The Newton loop that evaluates the derivatives again at each accepted
    beta and once more for the standard errors; fit_coxph must match it."""
    X = np.asarray(data.features, dtype=float)
    y = np.asarray(data.times, dtype=float)
    d = np.asarray(data.events, dtype=int)
    n, p = X.shape
    mean = X.mean(axis=0)
    Xc = X - mean
    order = np.argsort(y, kind="stable")
    Xs, ys, ds = Xc[order], y[order], d[order]
    risk_start = np.searchsorted(ys, ys, side="left")
    ev = np.flatnonzero(ds == 1)

    beta = np.zeros(p)
    trace = []
    for iteration in range(1, max_iter + 1):
        loglik, grad, info = models._breslow_derivatives(Xs, ds, risk_start, ev, beta)
        trace.append((iteration, float(loglik), float(np.linalg.norm(grad))))
        if np.linalg.norm(beta) > 50:
            raise ConvergenceError("diverging coefficients", trace)
        if np.linalg.norm(grad) < tol:
            break
        step = np.linalg.solve(info, grad)
        new_beta = beta + step
        for _ in range(30):
            new_ll = models._breslow_derivatives(Xs, ds, risk_start, ev, new_beta)[0]
            if new_ll >= loglik - 1e-12 * max(1.0, abs(loglik)):
                break
            step *= 0.5
            new_beta = beta + step
        beta = new_beta
    else:
        raise ConvergenceError(f"no convergence after {max_iter} iterations", trace)

    loglik, grad, info = models._breslow_derivatives(Xs, ds, risk_start, ev, beta)
    stderr = np.sqrt(np.diag(np.linalg.inv(info)))
    w = np.exp(Xs @ beta)
    s0 = np.cumsum(w[::-1])[::-1]
    event_times, first_idx, counts = np.unique(
        ys[ev], return_index=True, return_counts=True
    )
    cumhaz = np.cumsum(counts / s0[risk_start[ev][first_idx]])
    return CoxModel(beta=beta, baseline_times=event_times, baseline_cumhaz=cumhaz,
                    mean=mean, stderr=stderr, iterations=len(trace))


def _assert_same_fit(a, b):
    for name in ("beta", "baseline_times", "baseline_cumhaz", "mean", "stderr"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.iterations == b.iterations


def _count_derivatives(monkeypatch, penalised=()):
    """Wrap the derivative evaluation to count calls; the calls numbered in
    ``penalised`` report a far lower log-likelihood, so their trials fail."""
    real = _BRESLOW_DERIVATIVES
    calls = []

    def counted(*args):
        calls.append(None)
        loglik, grad, info = real(*args)
        if len(calls) in penalised:
            loglik -= 1e9
        return loglik, grad, info

    monkeypatch.setattr(models, "_breslow_derivatives", counted)
    return calls


class TestCoxFitOracle:
    @pytest.mark.parametrize("scenario, n, seed", [
        (1, 2000, 21), (10, 2000, 22), (1, 20000, 3), (10, 2000, 3940036142),
    ])
    def test_matches_the_repeated_evaluation_loop(self, scenario, n, seed, monkeypatch):
        data = simulate_dataset(scenario, n=n, seed=seed)[0]
        calls = _count_derivatives(monkeypatch)
        oracle = _fit_coxph_oracle(data)
        oracle_calls = len(calls)
        calls.clear()
        model = fit_coxph(data)
        _assert_same_fit(model, oracle)
        # the oracle evaluates again at each iteration's start and at the end
        assert len(calls) == oracle_calls - model.iterations

    def test_exhausted_step_halving_matches_oracle(self, monkeypatch):
        # calls 2..31 are the 30 trials of the first step: all fail, so the
        # first iteration ends on a beta no trial evaluated
        data = _cox_data(n=300, seed=4)
        calls = _count_derivatives(monkeypatch, penalised=range(2, 32))
        oracle = _fit_coxph_oracle(data)
        oracle_calls = len(calls)
        calls = _count_derivatives(monkeypatch, penalised=range(2, 32))
        model = fit_coxph(data)
        _assert_same_fit(model, oracle)
        # one extra evaluation, of the beta left by the last failed trial
        assert len(calls) == oracle_calls - model.iterations + 1


def _sorted_cohort(X, times, events):
    """Centred features, events, risk-set starts and event rows in time
    order, as fit_coxph prepares them."""
    X = np.asarray(X, dtype=float)
    order = np.argsort(times, kind="stable")
    ys = np.asarray(times, dtype=float)[order]
    ds = np.asarray(events, dtype=int)[order]
    risk_start = np.searchsorted(ys, ys, side="left")
    return (X - X.mean(axis=0))[order], ds, risk_start, np.flatnonzero(ds == 1)


def _cohort(name):
    """(features, times, events) of a named derivative-test cohort."""
    if name == "single_event":
        return (np.array([[0.0], [1.0], [0.0], [1.0]]),
                np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 1, 0, 0]))
    if name == "p10":
        rng = np.random.default_rng(7)
        X = rng.standard_normal((2000, 10))
        event = rng.exponential(np.exp(-X @ rng.normal(0.0, 0.3, 10)))
        censor = rng.exponential(2.0, 2000)
        return X, np.minimum(event, censor), (event <= censor).astype(int)
    if name in ("tied", "p1"):
        data = simulate_dataset(1, n=2000, seed=21)[0]
        if name == "tied":  # 70 distinct times
            return data.features, np.ceil(data.times), data.events
        return data.features[:, :1], data.times, data.events
    scenario, n, seed = name
    data = simulate_dataset(scenario, n=n, seed=seed)[0]
    return data.features, data.times, data.events


def _peak_bytes(fn, args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBreslowDerivatives:
    """The risk-set-weight derivatives against the (n, p, p) moment-sum
    oracle. The log-likelihood and gradient take the same operations, so
    they are equal. The information sums the same n-term products in another
    order; the forward-error bound of an n-term sum, n eps times the sum of
    the magnitudes, is held as n eps max|info| (c = 1)."""

    @pytest.mark.parametrize("name", [
        (1, 2000, 21), (10, 2000, 22), (1, 20000, 3), (10, 2000, 3940036142),
        "tied", "single_event", "p1", "p10",
    ], ids=str)
    def test_match_the_moment_sum_oracle(self, name):
        args = _sorted_cohort(*_cohort(name))
        n, p = args[0].shape
        rng = np.random.default_rng(1)
        for beta in (np.zeros(p), rng.normal(0.0, 0.5 / math.sqrt(p), p)):
            loglik, grad, info = models._breslow_derivatives(*args, beta)
            want_loglik, want_grad, want_info = breslow_derivatives(*args, beta)
            assert loglik == want_loglik
            assert np.array_equal(grad, want_grad)
            bound = n * np.finfo(float).eps * np.abs(want_info).max()
            assert np.abs(info - want_info).max() <= bound

    def test_memory_is_linear_in_n_p(self):
        n, p = 20000, 10
        rng = np.random.default_rng(0)
        args = (*_sorted_cohort(rng.standard_normal((n, p)), rng.exponential(size=n),
                                (rng.random(n) < 0.7).astype(int)), np.full(p, 0.1))
        bound = 6 * n * p * 8
        assert _peak_bytes(models._breslow_derivatives, args) <= bound
        # the oracle's (n, p, p) sums need 3 n p^2 8 bytes, 5x the bound
        assert _peak_bytes(breslow_derivatives, args) >= 3 * n * p * p * 8


class TestCoxSurvival:
    def test_time_zero_is_one(self):
        model = fit_coxph(_cox_data(n=200, seed=2))
        assert coxph_survival(model, np.zeros(3), 0.0) == 1.0

    def test_null_model_ignores_features(self):
        model = fit_coxph(_cox_data(n=200, seed=2))
        null = CoxModel(beta=np.zeros(3),
                        baseline_times=model.baseline_times,
                        baseline_cumhaz=model.baseline_cumhaz,
                        mean=model.mean)
        s1 = coxph_survival(null, np.array([5.0, -3.0, 2.0]), 20.0)
        s2 = coxph_survival(null, np.zeros(3), 20.0)
        assert s1 == s2

    def test_monotone_and_extrapolates_last_step(self):
        model = fit_coxph(_cox_data(n=200, seed=2))
        times = np.linspace(0, 200, 50)
        s = model.survival_matrix(np.array([[0.5, 0.5, 0.5]]), times)[0]
        assert np.all(np.diff(s) <= 1e-15)
        beyond = model.baseline_times[-1] * 2
        assert coxph_survival(model, np.zeros(3), beyond) == pytest.approx(
            coxph_survival(model, np.zeros(3), float(model.baseline_times[-1]))
        )
