"""The ground-truth predictor against the term-matrix oracle.

Every scale of every catalogued model predicts time-major: the (m, T) view
of a C-ordered (T, m) buffer. Survival, the cumulative hazard and the
time-independent scales are bit for bit what the term-matrix predictor in
``tests/oracles.py`` predicts, at every batch size. The time-dependent
log-hazard and hazard add c0 + c1 log1p(t) element-wise, where the oracle
takes a term-matrix product, so they are held to the forward-error bound of
summing the terms' contributions in another order. Every scale's rows, and a
Cox model's linear predictor and survival rows, do not depend on their
batch, nor on whether X is row- or column-major, as the marginal imputer's
rows are, and a permutation of the times permutes the columns. A scale
checks finiteness at the earliest and the latest time only, and raises
exactly when a check of its whole buffer would. Models with eight or more
terms of one kind sum their loads in term order; the oracle's numpy row sum
does too on two or more rows, but pairs the terms differently on one row,
so those models are held to the forward-error bound of summation instead.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from survix import models
from survix.core import PredictionTarget, build_time_grid
from survix.models import CoxModel, GroundTruthModel, RiskScoreSpec, RiskTerm
from survix.simulate import T_MAX, build_scenario
from survix.validation import benchmark_model

EPS = np.finfo(float).eps
TIMES = np.concatenate([[0.0], build_time_grid(T_MAX, 41).points])
BATCH_SIZES = (1, 7, 64, 6000)

CATALOG = {f"scenario{s}": build_scenario(s) for s in range(1, 11)}
CATALOG["dep_demo"] = build_scenario("dep_demo")
CATALOG["benchmark_model10"] = benchmark_model(10)
CATALOG["benchmark_model12"] = benchmark_model(12)

_TRANSFORMS = ("identity", "square", "scaled_arctan(1.7)")


def many_terms(time: str, n: int = 9) -> GroundTruthModel:
    """n terms of one time kind over four features, plus one of the other
    kind for the time-dependent case."""
    terms = tuple(RiskTerm((i % 4, (i + 1) % 4), 0.3 - 0.07 * i,
                           (_TRANSFORMS[i % 3], _TRANSFORMS[(i + 1) % 3]), time)
                  for i in range(n))
    if time == "log1p":
        terms += (RiskTerm((2,), -0.4),)
    return GroundTruthModel(lam=0.03, risk=RiskScoreSpec(4, terms))


MANY = {"many_constant": many_terms("constant"), "many_log1p": many_terms("log1p")}


def features(model, m, seed=5):
    return 1.5 * np.random.default_rng(seed).standard_normal((m, model.p))


def _within_risk_bound(model, X):
    """The time-dependent log-hazard of X, and its hazard relative to itself,
    within (n_terms + 2) eps (sum |term * time factor| + |log lam|) of the
    oracle's: two summation orders of n_terms + 1 addends, the exponential
    and the scaling by lam. Over the catalogue and ``many_log1p``, the
    largest error seen was 3.0 eps times that sum, on ``many_log1p``."""
    magnitude = np.abs(oracles.term_products(model.risk, X)) @ oracles.time_factors(
        model.risk, TIMES)
    bound = (len(model.risk.terms) + 2) * EPS * (magnitude + abs(math.log(model.lam)))
    lh = model.predict(X, TIMES, PredictionTarget.LOG_HAZARD)
    lh_ref = oracles.term_matrix_predict(model, X, TIMES, PredictionTarget.LOG_HAZARD)
    assert np.all(np.abs(lh - lh_ref) <= bound)
    hz = model.predict(X, TIMES, PredictionTarget.HAZARD)
    hz_ref = oracles.term_matrix_predict(model, X, TIMES, PredictionTarget.HAZARD)
    assert np.all(np.abs(hz - hz_ref) <= bound * hz_ref)


def _scales(model):
    """Each scale's batch predictor (X, times) -> (m, T), by name."""
    return {**{t.value: lambda X, times, t=t: model.predict(X, times, t)
               for t in PredictionTarget},
            "cumulative_hazard": model.cumulative_hazard_matrix}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalogued_models_match_the_term_matrix_oracle(name):
    model = CATALOG[name]
    X = features(model, max(BATCH_SIZES))
    for got, want in zip(model.loads(X), oracles.loads(model, X)):
        assert np.array_equal(got, want)
    exact = {"survival": lambda X: oracles.term_matrix_predict(
                 model, X, TIMES, PredictionTarget.SURVIVAL),
             "cumulative_hazard": lambda X: oracles.cumulative_hazard_matrix(
                 model, X, TIMES)}
    if model.time_independent:
        exact.update({t.value: lambda X, t=t: oracles.term_matrix_predict(
            model, X, TIMES, t) for t in (PredictionTarget.LOG_HAZARD, PredictionTarget.HAZARD)})
    for m in BATCH_SIZES:
        for scale, predict in _scales(model).items():
            got = predict(X[:m], TIMES)
            # time-major: the transposed view of a C-ordered (T, m) buffer
            assert got.shape == (m, TIMES.size) and got.T.flags.c_contiguous
            if scale in exact:
                assert np.array_equal(got, exact[scale](X[:m])), (scale, m)
        if not model.time_independent:
            _within_risk_bound(model, X[:m])


def _summation_bound(model, X, time_dependent):
    """(n - 1) eps sum |products| per row: each of two summation orders is
    within half of it of the exact sum."""
    kind = [t.time_dependent == time_dependent for t in model.risk.terms]
    products = np.abs(oracles.term_products(model.risk, X)[:, kind])
    return (products.shape[1] - 1) * EPS * products.sum(axis=1)


def _within_summation_bound(model, X):
    """Loads and time-independent scales of X against the oracle, within
    the forward-error bound of summing the loads in another order."""
    bound = [_summation_bound(model, X, td)[:, None] for td in (False, True)]
    for got, want, b in zip(model.loads(X), oracles.loads(model, X), bound):
        assert np.all(np.abs(got - want) <= b[:, 0])
    if not model.time_independent:
        _within_risk_bound(model, X)
        return
    predicted = {t: (model.predict(X, TIMES, t),
                     oracles.term_matrix_predict(model, X, TIMES, t))
                 for t in PredictionTarget}
    lh, lh_ref = predicted[PredictionTarget.LOG_HAZARD]
    assert np.all(np.abs(lh - lh_ref) <= bound[0] + EPS * np.abs(lh_ref))
    # exp turns an absolute error in its argument into a relative one
    hz, hz_ref = predicted[PredictionTarget.HAZARD]
    assert np.all(np.abs(hz - hz_ref) <= (bound[0] + 4 * EPS) * hz_ref)
    # |dS| = S |dH| and H = hazard * t
    sv, sv_ref = predicted[PredictionTarget.SURVIVAL]
    assert np.all(np.abs(sv - sv_ref)
                  <= sv_ref * hz_ref * TIMES * (bound[0] + 4 * EPS) + 2 * EPS)


@pytest.mark.parametrize("name", sorted(MANY))
def test_many_terms_of_one_kind_within_the_summation_bound(name):
    model = MANY[name]
    X = features(model, max(BATCH_SIZES))
    for m in BATCH_SIZES:
        _within_summation_bound(model, X[:m])
    # one row is where numpy's row sum pairs eight or more terms
    for i in range(50):
        _within_summation_bound(model, X[i:i + 1])


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(CATALOG) + sorted(MANY)),
       m=st.integers(1, 80), data=st.data())
def test_rows_predict_the_same_at_any_batch_size(name, m, data):
    model = {**CATALOG, **MANY}[name]
    start = data.draw(st.integers(0, m - 1))
    stop = data.draw(st.integers(start + 1, m))
    X = features(model, m, seed=data.draw(st.integers(0, 2**16)))
    for predict in _scales(model).values():
        whole = predict(X, TIMES)
        assert np.array_equal(whole[start:stop], predict(X[start:stop], TIMES))
        assert np.array_equal(whole[start], predict(X[start], TIMES)[0])


def _cox_model(p, rng):
    return CoxModel(beta=rng.normal(0.0, 0.5, p), mean=rng.normal(size=p),
                    baseline_times=np.arange(1.0, 51.0),
                    baseline_cumhaz=np.cumsum(rng.uniform(0.0, 0.02, 50)))


@settings(max_examples=60)
@given(p=st.integers(1, 12), m=st.integers(1, 80), data=st.data())
def test_cox_rows_predict_the_same_at_any_batch_size(p, m, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    model = _cox_model(p, rng)
    start = data.draw(st.integers(0, m - 1))
    stop = data.draw(st.integers(start + 1, m))
    X = 1.5 * rng.standard_normal((m, p))
    # time-major, like every ground-truth scale
    assert model.survival_matrix(X, TIMES).T.flags.c_contiguous
    for predict in (model.linear_predictor,
                    lambda X: model.survival_matrix(X, TIMES)):
        whole = predict(X)
        assert np.array_equal(whole[start:stop], predict(X[start:stop]))
        assert np.array_equal(whole[start], predict(X[start])[0])


LAYOUT_GRIDS = {T: build_time_grid(T_MAX, T).points for T in (1, 2, 41)}


@pytest.mark.parametrize("name", sorted(CATALOG) + sorted(MANY) + ["cox"])
def test_predictions_do_not_depend_on_memory_layout(name):
    if name == "cox":
        model = _cox_model(5, np.random.default_rng(3))
        scales = [model.prediction_function()]
    else:
        model = {**CATALOG, **MANY}[name]
        scales = [model.prediction_function(t) for t in PredictionTarget]
        scales.append(model.cumulative_hazard_matrix)
    X = features(model, 300)
    F = np.asfortranarray(X)
    assert F.flags.f_contiguous and not F.flags.c_contiguous
    for predict in scales:
        for times in LAYOUT_GRIDS.values():
            assert np.array_equal(predict(X, times), predict(F, times))


def test_overflowing_row_raises_on_the_per_row_path():
    model = GroundTruthModel(1.0, RiskScoreSpec(2, (RiskTerm((0,), 500.0),)))
    assert model.time_independent
    X = np.array([[0.1, 0.0], [5.0, 0.0], [-0.2, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the FloatingPointError is the only signal
        for target in (PredictionTarget.HAZARD, PredictionTarget.SURVIVAL):
            with pytest.raises(FloatingPointError, match="overflow in exp"):
                model.predict(X, TIMES, target)
            model.predict(X[[0, 2]], TIMES, target)  # the finite rows alone pass
        with pytest.raises(FloatingPointError, match="overflow in exp"):
            model.cumulative_hazard_matrix(X, TIMES)
        varying = GroundTruthModel(1.0, RiskScoreSpec(2, (
            RiskTerm((0,), 500.0, time="log1p"),)))
        for target in (PredictionTarget.HAZARD, PredictionTarget.SURVIVAL):
            with pytest.raises(FloatingPointError, match="overflow in exp"):
                varying.predict(X, TIMES, target)
        huge = GroundTruthModel(1.0, RiskScoreSpec(2, (RiskTerm((0,), 1e308),)))
        for target in PredictionTarget:
            with pytest.raises(FloatingPointError):
                huge.predict(X, TIMES, target)


# coefficients and features whose products and sums overflow, and times
# whose log1p spans 0, subnormal, ordinary and huge
COEFFICIENTS = st.one_of(
    st.floats(-1e308, 1e308),
    st.sampled_from([0.0, 1.0, -1.0, 700.0, -750.0, 1e308, -1e308]))
FEATURE_VALUES = st.one_of(st.floats(-10.0, 10.0),
                           st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e5]))
EXTREME_TIMES = (0.0, 1e-300, 0.5, 70.0, 1e5, 1e300)


def _load_pair_model(betas, lam, time_dependent):
    """Terms b_j x_j, of which b1 x1 and b3 x3 make c1 if ``time_dependent``
    (else c0 sums all four): b1 = 1 with x1 = -1 and x3 = 0 makes a flat row
    (c1 = -1)."""
    kinds = ("constant", "log1p") if time_dependent else ("constant", "constant")
    terms = tuple(RiskTerm((j,), b, time=kinds[j % 2]) for j, b in enumerate(betas))
    return GroundTruthModel(lam, RiskScoreSpec(4, terms))


@settings(max_examples=300, deadline=None)
@given(betas=st.lists(COEFFICIENTS, min_size=4, max_size=4),
       lam=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
       time_dependent=st.booleans(),
       X=st.lists(st.lists(FEATURE_VALUES, min_size=4, max_size=4), min_size=1, max_size=4),
       times=st.lists(st.sampled_from(EXTREME_TIMES), min_size=1, max_size=8))
# c1 = -inf: 0 * inf is NaN at t = 0 only on the hazard, cumulative hazard
# and survival scales, which a check at the latest time alone misses
@example(betas=[0.0, -1e308, 0.0, 0.0], lam=1.0, time_dependent=True,
         X=[[0.0, 2.0, 0.0, 0.0]], times=[70.0, 0.0, 0.5])
# a flat row beside an overflowing one
@example(betas=[1.0, 1.0, 1.0, 1e308], lam=1e300, time_dependent=True,
         X=[[0.5, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 2.0]], times=[0.0, 1e300])
def test_the_extreme_times_check_agrees_with_the_full_buffer_check(
        betas, lam, time_dependent, X, times):
    model = _load_pair_model(betas, lam, time_dependent)
    X, times = np.array(X), np.array(times)
    for predict in _scales(model).values():
        checked = []
        with mock.patch.object(models, "_check_finite",
                               lambda out, times: checked.append(out.copy())):
            predict(X, times)
        try:
            oracles._check_finite(checked[0])
        except FloatingPointError:
            with pytest.raises(FloatingPointError, match="overflow in exp"):
                predict(X, times)
        else:
            predict(X, times)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_permutation_of_the_times_permutes_the_columns(name):
    model = CATALOG[name]
    X = features(model, 7)
    rng = np.random.default_rng(11)
    for predict in _scales(model).values():
        whole = predict(X, TIMES)
        for _ in range(3):
            perm = rng.permutation(TIMES.size)
            assert np.array_equal(predict(X, TIMES[perm]), whole[:, perm])


def test_an_overflowing_row_raises_wherever_its_extreme_time_sits():
    X = np.array([[0.1, 0.0], [5.0, 0.0], [2.0, 0.0]])
    times = np.array([0.0, 0.1, 0.2, 70.0])
    # row 1 overflows at t = 70 alone: e^(2500 log1p(t)) on hazard and survival
    latest = GroundTruthModel(1.0, RiskScoreSpec(2, (RiskTerm((0,), 500.0, time="log1p"),)))
    # row 2 has c1 = -inf: NaN from 0 * inf at t = 0 alone on the same scales
    earliest = GroundTruthModel(1.0, RiskScoreSpec(2, (RiskTerm((0,), -1e308, time="log1p"),)))
    for model, row in ((latest, 1), (earliest, 2)):
        scales = {k: v for k, v in _scales(model).items() if k != "loghazard"}
        for shift in range(times.size):
            rolled = np.roll(times, shift)
            for predict in scales.values():
                assert np.isfinite(predict(X[[0]], rolled)).all()
                with pytest.raises(FloatingPointError, match="overflow in exp"):
                    predict(X[[0, row]], rolled)


@pytest.mark.parametrize("scenario", [1, 10])
@pytest.mark.parametrize("target", list(PredictionTarget), ids=lambda t: t.name)
def test_every_scale_checks_its_times(scenario, target):
    model = build_scenario(scenario)
    X = features(model, 3)
    for times in ([-0.5], [1.0, np.nan], [np.inf], [2.0, -1e-300]):
        with pytest.raises(ValueError, match=r"times must be finite and >= 0"):
            model.predict(X, times, target)
    # a scalar time is a one-point grid
    assert model.predict(X, 2.0, target).shape == (3, 1)
    assert math.isfinite(model.predict(X, 0.0, target)[0, 0])
