"""The ground-truth predictor against the term-matrix oracle.

Every catalogued model predicts bit for bit what the term-matrix predictor in
``tests/oracles.py`` predicts, at every batch size. A time-independent model's
rows do not depend on their batch on any scale, and survival rows on none.
Models with eight or more terms of one kind sum their loads in term order;
the oracle's numpy row sum does too on two or more rows, but pairs the terms
differently on one row, so those models are held to the forward-error bound
of summation instead.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from survix.core import PredictionTarget, build_time_grid
from survix.models import GroundTruthModel, RiskScoreSpec, RiskTerm
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


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalogued_models_match_the_term_matrix_oracle(name):
    model = CATALOG[name]
    X = features(model, max(BATCH_SIZES))
    for got, want in zip(model.loads(X), oracles.loads(model, X)):
        assert np.array_equal(got, want)
    for target in PredictionTarget:
        for m in BATCH_SIZES:
            got = model.predict(X[:m], TIMES, target)
            assert got.shape == (m, TIMES.size) and got.flags.c_contiguous
            assert np.array_equal(got, oracles.term_matrix_predict(
                model, X[:m], TIMES, target)), (target, m)


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
    predicted = {t: (model.predict(X, TIMES, t),
                     oracles.term_matrix_predict(model, X, TIMES, t))
                 for t in PredictionTarget}
    if not model.time_independent:
        # the term-matrix product is the oracle's own
        for target in (PredictionTarget.LOG_HAZARD, PredictionTarget.HAZARD):
            assert np.array_equal(*predicted[target])
        return
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
    targets = list(PredictionTarget) if model.time_independent else [
        PredictionTarget.SURVIVAL]
    for target in targets:
        whole = model.predict(X, TIMES, target)
        assert np.array_equal(whole[start:stop],
                              model.predict(X[start:stop], TIMES, target))
        assert np.array_equal(whole[start], model.predict(X[start], TIMES, target)[0])


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
