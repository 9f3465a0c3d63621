"""Scalar and long-double references the tests check the library against.

None of these is on a library path: each is a slower, independent way to
compute one quantity that ``survix`` computes in batch (adaptive quadrature
for the closed-form cumulative hazard, one-point model and Cox evaluations,
one event-time draw, and the discrete-derivative form of the Shapley
interaction index). Value tables are the library's plain (2^p, T) arrays,
whose row index is the coalition mask.
"""

import math
from typing import Dict

import numpy as np
from scipy import integrate

from survix.core import PredictionTarget, coalition_iter, mask_size
from survix.interactions import _submasks
from survix.models import CoxModel, GroundTruthModel, RiskScoreSpec
from survix.simulate import simulate_event_times

QUAD_ABS_TOL = 1e-10


def eval_risk_score(risk: RiskScoreSpec, x: np.ndarray, t: float) -> float:
    """Risk score G(t|x) for a single observation and timepoint."""
    x = np.asarray(x, dtype=float)
    if x.shape != (risk.p,):
        raise ValueError(f"expected a vector of length {risk.p}")
    if t < 0:
        raise ValueError("t must be >= 0")
    products = risk.term_products(x[None, :])[0]
    factors = risk.time_factors([t])[:, 0]
    return float(products @ factors)


def _exp_checked(value: float) -> float:
    try:
        out = math.exp(value)
    except OverflowError:
        raise FloatingPointError(f"exp({value:.3g}) overflows") from None
    if not math.isfinite(out):
        raise FloatingPointError(f"exp({value:.3g}) overflows")
    return out


def cumulative_hazard(model: GroundTruthModel, x: np.ndarray, t: float) -> float:
    """Scalar cumulative hazard with adaptive quadrature on [0, t].

    Uses the closed form lam * t * exp(G(x)) when the risk score is
    time-independent; otherwise adaptive Gauss-Kronrod integration to
    absolute tolerance QUAD_ABS_TOL.
    """
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    if model.time_independent:
        return float(model.lam * t * _exp_checked(eval_risk_score(model.risk, x, 0.0)))
    products = model.risk.term_products(x[None, :])[0]

    def integrand(u):
        factors = model.risk.time_factors(np.atleast_1d(u))
        return model.lam * np.exp(products @ factors)

    value, abserr = integrate.quad(
        lambda u: float(integrand(u)[0]), 0.0, t,
        epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200,
    )
    if not math.isfinite(value):
        raise FloatingPointError("cumulative hazard overflowed")
    if abserr > max(QUAD_ABS_TOL, 1e-8 * abs(value)):
        raise RuntimeError(
            f"quadrature did not reach tolerance (residual estimate {abserr:.3e})"
        )
    return float(value)


def eval_target(model: GroundTruthModel, target: PredictionTarget,
                x: np.ndarray, t: float) -> float:
    """Scalar log-hazard, hazard, or survival evaluation."""
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValueError("t must be >= 0")
    if target is PredictionTarget.LOG_HAZARD:
        return math.log(model.lam) + eval_risk_score(model.risk, x, t)
    if target is PredictionTarget.HAZARD:
        return model.lam * _exp_checked(eval_risk_score(model.risk, x, t))
    if target is PredictionTarget.SURVIVAL:
        return math.exp(-cumulative_hazard(model, x, t))
    raise ValueError(f"unknown target {target!r}")


def coxph_survival(model: CoxModel, x: np.ndarray, t: float) -> float:
    """Predicted survival probability for one observation at one timepoint."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(model.survival_matrix(np.asarray(x)[None, :], [t])[0, 0])


def simulate_event_time(model: GroundTruthModel, x: np.ndarray, u: float) -> float:
    """Single event-time draw (see simulate_event_times)."""
    return float(simulate_event_times(model, np.asarray(x)[None, :], [u])[0])


def discrete_derivative(values: np.ndarray, K: int, M: int) -> np.ndarray:
    """Alternating sum of values over subsets of K joined onto M.

    K and M are coalition masks and must be disjoint. Returns the curve over
    the table's time axis.
    """
    if K & M:
        raise ValueError("K and M must be disjoint")
    out = np.zeros(values.shape[1])
    kp = mask_size(K)
    for L in _submasks(K):
        sign = -1.0 if (kp - mask_size(int(L))) % 2 else 1.0
        out += sign * values[M | int(L)]
    return out


def exact_sii(values: np.ndarray, k: int) -> Dict[int, np.ndarray]:
    """Shapley interaction index curves for every coalition of size 1..k.

    For a coalition K the index averages discrete derivatives over subsets M
    of the remaining features, weighted by 1 / ((p-|K|+1) * C(p-|K|, |M|)).
    Accumulation runs in extended precision; the alternating sums otherwise
    lose enough digits to disturb downstream identity checks.
    """
    p = values.shape[0].bit_length() - 1
    if not 1 <= k <= p:
        raise ValueError(f"order must lie in 1..{p}")
    V = values.astype(np.longdouble)
    full = (1 << p) - 1
    out: Dict[int, np.ndarray] = {}
    comb_cache = {}
    for K in coalition_iter(p, k):
        if K == 0:
            continue
        kp = mask_size(K)
        rest = full ^ K
        subs = _submasks(rest)
        sizes = np.array([mask_size(int(m)) for m in subs])
        if kp not in comb_cache:
            comb_cache[kp] = np.array(
                [math.comb(p - kp, s) for s in range(p - kp + 1)],
                dtype=np.longdouble,
            )
        weights = 1.0 / ((p - kp + 1) * comb_cache[kp][sizes])
        delta = np.zeros((subs.size, V.shape[1]), dtype=np.longdouble)
        for L in _submasks(K):
            sign = -1.0 if (kp - mask_size(int(L))) % 2 else 1.0
            delta += sign * V[subs | int(L)]
        out[K] = (weights @ delta).astype(float)
    return out
