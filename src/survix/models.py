"""Ground-truth multiplicative-hazard models and a Cox proportional-hazards
fitter.

A ground-truth model is a constant baseline hazard times the exponential of a
term-based risk score: each term multiplies a coefficient, per-feature
transforms of a feature subset, and an optional time factor. The time
vocabulary is closed ('constant' or 'log1p'), so the risk score is
G(t|x) = c0(x) + c1(x) * log1p(t) and every scale, survival included,
evaluates in closed form: the cumulative hazard is
lam * e^c0 * expm1(a * log1p(t)) / a with a = c1 + 1. The loads (c0, c1) are
accumulated term by term from contiguous copies of the used feature columns.
A time-independent model (c1 = 0) has one log-hazard and one hazard per row,
log(lam) + c0 and lam * e^c0, computed on the rows and broadcast over the
grid; time-dependent log-hazards and hazards take the term-matrix product.
Every scale checks that the times are finite and >= 0, and a row that
overflows raises FloatingPointError without numpy warnings. There is one
implementation of each scale, the batch one, also for a single row or time.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import PredictionTarget

_ARCTAN_RE = re.compile(r"scaled_arctan\(\s*([-+0-9.eE]+)\s*\)")


def _transform_fn(tag: str) -> Callable[[np.ndarray], np.ndarray]:
    if tag == "identity":
        return lambda x: x
    if tag == "square":
        return np.square
    m = _ARCTAN_RE.fullmatch(tag)
    if m:
        a = float(m.group(1))
        return lambda x, a=a: (2.0 / np.pi) * np.arctan(a * x)
    raise ValueError(f"unknown feature transform {tag!r}")


@dataclass(frozen=True)
class RiskTerm:
    """One additive term of a risk score.

    features: 0-based indices of the participating features (non-empty).
    transforms: one transform tag per feature ('identity', 'square',
        or 'scaled_arctan(a)').
    time: 'constant' or 'log1p' (multiplies the term by log(t + 1)).
    """

    features: Tuple[int, ...]
    beta: float
    transforms: Tuple[str, ...] = ()
    time: str = "constant"

    def __post_init__(self):
        feats = tuple(int(i) for i in self.features)
        if len(feats) == 0:
            raise ValueError("a risk term needs at least one feature")
        if len(set(feats)) != len(feats):
            raise ValueError("duplicate feature in risk term")
        transforms = tuple(self.transforms) or ("identity",) * len(feats)
        if len(transforms) != len(feats):
            raise ValueError("one transform per feature is required")
        for tag in transforms:
            _transform_fn(tag)  # validate
        if self.time not in ("constant", "log1p"):
            raise ValueError(f"unknown time modifier {self.time!r}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "transforms", transforms)

    @property
    def time_dependent(self) -> bool:
        return self.time != "constant"

    def feature_product(self, columns) -> np.ndarray:
        """beta times the product of the transformed feature columns, per
        row; ``columns`` maps each feature index to its column."""
        (j0, *rest), (tag0, *tags) = self.features, self.transforms
        out = self.beta * _transform_fn(tag0)(columns[j0])
        for j, tag in zip(rest, tags):
            out *= _transform_fn(tag)(columns[j])
        return out

    def time_factor(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if self.time == "log1p":
            return np.log1p(times)
        return np.ones_like(times)


@dataclass(frozen=True)
class RiskScoreSpec:
    """Additive collection of risk terms over p features."""

    p: int
    terms: Tuple[RiskTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        for term in terms:
            if max(term.features) >= self.p:
                raise ValueError(f"term {term.features} exceeds p={self.p}")
        object.__setattr__(self, "terms", terms)

    @property
    def time_independent(self) -> bool:
        return all(not t.time_dependent for t in self.terms)

    def _columns(self, X: np.ndarray) -> Tuple[int, dict]:
        """Row count of X and a contiguous copy of each feature column some
        term uses, by feature index."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.p:
            raise ValueError(f"expected {self.p} features, got {X.shape[1]}")
        used = sorted({j for t in self.terms for j in t.features})
        return X.shape[0], {j: np.ascontiguousarray(X[:, j]) for j in used}

    def term_products(self, X: np.ndarray) -> np.ndarray:
        """(m, n_terms) matrix of coefficient-scaled feature products."""
        m, columns = self._columns(X)
        out = np.empty((m, len(self.terms)))
        for i, term in enumerate(self.terms):
            out[:, i] = term.feature_product(columns)
        return out

    def time_factors(self, times: np.ndarray) -> np.ndarray:
        """(n_terms, T) matrix of per-term time factors."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not self.terms:
            return np.zeros((0, times.size))
        return np.vstack([t.time_factor(times) for t in self.terms])


# Decorates each scale method: an overflowing row ends in _check_finite's
# FloatingPointError, so numpy's overflow and invalid-value warnings from the
# loads and the scale's own ufuncs are silenced, and the error is the only
# signal. No decorated method calls another: before numpy 2, one errstate
# instance entered twice at once restores the wrong state.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class GroundTruthModel:
    """Constant baseline hazard lam times exp(risk score)."""

    lam: float
    risk: RiskScoreSpec

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("baseline hazard must be positive")

    @property
    def p(self) -> int:
        return self.risk.p

    @property
    def time_independent(self) -> bool:
        return self.risk.time_independent

    def loads(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row loads (c0, c1) of G(t|x) = c0(x) + c1(x) * log1p(t): the
        time-constant and the log1p-time term products, each summed in term
        order."""
        m, columns = self.risk._columns(X)
        sums = [None, None]
        for term in self.risk.terms:
            product = term.feature_product(columns)
            k = int(term.time_dependent)
            if sums[k] is None:
                sums[k] = product
            else:
                sums[k] += product
        c0, c1 = (np.zeros(m) if s is None else s for s in sums)
        return c0, c1

    # -- batch evaluation ---------------------------------------------------

    @_quiet_overflow
    def log_hazard_matrix(self, X: np.ndarray, times: np.ndarray) -> np.ndarray:
        times = _checked_times(times)
        if self.time_independent:
            c0, _ = self.loads(X)
            c0 += math.log(self.lam)
            return _broadcast_rows(c0, times.size)
        out = self.risk.term_products(X) @ self.risk.time_factors(times)
        out += math.log(self.lam)
        _check_finite(out)
        return out

    @_quiet_overflow
    def hazard_matrix(self, X: np.ndarray, times: np.ndarray) -> np.ndarray:
        times = _checked_times(times)
        if self.time_independent:
            c0, _ = self.loads(X)
            np.exp(c0, out=c0)
            c0 *= self.lam
            return _broadcast_rows(c0, times.size)
        out = self.risk.term_products(X) @ self.risk.time_factors(times)
        np.exp(out, out=out)
        out *= self.lam
        _check_finite(out)
        return out

    def cumulative_hazard_matrix(self, X: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Integral of the hazard from 0 to each timepoint, per row of X.

        Exact: lam * e^c0 * expm1(a * log1p(t)) / a with a = c1 + 1, whose
        a = 0 limit is lam * e^c0 * log1p(t); lam * e^c0 * t when no term
        depends on time.
        """
        return self._signed_cumulative_hazard(X, times, 1.0)

    def survival_matrix(self, X: np.ndarray, times: np.ndarray) -> np.ndarray:
        out = self._signed_cumulative_hazard(X, times, -1.0)
        np.exp(out, out=out)
        return out

    @_quiet_overflow
    def _signed_cumulative_hazard(self, X, times, sign: float) -> np.ndarray:
        """sign times the cumulative hazard; the sign rides on the per-row
        scale, and negating a factor of a product is exact."""
        times = _checked_times(times)
        c0, c1 = self.loads(X)
        scale = (sign * self.lam) * np.exp(c0)
        if self.time_independent:
            out = np.multiply.outer(scale, times)
        else:
            v = np.log1p(times)
            a = c1 + 1.0
            flat = a == 0.0
            a[flat] = 1.0  # flat rows take the a = 0 limit, scaled by 1
            out = np.multiply.outer(a, v)
            np.expm1(out, out=out)
            out[flat] = v
            out *= (scale / a)[:, None]
        _check_finite(out)
        return out

    def predict(self, X: np.ndarray, times: np.ndarray,
                target: PredictionTarget) -> np.ndarray:
        """(m, T) prediction matrix on the requested scale."""
        if target is PredictionTarget.LOG_HAZARD:
            return self.log_hazard_matrix(X, times)
        if target is PredictionTarget.HAZARD:
            return self.hazard_matrix(X, times)
        if target is PredictionTarget.SURVIVAL:
            return self.survival_matrix(X, times)
        raise ValueError(f"unknown target {target!r}")

    def prediction_function(self, target: PredictionTarget):
        """Batch callable (X, times) -> (m, T) for use in value functions."""
        return lambda X, times: self.predict(X, times, target)


def _checked_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be finite and >= 0")
    return times


def _broadcast_rows(values: np.ndarray, T: int) -> np.ndarray:
    """(m, T) C-ordered array repeating each row's finite value T times."""
    _check_finite(values)
    return np.repeat(values, T).reshape(values.size, T)


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(
            "non-finite model prediction (overflow in exp); "
            "check coefficients and feature ranges"
        )


# ---------------------------------------------------------------------------
# model spec JSON
# ---------------------------------------------------------------------------

def model_to_json(model: GroundTruthModel, path) -> None:
    payload = {
        "p": model.p,
        "lambda": model.lam,
        "terms": [
            {
                "features": [i + 1 for i in term.features],
                "beta": term.beta,
                "transforms": list(term.transforms),
                "time": term.time,
            }
            for term in model.risk.terms
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def model_from_json(path) -> GroundTruthModel:
    with open(path) as fh:
        payload = json.load(fh)
    terms = tuple(
        RiskTerm(
            features=tuple(i - 1 for i in spec["features"]),
            beta=float(spec["beta"]),
            transforms=tuple(spec.get("transforms", ())),
            time=spec.get("time", "constant"),
        )
        for spec in payload["terms"]
    )
    return GroundTruthModel(
        lam=float(payload["lambda"]),
        risk=RiskScoreSpec(p=int(payload["p"]), terms=terms),
    )


# ---------------------------------------------------------------------------
# Cox proportional hazards
# ---------------------------------------------------------------------------

class ConvergenceError(RuntimeError):
    """Raised when the partial-likelihood optimizer fails; carries the
    iteration trace in ``trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class CoxModel:
    """Fitted Cox model: coefficients, Breslow cumulative baseline hazard as
    a right-continuous step function, and the centering means."""

    beta: np.ndarray
    baseline_times: np.ndarray
    baseline_cumhaz: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray | None = None
    iterations: int = 0

    def __post_init__(self):
        for name in ("beta", "baseline_times", "baseline_cumhaz", "mean"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(np.diff(self.baseline_cumhaz) < 0) or (
            self.baseline_cumhaz.size and self.baseline_cumhaz[0] < 0
        ):
            raise ValueError("cumulative baseline hazard must start at 0 and be non-decreasing")

    @property
    def p(self) -> int:
        return self.beta.size

    def cumhaz_at(self, times: np.ndarray) -> np.ndarray:
        """Step-function lookup of H0; times beyond the last event reuse the
        final value (documented extrapolation)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        idx = np.searchsorted(self.baseline_times, times, side="right")
        steps = np.concatenate(([0.0], self.baseline_cumhaz))
        return steps[idx]

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X - self.mean) @ self.beta

    def survival_matrix(self, X: np.ndarray, times: np.ndarray) -> np.ndarray:
        """exp(-e^eta * H0(t)), computed in one (m, T) buffer."""
        h0 = self.cumhaz_at(times)
        eta = self.linear_predictor(X)
        out = np.multiply.outer(-np.exp(eta), h0)
        np.exp(out, out=out)
        return out

    def prediction_function(self, target: PredictionTarget = PredictionTarget.SURVIVAL):
        if target is not PredictionTarget.SURVIVAL:
            raise ValueError("Cox predictions are exposed on the survival scale")
        return lambda X, times: self.survival_matrix(X, times)

    def to_json(self, path) -> None:
        payload = {
            "beta": self.beta.tolist(),
            "baseline": [[float(t), float(h)] for t, h in
                         zip(self.baseline_times, self.baseline_cumhaz)],
            "mean": self.mean.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "CoxModel":
        with open(path) as fh:
            payload = json.load(fh)
        baseline = np.array(payload["baseline"], dtype=float).reshape(-1, 2)
        return cls(
            beta=np.array(payload["beta"]),
            baseline_times=baseline[:, 0],
            baseline_cumhaz=baseline[:, 1],
            mean=np.array(payload["mean"]),
        )


def fit_coxph(data, tol: float = 1e-8, max_iter: int = 100) -> CoxModel:
    """Newton-Raphson fit of the Breslow-tie-corrected partial likelihood.

    Features are centered at their training means for numerical stability;
    predictions are invariant to the centering. Standard errors come from
    the inverse observed information. The derivatives are evaluated once at
    the start and once per step-halving trial; the accepted trial's
    evaluation serves the next iteration and the standard errors.
    """
    X = np.asarray(data.features, dtype=float)
    y = np.asarray(data.times, dtype=float)
    d = np.asarray(data.events, dtype=int)
    n, p = X.shape
    if d.sum() < 1:
        raise ValueError("at least one event is required")
    if np.any(X.std(axis=0) == 0):
        raise ValueError("constant feature column; drop it before fitting")

    mean = X.mean(axis=0)
    Xc = X - mean
    order = np.argsort(y, kind="stable")
    Xs, ys, ds = Xc[order], y[order], d[order]
    # risk set of an observation starts at the first index sharing its time
    risk_start = np.searchsorted(ys, ys, side="left")
    ev = np.flatnonzero(ds == 1)

    beta = np.zeros(p)
    current = _breslow_derivatives(Xs, ds, risk_start, ev, beta)
    trace = []
    for iteration in range(1, max_iter + 1):
        loglik, grad, info = current
        trace.append((iteration, float(loglik), float(np.linalg.norm(grad))))
        if np.linalg.norm(beta) > 50:
            raise ConvergenceError(
                "diverging coefficients; the data may be separable", trace
            )
        if np.linalg.norm(grad) < tol:
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular information matrix: {exc}", trace)
        # step-halving keeps the likelihood monotone; the accepted
        # evaluation carries over to the next iteration
        new_beta = beta + step
        for _ in range(30):
            candidate = _breslow_derivatives(Xs, ds, risk_start, ev, new_beta)
            if candidate[0] >= loglik - 1e-12 * max(1.0, abs(loglik)):
                break
            step *= 0.5
            new_beta = beta + step
        else:
            candidate = _breslow_derivatives(Xs, ds, risk_start, ev, new_beta)
        beta, current = new_beta, candidate
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations", trace
        )

    info = current[2]
    try:
        stderr = np.sqrt(np.diag(np.linalg.inv(info)))
    except np.linalg.LinAlgError:
        stderr = np.full(p, np.nan)

    # Breslow cumulative baseline hazard at distinct event times
    w = np.exp(Xs @ beta)
    s0 = np.cumsum(w[::-1])[::-1]
    event_times, first_idx, counts = np.unique(
        ys[ev], return_index=True, return_counts=True
    )
    denom = s0[risk_start[ev][first_idx]]
    cumhaz = np.cumsum(counts / denom)
    return CoxModel(
        beta=beta,
        baseline_times=event_times,
        baseline_cumhaz=cumhaz,
        mean=mean,
        stderr=stderr,
        iterations=len(trace),
    )


def _breslow_derivatives(Xs, ds, risk_start, ev, beta):
    """Log partial likelihood, gradient and observed information (Breslow)."""
    eta = Xs @ beta
    eta_max = eta.max()
    w = np.exp(eta - eta_max)
    wx = Xs * w[:, None]
    wxx = np.einsum("ij,ik->ijk", Xs, wx)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum(wx[::-1], axis=0)[::-1]
    s2 = np.cumsum(wxx[::-1], axis=0)[::-1]
    at = risk_start[ev]
    s0e = s0[at]
    mu = s1[at] / s0e[:, None]
    loglik = float(np.sum(eta[ev] - (np.log(s0e) + eta_max)))
    grad = Xs[ev].sum(axis=0) - mu.sum(axis=0)
    info = (s2[at] / s0e[:, None, None]).sum(axis=0) - np.einsum(
        "ij,ik->jk", mu, mu
    )
    return loglik, grad, info
