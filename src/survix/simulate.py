"""Scenario catalog and survival data generator.

Features are standard normal (optionally with pairwise correlation), event
times come from inverting the closed-form cumulative hazard at a uniform draw,
and administrative censoring truncates at the follow-up horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import SurvivalDataset
from .models import GroundTruthModel, RiskScoreSpec, RiskTerm

LAMBDA = 0.03
B1, B2, B3 = 0.4, -0.8, -0.6
B12, B13 = -0.5, 0.2
ARCTAN = "scaled_arctan(0.7)"
T_MAX = 70.0
DEP_DEMO_RHO = 0.9

SCENARIO_IDS = tuple(range(1, 11)) + ("dep_demo",)

# event times beyond this horizon are treated as never occurring
_TIME_CAP = 1e6

_PURPOSES = {"features": 11, "event_u": 23}


def rng_stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Independent, reproducible generator per (purpose, index)."""
    code = _PURPOSES[purpose]
    return np.random.default_rng(np.random.SeedSequence((int(seed), code, int(index))))


def _linear_terms(time_first: str = "constant") -> Tuple[RiskTerm, ...]:
    return (
        RiskTerm((0,), B1, ("identity",), time_first),
        RiskTerm((1,), B2, ("identity",)),
        RiskTerm((2,), B3, ("identity",)),
    )


def _gam_terms(time_first: str = "constant") -> Tuple[RiskTerm, ...]:
    return (
        RiskTerm((0,), B1, ("square",), time_first),
        RiskTerm((1,), B2, (ARCTAN,)),
        RiskTerm((2,), B3, ("identity",)),
    )


def _inter13(transform: str = "identity", time: str = "constant") -> RiskTerm:
    return RiskTerm((0, 2), B13, ("identity", transform), time)


def _inter12() -> RiskTerm:
    return RiskTerm((0, 1), B12, ("identity", "identity"))


# scenario id -> builder of its risk terms
_CATALOG = {
    1: lambda: _linear_terms(),
    2: lambda: _linear_terms("log1p"),
    3: lambda: _linear_terms() + (_inter13(),),
    4: lambda: _linear_terms("log1p") + (_inter13(),),
    5: lambda: _linear_terms() + (_inter13(time="log1p"),),
    6: lambda: _gam_terms(),
    7: lambda: _gam_terms("log1p"),
    8: lambda: _gam_terms() + (_inter12(), _inter13("square")),
    9: lambda: _gam_terms("log1p") + (_inter12(), _inter13("square")),
    10: lambda: _gam_terms() + (_inter12(), _inter13("square", "log1p")),
    "dep_demo": lambda: (
        RiskTerm((0,), 0.8, ("identity",), "log1p"),
        RiskTerm((1,), -0.4, ("identity",)),
    ),
}


def build_scenario(scenario) -> GroundTruthModel:
    """Ground-truth model for one of the catalogued scenarios (1..10 or
    'dep_demo'); all use baseline hazard LAMBDA. Only the requested entry's
    terms are built."""
    if scenario not in _CATALOG:
        raise ValueError(f"unknown scenario {scenario!r}")
    return GroundTruthModel(lam=LAMBDA, risk=RiskScoreSpec(p=3, terms=_CATALOG[scenario]()))


def ground_truth_partition(scenario) -> frozenset:
    """Feature subsets whose risk-score component is time-dependent."""
    model = build_scenario(scenario)
    return frozenset(
        tuple(sorted(t.features)) for t in model.risk.terms if t.time_dependent
    )


# ---------------------------------------------------------------------------
# feature sampling
# ---------------------------------------------------------------------------

def pairwise_covariance(p: int, rho: float) -> np.ndarray:
    """Unit-variance covariance with common pairwise correlation rho."""
    cov = np.full((p, p), float(rho))
    np.fill_diagonal(cov, 1.0)
    return cov


def dep_demo_covariance() -> np.ndarray:
    """Unit variances; only x1 and x3 are correlated (rho = 0.9)."""
    cov = np.eye(3)
    cov[0, 2] = cov[2, 0] = DEP_DEMO_RHO
    return cov


@dataclass(frozen=True)
class FeatureSampler:
    """Multivariate normal feature sampler with a fixed seed."""

    p: int
    mean: np.ndarray
    covariance: np.ndarray
    seed: int

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=float)
        cov = np.ascontiguousarray(self.covariance, dtype=float)
        if mean.shape != (self.p,) or cov.shape != (self.p, self.p):
            raise ValueError("mean/covariance shapes must match p")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        if not np.allclose(np.diag(cov), 1.0):
            raise ValueError("covariance must have unit diagonal")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance is not positive-definite")
        mean.flags.writeable = False
        cov.flags.writeable = False
        chol.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def standard(cls, p: int, seed: int, rho: float = 0.0) -> "FeatureSampler":
        return cls(p=p, mean=np.zeros(p), covariance=pairwise_covariance(p, rho),
                   seed=seed)


def sample_features(sampler: FeatureSampler, n: int) -> np.ndarray:
    """Draw an (n, p) feature matrix; deterministic given the sampler seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_stream(sampler.seed, "features")
    z = rng.standard_normal((n, sampler.p))
    return sampler.mean + z @ sampler._chol.T


# ---------------------------------------------------------------------------
# event times
# ---------------------------------------------------------------------------

def simulate_event_times(model: GroundTruthModel, X: np.ndarray,
                         U: np.ndarray) -> np.ndarray:
    """Solve H(T|x) = -log(u) for every row; +inf marks unreachable events.

    Inverts the closed-form cumulative hazard: with k = lam * e^c0 and
    a = c1 + 1 (see GroundTruthModel.loads), T = expm1(log1p(a * tau / k) / a)
    for tau = -log(u), and expm1(tau / k) when a = 0. Proportional-hazards
    models (time-independent risk score) use T = tau / k. When a < 0 the
    cumulative hazard is bounded by k / (-a); draws at or above that bound
    give +inf, and so do event times beyond _TIME_CAP on either path.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_1d(np.asarray(U, dtype=float))
    if np.any((U <= 0) | (U >= 1)):
        raise ValueError("uniform draws must lie strictly inside (0, 1)")
    c0, c1 = model.loads(X)
    ratio = -np.log(U) / (model.lam * np.exp(c0))
    if model.time_independent:
        out = ratio
    else:
        a = c1 + 1.0
        flat = a == 0.0
        a[flat] = 1.0  # any divisor; flat rows take the a = 0 limit below
        # a draw at or beyond the bound makes log1p's argument <= -1: -inf or nan
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = np.log1p(a * ratio) / a
            v[flat] = ratio[flat]
            out = np.expm1(v)
    out[~(out <= _TIME_CAP)] = np.inf
    return out


def apply_censoring(times, t_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """Administrative censoring: y = min(t, t_max), event iff t < t_max."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    times = np.asarray(times, dtype=float)
    y = np.minimum(times, t_max)
    delta = (times < t_max).astype(int)
    return y, delta


def simulate_dataset(scenario, n: int, seed: int, rho: float = 0.0,
                     t_max: float = T_MAX):
    """Simulate a dataset from a catalogued scenario (or a model instance).

    Returns (dataset, metadata). Feature sampling and event-time draws use
    independent seeded streams so each is reproducible on its own.
    """
    if isinstance(scenario, GroundTruthModel):
        model = scenario
        scenario_tag = "custom"
        cov = pairwise_covariance(model.p, rho)
    else:
        model = build_scenario(scenario)
        scenario_tag = scenario
        cov = dep_demo_covariance() if scenario == "dep_demo" else \
            pairwise_covariance(model.p, rho)
    sampler = FeatureSampler(p=model.p, mean=np.zeros(model.p), covariance=cov,
                             seed=seed)
    X = sample_features(sampler, n)
    U = rng_stream(seed, "event_u").uniform(size=n)
    raw = simulate_event_times(model, X, U)
    y, delta = apply_censoring(raw, t_max)
    data = SurvivalDataset(features=X, times=y, events=delta)
    meta = {
        "scenario": scenario_tag,
        "seed": int(seed),
        "n": int(n),
        "rho": float(rho),
        "t_max": float(t_max),
        "censoring_rate": float(1.0 - delta.mean()),
    }
    return data, meta
