"""Scalar and long-double references the tests check the library against.

None of these is on a library path: each is a slower, independent way to
compute one quantity that ``survix`` computes in batch (the term-matrix
predictor of a ground-truth model, adaptive quadrature for the closed-form
cumulative hazard, one-point model and Cox evaluations, the two-array Cox
survival matrix, the Cox derivatives from (n, p, p) moment sums and with
every intermediate allocated per call, one event-time draw, the scenario
catalogue with every entry built, the term-local Moebius coefficients of a
log-hazard game, a sum of unanimity games (SOUM) with its closed-form
k-SII, the submasks of one mask at a time, the discrete-derivative form of
the Shapley interaction
index, the encoding of feature indices as a coalition mask, the imputed rows
of both imputers built as they were before the feature-major layout and the
per-coalition plans, the regression's coalition sampler with its list and
rejection paths, the per-target superset gather of the exact k-SII
and its exact-rational counterpart, and the writer of model spec files).
Value tables are the library's plain (2^p, T) arrays, whose row index is the
coalition mask.
"""

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence

import numpy as np
from scipy import integrate

from survix.core import PredictionTarget, coalition_iter, indices_from_mask, mask_size
from survix.games import MarginalEmpiricalImputer, SurvivalGame, _width
from survix.interactions import (
    _bernoulli_fractions,
    _moebius_redistribution,
    _picks,
    _plan,
    _zeta_pass,
)
from survix.models import (
    CoxModel,
    GroundTruthModel,
    RiskScoreSpec,
    RiskTerm,
    _transform_fn,
)
from survix.simulate import (
    ARCTAN,
    B1,
    B2,
    B3,
    B12,
    B13,
    LAMBDA,
    simulate_event_times,
)

QUAD_ABS_TOL = 1e-10


def term_products(risk: RiskScoreSpec, X: np.ndarray) -> np.ndarray:
    """(m, n_terms) matrix of coefficient-scaled feature products: each
    column starts from a row of betas and multiplies in one transformed
    feature column at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != risk.p:
        raise ValueError(f"expected {risk.p} features, got {X.shape[1]}")
    if not risk.terms:
        return np.zeros((X.shape[0], 0))
    columns = []
    for term in risk.terms:
        out = np.full(X.shape[0], term.beta)
        for j, tag in zip(term.features, term.transforms):
            out = out * _transform_fn(tag)(X[:, j])
        columns.append(out)
    return np.column_stack(columns)


def time_factors(risk: RiskScoreSpec, times) -> np.ndarray:
    """(n_terms, T) matrix of per-term time factors."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not risk.terms:
        return np.zeros((0, times.size))
    return np.vstack([np.log1p(times) if t.time_dependent else np.ones_like(times)
                      for t in risk.terms])


def loads(model: GroundTruthModel, X: np.ndarray):
    """Loads (c0, c1) as numpy row sums of the term matrix's time-constant
    and log1p-time columns."""
    C = term_products(model.risk, X)
    td = np.array([t.time_dependent for t in model.risk.terms], dtype=bool)
    return C[:, ~td].sum(axis=1), C[:, td].sum(axis=1)


def _check_finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("non-finite model prediction (overflow in exp)")
    return values


def term_matrix_predict(model: GroundTruthModel, X: np.ndarray, times,
                        target: PredictionTarget) -> np.ndarray:
    """(m, T) C-ordered predictions cell by cell: the log-hazard and hazard
    through the term-matrix product with the time factors, survival as the
    exponential of the negated ``cumulative_hazard_matrix``."""
    if target is PredictionTarget.LOG_HAZARD:
        out = term_products(model.risk, X) @ time_factors(model.risk, times)
        out += math.log(model.lam)
        return _check_finite(out)
    if target is PredictionTarget.HAZARD:
        out = term_products(model.risk, X) @ time_factors(model.risk, times)
        np.exp(out, out=out)
        out *= model.lam
        return _check_finite(out)
    if target is not PredictionTarget.SURVIVAL:
        raise ValueError(f"unknown target {target!r}")
    out = cumulative_hazard_matrix(model, X, times)
    np.negative(out, out=out)
    np.exp(out, out=out)
    return out


def cumulative_hazard_matrix(model: GroundTruthModel, X: np.ndarray, times) -> np.ndarray:
    """(m, T) C-ordered closed-form cumulative hazard of the row-sum loads,
    with one broadcast per row."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    c0, c1 = loads(model, X)
    scale = model.lam * np.exp(c0)
    if model.time_independent:
        out = np.multiply.outer(scale, times)
    else:
        v = np.log1p(times)
        a = c1 + 1.0
        flat = a == 0.0
        a[flat] = 1.0
        out = np.multiply.outer(a, v)
        np.expm1(out, out=out)
        out[flat] = v
        out *= (scale / a)[:, None]
    return _check_finite(out)


def eval_risk_score(risk: RiskScoreSpec, x: np.ndarray, t: float) -> float:
    """Risk score G(t|x) for a single observation and timepoint."""
    x = np.asarray(x, dtype=float)
    if x.shape != (risk.p,):
        raise ValueError(f"expected a vector of length {risk.p}")
    if t < 0:
        raise ValueError("t must be >= 0")
    products = term_products(risk, x[None, :])[0]
    factors = time_factors(risk, [t])[:, 0]
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
    products = term_products(model.risk, x[None, :])[0]

    def integrand(u):
        factors = time_factors(model.risk, np.atleast_1d(u))
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


def coxph_survival_matrix(model: CoxModel, X: np.ndarray, times) -> np.ndarray:
    """exp(-e^eta * H0(t)) through a broadcast product: two (m, T) arrays."""
    h0 = model.cumhaz_at(times)
    eta = model.linear_predictor(X)
    return np.exp(-np.exp(eta)[:, None] * h0[None, :])


def breslow_derivatives(Xs, ds, risk_start, ev, beta):
    """Log partial likelihood, gradient and observed information (Breslow),
    from the reverse cumulative sums s0, s1 and s2 of the (n,), (n, p) and
    (n, p, p) weighted moments, gathered at each event's risk-set start."""
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


def breslow_derivatives_per_call(Xs, ds, risk_start, ev, beta):
    """The risk-set-weight Breslow derivatives with every intermediate
    allocated per call and the beta-free parts (risk_start[ev], the event
    rows' feature sum) recomputed per call: models._breslow_derivatives on
    its per-fit workspace must equal it bit for bit."""
    eta = Xs @ beta
    eta_max = eta.max()
    w = np.exp(eta - eta_max)
    wx = Xs * w[:, None]
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum(wx[::-1], axis=0)[::-1]
    at = risk_start[ev]
    s0e = s0[at]
    mu = s1[at] / s0e[:, None]
    loglik = float(np.sum(eta[ev] - (np.log(s0e) + eta_max)))
    grad = Xs[ev].sum(axis=0) - mu.sum(axis=0)
    c = np.cumsum(np.bincount(at, weights=1.0 / s0e, minlength=w.size))
    info = (Xs * (w * c)[:, None]).T @ Xs - mu.T @ mu
    return loglik, grad, info


def scenario_catalog() -> Dict[object, GroundTruthModel]:
    """Every catalogued scenario, each built from its terms written out."""
    def linear(time_first="constant"):
        return (
            RiskTerm((0,), B1, ("identity",), time_first),
            RiskTerm((1,), B2, ("identity",)),
            RiskTerm((2,), B3, ("identity",)),
        )

    def gam(time_first="constant"):
        return (
            RiskTerm((0,), B1, ("square",), time_first),
            RiskTerm((1,), B2, (ARCTAN,)),
            RiskTerm((2,), B3, ("identity",)),
        )

    inter13 = RiskTerm((0, 2), B13, ("identity", "identity"))
    inter13_td = RiskTerm((0, 2), B13, ("identity", "identity"), "log1p")
    inter12 = RiskTerm((0, 1), B12, ("identity", "identity"))
    inter13sq = RiskTerm((0, 2), B13, ("identity", "square"))
    inter13sq_td = RiskTerm((0, 2), B13, ("identity", "square"), "log1p")
    terms = {
        1: linear(),
        2: linear("log1p"),
        3: linear() + (inter13,),
        4: linear("log1p") + (inter13,),
        5: linear() + (inter13_td,),
        6: gam(),
        7: gam("log1p"),
        8: gam() + (inter12, inter13sq),
        9: gam("log1p") + (inter12, inter13sq),
        10: gam() + (inter12, inter13sq_td),
        "dep_demo": (
            RiskTerm((0,), 0.8, ("identity",), "log1p"),
            RiskTerm((1,), -0.4, ("identity",)),
        ),
    }
    return {key: GroundTruthModel(lam=LAMBDA, risk=RiskScoreSpec(p=3, terms=value))
            for key, value in terms.items()}


def simulate_event_time(model: GroundTruthModel, x: np.ndarray, u: float) -> float:
    """Single event-time draw (see simulate_event_times)."""
    return float(simulate_event_times(model, np.asarray(x)[None, :], [u])[0])


def term_local_moebius(model: GroundTruthModel, x: np.ndarray, background: np.ndarray,
                       times) -> np.ndarray:
    """(2^p, T) Moebius coefficients of the centered log-hazard game of x
    under the marginal imputer over ``background``, term by term, without
    predicting a coalition.

    Under that imputer v(S) = sum_tau v_tau(S & F_tau) minus a constant,
    where term tau with features F_tau has
    v_tau(A) = beta * time(t) * mean_r prod_j g_j(x_j if j in A else z_rj).
    So a term's coefficients vanish off the subsets of F_tau, where they are
    the alternating sums of v_tau; the empty coalition's is 0. The cost is
    sum_tau 2^|F_tau| reference means.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.zeros((1 << model.p, times.size))
    for term in model.risk.terms:
        k = len(term.features)
        means = np.empty(1 << k)
        for a in range(1 << k):
            product = np.full(len(background), term.beta)
            for i, (j, tag) in enumerate(zip(term.features, term.transforms)):
                z = np.full(len(background), x[j]) if a >> i & 1 else background[:, j]
                product = product * _transform_fn(tag)(z)
            means[a] = product.mean()
        factor = np.log1p(times) if term.time_dependent else np.ones_like(times)
        for a in range(1, 1 << k):
            coeff = sum((-1.0) ** (mask_size(a) - mask_size(b)) * means[b]
                        for b in range(1 << k) if b & a == b)
            mask = sum(1 << j for i, j in enumerate(term.features) if a >> i & 1)
            out[mask] += coeff * factor
    return out


def soum_game(p: int, terms, grid) -> SurvivalGame:
    """A sum of unanimity games (SOUM) at ``x = 1`` with one background row
    of zeros: ``predict(X, t) = sum_T c_T(t) prod_{j in T} X_j``, where
    ``c_T(t) = a_T + b_T log1p(t)`` for each (T, a_T, b_T) of ``terms``. A
    coalition's value is the sum of the c_T of the terms it contains, so a
    term's only Moebius coefficient is c_T, at T."""
    def predict(X, times):
        out = np.zeros((X.shape[0], len(times)))
        for T, a, b in terms:
            out += np.prod(X[:, indices_from_mask(T)], axis=1)[:, None] * (a + b * np.log1p(times))
        return out
    return SurvivalGame(predict, np.ones(p), MarginalEmpiricalImputer(np.zeros((1, p))), grid)


def soum_ksii(p: int, terms, k: int, times) -> Dict[int, np.ndarray]:
    """Closed-form order-k k-SII of ``soum_game``: for |S| <= k, the sum
    over the terms T containing S of
    ``_moebius_redistribution(|S|, |T|, k) * c_T(t)``."""
    out = {S: np.zeros(len(times)) for S in coalition_iter(p, k) if S}
    for T, a, b in terms:
        curve = a + b * np.log1p(times)
        for S in out:
            if S & T == S:
                out[S] += _moebius_redistribution(mask_size(S), mask_size(T), k) * curve
    return out


@lru_cache(maxsize=16)
def redistribution(p: int, k: int):
    """(S, superset masks in descending order, their non-zero order-k
    weights) for every target coalition S of size 1..k, in canonical order:
    the weights of the Moebius coefficients each target receives. Targets of
    one size share their weights."""
    plan = _plan(p, k)
    full = (1 << p) - 1
    out = []
    for s in range(1, k + 1):
        extras = np.arange(1 << (p - s), dtype=np.int64)[::-1]
        weights = np.array([_moebius_redistribution(s, r, k)
                            for r in range(s, p + 1)])[np.bitwise_count(extras)]
        targets = plan.targets[plan.sizes == s]
        supers = targets[:, None] + _picks(targets ^ full, p, extras[weights != 0.0])
        coeffs = weights[weights != 0.0]
        for a in (supers, coeffs):  # shared by every caller through the cache
            a.flags.writeable = False
        out += zip(targets.tolist(), supers, itertools.repeat(coeffs))
    return tuple(out)


def gather_ksii(V: np.ndarray, k: int) -> np.ndarray:
    """(N, n_targets, T) order-k curves of a (N, 2^p, T) value tensor, as
    ``interactions._ksii_block``: one Moebius pass, then one contraction per
    target over its ``redistribution`` supersets."""
    p = V.shape[1].bit_length() - 1
    mo = _zeta_pass(np.array(V, dtype=float), np.subtract)
    plan = redistribution(p, k)
    out = np.empty((V.shape[0], len(plan), V.shape[2]))
    for i, (_, supers, coeffs) in enumerate(plan):
        out[:, i] = coeffs @ mo[:, supers]
    return out


def rational_ksii(table, k: int) -> Dict[int, tuple]:
    """Exact order-k curve of each target S of a (2^p, T) table of integers,
    with its absolute Moebius mass sum_{T >= S} |w(|S|, |T|)| |m(T)|, both
    as lists of Fractions: Moebius coefficients by inclusion-exclusion and
    the weights w of ``_moebius_redistribution`` before their rounding to
    float."""
    n = len(table)
    p = n.bit_length() - 1
    mo = [[Fraction(int(v)) for v in row] for row in table]
    for j in range(p):
        for m in range(n):
            if m >> j & 1:
                mo[m] = [a - b for a, b in zip(mo[m], mo[m ^ (1 << j)])]
    bern = _bernoulli_fractions(k)
    weight = {(s, r): sum((math.comb(r - s, t - s) * bern[t - s] * Fraction(1, r - t + 1)
                           for t in range(s, min(k, r) + 1)), Fraction(0))
              for s in range(1, k + 1) for r in range(s, p + 1)}
    out = {}
    for S in list(coalition_iter(p, k))[1:]:  # no empty set
        terms = [(weight[mask_size(S), mask_size(T)], mo[T]) for T in range(n) if T & S == S]
        out[S] = tuple([sum((f(w * m[t]) for w, m in terms), Fraction(0))
                        for t in range(len(mo[0]))] for f in (Fraction, abs))
    return out


def _submasks(mask: int) -> np.ndarray:
    """All submasks of ``mask`` as an int64 array (descending order)."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return np.array(out, dtype=np.int64)


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


def mask_from_indices(indices: Sequence[int], p: int) -> int:
    """Encode a set of 0-based feature indices as a bitmask."""
    mask = 0
    for i in indices:
        if not 0 <= i < p:
            raise ValueError(f"feature index {i} out of range for p={p}")
        mask |= 1 << i
    return mask


def marginal_rows(background: np.ndarray, x: np.ndarray, masks) -> np.ndarray:
    """Mask-major rows of the marginal imputer, C-ordered, by one gather per
    background row: column j * p + f reads x[f] (source column p + f) where
    mask j pins feature f, else the background's f; the (n, K, p) gather is
    then reordered to row j * n + r."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    n, p = background.shape
    source = np.hstack([background, np.broadcast_to(x, background.shape)])
    cols = np.arange(p) + p * ((masks[:, None] >> np.arange(p)) & 1)
    gathered = source.take(cols.ravel(), axis=1).reshape(n, masks.size, p)
    return gathered.transpose(1, 0, 2).reshape(-1, p)


def conditional_rows(imputer, x: np.ndarray, masks) -> np.ndarray:
    """Mask-major rows of a ``ConditionalGaussianImputer``, solving each
    coalition's Gaussian conditional and its Cholesky factor (with the 1e-12
    jitter when the factor fails) on every call."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    p, mean, cov = imputer.p, imputer.mean, imputer.covariance
    rows = np.empty((masks.size, imputer.n_samples, p))
    for block, mask in zip(rows, masks.tolist()):
        cond = list(indices_from_mask(mask))
        if len(cond) == 0:
            block[:] = imputer.reference_rows()
            continue
        block[:] = x
        if len(cond) == p:
            continue
        rest = [i for i in range(p) if i not in cond]
        S_rc = cov[np.ix_(rest, cond)]
        gain = np.linalg.solve(cov[np.ix_(cond, cond)], S_rc.T).T
        cond_mean = mean[rest] + gain @ (np.asarray(x[cond], dtype=float) - mean[cond])
        cond_cov = cov[np.ix_(rest, rest)] - gain @ S_rc.T
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        try:
            chol = np.linalg.cholesky(cond_cov)
        except np.linalg.LinAlgError:
            chol = np.linalg.cholesky(cond_cov + 1e-12 * np.eye(len(rest)))
        block[:, rest] = cond_mean + imputer._z[:, rest] @ chol.T
    return rows.reshape(-1, p)


def in_sequence_means(preds: np.ndarray, T: int) -> np.ndarray:
    """Column means of (n_ref, cols) reference-row-major predictions on a
    grid of T points, as the value engine took them before its rows were
    mask-major: numpy adds along a contiguous axis pairwise, along any other
    in order, so at T = 1 each column is summed as a contiguous row,
    pairwise; otherwise the reference rows are added in sequence, by an
    accumulation when there is one column."""
    if T == 1:
        sums = np.ascontiguousarray(preds.T).sum(axis=1)
    elif preds.shape[1] == 1:
        sums = np.cumsum(preds[:, 0])[-1:]
    else:
        sums = preds.sum(axis=0)
    sums /= preds.shape[0]
    return sums


def in_sequence_table(predict, x: np.ndarray, imputer, grid) -> np.ndarray:
    """(2^p, w) values of every coalition of x at the engine's w nodes, from
    reference-row-major rows (row r of every coalition, then r + 1) and
    ``in_sequence_means``, centred on the reference rows' mean taken the
    same way: the value engine before its rows were mask-major."""
    p, n_ref = imputer.p, imputer.n_reference
    points = grid.points[_width(predict, grid)[0]]
    baseline = in_sequence_means(
        np.asarray(predict(imputer.reference_rows(), points)), len(grid))
    masks = np.arange(1, (1 << p) - 1)
    rows = imputer.rows_for(x, masks).reshape(masks.size, n_ref, p)
    preds = np.asarray(predict(rows.transpose(1, 0, 2).reshape(-1, p), points))
    out = np.zeros((1 << p, points.size))
    out[masks] = in_sequence_means(preds.reshape(n_ref, -1), len(grid)).reshape(
        masks.size, -1) - baseline
    out[-1] = np.asarray(predict(x[None, :], points))[0] - baseline
    return out


def sample_coalitions(p: int, n_rows: int, rng: np.random.Generator):
    """``approximators._sample_coalitions`` with the strata enumerated by
    ``itertools.combinations``: the masks as a list, and their weights."""
    sizes = list(range(1, p))
    mass = {s: (p - 1) / (s * (p - s)) for s in sizes}
    counts = {s: math.comb(p, s) for s in sizes}
    chosen: List[int] = []
    weights: List[float] = []
    remaining = n_rows
    open_sizes = sizes[:]
    while open_sizes and remaining > 0:
        total_mass = sum(mass[s] for s in open_sizes)
        saturated = [
            s for s in open_sizes
            if remaining * mass[s] / total_mass >= counts[s]
        ]
        if not saturated:
            break
        for s in sorted(saturated, key=lambda s: counts[s]):
            if counts[s] > remaining:
                continue
            for combo in itertools.combinations(range(p), s):
                chosen.append(sum(1 << j for j in combo))
                weights.append(mass[s] / counts[s])
            remaining -= counts[s]
            open_sizes.remove(s)
    if open_sizes and remaining > 0:
        total_mass = sum(mass[s] for s in open_sizes)
        alloc = {s: remaining * mass[s] / total_mass for s in open_sizes}
        take = {s: min(counts[s], int(a)) for s, a in alloc.items()}
        leftovers = sorted(open_sizes, key=lambda s: alloc[s] - take[s], reverse=True)
        short = remaining - sum(take.values())
        for s in leftovers:
            if short <= 0:
                break
            if take[s] < counts[s]:
                take[s] += 1
                short -= 1
        for s in open_sizes:
            n_s = take[s]
            if n_s == 0:
                continue
            picked = sample_masks_of_size(p, s, n_s, rng)
            per_weight = mass[s] / counts[s] * (counts[s] / n_s)
            chosen.extend(picked)
            weights.extend([per_weight] * n_s)
    return chosen, np.array(weights)


def sample_masks_of_size(p: int, s: int, n: int, rng: np.random.Generator) -> List[int]:
    """n distinct masks of s features: by index into the list of all
    combinations when there are at most 200,000, else by rejection."""
    total = math.comb(p, s)
    if total <= 200_000:
        combos = list(itertools.combinations(range(p), s))
        idx = rng.choice(total, size=n, replace=False)
        picked = [combos[i] for i in idx]
    else:
        seen = set()
        picked = []
        while len(picked) < n:
            combo = tuple(sorted(rng.choice(p, size=s, replace=False).tolist()))
            if combo not in seen:
                seen.add(combo)
                picked.append(combo)
    return [sum(1 << j for j in combo) for combo in picked]


def model_to_json(model: GroundTruthModel, path) -> None:
    """Write a model spec that ``survix.models.model_from_json`` reads back:
    1-based feature indices, as the CLI's model files hold them."""
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
