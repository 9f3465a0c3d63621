"""Exact Shapley interaction computation on coalition value tables.

The exact pipeline is: complete value table -> Shapley interaction index per
coalition (each order uses its own weight normalization) -> aggregation to a
fixed maximum order. The aggregation redistributes higher-order mass with
Bernoulli-number weights, which keeps the top order equal to the raw index,
preserves efficiency at every timepoint, reduces to Shapley values at order
one, and reproduces the Moebius transform at full order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Sequence

import numpy as np

from .core import (
    InteractionExplanation,
    PredictionTarget,
    TimeGrid,
    coalition_iter,
    indices_from_mask,
    mask_size,
)
from .games import SurvivalGame, ValueTable, evaluate_all_coalitions


def _table_matrix(table: ValueTable) -> np.ndarray:
    """Complete table as a (2^p, T) matrix indexed by coalition mask."""
    if not table.complete:
        raise ValueError("a complete value table is required")
    n = 1 << table.p
    if table.masks == tuple(range(n)):
        return table.values
    out = np.empty_like(table.values)
    for mask in range(n):
        out[mask] = table.lookup(mask)
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


@dataclass(frozen=True)
class MoebiusCoefficients:
    """Pure per-coalition effects of a game: the unique coefficients whose
    subset sums reproduce every coalition value."""

    p: int
    grid: TimeGrid
    values: np.ndarray  # (2^p, T), indexed by mask

    def lookup(self, mask: int) -> np.ndarray:
        return self.values[mask]


def moebius_transform(table: ValueTable) -> MoebiusCoefficients:
    """In-place subset-sum Moebius transform, O(p 2^p) per timepoint."""
    V = _table_matrix(table).copy()
    n = V.shape[0]
    idx = np.arange(n)
    for j in range(table.p):
        bit = 1 << j
        has = (idx & bit) != 0
        V[has] -= V[idx[has] ^ bit]
    V.flags.writeable = False
    return MoebiusCoefficients(p=table.p, grid=table.grid, values=V)


def reconstruct_from_moebius(m: MoebiusCoefficients) -> np.ndarray:
    """Inverse (zeta) transform; returns the (2^p, T) value matrix."""
    V = m.values.copy()
    idx = np.arange(V.shape[0])
    for j in range(m.p):
        bit = 1 << j
        has = (idx & bit) != 0
        V[has] += V[idx[has] ^ bit]
    return V


def discrete_derivative(table: ValueTable, K: int, M: int, t: float | None = None):
    """Alternating sum of values over subsets of K joined onto M.

    K and M are coalition masks and must be disjoint. Returns the full curve
    over the grid, or a scalar when ``t`` names a grid point.
    """
    if K & M:
        raise ValueError("K and M must be disjoint")
    out = np.zeros(len(table.grid))
    kp = mask_size(K)
    for L in _submasks(K):
        sign = -1.0 if (kp - mask_size(int(L))) % 2 else 1.0
        out += sign * table.lookup(M | int(L))
    if t is None:
        return out
    hits = np.flatnonzero(np.isclose(table.grid.points, t))
    if hits.size == 0:
        raise ValueError(f"t={t} is not a grid point")
    return float(out[hits[0]])


@lru_cache(maxsize=None)
def _bernoulli_fractions(n: int):
    """Bernoulli numbers B_0..B_n as exact fractions (B_1 = -1/2)."""
    bern = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    return tuple(bern)


def exact_sii(table: ValueTable, k: int) -> Dict[int, np.ndarray]:
    """Shapley interaction index curves for every coalition of size 1..k.

    For a coalition K the index averages discrete derivatives over subsets M
    of the remaining features, weighted by 1 / ((p-|K|+1) * C(p-|K|, |M|)).
    Accumulation runs in extended precision; the alternating sums otherwise
    lose enough digits to disturb downstream identity checks.
    """
    p = table.p
    if not 1 <= k <= p:
        raise ValueError(f"order must lie in 1..{p}")
    V = _table_matrix(table).astype(np.longdouble)
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


def aggregate_ksii(sii: Dict[int, np.ndarray], k: int, p: int) -> Dict[int, np.ndarray]:
    """Aggregate raw interaction indices of orders 1..k into an
    efficiency-preserving decomposition of maximum order k.

    Each coalition receives its own index plus Bernoulli-weighted
    contributions from every strictly larger coalition up to order k. The
    Bernoulli recurrence makes all higher-order mass cancel exactly at
    k = p, recovering the Moebius transform.
    """
    bern = [float(b) for b in _bernoulli_fractions(k)]
    inputs = {S: np.asarray(v, dtype=np.longdouble) for S, v in sii.items()}
    out: Dict[int, np.ndarray] = {}
    for S, base in inputs.items():
        s = mask_size(S)
        if s > k:
            raise ValueError("input contains orders above k")
        acc = base.copy()
        comp = [j for j in range(p) if not (S >> j) & 1]
        for extra_size in range(1, k - s + 1):
            coeff = bern[extra_size]
            if coeff == 0.0:
                continue
            for extra in itertools.combinations(comp, extra_size):
                mask = S
                for j in extra:
                    mask |= 1 << j
                if mask not in inputs:
                    raise ValueError("missing interaction order in input")
                acc += coeff * inputs[mask]
        out[S] = acc.astype(float)
    return out


@lru_cache(maxsize=None)
def _moebius_redistribution(s: int, r: int, k: int) -> float:
    """Weight a Moebius coefficient of a size-r coalition contributes to the
    order-k aggregation at one of its size-s subsets.

    Chains the Moebius representation of the interaction index with the
    Bernoulli aggregation; evaluated in exact rational arithmetic, so the
    full-order identity (weight 0 for r > s when k = p) is exact.
    """
    bern = _bernoulli_fractions(k)
    acc = Fraction(0)
    for t in range(s, min(k, r) + 1):
        acc += math.comb(r - s, t - s) * bern[t - s] * Fraction(1, r - t + 1)
    return float(acc)


def exact_ksii(table: ValueTable, k: int) -> Dict[int, np.ndarray]:
    """Fused exact pipeline: Moebius transform, then direct redistribution of
    every coefficient onto its subsets of order <= k."""
    p = table.p
    if not 1 <= k <= p:
        raise ValueError(f"order must lie in 1..{p}")
    mo = moebius_transform(table).values
    full = (1 << p) - 1
    out: Dict[int, np.ndarray] = {}
    for S in coalition_iter(p, k):
        if S == 0:
            continue
        s = mask_size(S)
        supers = _submasks(full ^ S)
        sizes = np.array([mask_size(int(m)) for m in supers])
        coeffs = np.array([
            _moebius_redistribution(s, s + extra, k) for extra in sizes
        ])
        keep = coeffs != 0.0
        out[S] = coeffs[keep] @ mo[(supers | S)[keep]]
    return out


@dataclass(frozen=True)
class ApproximatorConfig:
    """Sampling-based estimator configuration.

    budget counts coalition-value evaluations per timepoint; one evaluated
    coalition yields its whole curve, so a single coalition sample is shared
    across the grid.
    """

    method: str
    budget: int
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("mc", "permutation", "regression"):
            raise ValueError(f"unknown approximation method {self.method!r}")
        if self.budget < 2:
            raise ValueError("budget must be at least 2")


def explain(predict, x, imputer, grid: TimeGrid, order: int,
            target: PredictionTarget, method="exact",
            precomputed_baseline: np.ndarray | None = None) -> InteractionExplanation:
    """Decompose one prediction into attribution curves up to ``order``.

    method is either "exact" or an ApproximatorConfig. The exact path
    enumerates all coalitions; estimators spend a fixed evaluation budget.
    """
    from . import approximators  # local import to avoid a cycle

    game = SurvivalGame(predict=predict, x=np.asarray(x, dtype=float),
                        imputer=imputer, grid=grid)
    if precomputed_baseline is not None:
        game._baseline = np.asarray(precomputed_baseline, dtype=float)
    if method == "exact":
        table = evaluate_all_coalitions(game)
        ksii = exact_ksii(table, order)
        residual = float(np.max(np.abs(
            sum(ksii.values()) - table.lookup(game.full_mask)
        )))
        info = {
            "method": "exact",
            "evaluations": 1 << game.p,
            "efficiency_residual": residual,
            # the largest coalition magnitude entering the cancellations;
            # float64 cannot do better than eps times this
            "table_scale": float(np.max(np.abs(table.values))),
        }
    elif isinstance(method, ApproximatorConfig):
        ksii, info = approximators.estimate(game, order, method.method,
                                            method.budget, method.seed)
    else:
        raise ValueError("method must be 'exact' or an ApproximatorConfig")

    values = {indices_from_mask(mask): curve for mask, curve in ksii.items()}
    return InteractionExplanation(
        order=order, target=target, grid=grid, baseline=game.baseline(),
        values=values, info=info,
    )


def explain_instances(predict, X, imputer, grid: TimeGrid, order: int,
                      target: PredictionTarget, method="exact"):
    """Explain every row of X with a shared reference distribution.

    The reference-mean prediction is computed once and reused, so the cost
    per instance is one value-table evaluation.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    baseline = np.asarray(predict(imputer.reference_rows(), grid.points)).mean(axis=0)
    return [
        explain(predict, X[i], imputer, grid, order, target, method=method,
                precomputed_baseline=baseline)
        for i in range(X.shape[0])
    ]


def efficiency_residual(expl: InteractionExplanation,
                        prediction: np.ndarray) -> np.ndarray:
    """Prediction minus (baseline + sum of attribution curves) per timepoint."""
    return np.asarray(prediction, dtype=float) - expl.attribution_sum()
