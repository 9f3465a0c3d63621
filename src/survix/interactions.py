"""Exact Shapley interaction computation on coalition value tables.

A value table is a plain (2^p, T) array whose row index is the coalition
mask. The order-k indices (k-SII) are the Shapley interaction index of each
coalition (each order with its own weight normalization) aggregated to a
fixed maximum order; the exact path reaches them from the table's Moebius
coefficients in one step. The aggregation redistributes higher-order mass with
Bernoulli-number weights, which keeps the top order equal to the raw index,
preserves efficiency at every timepoint, reduces to Shapley values at order
one, and reproduces the Moebius transform at full order.

``explain_instances`` fills one (N, 2^p, w) value tensor per block of rows,
runs one Moebius pass over its coalition axis, then one contraction per
target coalition, over all N. The w columns are the engine's nodes (see
``games``): r for a callable with an r-row time basis, such as a ground-truth
log-hazard, else T. The curves are mapped to the grid once per block.

One read-only plan per (p, k), ``_plan``, built on first use, indexes the
targets (the coalitions of size 1..k, canonical order): their feature
indices, their submasks and signs for the estimators' derivatives, and their
supersets of size <= k and Bernoulli weights for ``aggregate_ksii``. The
exact path's redistribution takes its targets from it and caches their 2^p
supersets apart. Both pick subsets with ``_picks``, the one subset picker.
A weight depends only on (|S|, |R|, k).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, NamedTuple, Tuple

import numpy as np

from .core import (
    InteractionExplanation,
    PredictionTarget,
    TimeGrid,
    coalition_iter,
    indices_from_mask,
    mask_size,
)
from .games import SurvivalGame, _to_grid, _width, all_coalition_values, reference_mean


def _zeta_pass(V: np.ndarray, op) -> np.ndarray:
    """For j = 0..p-1, row(S + j) = op(row(S + j), row(S)) in place over the
    coalition axis of a (..., 2^p, T) array: np.subtract is Moebius, np.add
    its inverse."""
    n, T = V.shape[-2:]
    bit = 1
    while bit < n:
        # (..., high bits, bit j, low bits, T) view of the coalition axis
        W = V.reshape(V.shape[:-2] + (n // (2 * bit), 2, bit, T))
        op(W[..., 1, :, :], W[..., 0, :, :], out=W[..., 1, :, :])
        bit <<= 1
    return V


def _players(values: np.ndarray) -> int:
    """p of a (2^p, T) value array with p >= 1; ValueError for any other
    shape."""
    n = values.shape[0] if values.ndim == 2 else 0
    if n < 2 or n & (n - 1):
        raise ValueError(f"values must be a (2^p, T) array with p >= 1, "
                         f"got shape {values.shape}")
    return n.bit_length() - 1


def moebius_transform(values: np.ndarray) -> np.ndarray:
    """Read-only (2^p, T) Moebius coefficients of a (2^p, T) value array,
    indexed by mask: the pure per-coalition effects whose subset sums
    reproduce every coalition value. In-place subset-sum pass, O(p 2^p) per
    timepoint."""
    V = np.array(values, dtype=float)
    _players(V)
    _zeta_pass(V, np.subtract)
    V.flags.writeable = False
    return V


def reconstruct_from_moebius(mo: np.ndarray) -> np.ndarray:
    """Inverse (zeta) transform; returns the (2^p, T) value matrix."""
    V = np.array(mo, dtype=float)
    _players(V)
    return _zeta_pass(V, np.add)


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


def _picks(pools: np.ndarray, p: int, extras: np.ndarray) -> np.ndarray:
    """(len(pools), len(extras)) subsets of masks of one size: each mask in
    ``extras`` picks features among a pool's, counted from its lowest.
    Picking keeps order, so each row ascends or descends as ``extras`` do."""
    bits = 1 << np.arange(p, dtype=np.int64)
    members = np.broadcast_to(bits, (pools.size, p))[(pools[:, None] & bits) != 0]
    members = members.reshape(pools.size, -1)
    picks = (extras[:, None] >> np.arange(members.shape[1])) & 1
    return members @ picks.T


class _Plan(NamedTuple):
    """What every path indexes by the targets of order k over p features."""

    targets: np.ndarray  # target masks in canonical order
    sorter: np.ndarray  # argsort of targets, to look a mask up
    sizes: np.ndarray  # each target's size
    keys: MappingProxyType  # each target mask's feature indices
    first: np.ndarray  # each target's offset into flat
    flat: np.ndarray  # each target's submasks, descending, one after another
    signs: tuple  # per size s = 1..k, the (2^s,) signs of a derivative's terms
    rows: np.ndarray  # target by target, its supersets' rows, ascending masks
    coeffs: np.ndarray  # their non-zero Bernoulli weights B_{r-s}
    starts: np.ndarray  # where each target's run starts in rows


@lru_cache(maxsize=16)
def _plan(p: int, k: int) -> _Plan:
    """Per size, ``_picks`` lists the targets' submasks in the descending
    order a derivative adds them, and their supersets of size <= k with
    non-zero weight, ascending. A submask's sign is the parity of what it
    leaves out, the same at a column for every target of a size."""
    targets = np.fromiter(coalition_iter(p, k), dtype=np.int64)[1:]  # no empty set
    sizes = np.bitwise_count(targets).astype(np.int64)
    sorter = np.argsort(targets)
    bern = np.array([float(b) for b in _bernoulli_fractions(k)])
    full = (1 << p) - 1
    flat, signs, supers, coeffs = [], [], [], []
    for s in range(1, k + 1):
        of_size = targets[sizes == s]
        subs = np.arange(1 << s, dtype=np.int64)[::-1]
        flat.append(_picks(of_size, p, subs).ravel())
        signs.append(np.where((s - np.bitwise_count(subs)) % 2, -1.0, 1.0))
        extras = np.sort(np.fromiter(coalition_iter(p - s, k - s), dtype=np.int64))
        weights = bern[np.bitwise_count(extras)]
        keep = weights != 0.0
        supers.append(of_size[:, None] + _picks(of_size ^ full, p, extras[keep]))
        coeffs.append(np.broadcast_to(weights[keep], supers[-1].shape))
    lengths = np.array([c.shape[1] for c in coeffs])[sizes - 1]
    rows = sorter[np.searchsorted(targets, np.concatenate(supers, axis=None), sorter=sorter)]
    plan = _Plan(targets, sorter, sizes,
                 MappingProxyType({S: indices_from_mask(S) for S in targets.tolist()}),
                 np.cumsum(1 << sizes) - (1 << sizes), np.concatenate(flat), tuple(signs),
                 rows, np.concatenate(coeffs, axis=None), np.cumsum(lengths) - lengths)
    for a in (*plan, *plan.signs):  # shared by every caller through the cache
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def aggregate_ksii(sii: Dict[int, np.ndarray], k: int, p: int) -> Dict[int, np.ndarray]:
    """Aggregate raw interaction indices of orders 1..k into an
    efficiency-preserving decomposition of maximum order k.

    Each coalition receives its own index plus Bernoulli-weighted
    contributions from every strictly larger coalition up to order k. The
    Bernoulli recurrence makes all higher-order mass cancel exactly at
    k = p, recovering the Moebius transform.
    """
    plan = _plan(p, k)
    n = plan.targets.size
    try:
        masks = np.fromiter(sii, dtype=np.int64, count=len(sii))
    except OverflowError:  # a mask beyond int64, which Python ints compare exactly
        masks = np.fromiter(sii, dtype=object, count=len(sii))
    at = plan.sorter[np.searchsorted(plan.targets, masks, sorter=plan.sorter) % n]
    bad = masks[plan.targets[at] != masks].tolist()
    if bad:
        raise ValueError("input contains orders above k" if mask_size(bad[0]) > k else
                         f"mask {bad[0]} is no coalition of size 1..{k} over {p} features")
    values = np.asarray(list(sii.values()), dtype=float)
    stacked = np.zeros((n,) + values.shape[1:])
    given = np.zeros(n, dtype=bool)
    stacked[at], given[at] = values, True
    if not np.logical_and.reduceat(given[plan.rows], plan.starts)[at].all():
        raise ValueError("missing interaction order in input")
    # weights along the leading axis, whatever the shape of a curve
    summed = np.add.reduceat((stacked[plan.rows].T * plan.coeffs).T, plan.starts)
    return dict(zip(sii, summed[at]))


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


@lru_cache(maxsize=16)
def _redistribution(p: int, k: int) -> Tuple[Tuple[int, np.ndarray, np.ndarray], ...]:
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


def _check_order(k: int, p: int) -> None:
    if not 1 <= k <= p:
        raise ValueError(f"order must lie in 1..{p}")


def _ksii_block(V: np.ndarray, k: int) -> np.ndarray:
    """(N, n_targets, T) order-k attribution curves of a (N, 2^p, T) value
    tensor, targets in ``coalition_iter`` order without the empty set."""
    p = V.shape[1].bit_length() - 1
    _check_order(k, p)
    mo = _zeta_pass(V.copy(), np.subtract)
    plan = _redistribution(p, k)
    out = np.empty((V.shape[0], len(plan), V.shape[2]))
    for i, (_, supers, coeffs) in enumerate(plan):
        out[:, i] = coeffs @ mo[:, supers]
    return out


def exact_ksii(values: np.ndarray, k: int) -> Dict[int, np.ndarray]:
    """Fused exact pipeline on a (2^p, T) value array: Moebius transform,
    then direct redistribution of every coefficient onto its subsets of
    order <= k."""
    values = np.asarray(values, dtype=float)
    p = _players(values)
    return dict(zip(_plan(p, k).targets.tolist(), _ksii_block(values[None], k)[0]))


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
        from .approximators import estimators  # local import to avoid a cycle
        if self.method not in estimators():
            raise ValueError(f"unknown approximation method {self.method!r}")
        if not _is_integer(self.budget):
            raise ValueError(f"budget must be an integer, got {self.budget!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def explain(predict, x, imputer, grid: TimeGrid, order: int,
            target: PredictionTarget, method="exact") -> InteractionExplanation:
    """Decompose one prediction into attribution curves up to ``order``: the
    one-row case of ``explain_instances``. method is either "exact", which
    enumerates all coalitions, or an ApproximatorConfig with a budget."""
    X = np.asarray(x, dtype=float).reshape(1, -1)
    return explain_instances(predict, X, imputer, grid, order, target, method=method)[0]


def explain_instances(predict, X, imputer, grid: TimeGrid, order: int,
                      target: PredictionTarget, method="exact"):
    """Explain every row of X with one shared reference-mean prediction: the
    exact path one value tensor per block of rows (the blocks of
    ``games.all_coalition_values``), estimators one game per row."""
    from . import approximators  # local import to avoid a cycle

    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = imputer.p
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError("instance length must match the imputer")
    exact = isinstance(method, str) and method == "exact"
    if not exact and not isinstance(method, ApproximatorConfig):
        raise ValueError("method must be 'exact' or an ApproximatorConfig")
    _check_order(order, p)
    baseline = reference_mean(predict, imputer, grid)
    keys = _plan(p, order).keys

    def explanation(ksii, info):
        values = {keys[S]: curve for S, curve in ksii.items()}
        return InteractionExplanation(order=order, target=target, grid=grid,
                                      baseline=baseline, values=values, info=info)

    if not exact:
        return [explanation(*approximators.estimate(
            SurvivalGame(predict, x, imputer, grid, reference_mean=baseline),
            order, method.method, method.budget, method.seed)) for x in X]
    nodes, basis_map = _width(predict, grid)
    # a magnitude over the grid is at most the nodes' times the map's largest
    # column sum, which is 1 for the bases [1] and [1, log1p(t)]
    gain = 1.0 if basis_map is None else np.abs(basis_map).sum(axis=0).max()
    out = []
    for V in all_coalition_values(predict, X, imputer, grid, baseline):
        curves = _ksii_block(V, order)
        residuals = np.abs(curves.sum(axis=1) - V[:, -1]).max(axis=1) * gain
        # the largest coalition magnitude entering the cancellations;
        # float64 cannot do better than eps times this
        scales = np.abs(V).max(axis=(1, 2)) * gain
        curves = _to_grid(curves, basis_map)
        out += [explanation(dict(zip(keys, c)),
                            {"method": "exact", "evaluations": 1 << p,
                             "efficiency_residual": float(r), "table_scale": float(sc),
                             "width": nodes.size})
                for c, r, sc in zip(curves, residuals, scales)]
    return out
