"""Evaluation metrics: time-dependent local accuracy, concordance index,
integrated Brier score, curve smoothing, time-dependence classification and
approximation error."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import InteractionExplanation, SurvivalDataset, TimeGrid


@dataclass(frozen=True)
class LocalAccuracyCurve:
    """Normalized per-timepoint reconstruction error and its time average."""

    grid: TimeGrid
    sigma: np.ndarray
    mean: float


def local_accuracy(explanations: Sequence[InteractionExplanation],
                   predictions: np.ndarray,
                   baseline: np.ndarray | None = None) -> LocalAccuracyCurve:
    """Root-mean-square decomposition residual, normalized by the raw
    prediction scale.

    For each instance the residual is the prediction minus the attribution
    reconstruction (order-zero term plus all curves). When ``baseline`` is
    given it replaces every explanation's stored order-zero term; expectations
    are means over the instance set.
    """
    if len(explanations) == 0:
        raise ValueError("at least one explanation is required")
    grid = explanations[0].grid
    T = len(grid)
    predictions = np.atleast_2d(np.asarray(predictions, dtype=float))
    if predictions.shape != (len(explanations), T):
        raise ValueError("predictions must be (n_instances, n_timepoints)")
    residuals = np.empty_like(predictions)
    for i, expl in enumerate(explanations):
        if len(expl.grid) != T or not np.allclose(expl.grid.points, grid.points):
            raise ValueError("all explanations must share one grid")
        recon = expl.attribution_sum()
        if baseline is not None:
            recon = recon - expl.baseline + np.asarray(baseline, dtype=float)
        residuals[i] = predictions[i] - recon
    denom = np.mean(predictions ** 2, axis=0)
    if np.any(denom <= 0):
        bad = grid.points[np.flatnonzero(denom <= 0)]
        raise ValueError(f"zero prediction scale at t={bad.tolist()}")
    sigma = np.sqrt(np.mean(residuals ** 2, axis=0) / denom)
    return LocalAccuracyCurve(grid=grid, sigma=sigma, mean=float(sigma.mean()))


def concordance_index(risk_scores: np.ndarray, data: SurvivalDataset) -> float:
    """Harrell's concordance: over pairs (i, j) with y_i < y_j and an event
    at y_i, the fraction where the earlier failure has the higher risk score.

    Tie rules: pairs tied in time are not comparable; pairs tied in risk
    count one half. Risk scores get dense ranks, so equal scores share a
    rank. Sorted by time (ties by rank), the concordant pairs are, for each
    event, the later rows of lower rank: a bottom-up merge counts them in
    ceil(log2 n) vectorised binary-search passes. Risk ties are counted with
    one sort over (rank, time). O(n log n) time, O(n) memory; all counts are
    integers, so the result is exactly (concordant + ties / 2) / comparable.
    """
    risk = np.asarray(risk_scores, dtype=float)
    if risk.shape != (data.n,):
        raise ValueError(
            f"risk_scores must be a vector of length {data.n}, got shape {risk.shape}"
        )
    if not np.all(np.isfinite(risk)):
        raise ValueError("risk_scores must be finite")
    n, y, event = data.n, data.times, data.events == 1
    _, rank = np.unique(risk, return_inverse=True)
    _, time_rank = np.unique(y, return_inverse=True)
    order = np.lexsort((rank, y))
    comparable = int(np.sum(n - np.searchsorted(y[order], y[event], side="right")))
    if comparable == 0:
        raise ValueError("no comparable pairs in the dataset")
    concordant = _later_lower_pairs(rank[order], event[order])
    # same rank, strictly later time: keys in (rank * n + time_rank, (rank + 1) * n)
    keys = rank * n + time_rank
    sorted_keys = np.sort(keys)
    ties = int(np.sum(np.searchsorted(sorted_keys, (rank[event] + 1) * n)
                      - np.searchsorted(sorted_keys, keys[event], side="right")))
    return float((concordant + 0.5 * ties) / comparable)


def _later_lower_pairs(rank: np.ndarray, event: np.ndarray) -> int:
    """Number of pairs i < j with event[i] and rank[j] < rank[i].

    Bottom-up merge: at width w, ``perm`` lists the positions sorted by
    (position // w, rank), so each width-w block is a sorted run that starts
    at block * w. Every pair is split at exactly one width, where i lies in
    an even block and j in the next one; a binary search for the event's
    rank in that next block counts its lower ranks.
    """
    n = rank.size  # ranks are below n, so block * n + rank orders by block
    perm = np.arange(n)
    total = 0
    width = 1
    while width < n:
        block = perm // width
        keys = block * n + rank[perm]
        ask = event[perm] & (block % 2 == 0) & ((block + 1) * width < n)
        nxt = block[ask] + 1
        total += int(np.sum(np.searchsorted(keys, nxt * n + rank[perm[ask]])
                            - nxt * width))
        width *= 2
        # pairs of sorted runs: the stable sort merges them in linear time
        perm = perm[np.argsort(perm // width * n + rank[perm], kind="stable")]
    return total


def censoring_km(data: SurvivalDataset):
    """Kaplan-Meier estimate of the censoring survival function G(t).

    Returns (times, values) of the right-continuous step function: one step
    per distinct observed time t, with factor 1 - censored / at risk, where
    every row with y >= t is at risk (rows tied at t included). Censorings
    per distinct time come from one np.unique plus np.bincount, O(n log n).
    """
    y = data.times
    uniq, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    at_risk = np.cumsum(counts[::-1])[::-1]
    censored = np.bincount(inverse[data.events == 0], minlength=uniq.size)
    factors = 1.0 - censored / at_risk
    return uniq, np.cumprod(factors)


def _step_lookup(times, values, query, side):
    idx = np.searchsorted(times, query, side=side)
    padded = np.concatenate(([1.0], values))
    return padded[idx]


def integrated_brier(surv: np.ndarray, data: SurvivalDataset,
                     grid: TimeGrid) -> float:
    """Censoring-weighted Brier score integrated over the grid (trapezoid,
    divided by the grid span).

    At each grid time t, a row with an event by t scores S(t)^2 / G(y-), a
    row still at risk (y > t) scores (1 - S(t))^2 / G(t), and a row censored
    by t scores 0. The terms fill one (T, n) array, so the cost is O(n T)
    after the O(n log n) censoring Kaplan-Meier.
    """
    surv = np.atleast_2d(np.asarray(surv, dtype=float))
    y, d = data.times, data.events
    if surv.shape != (data.n, len(grid)):
        raise ValueError("surv must be (n_instances, n_timepoints)")
    if grid.points[-1] >= y.max():
        raise ValueError("grid must end before the largest observed time")
    km_t, km_v = censoring_km(data)
    g_at_y = _step_lookup(km_t, km_v, y, side="left")  # limit from the left
    g_at_t = _step_lookup(km_t, km_v, grid.points, side="right")
    at_risk = y > grid.points[:, None]
    event_by_t = ~at_risk & (d == 1)
    # the first grid time at which a weight is zero, checked as t increases
    zero_g = at_risk.any(axis=1) & (g_at_t <= 0)
    zero_w = (event_by_t & (g_at_y <= 0)).any(axis=1)
    if np.any(zero_g | zero_w):
        ti = int(np.argmax(zero_g | zero_w))
        if zero_g[ti]:
            raise ValueError(f"censoring survival reaches 0 before t={grid.points[ti]}")
        raise ValueError("zero censoring weight at an event time")
    s = surv.T
    terms = np.zeros(s.shape)
    np.divide(s ** 2, g_at_y, out=terms, where=event_by_t)
    np.divide((1.0 - s) ** 2, g_at_t[:, None], out=terms, where=at_risk)
    bs = terms.mean(axis=1)
    span = grid.points[-1] - grid.points[0]
    if span == 0:
        return float(bs[0])
    return float(np.trapezoid(bs, grid.points) / span)


def savgol_smooth(series: np.ndarray, window: int = 11,
                  poly_order: int = 3) -> np.ndarray:
    """Savitzky-Golay smoothing with polynomial boundary handling."""
    # imported here: scipy.signal alone costs more than the rest of survix
    from scipy.signal import savgol_filter

    series = np.asarray(series, dtype=float)
    if window % 2 == 0 or window < 1:
        raise ValueError("window must be a positive odd integer")
    if not 0 <= poly_order < window:
        raise ValueError("poly_order must be non-negative and below window")
    if window > series.shape[-1]:
        raise ValueError("window exceeds series length")
    return savgol_filter(series, window_length=window, polyorder=poly_order,
                         mode="interp")


def smooth_explanation(expl: InteractionExplanation, window: int = 11,
                       poly_order: int = 3) -> InteractionExplanation:
    """Explanation with every attribution curve (and baseline) smoothed."""
    window = min(window, len(expl.grid) if len(expl.grid) % 2 else len(expl.grid) - 1)
    if window < poly_order + 1:
        return expl
    return InteractionExplanation(
        order=expl.order,
        target=expl.target,
        grid=expl.grid,
        baseline=savgol_smooth(expl.baseline, window, poly_order),
        values={k: savgol_smooth(v, window, poly_order)
                for k, v in expl.values.items()},
        info=dict(expl.info, smoothed=True),
    )


def classify_time_dependence(expl: InteractionExplanation,
                             tol: float = 1e-6) -> Tuple[frozenset, frozenset]:
    """Split the explanation's coalitions into time-dependent and
    time-independent sets: a curve is time-dependent when its maximum
    deviation from its time average exceeds ``tol``."""
    if len(expl.grid) < 2:
        raise ValueError("need at least two grid points to assess variation")
    dependent, independent = set(), set()
    for key, curve in expl.values.items():
        if np.max(np.abs(curve - curve.mean())) > tol:
            dependent.add(key)
        else:
            independent.add(key)
    return frozenset(dependent), frozenset(independent)


def approximation_error(approx: InteractionExplanation,
                        exact: InteractionExplanation) -> float:
    """Mean squared difference between two explanations over all
    (coalition, timepoint) entries."""
    if approx.order != exact.order:
        raise ValueError("orders differ")
    if set(approx.values) != set(exact.values):
        raise ValueError("coalition sets differ")
    if len(approx.grid) != len(exact.grid) or not np.allclose(
        approx.grid.points, exact.grid.points
    ):
        raise ValueError("grids differ")
    total = 0.0
    count = 0
    for key, curve in exact.values.items():
        diff = approx.values[key] - curve
        total += float(np.sum(diff ** 2))
        count += diff.size
    return total / count
