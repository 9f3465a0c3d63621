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
                   predictions: np.ndarray) -> LocalAccuracyCurve:
    """Root-mean-square decomposition residual, normalized by the raw
    prediction scale.

    For each instance the residual is the prediction minus the attribution
    reconstruction (order-zero term plus all curves); expectations are means
    over the instance set.
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
        residuals[i] = predictions[i] - expl.attribution_sum()
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
    count one half. Risk scores and times get dense ranks, so equal values
    share a rank. Comparable pairs come from the cumulative counts per time.
    Sorted by time (ties by rank), the concordant pairs are, for each event,
    the later rows of lower rank: they are counted by brute force inside
    32-row blocks and by a bottom-up merge across them (see
    _later_lower_pairs). Risk ties are counted with one sort over
    (rank, time), searched with the sorted event keys. O(n log n) time, O(n)
    memory; all counts are integers, so the result is exactly
    (concordant + ties / 2) / comparable.
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
    _, time_rank, time_counts = np.unique(y, return_inverse=True, return_counts=True)
    # the rows later than an event: all but those up to and including its time
    comparable = int(np.sum(n - np.cumsum(time_counts)[time_rank[event]]))
    if comparable == 0:
        raise ValueError("no comparable pairs in the dataset")
    # rows with equal keys share their time and rank: they pair with nobody,
    # and every other row lies on one side of all of them, so any sort works
    order = np.argsort(time_rank * n + rank)
    concordant = _later_lower_pairs(rank[order], event[order])
    # same rank, strictly later time: keys in (rank * n + time_rank, (rank + 1) * n)
    keys = rank * n + time_rank
    sorted_keys = np.sort(keys)
    event_keys = np.sort(keys[event])  # sorted queries search faster
    ties = int(np.sum(np.searchsorted(sorted_keys, (event_keys // n + 1) * n)
                      - np.searchsorted(sorted_keys, event_keys, side="right")))
    return float((concordant + 0.5 * ties) / comparable)


_BLOCK = 32
_LATER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), k=1)  # [i, j]: j > i


def _later_lower_pairs(rank: np.ndarray, event: np.ndarray) -> int:
    """Number of pairs i < j with event[i] and rank[j] < rank[i].

    Pairs inside each 32-row block are counted by brute force, in one
    (blocks, 32, 32) comparison; the last block is padded with rank n and
    non-events, which pair with nothing. Each block is then sorted by rank,
    and a bottom-up merge counts the pairs across blocks: at width w >= 32, a
    stable sort by (position // 2w, rank) merges each pair of adjacent
    sorted runs, and a row of the left run moves right by exactly the number
    of right-run rows of lower rank (on equal ranks the left row stays
    first). Every pair across 32-row blocks is split at exactly one width.
    """
    n = rank.size  # ranks are below n, so run * n + rank orders by run
    width = _BLOCK
    pad = -n % width
    ranks = np.concatenate((rank, np.full(pad, n))).reshape(-1, width)
    events = np.concatenate((event, np.zeros(pad, dtype=bool))).reshape(-1, width)
    lower = ranks[:, None, :] < ranks[:, :, None]  # [b, i, j]: rank j < rank i
    lower &= _LATER
    total = int(np.count_nonzero(lower & events[:, :, None]))
    # the padding ranks n sort to the end of the last block
    by_rank = np.argsort(ranks, axis=1, kind="stable")
    rank = np.take_along_axis(ranks, by_rank, axis=1).ravel()[:n]
    event = np.take_along_axis(events, by_rank, axis=1).ravel()[:n]
    at = np.arange(n)
    while width < n:
        merge = np.argsort(at // (2 * width) * n + rank, kind="stable")
        moved = (event & ((at & width) == 0))[merge]  # left-run events
        total += int(np.sum(at[moved] - merge[moved]))
        rank, event = rank[merge], event[merge]
        width *= 2
    return total


def _censoring_steps(data: SurvivalDataset):
    """Kaplan-Meier estimate of the censoring survival function G(t), and
    each row's index into its times.

    Returns (times, row_step, values) of the right-continuous step
    function: one step per distinct observed time t, with factor
    1 - censored / at risk, where every row with y >= t is at risk (rows
    tied at t included). Censorings per distinct time come from one
    np.unique plus np.bincount, O(n log n).
    """
    y = data.times
    uniq, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    at_risk = np.cumsum(counts[::-1])[::-1]
    censored = np.bincount(inverse[data.events == 0], minlength=uniq.size)
    factors = 1.0 - censored / at_risk
    return uniq, inverse, np.cumprod(factors)


def _step_lookup(times, values, query, side):
    idx = np.searchsorted(times, query, side=side)
    padded = np.concatenate(([1.0], values))
    return padded[idx]


# cells per block of grid rows in integrated_brier: 64 KB per float buffer,
# small enough to reuse heap memory instead of faulting in fresh pages
_BRIER_CHUNK_CELLS = 8192


def integrated_brier(surv: np.ndarray, data: SurvivalDataset,
                     grid: TimeGrid) -> float:
    """Censoring-weighted Brier score integrated over the grid (trapezoid,
    divided by the grid span).

    At each grid time t, a row with an event by t scores S(t)^2 / G(y-), a
    row still at risk (y > t) scores (1 - S(t))^2 / G(t), and a row censored
    by t scores 0. ``surv`` must hold finite values in [0, 1].

    The scores fill a C-ordered (T, n) layout in blocks of grid rows. In each
    block both terms are computed for every cell, with no masked division,
    then multiplied by their 0/1 masks and added. That equals the masked
    selection exactly: the masks are disjoint and every term is finite and
    >= 0 (a zero weight G is replaced by 1; no selected cell uses one), and
    each row is averaged with the same pairwise sum. O(n T) after the
    O(n log n) censoring Kaplan-Meier.
    """
    surv = np.atleast_2d(np.asarray(surv, dtype=float))
    y, d = data.times, data.events
    if surv.shape != (data.n, len(grid)):
        raise ValueError("surv must be (n_instances, n_timepoints)")
    if not (surv.min() >= 0.0 and surv.max() <= 1.0):  # NaN fails both
        raise ValueError("surv must be finite and lie in [0, 1]")
    if grid.points[-1] >= y.max():
        raise ValueError("grid must end before the largest observed time")
    km_t, y_step, km_v = _censoring_steps(data)
    # G(y-), the limit from the left: the value before y's own step
    g_at_y = np.concatenate(([1.0], km_v))[y_step]
    g_at_t = _step_lookup(km_t, km_v, grid.points, side="right")
    # the grid ends before max(y), so some row is at risk at every grid time;
    # an event at y counts from the first grid time t >= y
    is_event = d == 1
    zero_g = g_at_t <= 0
    bad_y = y[is_event & (g_at_y <= 0)]
    zero_w = grid.points >= (bad_y.min() if bad_y.size else np.inf)
    if np.any(zero_g | zero_w):
        ti = int(np.argmax(zero_g | zero_w))
        if zero_g[ti]:
            raise ValueError(f"censoring survival reaches 0 before t={grid.points[ti]}")
        raise ValueError("zero censoring weight at an event time")
    s = surv.T
    g_at_y = np.where(g_at_y > 0, g_at_y, 1.0)  # no selected cell uses a 0
    bs = np.empty(len(grid))
    rows = max(1, _BRIER_CHUNK_CELLS // data.n)
    for lo in range(0, len(grid), rows):
        block = slice(lo, lo + rows)
        at_risk = y > grid.points[block, None]
        terms = np.subtract(1.0, s[block], order="C")
        np.square(terms, out=terms)
        terms /= g_at_t[block, None]  # all > 0, checked above
        terms *= at_risk
        events = np.square(s[block], order="C")
        events /= g_at_y
        events *= ~at_risk & is_event
        terms += events
        bs[block] = terms.mean(axis=1)
    span = grid.points[-1] - grid.points[0]
    if span == 0:
        return float(bs[0])
    return float(np.trapezoid(bs, grid.points) / span)


def savgol_smooth(series: np.ndarray, window: int,
                  poly_order: int) -> np.ndarray:
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


def smooth_explanation(expl: InteractionExplanation) -> InteractionExplanation:
    """Explanation with every attribution curve (and baseline) smoothed by a
    cubic Savitzky-Golay filter over 11 points, or over the longest odd
    window a shorter grid holds; one of fewer than 4 points is returned as is."""
    T = len(expl.grid)
    window, poly_order = min(11, T if T % 2 else T - 1), 3
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
    return _mean_squared_error(approx.values, exact.values)


def _mean_squared_error(approx: dict, exact: dict) -> float:
    """Mean squared difference over all (coalition, timepoint) entries of
    ``exact``'s curves and ``approx``'s, added in ``exact``'s order."""
    total = 0.0
    count = 0
    for key, curve in exact.items():
        diff = approx[key] - curve
        total += float(np.sum(diff ** 2))
        count += diff.size
    return total / count
