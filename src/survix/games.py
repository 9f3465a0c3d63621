"""Time-dependent cooperative games over feature coalitions.

A game fixes a prediction function, an explained instance, a reference
distribution (imputer) and a time grid. The value of a coalition at each
grid point is the mean prediction with coalition features pinned to the
instance and the rest imputed, minus the unconditional mean prediction, so
the empty coalition is worth exactly zero.

``coalition_values`` is the one value engine, over a block of instances (a
``SurvivalGame`` is its one-instance case). ``all_coalition_values`` yields
the exact path's (n, 2^p, w) value tensors block by block, and
``evaluate_all_coalitions`` returns one game's (2^p, T) array, whose row
index is the coalition mask; that plain array is the value table everywhere.
One predict call takes the full coalition of every instance of a block.
A chunk of imputed coalitions holds one instance's only, so under a callable
that rounds a row by batch shape only the full coalition's values may depend
on the other instances of a block; a chunk is freed before the next. Rows come
mask-major (all reference rows of one coalition, then the next's), and a
chunk's coalition means are one sum over the last axis of the
(w, K, n_ref) view of the transposed predictions. Every built-in scale
predicts time-major, the (m, w) view of a C-ordered (w, m) buffer, so each
mean is a pairwise sum over a contiguous run of reference rows; a
row-major prediction, as a user callable may return, has its reference
rows added in sequence. Neither is copied into the other's layout: a second
buffer per chunk makes glibc trim and refault the heap. The marginal
imputer stores its rows feature-major, so a callable may get them
column-major; the conditional imputer plans each coalition's Gaussian
conditional once per imputer, while its plans fit in ``_PLAN_BYTE_BUDGET``.

The engine predicts at the nodes that ``_width`` alone decides: on T > r
points, r grid points for a callable each of whose rows is a combination of
the r rows of its declared ``time_basis(times)`` (the first and last point
for r = 2, the first for r = 1), else every point. Values, Moebius
coefficients and estimates stay at the nodes (an estimate runs on the plain
game over the nodes' grid), and each public entry point maps its result to
the grid once, with ``_to_grid``. Means are taken the same way at any width.
A prediction that is not (rows, nodes) raises ``ValueError``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import (
    MAX_EXACT_FEATURES,
    TimeGrid,
    coalition_label,
    indices_from_mask,
)

PredictFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# a chunk holds all coalitions of one instance; only an instance predicting
# over 32 MB is split, into chunks of 2 MB, as splitting a smaller one made
# glibc trim and refault the heap on every chunk
_CHUNK_FLOATS = 250_000
_SPLIT_FLOATS = 4_000_000
# an exact block holds as many whole instances' tables as fit in this many
# floats, at least one; past a few rows the block size barely moves the time
# per row, so the budget bounds the block's memory
_BLOCK_FLOATS = 250_000
_TABLE_BYTE_BUDGET = 2 << 30
# a failed prediction names at most this many of its chunk's coalitions
_LABELS_IN_ERROR = 8
# the conditional imputer keeps the coalition plans it solves until their
# arrays would pass this many bytes, then solves any other coalition on each
# call (an exact sweep visits coalitions in a cycle, which an evicting cache
# would never hit); the 4094 plans of p = 12 hold 2.6 MiB of arrays (6.0 MiB
# with their Python objects), those of p = 14 14 MiB
_PLAN_BYTE_BUDGET = 32 << 20


def _instance(x, p: int) -> np.ndarray:
    """``x`` as a float vector, which must have length p."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p,):
        raise ValueError(f"instance must be a vector of length p = {p}, "
                         f"got shape {x.shape}")
    return x


def _masks(masks, p: int) -> np.ndarray:
    """``masks`` as a flat int64 array of coalitions of p features."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    bad = masks[(masks < 0) | (masks >= 1 << p)]
    if bad.size:
        raise ValueError(f"coalition mask {int(bad[0])} outside 0..2^{p} - 1 = {(1 << p) - 1}")
    return masks


def _conditional(cov: np.ndarray, cond: np.ndarray):
    """The instance-free part of the Gaussian conditional given the sorted
    coordinates ``cond``: the other coordinates, the gain S_rc S_cc^-1 and
    the conditional covariance."""
    free = np.ones(cov.shape[0], dtype=bool)
    free[cond] = False
    rest = np.flatnonzero(free)
    by_cond = cov[:, cond]
    S_rc = by_cond[rest]
    try:
        gain = np.linalg.solve(by_cond[cond], S_rc.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular conditioning block: {exc}")
    cond_cov = cov[rest][:, rest] - gain @ S_rc.T
    return rest, gain, 0.5 * (cond_cov + cond_cov.T)


def conditional_gaussian_params(mean: np.ndarray, cov: np.ndarray,
                                cond_idx: Sequence[int],
                                x_cond: np.ndarray):
    """Gaussian conditional of the remaining coordinates given the values in
    ``cond_idx``; returns (conditional mean, conditional covariance)."""
    mean = np.asarray(mean, dtype=float)
    cond = np.array(sorted(int(i) for i in cond_idx), dtype=np.intp)
    if len(cond) == 0 or len(cond) == mean.size:
        raise ValueError("conditioning set must be a proper non-empty subset")
    rest, gain, cond_cov = _conditional(np.asarray(cov, dtype=float), cond)
    x_cond = np.asarray(x_cond, dtype=float)
    return mean[rest] + gain @ (x_cond - mean[cond]), cond_cov


class MarginalEmpiricalImputer:
    """Impute missing features from rows of a fixed background matrix."""

    def __init__(self, background: np.ndarray):
        background = np.ascontiguousarray(background, dtype=float)
        if background.ndim != 2 or background.shape[0] < 1:
            raise ValueError("background must be a non-empty matrix")
        background.flags.writeable = False
        self.background = background
        self.p = background.shape[1]
        self._columns = np.ascontiguousarray(background.T)

    @property
    def n_reference(self) -> int:
        return self.background.shape[0]

    def reference_rows(self) -> np.ndarray:
        return self.background

    def rows_for(self, x: np.ndarray, masks) -> np.ndarray:
        """(len(masks) * n_reference, p) rows, mask-major: row
        ``j * n_reference + r`` is background row r with mask j's features
        pinned to ``x``. They are the transposed view of a feature-major
        (p, len(masks) * n_reference) array, so each column is contiguous:
        feature f's run for mask j is row ``mask j's bit f`` of the pair
        (background column f, ``x[f]`` repeated), one row gather per
        feature."""
        x = _instance(x, self.p)
        masks = _masks(masks, self.p)
        pinned = (masks >> np.arange(self.p)[:, None]) & 1
        pairs = np.stack([self._columns, np.broadcast_to(x[:, None], self._columns.shape)], 1)
        rows = np.empty((self.p, masks.size, self.n_reference))
        for f in range(self.p):
            # the bits never need clipping; unlike mode="raise", "clip"
            # writes into the run without a temporary copy
            pairs[f].take(pinned[f], axis=0, out=rows[f], mode="clip")
        return rows.reshape(self.p, -1).T


class ConditionalGaussianImputer:
    """Impute missing features from the exact Gaussian conditional given the
    coalition values.

    One base normal matrix is drawn up front and reused for every coalition
    (common random numbers), which removes sampling noise from coalition
    differences that share imputed coordinates. A coalition's plan, its
    gain and conditional Cholesky factor, does not depend on the instance:
    each is solved once and kept while the plans fit in
    ``_PLAN_BYTE_BUDGET``.
    """

    def __init__(self, mean: np.ndarray, covariance: np.ndarray,
                 n_samples: int = 1000, seed: int = 0):
        mean = np.ascontiguousarray(mean, dtype=float)
        cov = np.ascontiguousarray(covariance, dtype=float)
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"mean must be a vector of length p and covariance (p, p), "
                             f"got shapes {mean.shape} and {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance is not positive-definite")
        self.mean = mean
        self.covariance = cov
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.p = mean.size
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 37)))
        self._z = rng.standard_normal((self.n_samples, self.p))
        self._reference = mean + self._z @ chol.T
        self._plans, self._plan_bytes = {}, 0

    @property
    def n_reference(self) -> int:
        return self.n_samples

    def reference_rows(self) -> np.ndarray:
        return self._reference

    def _plan(self, mask: int):
        """(cond, rest, gain, conditional Cholesky factor) of a proper
        non-empty coalition, from the cache or solved, and kept while the
        budget allows."""
        plan = self._plans.get(mask)
        if plan is None:
            cond = np.array(indices_from_mask(mask), dtype=np.intp)
            rest, gain, cond_cov = _conditional(self.covariance, cond)
            # PSD up to roundoff; clip tiny negative eigenvalues via jitter
            try:
                chol = np.linalg.cholesky(cond_cov)
            except np.linalg.LinAlgError:
                jitter = 1e-12 * np.eye(rest.size)
                chol = np.linalg.cholesky(cond_cov + jitter)
            plan = (cond, rest, gain, chol)
            size = sum(a.nbytes for a in plan)
            if self._plan_bytes + size <= _PLAN_BYTE_BUDGET:
                self._plans[mask] = plan
                self._plan_bytes += size
        return plan

    def rows_for(self, x: np.ndarray, masks) -> np.ndarray:
        """(len(masks) * n_samples, p) rows in the marginal imputer's
        mask-major order, written mask by mask; a call adds each planned
        coalition's shift ``gain @ (x[cond] - mean[cond])`` to its noise
        ``z[:, rest] @ chol.T``."""
        x = _instance(x, self.p)
        masks = _masks(masks, self.p)
        rows = np.empty((masks.size, self.n_samples, self.p))
        for block, mask in zip(rows, masks.tolist()):
            if mask == 0:
                block[:] = self._reference
                continue
            block[:] = x
            if mask == (1 << self.p) - 1:
                continue
            cond, rest, gain, chol = self._plan(mask)
            cond_mean = self.mean[rest] + gain @ (x[cond] - self.mean[cond])
            block[:, rest] = cond_mean + self._z[:, rest] @ chol.T
        return rows.reshape(-1, self.p)


def _width(predict: PredictFn, grid: TimeGrid):
    """The grid indices the engine predicts, and the (r, T) map from values
    there to the grid, or None. A declared ``time_basis`` is read through
    ``__wrapped__``, outermost first, so a wrapper may override or drop it."""
    declared = inspect.unwrap(predict, stop=lambda f: hasattr(f, "time_basis"))
    time_basis = getattr(declared, "time_basis", None)
    if time_basis is None:
        return np.arange(len(grid)), None
    return _nodes(time_basis, grid.points.tobytes())


@lru_cache(maxsize=32)
def _nodes(time_basis, points: bytes):
    """Read-only nodes and map of a basis B on the grid ``points``: on T > r
    points, ``linspace(0, T - 1, r)`` rounded and ``solve(B[:, nodes], B)``,
    which returns node values unchanged. Cached, as building a map costs
    more than the rest of a small explanation's bookkeeping."""
    points = np.frombuffer(points)
    basis, T = np.asarray(time_basis(points), dtype=float), points.size
    if basis.ndim != 2 or basis.size == 0 or basis.shape[1] != T:
        raise ValueError(f"time_basis must return one row per basis function and one "
                         f"column per timepoint, shape (r, {T}), got shape {basis.shape}")
    r, basis_map = basis.shape[0], None
    nodes = np.linspace(0, T - 1, min(r, T)).round().astype(np.intp)
    if T > r:
        try:
            basis_map = np.linalg.solve(basis[:, nodes], basis)
        except np.linalg.LinAlgError:
            basis_map = np.full_like(basis, np.inf)
        # a map entry of 1/eps or more would drown the node values in rounding
        if not (np.abs(basis_map) * np.finfo(float).eps < 1).all():
            raise ValueError(f"time_basis must be finite and non-singular at the grid "
                             f"points {points[nodes].tolist()}")
        basis_map[:, nodes] = np.eye(r)
        basis_map.flags.writeable = False
    nodes.flags.writeable = False
    return nodes, basis_map


def _to_grid(values: np.ndarray, basis_map) -> np.ndarray:
    """``values`` at the nodes, on the whole grid. One node is scaled by
    broadcasting, as a matrix product would turn -0.0 into +0.0."""
    if basis_map is None:
        return values
    return values * basis_map[0] if basis_map.shape[0] == 1 else values @ basis_map


def _checked(preds, m: int, w: int) -> np.ndarray:
    """A prediction as a float array, which must be (m rows, w timepoints)."""
    preds = np.asarray(preds, dtype=float)
    if preds.shape != (m, w):
        raise ValueError(f"predict must return one row per input row and one column "
                         f"per timepoint, shape {(m, w)}, got shape {preds.shape}")
    return preds


def _means(preds: np.ndarray, n_ref: int) -> np.ndarray:
    """(K, w) coalition means of mask-major (K * n_ref, w) predictions, by
    one sum over the last axis of the (w, K, n_ref) view of ``preds.T``.
    numpy adds along a contiguous axis pairwise and along any other in
    sequence: a time-major prediction's reference rows are a contiguous run,
    a row-major one's are added in sequence."""
    sums = preds.T.reshape(preds.shape[1], -1, n_ref).sum(axis=-1).T
    sums /= n_ref
    return sums


def reference_mean(predict: PredictFn, imputer, grid: TimeGrid) -> np.ndarray:
    """(T,) mean prediction over the reference rows (the order-zero term),
    taken at the nodes (``_width``)."""
    rows, (nodes, basis_map) = imputer.reference_rows(), _width(predict, grid)
    preds = _checked(predict(rows, grid.points[nodes]), rows.shape[0], nodes.size)
    return _to_grid(_means(preds, rows.shape[0])[0], basis_map)


def coalition_values(predict: PredictFn, X: np.ndarray, imputer, grid: TimeGrid,
                     masks, baseline: np.ndarray) -> np.ndarray:
    """(len(X), len(masks), w) value curves of each coalition for each row of
    X at the w nodes (``_width``), given the (T,) ``baseline``. The empty and
    full coalitions need no imputation: the full coalition of every row is
    one predict call on X, before the rows' imputed chunks."""
    masks = _masks(masks, imputer.p)
    n_ref, nodes = imputer.n_reference, _width(predict, grid)[0]
    w, points, baseline = nodes.size, grid.points[nodes], baseline[nodes]
    out = np.zeros((X.shape[0], masks.size, w))
    full = masks == (1 << imputer.p) - 1
    if full.any():
        out[:, full] = (_checked(predict(X, points), X.shape[0], w) - baseline)[:, None]
    pending = np.flatnonzero((masks != 0) & ~full)
    per_mask = n_ref * max(w, imputer.p)
    split = per_mask * pending.size > _SPLIT_FLOATS
    step = max(1, _CHUNK_FLOATS // per_mask) if split else max(pending.size, 1)
    for x, row in zip(X, out):
        for lo in range(0, pending.size, step):
            sub = pending[lo:lo + step]
            rows = imputer.rows_for(x, masks[sub])
            try:
                preds = predict(rows, points)
            except Exception as exc:
                labels = [coalition_label(indices_from_mask(int(m)))
                          for m in masks[sub[:_LABELS_IN_ERROR]]]
                raise RuntimeError(f"prediction failed for {sub.size} "
                                   f"coalitions, starting {labels}: {exc}") from exc
            preds = _checked(preds, rows.shape[0], w)
            del rows
            row[sub] = _means(preds, n_ref) - baseline
            del preds
    return out


@dataclass
class SurvivalGame:
    """Centered coalition game for one instance on one prediction scale,
    whose values always lie on its own grid. Games sharing a reference
    distribution may pass its ``reference_mean``; otherwise it is predicted
    on first use."""

    predict: PredictFn
    x: np.ndarray
    imputer: MarginalEmpiricalImputer | ConditionalGaussianImputer
    grid: TimeGrid
    reference_mean: np.ndarray | None = None

    def __post_init__(self):
        x = np.ascontiguousarray(_instance(self.x, self.imputer.p))
        x.flags.writeable = False
        self.x = x

    @property
    def p(self) -> int:
        return self.imputer.p

    @property
    def full_mask(self) -> int:
        return (1 << self.p) - 1

    def baseline(self) -> np.ndarray:
        """Mean prediction over the reference rows (the order-zero term)."""
        if self.reference_mean is None:
            self.reference_mean = reference_mean(self.predict, self.imputer, self.grid)
        return self.reference_mean

    def values_for_masks(self, masks: Sequence[int]) -> np.ndarray:
        """(n_masks, T) value curves in the order of ``masks``."""
        values = coalition_values(self.predict, self.x[None, :], self.imputer, self.grid,
                                  masks, self.baseline())[0]
        return _to_grid(values, _width(self.predict, self.grid)[1])


def all_coalition_values(predict: PredictFn, X: np.ndarray, imputer, grid: TimeGrid,
                         baseline: np.ndarray):
    """Yields (n, 2^p, w) values of every coalition at the w nodes
    (``_width``) for consecutive blocks of n rows of X (as many as fit in
    ``_BLOCK_FLOATS``, at least one); each (instance, coalition, reference
    row) is predicted exactly once."""
    p = imputer.p
    if p > MAX_EXACT_FEATURES:
        raise ValueError(f"exact enumeration supports at most {MAX_EXACT_FEATURES} features")
    per_row = (1 << p) * _width(predict, grid)[0].size
    estimated = per_row * 8 + imputer.n_reference * p * 8
    if estimated > _TABLE_BYTE_BUDGET:
        raise MemoryError(
            f"value table would need about {estimated / 2**20:.0f} MiB "
            f"(budget {_TABLE_BYTE_BUDGET / 2**20:.0f} MiB)"
        )
    block = max(1, _BLOCK_FLOATS // per_row)
    for lo in range(0, X.shape[0], block):
        yield coalition_values(predict, X[lo:lo + block], imputer, grid,
                               np.arange(1 << p), baseline)


def evaluate_all_coalitions(game: SurvivalGame) -> np.ndarray:
    """Read-only (2^p, T) values of every coalition of one game, whose row
    index is the coalition mask: the one-row case of ``all_coalition_values``."""
    values = _to_grid(next(all_coalition_values(
        game.predict, game.x[None, :], game.imputer, game.grid, game.baseline()))[0],
        _width(game.predict, game.grid)[1])
    values.flags.writeable = False
    return values
