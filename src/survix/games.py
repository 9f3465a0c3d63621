"""Time-dependent cooperative games over feature coalitions.

A game fixes a prediction function, an explained instance, a reference
distribution (imputer) and a time grid. The value of a coalition at each
grid point is the mean prediction with coalition features pinned to the
instance and the rest imputed, minus the unconditional mean prediction, so
the empty coalition is worth exactly zero.

``SurvivalGame.values_for_masks`` takes every coalition a caller needs at
once: per chunk of at most ``_BATCH_FLOAT_BUDGET`` floats it makes one
``rows_for(x, masks)`` call and one prediction. A value is the mean over its
own rows only, whatever else shares its chunk.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .core import (
    MAX_EXACT_FEATURES,
    TimeGrid,
    coalition_label,
    indices_from_mask,
)

PredictFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# transient row batches are capped at roughly this many floats
_BATCH_FLOAT_BUDGET = 24_000_000
_TABLE_BYTE_BUDGET = 2 << 30
# a failed prediction names at most this many of its chunk's coalitions
_LABELS_IN_ERROR = 8


def conditional_gaussian_params(mean: np.ndarray, cov: np.ndarray,
                                cond_idx: Sequence[int],
                                x_cond: np.ndarray):
    """Gaussian conditional of the remaining coordinates given the values in
    ``cond_idx``; returns (conditional mean, conditional covariance)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    p = mean.size
    cond = sorted(int(i) for i in cond_idx)
    if len(cond) == 0 or len(cond) == p:
        raise ValueError("conditioning set must be a proper non-empty subset")
    rest = [i for i in range(p) if i not in cond]
    x_cond = np.asarray(x_cond, dtype=float)
    S_cc = cov[np.ix_(cond, cond)]
    S_rc = cov[np.ix_(rest, cond)]
    S_rr = cov[np.ix_(rest, rest)]
    try:
        gain = np.linalg.solve(S_cc, S_rc.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular conditioning block: {exc}")
    cond_mean = mean[rest] + gain @ (x_cond - mean[cond])
    cond_cov = S_rr - gain @ S_rc.T
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return cond_mean, cond_cov


class MarginalEmpiricalImputer:
    """Impute missing features from rows of a fixed background matrix."""

    def __init__(self, background: np.ndarray):
        background = np.ascontiguousarray(background, dtype=float)
        if background.ndim != 2 or background.shape[0] < 1:
            raise ValueError("background must be a non-empty matrix")
        background.flags.writeable = False
        self.background = background
        self.p = background.shape[1]

    @property
    def n_reference(self) -> int:
        return self.background.shape[0]

    def reference_rows(self) -> np.ndarray:
        return self.background

    def rows_for(self, x: np.ndarray, masks) -> np.ndarray:
        """(len(masks) * n_reference, p) rows, mask by mask: the background
        with the coalition's features pinned to ``x``."""
        masks = np.asarray(masks, dtype=np.int64).reshape(-1)
        bits = ((masks[:, None] >> np.arange(self.p)) & 1).astype(bool)
        rows = np.empty((masks.size,) + self.background.shape)
        rows[:] = self.background
        # (mask, feature, row) view: each pinned feature is one column write
        rows.transpose(0, 2, 1)[bits] = x[np.nonzero(bits)[1]][:, None]
        return rows.reshape(-1, self.p)


class ConditionalGaussianImputer:
    """Impute missing features from the exact Gaussian conditional given the
    coalition values.

    One base normal matrix is drawn up front and reused for every coalition
    (common random numbers), which removes sampling noise from coalition
    differences that share imputed coordinates.
    """

    def __init__(self, mean: np.ndarray, covariance: np.ndarray,
                 n_samples: int = 1000, seed: int = 0):
        mean = np.ascontiguousarray(mean, dtype=float)
        cov = np.ascontiguousarray(covariance, dtype=float)
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
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

    @property
    def n_reference(self) -> int:
        return self.n_samples

    def reference_rows(self) -> np.ndarray:
        return self._reference

    def rows_for(self, x: np.ndarray, masks) -> np.ndarray:
        """(len(masks) * n_samples, p) rows, mask by mask; each coalition
        has its own Gaussian conditional, so each block is built alone."""
        masks = np.asarray(masks, dtype=np.int64).reshape(-1)
        rows = np.empty((masks.size, self.n_samples, self.p))
        for block, mask in zip(rows, masks.tolist()):
            cond = list(indices_from_mask(mask))
            if len(cond) == 0:
                block[:] = self._reference
                continue
            block[:] = x
            if len(cond) == self.p:
                continue
            rest = [i for i in range(self.p) if i not in cond]
            cond_mean, cond_cov = conditional_gaussian_params(
                self.mean, self.covariance, cond, x[cond]
            )
            # PSD up to roundoff; clip tiny negative eigenvalues via jitter
            try:
                chol = np.linalg.cholesky(cond_cov)
            except np.linalg.LinAlgError:
                jitter = 1e-12 * np.eye(len(rest))
                chol = np.linalg.cholesky(cond_cov + jitter)
            block[:, rest] = cond_mean + self._z[:, rest] @ chol.T
        return rows.reshape(-1, self.p)


@dataclass
class SurvivalGame:
    """Centered coalition game for one instance on one prediction scale."""

    predict: PredictFn
    x: np.ndarray
    imputer: MarginalEmpiricalImputer | ConditionalGaussianImputer
    grid: TimeGrid

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=float)
        if x.shape != (self.imputer.p,):
            raise ValueError("instance length must match the imputer")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        self._baseline = None
        self._full = None

    @property
    def p(self) -> int:
        return self.imputer.p

    @property
    def full_mask(self) -> int:
        return (1 << self.p) - 1

    def baseline(self) -> np.ndarray:
        """Mean prediction over the reference rows (the order-zero term)."""
        if self._baseline is None:
            preds = self.predict(self.imputer.reference_rows(), self.grid.points)
            self._baseline = np.asarray(preds).mean(axis=0)
        return self._baseline

    def full_prediction(self) -> np.ndarray:
        if self._full is None:
            self._full = self.predict(self.x[None, :], self.grid.points)[0]
        return self._full

    def value(self, mask: int) -> np.ndarray:
        """Game value curve for one coalition over the grid."""
        return self.values_for_masks([mask])[0]

    def values_for_masks(self, masks: Sequence[int]) -> np.ndarray:
        """(n_masks, T) value curves in the order of ``masks``; the empty
        and full coalitions need no imputation."""
        masks = np.asarray(masks, dtype=np.int64).reshape(-1)
        T = len(self.grid)
        out = np.empty((masks.size, T))
        base = self.baseline()
        out[masks == 0] = 0.0
        full = masks == self.full_mask
        if full.any():
            out[full] = self.full_prediction() - base
        pending = np.flatnonzero((masks != 0) & ~full)
        n_ref = self.imputer.n_reference
        chunk = max(1, _BATCH_FLOAT_BUDGET // max(n_ref * max(T, self.p), 1))
        for lo in range(0, pending.size, chunk):
            part = pending[lo:lo + chunk]
            rows = self.imputer.rows_for(self.x, masks[part])
            try:
                preds = np.asarray(self.predict(rows, self.grid.points))
            except Exception as exc:
                labels = [coalition_label(indices_from_mask(int(m)))
                          for m in masks[part[:_LABELS_IN_ERROR]]]
                raise RuntimeError(f"prediction failed for {part.size} "
                                   f"coalitions, starting {labels}: {exc}") from exc
            out[part] = preds.reshape(part.size, n_ref, T).mean(axis=1) - base
        return out


class ValueTable:
    """Coalition values on a grid; complete tables cover all 2^p masks."""

    def __init__(self, p: int, grid: TimeGrid, masks: Sequence[int],
                 values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (len(masks), len(grid)):
            raise ValueError("values shape must be (n_masks, n_timepoints)")
        values.flags.writeable = False
        self.p = p
        self.grid = grid
        self.masks = tuple(int(m) for m in masks)
        self.values = values
        self._index: Dict[int, int] = {m: i for i, m in enumerate(self.masks)}

    @property
    def complete(self) -> bool:
        return len(self.masks) == 1 << self.p

    def lookup(self, mask: int) -> np.ndarray:
        return self.values[self._index[mask]]

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    def dump_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "coalition", "value"])
            for ti, t in enumerate(self.grid.points):
                for mask in self.masks:
                    label = coalition_label(indices_from_mask(mask)) if mask else "empty"
                    writer.writerow([repr(float(t)), label,
                                     repr(float(self.values[self._index[mask], ti]))])


def evaluate_all_coalitions(game: SurvivalGame,
                            byte_budget: int = _TABLE_BYTE_BUDGET) -> ValueTable:
    """Complete value table over all 2^p coalitions.

    Every (coalition, reference-row) prediction is evaluated exactly once per
    timepoint; the result is deterministic given the imputer seed.
    """
    p = game.p
    if p > MAX_EXACT_FEATURES:
        raise ValueError(f"exact enumeration supports at most {MAX_EXACT_FEATURES} features")
    n_masks = 1 << p
    T = len(game.grid)
    estimated = n_masks * T * 8 + game.imputer.n_reference * game.p * 8
    if estimated > byte_budget:
        raise MemoryError(
            f"value table would need about {estimated / 2**20:.0f} MiB "
            f"(budget {byte_budget / 2**20:.0f} MiB)"
        )
    masks = list(range(n_masks))
    values = game.values_for_masks(masks)
    return ValueTable(p=p, grid=game.grid, masks=masks, values=values)
