"""Shared domain types: coalitions, time grids, survival datasets and
interaction explanations.

Coalitions are plain integer bitmasks over feature indices ``0..p-1``.
``TimeGrid`` and ``SurvivalDataset`` are frozen, with read-only numpy
buffers, so they can be shared freely between workers. An
``InteractionExplanation`` keeps read-only curves, but its fields can be
reassigned.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

# Most features ``coalition_iter`` accepts, so the exact path and every
# estimator; the exact path's O(2^p) memory guard refuses far smaller p.
MAX_EXACT_FEATURES = 30

Indices = Tuple[int, ...]


class PredictionTarget(Enum):
    """Scale on which a survival model is explained."""

    LOG_HAZARD = "loghazard"
    HAZARD = "hazard"
    SURVIVAL = "survival"


# ---------------------------------------------------------------------------
# coalitions
# ---------------------------------------------------------------------------

def indices_from_mask(mask: int) -> Indices:
    """Decode a non-negative bitmask into a sorted tuple of 0-based feature
    indices, one step per set bit."""
    mask = int(mask)
    if mask < 0:
        raise ValueError(f"coalition mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_size(mask: int) -> int:
    return int(mask).bit_count()


def coalition_label(indices: Sequence[int]) -> str:
    """Render a coalition as sorted 1-based indices joined by '+', e.g. '1+3'."""
    return "+".join(str(i + 1) for i in sorted(indices))


def parse_coalition_label(label: str) -> Indices:
    return tuple(sorted(int(tok) - 1 for tok in label.split("+")))


def coalition_iter(p: int, max_order: int) -> Iterator[int]:
    """Yield every coalition mask with ``|M| <= max_order`` exactly once.

    Order is canonical: by size first, then ascending mask value, so repeated
    runs enumerate (and serialize) coalitions identically.
    """
    if not 0 <= max_order <= p <= MAX_EXACT_FEATURES:
        raise ValueError(
            f"need 0 <= max_order <= p <= {MAX_EXACT_FEATURES}, "
            f"got p={p}, max_order={max_order}"
        )
    yield 0
    for size in range(1, max_order + 1):
        # Gosper's hack walks same-popcount masks in ascending numeric order.
        mask = (1 << size) - 1
        limit = 1 << p
        while mask < limit:
            yield mask
            low = mask & -mask
            ripple = mask + low
            mask = ripple | (((mask ^ ripple) >> 2) // low)


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation timepoints in ``(0, t_max]``.

    t = 0 is deliberately excluded: every centered value function vanishes
    there, which makes normalized reconstruction metrics degenerate.
    """

    points: np.ndarray
    t_max: float

    def __post_init__(self):
        pts = _readonly(np.atleast_1d(self.points))
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid must contain at least one timepoint")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if pts[0] <= 0 or pts[-1] > self.t_max:
            raise ValueError("grid points must lie in (0, t_max]")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def build_time_grid(t_max: float, n_points: int) -> TimeGrid:
    """Build an evaluation grid of ``n_points`` evenly spaced points
    ``i * t_max / n_points`` for i = 1..n_points."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    pts = np.arange(1, n_points + 1) / n_points * t_max
    return TimeGrid(points=pts, t_max=float(t_max))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalDataset:
    """Feature matrix with observed times and binary event indicators."""

    features: np.ndarray
    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=float)
        y = np.ascontiguousarray(self.times, dtype=float)
        d = np.ascontiguousarray(self.events, dtype=int)
        if X.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n = X.shape[0]
        if y.shape != (n,) or d.shape != (n,):
            raise ValueError("times and events must have one entry per row")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite entries")
        if np.any(y < 0) or not np.all(np.isfinite(y)):
            raise ValueError("times must be finite and >= 0")
        if not np.isin(d, (0, 1)).all():
            raise ValueError("events must be 0 or 1")
        if d.sum() == 0:
            raise ValueError("dataset must contain at least one event")
        X.flags.writeable = False
        y.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "times", y)
        object.__setattr__(self, "events", d)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def to_csv(self, path) -> None:
        """Write the dataset as ``x1,...,xp,time,event`` rows."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.p)] + ["time", "event"])
            for i in range(self.n):
                row = [_fmt(v) for v in self.features[i]]
                writer.writerow(row + [_fmt(self.times[i]), str(int(self.events[i]))])

    @classmethod
    def from_csv(cls, path) -> "SurvivalDataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[-2:] != ["time", "event"]:
                raise ValueError("dataset CSV must end with time,event columns")
            p = len(header) - 2
            feats, times, events = [], [], []
            for row in reader:
                if not row:
                    continue
                feats.append([float(v) for v in row[:p]])
                times.append(float(row[p]))
                events.append(int(row[p + 1]))
        return cls(np.array(feats), np.array(times), np.array(events))


def _fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# explanations
# ---------------------------------------------------------------------------

@dataclass
class InteractionExplanation:
    """Per-coalition attribution time series up to a fixed interaction order.

    ``values`` maps coalitions (sorted tuples of 0-based feature indices,
    sizes 1..order) to attribution curves over ``grid``. ``baseline`` holds
    the order-zero term, the mean prediction under the reference
    distribution. For exact computations the curves satisfy efficiency:
    baseline + sum of all curves equals the explained prediction at every
    grid point.
    """

    order: int
    target: PredictionTarget
    grid: TimeGrid
    baseline: np.ndarray
    values: Dict[Indices, np.ndarray]
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        T = len(self.grid)
        base = _readonly(self.baseline)
        if base.shape != (T,):
            raise ValueError("baseline length must match grid")
        object.__setattr__(self, "baseline", base)
        # one pass over the keys; a later duplicate of a key replaces it
        fixed = {}
        for key, curve in self.values.items():
            key = tuple(sorted(map(int, key)))
            if not 1 <= len(key) <= self.order:
                raise ValueError(f"coalition {key} outside orders 1..{self.order}")
            if np.shape(curve) != (T,):
                raise ValueError(f"curve for {key} has wrong length")
            fixed[key] = curve
        # canonical ordering: size first, then indices; the curves are the
        # read-only rows of one array
        keys = sorted(sorted(fixed), key=len)
        curves = _readonly(np.array([fixed[k] for k in keys], dtype=float)
                           if keys else np.empty((0, T)))
        self.values = dict(zip(keys, curves))

    def attribution_sum(self) -> np.ndarray:
        """Baseline plus all attribution curves (the reconstruction of F)."""
        out = self.baseline.copy()
        for curve in self.values.values():
            out += curve
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self, path) -> None:
        payload = {
            "order": self.order,
            "target": self.target.value,
            "grid": {"points": self.grid.points.tolist(), "t_max": self.grid.t_max},
            "baseline": self.baseline.tolist(),
            "values": {coalition_label(k): v.tolist() for k, v in self.values.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "InteractionExplanation":
        with open(path) as fh:
            payload = json.load(fh)
        grid = TimeGrid(np.array(payload["grid"]["points"]), payload["grid"]["t_max"])
        values = {
            parse_coalition_label(label): np.array(curve)
            for label, curve in payload["values"].items()
        }
        return cls(
            order=int(payload["order"]),
            target=PredictionTarget(payload["target"]),
            grid=grid,
            baseline=np.array(payload["baseline"]),
            values=values,
        )

    def to_csv(self, path) -> None:
        """Long format ``coalition,t,value`` with a 'baseline' pseudo-coalition."""
        with open(path, "w", newline="") as fh:
            fh.write(f"# order={self.order} target={self.target.value} "
                     f"t_max={_fmt(self.grid.t_max)}\n")
            writer = csv.writer(fh)
            writer.writerow(["coalition", "t", "value"])
            for t, b in zip(self.grid.points, self.baseline):
                writer.writerow(["baseline", _fmt(t), _fmt(b)])
            for key, curve in self.values.items():
                label = coalition_label(key)
                for t, v in zip(self.grid.points, curve):
                    writer.writerow([label, _fmt(t), _fmt(v)])

    @classmethod
    def from_csv(cls, path) -> "InteractionExplanation":
        with open(path, newline="") as fh:
            meta_line = fh.readline()
            m = re.match(r"#\s*order=(\d+)\s+target=(\S+)\s+t_max=(\S+)", meta_line)
            if not m:
                raise ValueError("explanation CSV is missing its metadata header")
            order, target, t_max = int(m.group(1)), m.group(2), float(m.group(3))
            reader = csv.reader(fh)
            next(reader)  # column header
            series: Dict[str, list] = {}
            for label, t, v in reader:
                series.setdefault(label, []).append((float(t), float(v)))
        points = np.array([t for t, _ in series["baseline"]])
        grid = TimeGrid(points, t_max)
        baseline = np.array([v for _, v in series.pop("baseline")])
        values = {
            parse_coalition_label(label): np.array([v for _, v in rows])
            for label, rows in series.items()
        }
        return cls(order=order, target=PredictionTarget(target), grid=grid,
                   baseline=baseline, values=values)
