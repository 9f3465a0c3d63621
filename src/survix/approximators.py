"""Budgeted estimators of interaction attribution curves.

All three estimators count one budget unit per distinct coalition whose value
curve is evaluated (reference-row predictions inside a single value are not
budget units). The empty and full coalitions are always evaluated, and
``least_budget`` gives each estimator's least budget. At full enumeration
every estimator defers to the exact computation.

Each estimator plans, then evaluates. What the designs draw never depends on
the values, so the sampling loop draws and budgets coalitions first; then one
``SurvivalGame.values_for_masks`` call fetches their curves on the game's own
grid, and Monte Carlo and permutation take every sampled (K, M) discrete
derivative together.

Monte Carlo and permutation plan in arrays. They draw a round (Monte Carlo:
one draw per target) or a batch of permutations with one or two generator
calls, list each draw's coalitions M | L once (``_needed``), charge a draw
those it is the first to need, and keep the list's fitted prefix for the
derivative sums. Targets, submasks and signs come from ``interactions._plan``,
the one read-only plan per (p, k), which their aggregation reads too.

Regression's coefficients are the minimum-norm solution of its two exact
constraints (the empty and full values) plus an orthonormal basis of their
null space times one ``np.linalg.lstsq`` solution, the minimum-norm fit of a
rank-deficient design; ``info["condition"]`` is that solved matrix's.

An estimator sees its game's own grid. ``estimate`` hands it the plain game
over the engine's nodes, the whole grid unless a time basis maps values at
fewer nodes to the grid (see ``games``), and maps the estimated curves to the
grid once.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import TimeGrid
from .games import SurvivalGame, _to_grid, _width, evaluate_all_coalitions
from .interactions import (ApproximatorConfig, _check_order, _Plan, _plan, aggregate_ksii,
                           exact_ksii)

_COND_LIMIT = 1e8


def estimators():
    """Estimator name -> function: the one list of estimators. Built per
    call, so a wrapped module attribute is the function called."""
    return {"mc": approx_montecarlo, "permutation": approx_permutation,
            "regression": approx_regression}


def least_budget(method: str, k: int, p: int) -> int:
    """The least budget ``method`` takes at order k over p features."""
    return min(2 * (k + 1), 1 << p) if method == "regression" else 2


def estimate(game: SurvivalGame, k: int, method: str, budget: int, seed: int):
    """Run the estimator named ``method``, once ``ApproximatorConfig``'s
    checks pass; returns (ksii, info), where info records the number of
    nodes the values were taken at as ``width``. The estimator runs on the
    plain game over the nodes (``_width``: the whole grid, unless a time
    basis declares fewer) and its curves are mapped to the grid once."""
    ApproximatorConfig(method, budget, seed)
    runner = estimators()[method]
    _check_order(k, game.p)
    nodes, basis_map = _width(game.predict, game.grid)
    at_nodes = SurvivalGame(game.predict, game.x, game.imputer,
                            TimeGrid(game.grid.points[nodes], game.grid.t_max),
                            reference_mean=game.baseline()[nodes])
    ksii, info = runner(at_nodes, k, budget, seed)
    ksii = dict(zip(ksii, _to_grid(np.array(list(ksii.values())), basis_map)))
    return ksii, {**info, "width": nodes.size}


def _needed(plan: _Plan, t: np.ndarray, M: np.ndarray):
    """The coalitions M | L, L a submask of K, that draws (K = targets[t],
    M) need, draw after draw, and the draw each one belongs to."""
    lengths = 1 << plan.sizes[t]
    draw = np.repeat(np.arange(t.size), lengths)
    offsets = np.cumsum(lengths) - lengths - plan.first[t]
    return M[draw] | plan.flat[np.arange(draw.size) - offsets[draw]], draw


def _account(planned: np.ndarray, masks: np.ndarray, draw: np.ndarray, n: int):
    """Budget accounting by first occurrence over ``planned`` (sorted,
    distinct), then ``masks`` in draw order: returns the sorted distinct
    masks of both, the draw that first plans each one (-1 if already
    planned), and the number planned after each of the n draws."""
    merged, first = np.unique(np.concatenate([planned, masks]), return_index=True)
    stamp = np.concatenate([np.full(planned.size, -1), draw])[first]
    counts = np.bincount(stamp[stamp >= 0], minlength=n)
    return merged, stamp, planned.size + np.cumsum(counts)


def _mean_derivatives(game: SurvivalGame, plan: _Plan, t: np.ndarray,
                      masks: np.ndarray, planned: np.ndarray):
    """Mean discrete derivative of each target over its draws (targets[t],
    M), from their coalitions as ``_needed`` lists them, ``masks``, and the
    values of the sorted coalitions ``planned``.

    Each derivative is the signed sum of the values of M | L over the
    submasks L of K, added in descending submask order, and each target's
    derivatives are summed in draw order: a fixed order of float additions,
    so an estimate is reproducible bit for bit.
    """
    values = game.values_for_masks(planned)
    T = values.shape[1]
    sizes = plan.sizes[t]
    at = np.searchsorted(planned, masks)
    starts = np.cumsum(1 << sizes) - (1 << sizes)
    deltas = np.empty((t.size, T))
    for s, signs in enumerate(plan.signs, 1):
        rows = np.flatnonzero(sizes == s)
        if not rows.size:  # skip a size never drawn: its 2^s no-op sums
            continue
        cols = at[starts[rows, None] + np.arange(1 << s)]
        acc = np.zeros((rows.size, T))
        for j, sign in enumerate(signs):
            acc += sign * values[cols[:, j]]
        deltas[rows] = acc
    sums = np.zeros((plan.targets.size, T))
    np.add.at(sums, t, deltas)
    # a target never drawn keeps its zero sum
    counts = np.maximum(np.bincount(t, minlength=plan.targets.size), 1)
    return dict(zip(plan.targets.tolist(), sums / counts[:, None]))


def _exact_fallback(game: SurvivalGame, k: int):
    ksii = exact_ksii(evaluate_all_coalitions(game), k)
    return ksii, {"method": "exact_fallback", "evaluations": 1 << game.p}


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _mc_round(rng: np.random.Generator, inside: np.ndarray) -> np.ndarray:
    """One Monte Carlo round: for each target (a row of ``inside``, its
    features), a size m uniform on 0..|rest| from one ``integers`` call, and
    as M the m features of the rest with the smallest keys of one ``random``
    call, ties to the lower index: a uniform subset of size m."""
    n, p = inside.shape
    m = rng.integers(0, p - inside.sum(axis=1) + 1)
    keys = np.where(inside, 2.0, rng.random((n, p)))  # K's features last
    order = np.argsort(keys, axis=1, kind="stable")
    return ((1 << order) * (np.arange(p) < m[:, None])).sum(axis=1)


def approx_montecarlo(game: SurvivalGame, k: int, budget: int, seed: int):
    """Direct Monte-Carlo estimate of the interaction index per coalition.

    For target K, subsets M of the remaining features are drawn with size
    uniform on 0..p-|K| and uniformly within each size, exactly the index's
    weight distribution, so the plain average of discrete derivatives is
    unbiased. Draws come in rounds of one per target, in target order, each
    round from two generator calls (``_mc_round``). Sampling stops as soon
    as a draw no longer fits the budget.
    """
    p = game.p
    if budget < least_budget("mc", k, p):
        raise ValueError("budget must be at least 2")
    if budget >= (1 << p):
        return _exact_fallback(game, k)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 101)))
    plan = _plan(p, k)
    n = plan.targets.size
    inside = (plan.targets[:, None] >> np.arange(p)) & 1 == 1
    every = np.arange(n)
    planned = np.array([0, game.full_mask], dtype=np.int64)
    drawn = []
    while True:
        masks, draw = _needed(plan, every, _mc_round(rng, inside))
        merged, stamp, after = _account(planned, masks, draw, n)
        fit = int(np.searchsorted(after, budget, side="right"))
        planned = merged[stamp < fit]
        drawn.append(masks[draw < fit])
        if fit < n:
            break
    t = np.resize(every, (len(drawn) - 1) * n + fit)  # every round but the last is full
    sii = _mean_derivatives(game, plan, t, np.concatenate(drawn), planned)
    ksii = aggregate_ksii(sii, k, p)
    counts = np.bincount(plan.sizes[t], minlength=k + 1)
    info = {"method": "mc", "evaluations": int(planned.size),
            "samples": {s: int(counts[s]) for s in range(1, k + 1)}}
    return ksii, info


# ---------------------------------------------------------------------------
# permutation sampling
# ---------------------------------------------------------------------------

def approx_permutation(game: SurvivalGame, k: int, budget: int, seed: int):
    """Permutation estimator: each sampled permutation contributes one
    marginal-contribution sample per singleton (prefixes) and one discrete
    derivative per contiguous window of each order 2..k; the preceding
    elements form the conditioning set. Window positions in a uniform random
    permutation reproduce the index's weight distribution exactly.

    Permutations come in batches of one ``permuted`` call, whose rows are
    the permutations that as many ``permutation`` calls would draw. A batch
    holds half as many permutations as were used before it, and at least
    enough to spend the rest of the budget at p new coalitions each; those
    past the stop are never used, so the estimate is that of one draw at a
    time.
    """
    p = game.p
    if budget < least_budget("permutation", k, p):
        raise ValueError("budget must be at least 2")
    if budget >= (1 << p):
        return _exact_fallback(game, k)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 211)))
    plan = _plan(p, k)
    # a permutation's windows, order after order, position after position
    starts = np.concatenate([np.arange(p - o + 1) for o in range(1, k + 1)])
    ends = starts + np.repeat(np.arange(1, k + 1), p - np.arange(k))
    planned = np.array([0, game.full_mask], dtype=np.int64)
    ts, drawn = [], []
    n_perms = 0
    while True:
        n = max(1, n_perms // 2, -(-(budget - planned.size) // p))
        perms = rng.permuted(np.tile(np.arange(p), (n, 1)), axis=1)
        prefixes = np.zeros((n, p + 1), dtype=np.int64)
        np.cumsum(1 << perms, axis=1, out=prefixes[:, 1:])
        M = prefixes[:, starts].ravel()
        K = prefixes[:, ends].ravel() ^ M
        t = plan.sorter[np.searchsorted(plan.targets, K, sorter=plan.sorter)]
        masks, draw = _needed(plan, t, M)
        merged, stamp, after = _account(planned, masks, draw // starts.size, n)
        # permutations that fit, and so up to the first that spends the budget
        fit = min(int(np.searchsorted(after, budget, side="right")),
                  int(np.searchsorted(after, budget, side="left")) + 1)
        planned = merged[stamp < fit]
        ts.append(t[:fit * starts.size])
        drawn.append(masks[draw < fit * starts.size])
        n_perms += fit
        if after[-1] >= budget:
            break
    sii = _mean_derivatives(game, plan, np.concatenate(ts), np.concatenate(drawn),
                            planned)
    ksii = aggregate_ksii(sii, k, p)
    info = {"method": "permutation", "evaluations": int(planned.size),
            "permutations": n_perms}
    return ksii, info


# ---------------------------------------------------------------------------
# kernel-weighted regression
# ---------------------------------------------------------------------------

def _sample_coalitions(p: int, n_rows: int, rng: np.random.Generator):
    """Stratified coalition sample: strata whose share of the remaining rows
    covers them entirely are enumerated, the rest are sampled without
    replacement within each size. Returns (masks, weights) where weights
    restore the full kernel-weighted objective in expectation."""
    sizes = np.arange(1, p)
    mass = (p - 1) / (sizes * (p - sizes))  # total kernel mass of each size
    counts = np.array([math.comb(p, s) for s in sizes.tolist()], dtype=np.int64)
    take = np.zeros(sizes.size, dtype=np.int64)  # rows of each size
    enumerated = np.zeros(sizes.size, dtype=bool)
    listing = []  # the sizes' rows in output order, as indices into sizes
    remaining = n_rows
    # repeatedly peel off strata that the proportional allocation saturates
    # (those of one pass hold at most the remaining rows together), then
    # sample the rest in proportion
    while remaining > 0 and not enumerated.all():
        open_ = np.flatnonzero(~enumerated)
        alloc = remaining * mass[open_] / sum(mass[open_])
        saturated = open_[alloc >= counts[open_]]
        if not saturated.size:
            take[open_] = np.minimum(counts[open_], alloc.astype(np.int64))
            # a row each, largest remainder first, to the strata with room
            leftovers = open_[np.argsort(take[open_] - alloc, kind="stable")]
            room = leftovers[take[leftovers] < counts[leftovers]]
            take[room[:remaining - int(take[open_].sum())]] += 1
            listing += open_[take[open_] > 0].tolist()
            break
        saturated = saturated[np.argsort(counts[saturated], kind="stable")]
        enumerated[saturated], take[saturated] = True, counts[saturated]
        listing += saturated.tolist()
        remaining -= int(counts[saturated].sum())
    ranks = [np.arange(counts[i]) if enumerated[i] else
             rng.choice(counts[i], size=take[i], replace=False) for i in listing]
    masks = _unrank(p, np.repeat(sizes[listing], take[listing]),
                    np.concatenate([np.zeros(0, dtype=np.int64), *ranks]))
    # in Python ints, whose quotient is exact past 2^53
    weights = [mass[i] / c * (c / n) for i, c, n in
               zip(listing, counts[listing].tolist(), take[listing].tolist())]
    return masks, np.repeat(weights, take[listing])


def _unrank(p: int, sizes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Masks of the subsets of range(p) of the given sizes at the given ranks
    of lexicographic order, the order of ``itertools.combinations``.

    Features are decided in order, for all ranks at once: with k features
    still to choose, feature i is in the first C(p-1-i, k-1) subsets that
    remain, so it is taken when the rank's remainder is below that count and
    skipped past them otherwise."""
    binom = np.array([[math.comb(n, k) for k in range(p + 1)] for n in range(p)],
                     dtype=np.int64)  # column p, C(n, p) = 0, is read once k = 0
    k = np.array(sizes, dtype=np.int64)
    rest = np.array(ranks, dtype=np.int64)
    masks = np.zeros_like(rest)
    for i in range(p):
        first = binom[p - 1 - i, k - 1]
        take = rest < first
        masks += take * (1 << i)
        rest -= np.where(take, 0, first)
        k -= take
    return masks


def approx_regression(game: SurvivalGame, k: int, budget: int, seed: int):
    """Kernel-weighted least squares on the order-k indicator basis.

    Coalitions are sampled from the Shapley kernel distribution (without
    replacement within size strata); the empty and full coalitions enter as
    exact linear constraints, so the estimates satisfy efficiency at every
    budget. Coefficients of the non-empty basis functions are the attribution
    estimates per timepoint. A budget below full enumeration must be at least
    2*(k+1); at full enumeration the decomposition is exact.
    """
    if budget < least_budget("regression", k, game.p):
        raise ValueError("regression needs budget >= 2*(order+1)")
    if budget >= (1 << game.p):
        return _exact_fallback(game, k)
    return _regression_fit(game, k, budget, seed)


def _regression_fit(game: SurvivalGame, k: int, budget: int, seed: int):
    """``approx_regression``'s fit; at full enumeration, of the full design."""
    p = game.p
    targets = _plan(p, k).targets
    n_basis = targets.size + 1  # the leading column is the empty set's
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 307)))
    n_rows = min(budget - 2, (1 << p) - 2)
    masks, weights = _sample_coalitions(p, n_rows, rng)
    planned = np.unique(np.concatenate([[0, game.full_mask], masks]))
    fetched = game.values_for_masks(planned)
    values = fetched[np.searchsorted(planned, masks)]  # (n_rows, T)
    d = fetched[np.searchsorted(planned, [0, game.full_mask])]  # (2, T)

    cols = np.r_[0, targets]
    sqrtw = np.sqrt(weights)[:, None]
    Aw = ((masks[:, None] & cols) == cols) * sqrtw
    # constraints: the intercept is the empty value (zero by centering) and
    # all coefficients sum to the full value. c0 meets them with least norm,
    # splitting the difference evenly over the m others; null's orthonormal
    # columns keep them: those of the Householder reflector that maps the
    # all-ones m-vector to a multiple of e_1, but its first, under a zero
    # intercept row
    m = n_basis - 1
    c0 = np.vstack([d[:1], np.repeat((d[1:] - d[:1]) / m, m, axis=0)])
    u = np.r_[0.0, 1.0 + math.sqrt(m), np.ones(m - 1)]
    null = np.eye(n_basis)[:, 2:] - u[:, None] / (m + math.sqrt(m))
    z, _, rank, sv = np.linalg.lstsq(Aw @ null, values * sqrtw - Aw @ c0, rcond=None)
    coef = c0 + null @ z
    rank = int(rank) + 2  # the rank of [Aw; C]
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else np.inf
    full_design = len(masks) == (1 << p) - 2
    underdetermined = rank < n_basis
    # near the interpolation regime the fit variance blows up well before the
    # design loses rank, so demand a two-rows-per-column margin as well
    unstable = underdetermined or cond > _COND_LIMIT or (
        not full_design and len(masks) < 2 * n_basis
    )
    if unstable:
        warnings.warn(
            f"regression design is unstable (rows={len(masks)}, basis={n_basis}, "
            f"rank={rank}, condition={cond:.2e})"
            + ("; minimum-norm solve" if underdetermined else ""),
            RuntimeWarning,
        )

    ksii = dict(zip(targets.tolist(), coef[1:]))
    info = {
        "method": "regression",
        "evaluations": int(planned.size),
        "n_basis": n_basis,
        "design_rows": len(masks),
        "design_rank": rank,
        "condition": cond,
        "unstable": bool(unstable),
    }
    return ksii, info
