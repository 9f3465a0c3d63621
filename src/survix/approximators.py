"""Budgeted estimators of interaction attribution curves.

All three estimators count one budget unit per distinct coalition whose value
curve is evaluated (reference-row predictions inside a single value are not
budget units). The empty and full coalitions are always evaluated. When the
budget covers full enumeration, every estimator defers to the exact
computation.

Each estimator plans, then evaluates. What the designs draw never depends on
the values, so the sampling loop draws and budgets coalitions first; then one
``SurvivalGame.values_for_masks`` call fetches them all, and Monte Carlo and
permutation take every sampled (K, M) discrete derivative together.

Regression's coefficients are the minimum-norm solution of its two exact
constraints (the empty and full values) plus an orthonormal basis of their
null space times one ``np.linalg.lstsq`` solution, the minimum-norm fit of a
rank-deficient design; ``info["condition"]`` is that solved matrix's.

An estimator works at the width of the values it fetches. ``estimate`` runs
it on the game's values at the engine's nodes (see ``games``) and maps the
estimated curves to the grid once; called directly, an estimator sees the
game's T columns.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, List, Set, Tuple

import numpy as np

from .core import coalition_iter, mask_size
from .games import SurvivalGame, _to_grid, _width, evaluate_all_coalitions
from .interactions import _check_order, _submasks, aggregate_ksii, exact_ksii

_COND_LIMIT = 1e8


def estimators():
    """Estimator name -> function: the one list of estimators. Built per
    call, so a wrapped module attribute is the function called."""
    return {"mc": approx_montecarlo, "permutation": approx_permutation,
            "regression": approx_regression}


def estimate(game: SurvivalGame, k: int, method: str, budget: int, seed: int):
    """Run the estimator named ``method``; returns (ksii, info), where info
    records the number of nodes the values were taken at as ``width``."""
    runner = estimators()[method]
    _check_order(k, game.p)
    nodes, basis_map = _width(game.predict, game.grid)
    if basis_map is None:
        ksii, info = runner(game, k, budget, seed)
    else:
        ksii, info = runner(game._copy_at_nodes(), k, budget, seed)
        ksii = dict(zip(ksii, _to_grid(np.array(list(ksii.values())), basis_map)))
    return ksii, {**info, "width": nodes.size}


def _evaluate(game: SurvivalGame, planned: Iterable[int]):
    """Sorted distinct planned coalitions and their value curves, fetched in
    one ``values_for_masks`` call."""
    masks = np.unique(np.fromiter(planned, dtype=np.int64))
    return masks, game.values_for_masks(masks)


def _mean_derivatives(game: SurvivalGame, targets: List[int],
                      samples: List[Tuple[int, int]], planned: Set[int]):
    """Mean discrete derivative of each target K over its sampled (K, M)
    pairs, plus the number of coalitions evaluated.

    Each derivative is the signed sum of the values of M | L over the
    submasks L of K, added in descending submask order, and each target's
    derivatives are summed in draw order: a fixed order of float additions,
    so an estimate is reproducible bit for bit.
    """
    masks, values = _evaluate(game, planned)
    T = values.shape[1]
    sizes = np.array([mask_size(K) for K in targets])
    index = {K: i for i, K in enumerate(targets)}
    t = np.array([index[K] for K, _ in samples], dtype=np.intp)
    conditioning = np.array([M for _, M in samples], dtype=np.int64)
    deltas = np.empty((t.size, T))
    for s in np.unique(sizes[t]):
        group = np.flatnonzero(sizes == s)
        subs = np.stack([_submasks(targets[i]) for i in group])  # (targets, 2^s)
        rows = np.flatnonzero(sizes[t] == s)
        at = np.searchsorted(masks, conditioning[rows, None]
                             | subs[np.searchsorted(group, t[rows])])
        acc = np.zeros((rows.size, T))
        for j, L in enumerate(subs[0]):
            acc += (-1.0 if (s - mask_size(int(L))) % 2 else 1.0) * values[at[:, j]]
        deltas[rows] = acc
    sums = np.zeros((len(targets), T))
    np.add.at(sums, t, deltas)
    counts = np.bincount(t, minlength=len(targets))
    sii = {
        K: (sums[i] / counts[i]) if counts[i] else np.zeros(T)
        for i, K in enumerate(targets)
    }
    return sii, int(masks.size)


def _exact_fallback(game: SurvivalGame, k: int):
    ksii = exact_ksii(evaluate_all_coalitions(game), k)
    return ksii, {"method": "exact_fallback", "evaluations": 1 << game.p}


def _targets(p: int, k: int) -> List[int]:
    return [m for m in coalition_iter(p, k) if m]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def approx_montecarlo(game: SurvivalGame, k: int, budget: int, seed: int):
    """Direct Monte-Carlo estimate of the interaction index per coalition.

    For target K, subsets M of the remaining features are drawn with size
    uniform on 0..p-|K| and uniformly within each size, exactly the index's
    weight distribution, so the plain average of discrete derivatives is
    unbiased. Sampling stops as soon as a draw no longer fits the budget.
    """
    p = game.p
    if budget >= (1 << p):
        return _exact_fallback(game, k)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 101)))
    targets = _targets(p, k)
    rests = {K: [j for j in range(p) if not (K >> j) & 1] for K in targets}
    subs = {K: _submasks(K).tolist() for K in targets}
    planned = {0, game.full_mask}
    samples: List[Tuple[int, int]] = []
    exhausted = False
    while not exhausted:
        progress = False
        for K in targets:
            rest = rests[K]
            m_size = int(rng.integers(0, len(rest) + 1))
            chosen = rng.choice(len(rest), size=m_size, replace=False) if m_size else []
            M = sum(1 << rest[int(c)] for c in chosen)
            new = {M | L for L in subs[K]} - planned
            if len(planned) + len(new) > budget:
                exhausted = True
                break
            planned |= new
            samples.append((K, M))
            progress = True
        if not progress:
            break
    sii, evaluations = _mean_derivatives(game, targets, samples, planned)
    ksii = aggregate_ksii(sii, k, p)
    info = {"method": "mc", "evaluations": evaluations,
            "samples": {mask_size(K): 0 for K in targets}}
    for K, _ in samples:
        info["samples"][mask_size(K)] += 1
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
    """
    p = game.p
    if budget >= (1 << p):
        return _exact_fallback(game, k)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 211)))
    targets = _targets(p, k)
    subs = {K: _submasks(K).tolist() for K in targets}
    planned = {0, game.full_mask}
    samples: List[Tuple[int, int]] = []
    n_perms = 0
    while True:
        perm = rng.permutation(p)
        prefixes = [0]
        for j in perm:
            prefixes.append(prefixes[-1] | 1 << int(j))
        drawn = []  # (K mask, M mask): a window and the prefix before it
        for order in range(1, k + 1):
            for pos in range(p - order + 1):
                drawn.append((prefixes[pos + order] ^ prefixes[pos], prefixes[pos]))
        new = {M | L for K, M in drawn for L in subs[K]} - planned
        if len(planned) + len(new) > budget:
            break
        planned |= new
        samples.extend(drawn)
        n_perms += 1
        if len(planned) >= budget:
            break
    sii, evaluations = _mean_derivatives(game, targets, samples, planned)
    ksii = aggregate_ksii(sii, k, p)
    info = {"method": "permutation", "evaluations": evaluations,
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
    sizes = list(range(1, p))
    mass = {s: (p - 1) / (s * (p - s)) for s in sizes}  # total kernel mass of size s
    counts = {s: math.comb(p, s) for s in sizes}
    # (size, ranks in lexicographic order, weight per row) of each stratum,
    # after an empty one that keeps the arrays defined when n_rows = 0
    strata = [(0, np.zeros(0, dtype=np.int64), 0.0)]
    remaining = n_rows
    open_sizes = sizes[:]
    # repeatedly peel off strata that the proportional allocation saturates
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
            strata.append((s, np.arange(counts[s]), mass[s] / counts[s]))
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
            ranks = rng.choice(counts[s], size=n_s, replace=False)
            strata.append((s, ranks, mass[s] / counts[s] * (counts[s] / n_s)))
    lengths = [ranks.size for _, ranks, _ in strata]
    masks = _unrank(p, np.repeat([s for s, _, _ in strata], lengths),
                    np.concatenate([ranks for _, ranks, _ in strata]))
    return masks, np.repeat([w for _, _, w in strata], lengths)


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
    if budget >= (1 << game.p):
        return _exact_fallback(game, k)
    if budget < 2 * (k + 1):
        raise ValueError("regression needs budget >= 2*(order+1)")
    return _regression_fit(game, k, budget, seed)


def _regression_fit(game: SurvivalGame, k: int, budget: int, seed: int):
    """``approx_regression``'s fit; at full enumeration, of the full design."""
    p = game.p
    basis = list(coalition_iter(p, k))  # leading entry is the empty set
    n_basis = len(basis)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 307)))
    n_rows = min(budget - 2, (1 << p) - 2)
    masks, weights = _sample_coalitions(p, n_rows, rng)
    planned, fetched = _evaluate(game, np.concatenate([[0, game.full_mask], masks]))
    values = fetched[np.searchsorted(planned, masks)]  # (n_rows, T)
    d = fetched[np.searchsorted(planned, [0, game.full_mask])]  # (2, T)

    cols = np.array(basis, dtype=np.int64)
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

    ksii = {S: coef[col] for col, S in enumerate(basis) if S != 0}
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
