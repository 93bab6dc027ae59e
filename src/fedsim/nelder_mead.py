"""Nelder-Mead downhill-simplex minimization.

Plain implementation of the 1965 reflect / expand / contract / shrink
iteration, for small dimensions (one coordinate per federated client).  The
coefficients adapt to the dimension as in Gao & Han (2012), "Implementing the
Nelder-Mead simplex algorithm with adaptive parameters", Comput. Optim. Appl.
51:259-277, which keeps the search converging as the dimension grows.  Every
setting but the iteration cap is fixed at scipy's defaults for
``minimize(method="Nelder-Mead", options={"adaptive": True})`` from all-ones.
The vertices stay sorted by (objective value, creation order): each
replacement is inserted in place, and only a shrink, which may produce a new
best vertex, re-sorts the simplex.  It never propagates non-finite objective
values: any NaN/Inf seen after the start point is treated as +inf so the
offending vertex loses every comparison.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import Config, NumericError, bounded

Objective = Callable[[np.ndarray], float]


#: The start step along each axis, and the spreads in x and f that end a search.
INITIAL_STEP = 0.05
X_TOLERANCE = F_TOLERANCE = 1e-4


@dataclass(frozen=True)
class SimplexConfig(Config):
    """The iteration cap of :func:`minimize`; ``None`` resolves to 200 n for
    dimension n."""

    max_iterations: int | None = bounded(None, ge=1)

    def resolved_max_iterations(self, dimension: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 200 * int(dimension)


@dataclass(frozen=True)
class MinimizeResult:
    """Best vertex found, its stored objective value, and run diagnostics."""

    x_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool


def minimize(objective: Objective, x0: Sequence[float], config: SimplexConfig = SimplexConfig()) -> MinimizeResult:
    """Minimize ``objective`` from ``x0`` until the simplex collapses.

    The initial simplex is ``x0`` plus one vertex per coordinate, displaced by
    :data:`INITIAL_STEP`.  For dimension n, reflection is 1 and expansion,
    contraction and shrink are Gao & Han's 1 + 2/n, 3/4 - 1/(2n) and 1 - 1/n.
    Convergence requires both the infinity-norm spread of the vertices around
    the best one to fall below :data:`X_TOLERANCE` and the best-to-worst
    objective spread to fall below :data:`F_TOLERANCE`.  The returned point is
    never worse than the start: ``x0`` is itself a vertex of the initial
    simplex and the best vertex value is non-increasing across iterations.

    Raises :class:`NumericError` if the objective is non-finite at ``x0``.
    """
    start = np.asarray(x0, dtype=np.float64).reshape(-1)
    dim = start.size
    if dim < 1:
        raise ValueError("x0 must have dimension >= 1")
    max_iter = config.resolved_max_iterations(dim)
    expansion, contraction, shrink = 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim

    def evaluate(x: np.ndarray) -> float:
        value = float(objective(x))
        return value if math.isfinite(value) else math.inf

    f0 = float(objective(start))
    if not math.isfinite(f0):
        raise NumericError("objective is non-finite at the start point")

    # Simplex state: one row per vertex and the list of their objective values,
    # sorted by (value, creation order).
    vertices = np.tile(start, (dim + 1, 1))
    axes = np.arange(dim)
    vertices[axes + 1, axes] += INITIAL_STEP
    fvalues = [f0] + [evaluate(v) for v in vertices[1:]]
    # Work buffers, written in place each iteration; every candidate is a new
    # array, since the objective may keep the one it is given.
    centroid = np.empty(dim)
    toward = np.empty(dim)
    spread = np.empty((dim, dim))
    best, others, worst, kept = vertices[0], vertices[1:], vertices[-1], vertices[:-1]

    def sort_rows() -> None:
        # Called only when creation order is row order; sorted() is stable.
        order = sorted(range(dim + 1), key=fvalues.__getitem__)
        vertices[:] = vertices[order]
        fvalues[:] = [fvalues[i] for i in order]

    def candidate(step: np.ndarray, coef: float) -> np.ndarray:
        # centroid + coef * step, in the same rounding: + and * commute exactly.
        x = step * coef
        x += centroid
        return x

    sort_rows()
    iterations = 0
    converged = False
    while True:
        if fvalues[-1] - fvalues[0] < F_TOLERANCE:
            np.subtract(others, best, out=spread)
            np.abs(spread, out=spread)
            if np.maximum.reduce(spread, axis=None) < X_TOLERANCE:
                converged = True
                break
        if iterations >= max_iter:
            break
        iterations += 1

        np.add.reduce(kept, axis=0, out=centroid)
        centroid /= dim  # what ndarray.mean computes, bit for bit
        np.subtract(centroid, worst, out=toward)
        f_worst = fvalues[-1]

        x_reflect = toward + centroid
        f_reflect = evaluate(x_reflect)
        replacement: tuple[np.ndarray, float] | None
        if f_reflect < fvalues[0]:
            x_expand = candidate(toward, expansion)
            f_expand = evaluate(x_expand)
            if f_expand < f_reflect:
                replacement = (x_expand, f_expand)
            else:
                replacement = (x_reflect, f_reflect)
        elif f_reflect < fvalues[-2]:
            replacement = (x_reflect, f_reflect)
        elif f_reflect < f_worst:
            # Outside contraction, between centroid and reflected point.
            x_contract = candidate(x_reflect - centroid, contraction)
            f_contract = evaluate(x_contract)
            replacement = (x_contract, f_contract) if f_contract <= f_reflect else None
        else:
            # Inside contraction, between centroid and the worst vertex:
            # centroid - c * toward is centroid + (-c) * toward, bit for bit.
            x_contract = candidate(toward, -contraction)
            f_contract = evaluate(x_contract)
            replacement = (x_contract, f_contract) if f_contract < f_worst else None

        if replacement is not None:
            # The replacement is the newest vertex: it goes after equal values.
            x_new, f_new = replacement
            slot = bisect.bisect_right(fvalues, f_new, 0, dim)
            fvalues.insert(slot, f_new)
            fvalues.pop()
            vertices[slot + 1:] = vertices[slot:-1]
            vertices[slot] = x_new
        else:
            # Shrink: pull every non-best vertex toward the best one, in row
            # order; any of them may now beat the best, so all rows re-sort.
            np.subtract(others, best, out=spread)
            spread *= shrink
            np.add(spread, best, out=others)
            for i in range(1, dim + 1):
                fvalues[i] = evaluate(vertices[i])
            sort_rows()

    best_x = vertices[0].copy()
    best_x.setflags(write=False)
    return MinimizeResult(
        x_star=best_x,
        f_star=fvalues[0],
        iterations=iterations,
        converged=converged,
    )
