"""Nelder-Mead downhill-simplex minimization.

Plain implementation of the 1965 reflect / expand / contract / shrink
iteration, for small dimensions (one coordinate per federated client).  By
default the coefficients adapt to the dimension as in Gao & Han (2012),
"Implementing the Nelder-Mead simplex algorithm with adaptive parameters",
Comput. Optim. Appl. 51:259-277, which keeps the search converging as the
dimension grows.  The vertices stay sorted by (objective value, creation
order): each replacement is inserted in place, and only a shrink, which may
produce a new best vertex, re-sorts the simplex.  It never propagates
non-finite objective values: any NaN/Inf seen after the start point is
treated as +inf so the offending vertex loses every comparison.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import Config, ConfigError, NumericError, bounded

Objective = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class SimplexConfig(Config):
    """Coefficients and stopping rules for :func:`minimize`.

    ``None`` resolves at call time, for dimension n: ``max_iterations`` to
    200 n, and ``expansion``, ``contraction`` and ``shrink`` to Gao & Han's
    1 + 2/n, 3/4 - 1/(2n) and 1 - 1/n (the textbook 2, 1/2 and 1/2 at n = 2).
    The initial simplex is the start point plus one vertex per coordinate,
    displaced by the absolute ``initial_step``.
    """

    reflection: float = bounded(1.0, gt=0)
    expansion: float | None = None
    contraction: float | None = bounded(None, gt=0, lt=1)
    shrink: float | None = bounded(None, gt=0, lt=1)
    initial_step: float = 0.05
    x_tolerance: float = bounded(1e-4, gt=0)
    f_tolerance: float = bounded(1e-4, gt=0)
    max_iterations: int | None = bounded(None, ge=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.expansion is None:
            # 1 + 2/n falls toward 1 as n grows, below any reflection > 1.
            if self.reflection > 1.0:
                raise ConfigError("expansion must be given when reflection > 1, got None")
        elif not self.expansion > max(self.reflection, 1.0):
            raise ConfigError(f"expansion must exceed max(reflection, 1), got {self.expansion!r}")
        if self.initial_step == 0:
            raise ConfigError("initial_step must be nonzero")

    def resolved_max_iterations(self, dimension: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 200 * int(dimension)

    def coefficients(self, dimension: int) -> tuple[float, float, float, float]:
        """Reflection, expansion, contraction and shrink for ``dimension``."""
        n = int(dimension)
        adaptive = (1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n)
        given = (self.expansion, self.contraction, self.shrink)
        return (self.reflection, *(a if g is None else g for g, a in zip(given, adaptive)))


@dataclass(frozen=True)
class MinimizeResult:
    """Best vertex found, its stored objective value, and run diagnostics."""

    x_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool


def minimize(objective: Objective, x0: Sequence[float], config: SimplexConfig = SimplexConfig()) -> MinimizeResult:
    """Minimize ``objective`` from ``x0`` until the simplex collapses.

    Convergence requires both the infinity-norm spread of the vertices
    around the best one to fall below ``x_tolerance`` and the best-to-worst
    objective spread to fall below ``f_tolerance``.  The returned point is
    never worse than the start: ``x0`` is itself a vertex of the initial
    simplex and the best vertex value is non-increasing across iterations.

    Raises :class:`NumericError` if the objective is non-finite at ``x0``.
    """
    start = np.asarray(x0, dtype=np.float64).reshape(-1)
    dim = start.size
    if dim < 1:
        raise ValueError("x0 must have dimension >= 1")
    max_iter = config.resolved_max_iterations(dim)
    reflection, expansion, contraction, shrink = config.coefficients(dim)
    x_tolerance, f_tolerance = config.x_tolerance, config.f_tolerance

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
    vertices[axes + 1, axes] += config.initial_step
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
        if fvalues[-1] - fvalues[0] < f_tolerance:
            np.subtract(others, best, out=spread)
            np.abs(spread, out=spread)
            if np.maximum.reduce(spread, axis=None) < x_tolerance:
                converged = True
                break
        if iterations >= max_iter:
            break
        iterations += 1

        np.add.reduce(kept, axis=0, out=centroid)
        centroid /= dim  # what ndarray.mean computes, bit for bit
        np.subtract(centroid, worst, out=toward)
        f_worst = fvalues[-1]

        x_reflect = candidate(toward, reflection)
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
