"""Slow, obvious reference implementations that fast paths are tested against.

``minimize`` is the list-based Nelder-Mead simplex that
:func:`fedsim.nelder_mead.minimize` replaced with an array-backed one; the
two must agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from fedsim import MinimizeResult, NumericError, SimplexConfig
from fedsim.nelder_mead import Objective


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

    def evaluate(x: np.ndarray) -> float:
        value = float(objective(x))
        return value if math.isfinite(value) else math.inf

    f0 = float(objective(start))
    if not math.isfinite(f0):
        raise NumericError("objective is non-finite at the start point")

    # Simplex state: parallel lists of vertices, stored objective values and
    # creation ids.  Ordering ties break on creation id for determinism.
    vertices: list[np.ndarray] = [start.copy()]
    fvalues: list[float] = [f0]
    created: list[int] = [0]
    next_id = 1
    for i in range(dim):
        vertex = start.copy()
        vertex[i] += config.initial_step
        vertices.append(vertex)
        fvalues.append(evaluate(vertex))
        created.append(next_id)
        next_id += 1

    def reorder() -> None:
        order = sorted(range(dim + 1), key=lambda k: (fvalues[k], created[k]))
        nonlocal vertices, fvalues, created
        vertices = [vertices[k] for k in order]
        fvalues = [fvalues[k] for k in order]
        created = [created[k] for k in order]

    iterations = 0
    converged = False
    while True:
        reorder()
        best = vertices[0]
        x_spread = max(float(np.max(np.abs(v - best))) for v in vertices[1:])
        f_spread = fvalues[-1] - fvalues[0]
        if x_spread < config.x_tolerance and f_spread < config.f_tolerance:
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1

        centroid = np.mean(np.stack(vertices[:-1]), axis=0)
        worst = vertices[-1]
        f_worst = fvalues[-1]
        f_second = fvalues[-2]

        def replace_worst(x: np.ndarray, fx: float) -> None:
            nonlocal next_id
            vertices[-1] = x
            fvalues[-1] = fx
            created[-1] = next_id
            next_id += 1

        x_reflect = centroid + config.reflection * (centroid - worst)
        f_reflect = evaluate(x_reflect)

        if f_reflect < fvalues[0]:
            x_expand = centroid + config.expansion * (centroid - worst)
            f_expand = evaluate(x_expand)
            if f_expand < f_reflect:
                replace_worst(x_expand, f_expand)
            else:
                replace_worst(x_reflect, f_reflect)
        elif f_reflect < f_second:
            replace_worst(x_reflect, f_reflect)
        elif f_reflect < f_worst:
            # Outside contraction, between centroid and reflected point.
            x_contract = centroid + config.contraction * (x_reflect - centroid)
            f_contract = evaluate(x_contract)
            if f_contract <= f_reflect:
                replace_worst(x_contract, f_contract)
            else:
                _shrink(vertices, fvalues, created, config.shrink, evaluate)
                next_id = max(created) + 1
        else:
            # Inside contraction, between centroid and the worst vertex.
            x_contract = centroid - config.contraction * (centroid - worst)
            f_contract = evaluate(x_contract)
            if f_contract < f_worst:
                replace_worst(x_contract, f_contract)
            else:
                _shrink(vertices, fvalues, created, config.shrink, evaluate)
                next_id = max(created) + 1

    best_x = vertices[0].copy()
    best_x.setflags(write=False)
    return MinimizeResult(
        x_star=best_x,
        f_star=fvalues[0],
        iterations=iterations,
        converged=converged,
    )


def _shrink(
    vertices: list[np.ndarray],
    fvalues: list[float],
    created: list[int],
    factor: float,
    evaluate: Callable[[np.ndarray], float],
) -> None:
    """Pull every non-best vertex toward the best one, re-evaluating each."""
    best = vertices[0]
    base = max(created) + 1
    for i in range(1, len(vertices)):
        vertices[i] = best + factor * (vertices[i] - best)
        fvalues[i] = evaluate(vertices[i])
        created[i] = base + i - 1
