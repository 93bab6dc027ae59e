"""Server-side aggregation strategies.

All six strategies share one shape of contract: given this round's client
updates (and, for the stateful ones, the previous global model plus carried
state), produce the next global parameter vector.  A server step computes
on the raw ``values`` arrays; only the vectors it hands back (the new global
model and the arrays carried in :class:`StrategyState`) are wrapped in a
:class:`ParamVector`, so each is checked finite once per round.

* ``fedavg``     -- data-count weighted mean of client parameters.
* ``fedavgm``    -- fedavg plus a server-side momentum recursion on the
                    pseudo-gradient (previous global minus the fedavg mean).
* ``fedmedian``  -- coordinate-wise median step, robust to outlying clients.
* ``fedopt``     -- the averaged client delta drives a server optimizer
                    (plain sgd / adagrad / adam / yogi second-moment rules).
* ``fedyogi``    -- fedopt preset with the yogi second-moment rule.
* ``fedavgopt``  -- weighted mean with one scaling coefficient per client,
                    chosen each round by Nelder-Mead to minimize the summed
                    normalized distance between the candidate aggregate and
                    every client's parameters.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import NumericError, ShapeMismatchError
from .nelder_mead import Objective, SimplexConfig, minimize
from .params import ParamVector, linear_combination

#: Per strategy, the :class:`StrategyHyperparams` fields its server step reads,
#: with their defaults: the config accepts exactly these keys.  A field a
#: strategy does not list keeps the dataclass default and has no effect on it.
HYPERPARAMS: dict[str, dict[str, float | str]] = {
    "fedavg": {},
    "fedavgm": {"server_lr": 1.0, "momentum_beta": 0.5},
    "fedmedian": {"server_lr": 1.0},
    "fedopt": {"server_lr": 0.1, "tau": 1e-9, "beta1": 0.0, "beta2": 0.0, "server_optimizer": "sgd"},
    "fedyogi": {"server_lr": 0.01, "tau": 1e-3, "beta1": 0.9, "beta2": 0.99, "server_optimizer": "yogi"},
    "fedavgopt": {},
}
STRATEGIES = tuple(HYPERPARAMS)
SERVER_OPTIMIZERS = ("sgd", "adagrad", "adam", "yogi")

#: Floor applied to the objective denominators so candidate aggregates that
#: nearly cancel a client's parameters stay finite for the solver.
DENOMINATOR_FLOOR = 1e-12

#: Smallest ratio of a squared norm to the square of its terms' size that
#: :func:`gram_objective` evaluates through the Gram matrix.  Rounding in the
#: Gram entries is about 1e-14 of that size for vectors of a few thousand
#: entries, so the norms it keeps are accurate to about 1e-10.
GRAM_CANCELLATION = 1e-4


@dataclass(frozen=True)
class ClientUpdate:
    """One client's round output: its trained parameters and the number of
    training examples that weights them in the aggregate."""

    client_id: str
    num_examples: int
    params: ParamVector

    def __post_init__(self) -> None:
        if self.num_examples < 1:
            raise ValueError("num_examples must be >= 1")


@dataclass(frozen=True)
class StrategyState:
    """Cross-round server state.

    ``momentum`` is carried only by fedavgm; ``first_moment``/``second_moment``
    only by the fedopt family.
    """

    momentum: ParamVector | None = None
    first_moment: ParamVector | None = None
    second_moment: ParamVector | None = None


@dataclass(frozen=True)
class StrategyHyperparams:
    server_lr: float = 1.0
    momentum_beta: float = 0.0
    tau: float = 1e-9
    beta1: float = 0.0
    beta2: float = 0.0
    server_optimizer: str = "sgd"

    def __post_init__(self) -> None:
        # server_lr = 0 is permitted: the zero-step behavior is part of the
        # fedmedian contract.
        if not 0 <= self.server_lr < math.inf:
            raise ValueError("server_lr must be finite and >= 0")
        if not 0 <= self.momentum_beta < 1:
            raise ValueError("momentum_beta must be in [0, 1)")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be finite and > 0")
        if not 0 <= self.beta1 < 1:
            raise ValueError("beta1 must be in [0, 1)")
        if not 0 <= self.beta2 < 1:
            raise ValueError("beta2 must be in [0, 1)")
        if self.server_optimizer not in SERVER_OPTIMIZERS:
            raise ValueError(f"server_optimizer must be one of {SERVER_OPTIMIZERS}")


def default_hyperparams(strategy: str) -> StrategyHyperparams:
    """Out-of-the-box hyperparameters for each strategy name (:data:`HYPERPARAMS`)."""
    if strategy not in HYPERPARAMS:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    return StrategyHyperparams(**HYPERPARAMS[strategy])


@dataclass(frozen=True)
class AlphaSolution:
    """Per-round diagnostic of the coefficient solve: the coefficients, their
    and all-ones' :func:`objective_f`, and the Nelder-Mead search's outcome."""

    alpha: np.ndarray
    objective_at_alpha: float
    objective_at_ones: float
    converged: bool
    iterations: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.alpha, dtype=np.float64).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)


def _params_and_counts(updates: Sequence[ClientUpdate]) -> tuple[list[ParamVector], list[int]]:
    if len(updates) == 0:
        raise ValueError("need at least one client update")
    return [u.params for u in updates], [u.num_examples for u in updates]


def _values_under(previous_global: ParamVector, vector: ParamVector) -> np.ndarray:
    """Raw array of a client vector, checked to be as long as the previous
    global so that numpy cannot broadcast a size-1 client vector."""
    if len(vector) != len(previous_global):
        raise ShapeMismatchError("client parameters differ in length from the previous global")
    return vector.values


def aggregate_fedavg(updates: Sequence[ClientUpdate]) -> ParamVector:
    """Weighted mean of client parameters, weights = client data counts."""
    params, counts = _params_and_counts(updates)
    total = float(sum(counts))
    return linear_combination(params, [n / total for n in counts])


def aggregate_fedavgm(
    updates: Sequence[ClientUpdate],
    previous_global: ParamVector,
    state: StrategyState,
    hp: StrategyHyperparams,
) -> tuple[ParamVector, StrategyState]:
    """Server momentum over the pseudo-gradient previous - fedavg.

    v <- beta * v + (previous - fedavg);  next = previous - lr * v.
    With beta = 0 and lr = 1 this collapses to plain fedavg.
    """
    previous = previous_global.values
    delta = previous - _values_under(previous_global, aggregate_fedavg(updates))
    momentum = state.momentum.values if state.momentum is not None else 0.0
    velocity = hp.momentum_beta * momentum + delta
    new_global = previous_global.with_values(previous - hp.server_lr * velocity)
    new_state = dataclasses.replace(state, momentum=previous_global.with_values(velocity))
    return new_global, new_state


def aggregate_fedmedian(
    updates: Sequence[ClientUpdate],
    previous_global: ParamVector,
    hp: StrategyHyperparams,
) -> ParamVector:
    """Step from the previous global along the coordinate-median
    pseudo-gradient; at lr = 1 this is exactly the coordinate median of the
    client parameters (translation equivariance)."""
    params, _ = _params_and_counts(updates)
    # Even counts take the midpoint of the two middle order statistics.
    median = np.median(np.stack([_values_under(previous_global, p) for p in params]), axis=0)
    if hp.server_lr == 1.0:
        return previous_global.with_values(median)
    previous = previous_global.values
    return previous_global.with_values(previous - hp.server_lr * (previous - median))


def aggregate_fedopt(
    updates: Sequence[ClientUpdate],
    previous_global: ParamVector,
    state: StrategyState,
    hp: StrategyHyperparams,
) -> tuple[ParamVector, StrategyState]:
    """Adaptive server step driven by the averaged client delta.

    delta = fedavg - previous;  m <- beta1 * m + (1 - beta1) * delta, and the
    second moment follows the configured rule (adagrad accumulates, adam
    decays, yogi moves toward delta^2 by sign).  The step is
    lr * m / (sqrt(v) + tau), or just lr * m for the sgd variant.  The second
    moment starts at tau^2 so the first division is well conditioned.
    """
    previous = previous_global.values
    delta = _values_under(previous_global, aggregate_fedavg(updates)) - previous
    m_prev = state.first_moment.values if state.first_moment is not None else 0.0
    v_prev = (
        state.second_moment.values
        if state.second_moment is not None
        else np.full(len(previous_global), hp.tau**2)
    )
    m = hp.beta1 * m_prev + (1.0 - hp.beta1) * delta

    d2 = delta**2
    if hp.server_optimizer == "sgd":
        v = v_prev
        step = hp.server_lr * m
    else:
        if hp.server_optimizer == "adagrad":
            v = v_prev + d2
        elif hp.server_optimizer == "adam":
            v = hp.beta2 * v_prev + (1.0 - hp.beta2) * d2
        else:  # yogi
            v = v_prev - (1.0 - hp.beta2) * d2 * np.sign(v_prev - d2)
        step = hp.server_lr * m / (np.sqrt(v) + hp.tau)

    new_global = previous_global.with_values(previous + step)
    new_state = dataclasses.replace(
        state,
        first_moment=previous_global.with_values(m),
        second_moment=previous_global.with_values(v),
    )
    return new_global, new_state


def candidate_aggregate(
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
    x: Sequence[float],
) -> ParamVector:
    """Candidate global model for coefficient vector ``x``:
    sum_i params_i * n_i * x_i / sum_i n_i.

    At x = 1 this is bit-identical to :func:`aggregate_fedavg`.  The
    denominator deliberately excludes the coefficients, so the aggregate may
    be globally rescaled rather than remaining a convex combination.
    """
    total = float(sum(counts))
    coeffs = [n * float(xi) / total for n, xi in zip(counts, x)]
    return linear_combination(list(client_params), coeffs)


def objective_f(
    x: Sequence[float],
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
) -> float:
    """Sum over clients of ||w(x) - w_j|| / ||w(x) + w_j|| for the candidate
    aggregate w(x), with the denominator floored to stay finite."""
    xs = np.asarray(x, dtype=np.float64).reshape(-1)
    if not (len(xs) == len(client_params) == len(counts)) or len(xs) < 1:
        raise ValueError(
            "x, client_params, and counts must have equal nonzero length"
        )
    candidate = candidate_aggregate(client_params, counts, xs).values
    return sum(
        float(np.linalg.norm(candidate - w.values))
        / max(float(np.linalg.norm(candidate + w.values)), DENOMINATOR_FLOOR)
        for w in client_params
    )


def gram_objective(
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
) -> Objective:
    """:func:`objective_f` for fixed clients, at O(K^2) per call for K clients.

    The objective sees the client vectors only through inner products, so
    they are summarized once, in O(K^2 P), by the Gram matrix of K + 1 basis
    vectors: each client's offset d_j from the count-weighted mean m, and m
    itself.  With c = n * x / sum(n) and s = sum(c),
    w(x) -/+ w_j = sum_i c_i d_i -/+ d_j + (s -/+ 1) m, so each norm is a
    quadratic form in the Gram matrix.  Centering keeps ||w(x) - w_j||
    accurate when the candidate nears a client; the uncentered Gram matrix
    loses half the digits there.

    A quadratic form loses digits to cancellation when the norm is far
    smaller than the terms it sums.  An evaluation where some squared norm
    falls below :data:`GRAM_CANCELLATION` times the square of a bound on
    those terms (the candidate nearly cancels a client, or sits on one) is
    computed directly from the vectors instead, at O(K P).

    The vectors are first scaled by a power of two so that every entry is
    below 1 in magnitude: this is exact, keeps the Gram products from
    overflowing, and scales the denominator floor with them.  A non-finite
    ``x``, or one whose norms or their bounds overflow, scores ``inf``; NumPy
    may warn about the overflow.
    """
    weights = np.asarray(counts, dtype=np.float64) / float(sum(counts))
    stacked = np.stack([w.values for w in client_params])
    _, exponent = math.frexp(float(np.max(np.abs(stacked))))
    stacked = np.ldexp(stacked, -exponent)
    floor = math.ldexp(DENOMINATOR_FLOOR, -exponent)
    mean = weights @ stacked
    basis = np.vstack([stacked - mean, mean])
    gram = basis @ basis.T
    k = len(weights)
    offsets_sq = np.diag(gram)[:k].copy()
    largest_offset = math.sqrt(float(offsets_sq.max()))
    mean_norm = math.sqrt(float(gram[k, k]))
    signs = np.array([[-2.0], [2.0]])
    coeffs = np.empty((2, k + 1))

    def evaluate(x: np.ndarray) -> float:
        c = weights * x
        s = float(np.add.reduce(c))
        # Row 0 expands ||w(x) - w_j||^2, row 1 ||w(x) + w_j||^2.
        coeffs[:, :k] = c
        coeffs[:, k] = (s - 1.0, s + 1.0)
        products = coeffs @ gram
        squares = signs * products[:, :k]
        squares += np.add.reduce(products * coeffs, axis=1, keepdims=True)
        squares += offsets_sq
        offset_terms = (float(np.add.reduce(np.abs(c))) + 1.0) * largest_offset
        smallest_minus, smallest_plus = np.minimum.reduce(squares, axis=1).tolist()
        try:
            cancels = (
                smallest_minus < GRAM_CANCELLATION * (offset_terms + abs(s - 1.0) * mean_norm) ** 2
                or smallest_plus < GRAM_CANCELLATION * (offset_terms + abs(s + 1.0) * mean_norm) ** 2
            )
        except OverflowError:  # a bound beyond the float range
            return math.inf
        if cancels:
            candidate = c @ stacked
            squares = np.stack([
                np.square(candidate - stacked).sum(axis=1),
                np.square(candidate + stacked).sum(axis=1),
            ])
        # No clamp at zero: a square that rounding made negative takes the
        # direct path above, unless a NaN beside it makes the value NaN anyway.
        norms = np.sqrt(squares)
        value = float(np.add.reduce(norms[0] / np.maximum(norms[1], floor)))
        return value if math.isfinite(value) else math.inf

    return evaluate


def aggregate_fedavgopt(
    updates: Sequence[ClientUpdate],
    config: SimplexConfig = SimplexConfig(),
) -> tuple[ParamVector, AlphaSolution]:
    """Solve for per-client scaling coefficients starting from all-ones, then
    aggregate with them.

    The search scores candidates with :func:`gram_objective`.  The reported
    objective values are :func:`objective_f` at the solution and at
    all-ones, and a solution that scores worse than all-ones under
    :func:`objective_f` is replaced by all-ones, so the coefficients never
    score worse than plain fedavg.
    """
    params, counts = _params_and_counts(updates)
    x0 = np.ones(len(updates))
    at_ones = objective_f(x0, params, counts)
    if not math.isfinite(at_ones):
        raise NumericError("fedavgopt objective is non-finite at all-ones")
    with np.errstate(over="ignore", invalid="ignore"):
        result = minimize(gram_objective(params, counts), x0, config)
    try:
        at_alpha = objective_f(result.x_star, params, counts)
    except NumericError:
        # The unscaled candidate overflows where the scaled search did not.
        at_alpha = math.inf
    alpha = result.x_star
    if not at_alpha <= at_ones:
        alpha, at_alpha = x0, at_ones
    aggregate = candidate_aggregate(params, counts, alpha)
    solution = AlphaSolution(
        alpha=alpha,
        objective_at_alpha=at_alpha,
        objective_at_ones=at_ones,
        converged=result.converged,
        iterations=result.iterations,
    )
    return aggregate, solution


class Aggregator:
    """Uniform stateful wrapper the federation loop drives.

    Holds the strategy's cross-round state and dispatches each round's
    updates to the matching aggregate function.
    """

    def __init__(
        self,
        strategy: str,
        hyperparams: StrategyHyperparams | None = None,
        simplex: SimplexConfig | None = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.strategy = strategy
        self.hyperparams = hyperparams if hyperparams is not None else default_hyperparams(strategy)
        self.simplex = simplex if simplex is not None else SimplexConfig()
        self.state = StrategyState()
        self.last_alpha: AlphaSolution | None = None

    def aggregate(
        self, updates: Sequence[ClientUpdate], previous_global: ParamVector
    ) -> ParamVector:
        self.last_alpha = None
        if self.strategy == "fedavg":
            new_global = aggregate_fedavg(updates)
        elif self.strategy == "fedavgm":
            new_global, self.state = aggregate_fedavgm(
                updates, previous_global, self.state, self.hyperparams
            )
        elif self.strategy == "fedmedian":
            new_global = aggregate_fedmedian(updates, previous_global, self.hyperparams)
        elif self.strategy in ("fedopt", "fedyogi"):
            new_global, self.state = aggregate_fedopt(
                updates, previous_global, self.state, self.hyperparams
            )
        else:  # fedavgopt
            new_global, self.last_alpha = aggregate_fedavgopt(updates, self.simplex)
        return new_global
