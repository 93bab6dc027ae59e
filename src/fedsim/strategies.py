"""Server-side aggregation rules, one frozen dataclass each; :data:`RULES`
maps each strategy name to its rule type.

A rule's fields are exactly the settings its server step reads, with the
rule's own defaults.  Its ``step`` method maps this round's client updates,
the previous global model and the state carried from the last round to the
next global model, as a raw float64 array, and the state to carry.  A step
checks the client set it combines; :meth:`Aggregator.aggregate` also checks
their length against the previous global, silences numpy's overflow and
invalid-value warnings, and wraps the new global in a :class:`ParamVector`,
so an overflow surfaces only as a wrap's :class:`NumericError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .exceptions import Config, ShapeMismatchError, bounded
from .nelder_mead import Objective, SimplexConfig, minimize
from .params import ParamVector, linear_combination

SERVER_OPTIMIZERS = ("sgd", "adagrad", "adam", "yogi")

#: Floor applied to the objective denominators so candidate aggregates that
#: nearly cancel a client's parameters stay finite for the solver.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class ClientUpdate(Config):
    """One client's round output: its trained parameters and the number of
    training examples that weights them in the aggregate."""

    client_id: str
    num_examples: int = bounded(ge=1)
    params: ParamVector


@dataclass(frozen=True)
class AlphaSolution:
    """Per-round diagnostic of the coefficient solve: the coefficients (a
    read-only float64 vector), the search's objective value at them and at
    all-ones, the first never above the second, and the Nelder-Mead
    search's outcome."""

    alpha: np.ndarray
    objective_at_alpha: float
    objective_at_ones: float
    converged: bool
    iterations: int


def _params_and_counts(updates: Sequence[ClientUpdate], size: int | None = None) -> tuple[list[ParamVector], list[int]]:
    """The clients' vectors and counts: at least one, each of length ``size`` (the
    first's when None), so that numpy cannot broadcast a size-1 vector."""
    if len(updates) == 0:
        raise ValueError("need at least one client update")
    params = [u.params for u in updates]
    size = len(params[0]) if size is None else size
    if any(len(p) != size for p in params):
        raise ShapeMismatchError(f"client parameter vectors must all have length {size}")
    return params, [u.num_examples for u in updates]


def aggregate_fedavg(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """Count-weighted mean of client parameters: :func:`candidate_aggregate` at all-ones."""
    params, counts = _params_and_counts(updates)
    return candidate_aggregate(params, counts, [1.0] * len(counts))


def candidate_aggregate(
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
    x: Sequence[float],
) -> np.ndarray:
    """Candidate global model for coefficient vector ``x``, unchecked:
    sum_i params_i * n_i * x_i / sum_i n_i.

    At x = 1 this is :func:`aggregate_fedavg`.  The denominator deliberately
    excludes the coefficients, so the aggregate may be globally rescaled
    rather than remaining a convex combination.
    """
    total = float(sum(counts))
    coeffs = [n * float(xi) / total for n, xi in zip(counts, x)]
    return linear_combination(list(client_params), coeffs)


def objective_f(
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
) -> Objective:
    """Sum over clients of ||w(x) - w_j|| / ||w(x) + w_j|| for the candidate
    aggregate w(x), denominator floored, as a function of x (one coefficient
    per client, unchecked) for fixed clients, at O(K^2) per call for K clients.

    Every vector the objective measures is a combination of K + 1 basis
    vectors: each client's offset d_j from the count-weighted mean m, and m
    itself.  With c = n * x / sum(n) and s = sum(c),
    w(x) -/+ w_j = sum_i c_i d_i -/+ d_j + (s -/+ 1) m.  The basis is
    factored once, in O(K^2 P), as B^T = Q R, and since ||B^T a|| = ||R a||
    for every coefficient vector a, each norm is a plain vector norm in the
    min(P, K + 1) coordinates of R.  Each difference w(x) -/+ w_j is formed
    there directly, as it would be from the full vectors, so no norm is
    taken of a sum of squares that cancel.

    The vectors are first scaled by a power of two so that every entry is
    below 1 in magnitude: this is exact, keeps the factorization from
    overflowing, and scales the denominator floor with them.  A non-finite
    ``x``, or one whose norms overflow, scores ``inf``; NumPy may warn about
    the overflow.
    """
    weights = np.asarray(counts, dtype=np.float64) / float(sum(counts))
    stacked = np.stack([w.values for w in client_params])
    _, exponent = math.frexp(float(np.max(np.abs(stacked))))
    stacked = np.ldexp(stacked, -exponent)
    floor = math.ldexp(DENOMINATOR_FLOOR, -exponent)
    mean = weights @ stacked
    r = np.linalg.qr(np.vstack([stacked - mean, mean]).T, mode="r")
    k = len(weights)
    # -R[:, j] and +R[:, j]: client j's column, signed for each side.
    clients = np.stack([-r[:, :k], r[:, :k]])
    r_t = r.T
    # Buffers each call overwrites, and views of them; the side-0 row of
    # norms ends up holding the ratios.
    coeffs = np.empty((2, k + 1))
    both_c, c = coeffs[:, :k], coeffs[0, :k]
    projected = np.empty((2, r.shape[0]))
    projected_cols = projected[:, :, None]
    diffs = np.empty(clients.shape)
    norms = np.empty((2, k))
    numerators, denominators = norms

    def evaluate(x: np.ndarray) -> float:
        # Side 0 is w(x) - w_j, side 1 is w(x) + w_j; column j is client j.
        np.multiply(weights, x, out=both_c)
        s = float(np.add.reduce(c))
        coeffs[0, k] = s - 1.0
        coeffs[1, k] = s + 1.0
        np.matmul(coeffs, r_t, out=projected)
        np.add(projected_cols, clients, out=diffs)
        np.einsum("smk,smk->sk", diffs, diffs, out=norms)
        np.sqrt(norms, out=norms)
        np.maximum(denominators, floor, out=denominators)
        np.divide(numerators, denominators, out=numerators)
        value = float(np.add.reduce(numerators))
        return value if math.isfinite(value) else math.inf

    return evaluate


def aggregate_fedavgopt(
    updates: Sequence[ClientUpdate],
    config: SimplexConfig = SimplexConfig(),
) -> tuple[np.ndarray, AlphaSolution]:
    """Solve for per-client scaling coefficients starting from all-ones, then
    aggregate with them.

    One :func:`objective_f` of the clients scores the search's candidates
    and all-ones, so both reported values are that objective's: the
    search's best value and its value at all-ones.  All-ones is a vertex of
    the initial simplex and the best value never rises, so the coefficients
    never score worse than plain fedavg.
    """
    params, counts = _params_and_counts(updates)
    x0 = np.ones(len(updates))
    # An overflow scores inf or leaves a non-finite aggregate; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        objective = objective_f(params, counts)
        at_ones = objective(x0)
        result = minimize(objective, x0, config)
        aggregate = candidate_aggregate(params, counts, result.x_star)
    solution = AlphaSolution(
        alpha=result.x_star,
        objective_at_alpha=result.f_star,
        objective_at_ones=at_ones,
        converged=result.converged,
        iterations=result.iterations,
    )
    return aggregate, solution


# The bounds of the fields several rules declare.  server_lr = 0 is
# permitted: the zero-step behavior is part of the fedmedian contract.
_SERVER_LR = {"ge": 0}
_DECAY = {"ge": 0, "lt": 1}
_TAU = {"gt": 0}


@dataclass(frozen=True)
class FedAvg(Config):
    """Data-count weighted mean of the client parameters; no state."""

    name: ClassVar[str] = "fedavg"

    def step(
        self, updates: Sequence[ClientUpdate], previous_global: ParamVector, state: None
    ) -> tuple[np.ndarray, None]:
        return aggregate_fedavg(updates), None


@dataclass(frozen=True)
class FedAvgM(Config):
    """Server momentum over the pseudo-gradient previous - fedavg.

    v <- beta * v + (previous - fedavg);  next = previous - lr * v.
    With beta = 0 and lr = 1 this collapses to plain fedavg.  The state is
    the velocity v, None before the first round.
    """

    name: ClassVar[str] = "fedavgm"
    server_lr: float = bounded(1.0, **_SERVER_LR)
    momentum_beta: float = bounded(0.5, **_DECAY)

    def step(
        self,
        updates: Sequence[ClientUpdate],
        previous_global: ParamVector,
        momentum: ParamVector | None,
    ) -> tuple[np.ndarray, ParamVector]:
        previous = previous_global.values
        delta = previous - aggregate_fedavg(updates)
        carried = momentum.values if momentum is not None else 0.0
        velocity = self.momentum_beta * carried + delta
        return previous - self.server_lr * velocity, ParamVector(velocity)


@dataclass(frozen=True)
class FedMedian(Config):
    """Step from the previous global along the coordinate-median
    pseudo-gradient; at lr = 1 this is exactly the coordinate median of the
    client parameters (translation equivariance).  No state."""

    name: ClassVar[str] = "fedmedian"
    server_lr: float = bounded(1.0, **_SERVER_LR)

    def step(
        self, updates: Sequence[ClientUpdate], previous_global: ParamVector, state: None
    ) -> tuple[np.ndarray, None]:
        params, _ = _params_and_counts(updates)
        stacked = np.stack([p.values for p in params])
        # np.median's own steps, so its bits, signed zeros included: one
        # partition (with the trailing -1 its NaN check adds), then the mean
        # of the middle row, or of the two middle rows for an even count.
        # Its NaN check itself imports numpy.ma; ParamVector keeps every
        # entry finite.
        mid = len(stacked) // 2
        middle = [mid] if len(stacked) % 2 else [mid - 1, mid]
        stacked.partition(middle + [-1], axis=0)
        median = stacked[middle[0] : mid + 1].mean(axis=0)
        if self.server_lr == 1.0:
            return median, None
        previous = previous_global.values
        return previous - self.server_lr * (previous - median), None


@dataclass(frozen=True)
class FedOpt(Config):
    """Adaptive server step driven by the averaged client delta.

    delta = fedavg - previous;  m <- beta1 * m + (1 - beta1) * delta, and the
    second moment v follows the configured rule (adagrad accumulates, adam
    decays, yogi moves toward delta^2 by sign).  The step is
    lr * m / (sqrt(v) + tau), or just lr * m for the sgd variant.  The second
    moment starts at tau^2 so the first division is well conditioned.  The
    state is the pair (m, v), None before the first round.
    """

    name: ClassVar[str] = "fedopt"
    server_lr: float = bounded(0.1, **_SERVER_LR)
    tau: float = bounded(1e-9, **_TAU)
    beta1: float = bounded(0.0, **_DECAY)
    beta2: float = bounded(0.0, **_DECAY)
    server_optimizer: str = bounded("sgd", choices=SERVER_OPTIMIZERS)

    def step(
        self,
        updates: Sequence[ClientUpdate],
        previous_global: ParamVector,
        moments: tuple[ParamVector, ParamVector] | None,
    ) -> tuple[np.ndarray, tuple[ParamVector, ParamVector]]:
        previous = previous_global.values
        delta = aggregate_fedavg(updates) - previous
        if moments is None:
            # A float64 square: a huge tau gives inf, which the v wrap rejects.
            m_prev, v_prev = 0.0, np.full(len(previous), np.float64(self.tau) ** 2)
        else:
            m_prev, v_prev = moments[0].values, moments[1].values
        m = self.beta1 * m_prev + (1.0 - self.beta1) * delta

        d2 = delta**2
        if self.server_optimizer == "sgd":
            v = v_prev
            step = self.server_lr * m
        else:
            if self.server_optimizer == "adagrad":
                v = v_prev + d2
            elif self.server_optimizer == "adam":
                v = self.beta2 * v_prev + (1.0 - self.beta2) * d2
            else:  # yogi
                v = v_prev - (1.0 - self.beta2) * d2 * np.sign(v_prev - d2)
            step = self.server_lr * m / (np.sqrt(v) + self.tau)

        return previous + step, (ParamVector(m), ParamVector(v))


@dataclass(frozen=True)
class FedYogi(FedOpt):
    """:class:`FedOpt` with the yogi second-moment rule, which is fixed, and
    the yogi defaults (Reddi et al. 2021)."""

    name: ClassVar[str] = "fedyogi"
    server_optimizer: ClassVar[str] = "yogi"
    server_lr: float = bounded(0.01, **_SERVER_LR)
    tau: float = bounded(1e-3, **_TAU)
    beta1: float = bounded(0.9, **_DECAY)
    beta2: float = bounded(0.99, **_DECAY)


@dataclass(frozen=True)
class FedAvgOpt(Config):
    """Weighted mean with one scaling coefficient per client, solved each
    round by :func:`aggregate_fedavgopt` with the ``solver`` settings.  The
    state is the round's :class:`AlphaSolution`; the next round's search
    does not read it, since it restarts at all-ones."""

    name: ClassVar[str] = "fedavgopt"
    solver: SimplexConfig = SimplexConfig()

    def step(
        self, updates: Sequence[ClientUpdate], previous_global: ParamVector, state: object
    ) -> tuple[np.ndarray, AlphaSolution]:
        return aggregate_fedavgopt(updates, self.solver)


Rule = FedAvg | FedAvgM | FedMedian | FedOpt | FedAvgOpt

#: Each strategy name and its rule type; STRATEGIES keeps this order.
RULES: dict[str, type[Rule]] = {
    rule.name: rule for rule in (FedAvg, FedAvgM, FedMedian, FedOpt, FedYogi, FedAvgOpt)
}
STRATEGIES = tuple(RULES)


class Aggregator:
    """Drives one rule across the rounds of a federation, holding the state
    its step carries from round to round."""

    def __init__(self, rule: Rule) -> None:
        if not isinstance(rule, tuple(RULES.values())):
            raise TypeError(f"expected an aggregation rule, got {rule!r}")
        self.rule = rule
        self.state = None

    @property
    def strategy(self) -> str:
        return self.rule.name

    @property
    def last_alpha(self) -> AlphaSolution | None:
        """The last round's coefficient solve, when the rule is :class:`FedAvgOpt`."""
        return self.state if isinstance(self.state, AlphaSolution) else None

    def aggregate(
        self, updates: Sequence[ClientUpdate], previous_global: ParamVector
    ) -> ParamVector:
        """The rule's next global model, keeping its new state: the one checked
        server step.  A client of another length than ``previous_global``, or a
        non-finite global or state, raises and leaves the state as it was."""
        _params_and_counts(updates, len(previous_global))
        with np.errstate(over="ignore", invalid="ignore"):
            values, state = self.rule.step(updates, previous_global, self.state)
        new_global, self.state = ParamVector(values), state
        return new_global
