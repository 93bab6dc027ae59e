"""Server-side aggregation rules, one frozen dataclass each; :data:`RULES`
maps each strategy name to its rule type.

A rule's fields are exactly the settings its server step reads, with the
rule's own defaults.  Its ``step`` method maps this round's client updates,
the previous global model and the state carried from the last round to the
next global model and the state to carry.  A step computes on the raw
``values`` arrays; only the vectors it hands back are wrapped in a
:class:`ParamVector`, so each is checked finite once per round.  numpy's
overflow and invalid-value warnings are silenced in a step: an overflow
surfaces only as that check's :class:`NumericError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .exceptions import Config, NumericError, ShapeMismatchError, bounded, checked
from .nelder_mead import Objective, SimplexConfig, minimize
from .params import ParamVector, linear_combination

SERVER_OPTIMIZERS = ("sgd", "adagrad", "adam", "yogi")

#: Floor applied to the objective denominators so candidate aggregates that
#: nearly cancel a client's parameters stay finite for the solver.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class ClientUpdate:
    """One client's round output: its trained parameters and the number of
    training examples that weights them in the aggregate."""

    client_id: str
    num_examples: int
    params: ParamVector

    def __post_init__(self) -> None:
        count = checked("num_examples", self.num_examples, int, {"ge": 1})
        object.__setattr__(self, "num_examples", count)


@dataclass(frozen=True)
class AlphaSolution:
    """Per-round diagnostic of the coefficient solve: the coefficients (a
    read-only float64 vector), their and all-ones' :func:`objective_f`, and
    the Nelder-Mead search's outcome."""

    alpha: np.ndarray
    objective_at_alpha: float
    objective_at_ones: float
    converged: bool
    iterations: int


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
    """Count-weighted mean of client parameters: :func:`candidate_aggregate` at all-ones."""
    params, counts = _params_and_counts(updates)
    return candidate_aggregate(params, counts, [1.0] * len(counts))


def candidate_aggregate(
    client_params: Sequence[ParamVector],
    counts: Sequence[int],
    x: Sequence[float],
) -> ParamVector:
    """Candidate global model for coefficient vector ``x``:
    sum_i params_i * n_i * x_i / sum_i n_i.

    At x = 1 this is :func:`aggregate_fedavg`.  The denominator deliberately
    excludes the coefficients, so the aggregate may be globally rescaled
    rather than remaining a convex combination.
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

    Every vector the objective measures is a combination of K + 1 basis
    vectors: each client's offset d_j from the count-weighted mean m, and m
    itself.  With c = n * x / sum(n) and s = sum(c),
    w(x) -/+ w_j = sum_i c_i d_i -/+ d_j + (s -/+ 1) m.  The basis is
    factored once, in O(K^2 P), as B^T = Q R, and since ||B^T a|| = ||R a||
    for every coefficient vector a, each norm is a plain vector norm in the
    min(P, K + 1) coordinates of R.  Each difference w(x) -/+ w_j is formed
    there directly, as :func:`objective_f` forms it from the full vectors,
    so no norm is taken of a sum of squares that cancel.

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
    x0.setflags(write=False)
    # An overflow scores inf or raises NumericError; numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        at_ones = objective_f(x0, params, counts)
        if not math.isfinite(at_ones):
            raise NumericError("fedavgopt objective is non-finite at all-ones")
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
    ) -> tuple[ParamVector, None]:
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
    ) -> tuple[ParamVector, ParamVector]:
        with np.errstate(over="ignore", invalid="ignore"):
            previous = previous_global.values
            delta = previous - _values_under(previous_global, aggregate_fedavg(updates))
            carried = momentum.values if momentum is not None else 0.0
            velocity = self.momentum_beta * carried + delta
            return ParamVector(previous - self.server_lr * velocity), ParamVector(velocity)


@dataclass(frozen=True)
class FedMedian(Config):
    """Step from the previous global along the coordinate-median
    pseudo-gradient; at lr = 1 this is exactly the coordinate median of the
    client parameters (translation equivariance).  No state."""

    name: ClassVar[str] = "fedmedian"
    server_lr: float = bounded(1.0, **_SERVER_LR)

    def step(
        self, updates: Sequence[ClientUpdate], previous_global: ParamVector, state: None
    ) -> tuple[ParamVector, None]:
        with np.errstate(over="ignore", invalid="ignore"):
            params, _ = _params_and_counts(updates)
            stacked = np.stack([_values_under(previous_global, p) for p in params])
            # np.median's own steps, so its bits, signed zeros included: one
            # partition (with the trailing -1 its NaN check adds), then the
            # mean of the middle row, or of the two middle rows for an even
            # count.  Its NaN check itself imports numpy.ma; ParamVector keeps
            # every entry finite.
            mid = len(stacked) // 2
            middle = [mid] if len(stacked) % 2 else [mid - 1, mid]
            stacked.partition(middle + [-1], axis=0)
            median = stacked[middle[0] : mid + 1].mean(axis=0)
            if self.server_lr == 1.0:
                return ParamVector(median), None
            previous = previous_global.values
            return ParamVector(previous - self.server_lr * (previous - median)), None


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
    ) -> tuple[ParamVector, tuple[ParamVector, ParamVector]]:
        with np.errstate(over="ignore", invalid="ignore"):
            previous = previous_global.values
            delta = _values_under(previous_global, aggregate_fedavg(updates)) - previous
            if moments is None:
                m_prev, v_prev = 0.0, np.full(len(previous_global), self.tau**2)
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

            return ParamVector(previous + step), (ParamVector(m), ParamVector(v))


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
    ) -> tuple[ParamVector, AlphaSolution]:
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
        new_global, self.state = self.rule.step(updates, previous_global, self.state)
        return new_global
