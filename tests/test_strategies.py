import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsim import (
    Aggregator,
    ClientUpdate,
    ParamVector,
    StrategyHyperparams,
    StrategyState,
    aggregate_fedavg,
    aggregate_fedavgm,
    aggregate_fedavgopt,
    aggregate_fedmedian,
    aggregate_fedopt,
    default_hyperparams,
    objective_f,
)
from fedsim.exceptions import NumericError, ShapeMismatchError
from fedsim.nelder_mead import MinimizeResult, minimize
from fedsim.strategies import (
    DENOMINATOR_FLOOR,
    HYPERPARAMS,
    SERVER_OPTIMIZERS,
    STRATEGIES,
    candidate_aggregate,
    gram_objective,
)
from helpers import (
    HYPERPARAM_FIELDS, HYPERPARAM_KEYS, make_updates, make_vec, random_vectors,
)
import oracles


class TestHyperparams:
    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            StrategyHyperparams(server_lr=-0.1)
        with pytest.raises(ValueError):
            StrategyHyperparams(momentum_beta=1.0)
        with pytest.raises(ValueError):
            StrategyHyperparams(tau=0.0)
        with pytest.raises(ValueError):
            StrategyHyperparams(beta1=-0.2)
        with pytest.raises(ValueError):
            StrategyHyperparams(beta2=1.5)
        with pytest.raises(ValueError):
            StrategyHyperparams(server_optimizer="rmsprop")

    @pytest.mark.parametrize("field", ["server_lr", "tau"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StrategyHyperparams(**{field: value})

    def test_zero_server_lr_allowed(self):
        assert StrategyHyperparams(server_lr=0.0).server_lr == 0.0

    def test_defaults_table(self):
        m = default_hyperparams("fedavgm")
        assert (m.server_lr, m.momentum_beta) == (1.0, 0.5)
        o = default_hyperparams("fedopt")
        assert (o.server_lr, o.tau, o.beta1, o.beta2) == (0.1, 1e-9, 0.0, 0.0)
        assert o.server_optimizer == "sgd"
        y = default_hyperparams("fedyogi")
        assert (y.server_lr, y.tau, y.beta1, y.beta2) == (0.01, 1e-3, 0.9, 0.99)
        assert y.server_optimizer == "yogi"
        assert default_hyperparams("fedmedian").server_lr == 1.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            default_hyperparams("fedprox")

    def test_client_update_needs_examples(self):
        with pytest.raises(ValueError):
            ClientUpdate("c", 0, make_vec([1.0]))


# A valid value for every numeric field that is no strategy's default.
PERTURBED = {"server_lr": 0.37, "momentum_beta": 0.37, "tau": 0.37, "beta1": 0.37, "beta2": 0.37}


def perturbed(hp, name):
    """``hp`` with field ``name`` moved to each other value tried."""
    if name == "server_optimizer":
        return [
            dataclasses.replace(hp, server_optimizer=o)
            for o in SERVER_OPTIMIZERS
            if o != hp.server_optimizer
        ]
    return [dataclasses.replace(hp, **{name: PERTURBED[name]})]


def two_rounds(strategy, hp):
    """Bytes of the global model after each of two Aggregator rounds on fixed
    random clients; round 2 is the first to read carried state."""
    rng = np.random.default_rng(0)
    aggregator = Aggregator(strategy, hp)
    global_params = ParamVector(rng.normal(size=6))
    out = []
    for _ in range(2):
        updates = make_updates(rng.normal(size=(3, 6)), counts=[1, 2, 3])
        global_params = aggregator.aggregate(updates, global_params)
        out.append(global_params.values.tobytes())
    return out


class TestHyperparamTable:
    def test_table_lists_the_fields_each_server_step_reads(self):
        assert {s: tuple(fields) for s, fields in HYPERPARAMS.items()} == HYPERPARAM_KEYS
        assert STRATEGIES == tuple(HYPERPARAM_KEYS)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unlisted_fields_change_nothing(self, strategy):
        unlisted = [name for name in HYPERPARAM_FIELDS if name not in HYPERPARAMS[strategy]]
        for optimizer in SERVER_OPTIMIZERS:
            base = dataclasses.replace(default_hyperparams(strategy), server_optimizer=optimizer)
            expected = two_rounds(strategy, base)
            for name in unlisted:
                for hp in perturbed(base, name):
                    assert two_rounds(strategy, hp) == expected, (optimizer, name)

    @pytest.mark.parametrize(
        "strategy, name", [(s, name) for s in STRATEGIES for name in HYPERPARAMS[s]]
    )
    def test_listed_field_acts_under_some_optimizer(self, strategy, name):
        bases = [
            dataclasses.replace(default_hyperparams(strategy), server_optimizer=o)
            for o in SERVER_OPTIMIZERS
        ]
        assert any(
            two_rounds(strategy, hp) != two_rounds(strategy, base)
            for base in bases
            for hp in perturbed(base, name)
        )


class TestFedAvg:
    def test_single_client_identity(self):
        (u,) = make_updates([[3.0, -1.0, 0.5]])
        out = aggregate_fedavg([u])
        assert np.array_equal(out.values, u.params.values)

    def test_symmetric_average(self):
        out = aggregate_fedavg(make_updates([[0, 0], [2, 2]]))
        assert np.array_equal(out.values, [1.0, 1.0])

    def test_weighted_mean_hand_value(self):
        out = aggregate_fedavg(make_updates([[1], [4]], counts=[3, 1]))
        assert np.array_equal(out.values, [1.75])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fedavg([])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(4, 11))
        counts = [3, 1, 7, 2]
        base = aggregate_fedavg(make_updates(rows, counts))
        scaled = aggregate_fedavg(make_updates(2.5 * rows, counts))
        assert np.allclose(scaled.values, 2.5 * base.values, rtol=1e-12, atol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(32)
        rows = rng.normal(size=(5, 7))
        counts = [2, 9, 4, 1, 5]
        perm = [3, 0, 4, 2, 1]
        a = aggregate_fedavg(make_updates(rows, counts))
        b = aggregate_fedavg(make_updates(rows[perm], [counts[k] for k in perm]))
        assert np.allclose(a.values, b.values, rtol=0, atol=1e-12)


class TestFedAvgM:
    def test_beta0_mu1_collapses_to_fedavg(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            updates = make_updates(rng.normal(size=(3, 9)), counts=[4, 1, 2])
            prev = make_vec(rng.normal(size=9))
            out, _ = aggregate_fedavgm(
                updates, prev, StrategyState(), StrategyHyperparams(momentum_beta=0.0)
            )
            avg = aggregate_fedavg(updates)
            assert np.max(np.abs(out.values - avg.values)) <= 1e-12

    def test_two_step_recursion_hand_values(self):
        # single client pins fedavg to [1]; beta=0.5, lr=1, prev=[2]:
        #   round 1: dw=[1], v=[1],   next=[1]
        #   round 2 (from the new global [1]): dw=[0], v=[0.5], next=[0.5]
        hp = StrategyHyperparams(server_lr=1.0, momentum_beta=0.5)
        updates = make_updates([[1.0]])
        out1, state1 = aggregate_fedavgm(updates, make_vec([2.0]), StrategyState(), hp)
        assert np.array_equal(out1.values, [1.0])
        assert np.array_equal(state1.momentum.values, [1.0])
        out2, state2 = aggregate_fedavgm(updates, out1, state1, hp)
        assert np.array_equal(out2.values, [0.5])
        assert np.array_equal(state2.momentum.values, [0.5])

    def test_fixed_point_when_clients_return_previous(self):
        prev = make_vec([0.25, -1.5, 3.0])
        updates = [
            ClientUpdate(f"c{i}", n, prev) for i, n in enumerate([5, 2, 2])
        ]
        for beta, lr in [(0.0, 1.0), (0.5, 1.0), (0.9, 0.3)]:
            out, _ = aggregate_fedavgm(
                updates,
                prev,
                StrategyState(),
                StrategyHyperparams(server_lr=lr, momentum_beta=beta),
            )
            assert np.array_equal(out.values, prev.values)


class TestFedMedian:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[1.0], [2.0], [9.0]], [2.0]),  # odd count: the middle value
            ([[1.0], [3.0]], [2.0]),  # even count: midpoint of the middle two
            ([[4.0, -1.0, 0.5]] * 4, [4.0, -1.0, 0.5]),  # identical clients
        ],
    )
    def test_mu1_is_direct_coordinate_median(self, rows, expected):
        updates = make_updates(rows)
        for prev in (0.0, 100.0, -3.5):
            out = aggregate_fedmedian(
                updates, make_vec(np.full(len(expected), prev)),
                StrategyHyperparams(server_lr=1.0),
            )
            assert np.array_equal(out.values, expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fedmedian([], make_vec([0.0]), StrategyHyperparams(server_lr=1.0))

    def test_identical_clients_partial_step(self):
        w = make_vec([1.0, -2.0])
        prev = make_vec([5.0, 6.0])
        updates = [ClientUpdate(f"c{i}", 1, w) for i in range(3)]
        out = aggregate_fedmedian(updates, prev, StrategyHyperparams(server_lr=0.5))
        expected = prev.values - 0.5 * (prev.values - w.values)
        assert np.allclose(out.values, expected, rtol=0, atol=1e-12)
        out_full = aggregate_fedmedian(updates, prev, StrategyHyperparams(server_lr=1.0))
        assert np.array_equal(out_full.values, w.values)

    def test_mu0_keeps_previous(self):
        prev = make_vec([4.0, 4.0])
        out = aggregate_fedmedian(
            make_updates([[1, 1], [2, 2], [3, 9]]),
            prev,
            StrategyHyperparams(server_lr=0.0),
        )
        assert np.array_equal(out.values, prev.values)

    def test_matches_sort_based_oracle_exactly(self):
        rng = np.random.default_rng(52)
        for k in (2, 3, 4, 5):
            rows = rng.normal(size=(k, 23))
            out = aggregate_fedmedian(
                make_updates(rows), make_vec(rng.normal(size=23)),
                StrategyHyperparams(server_lr=1.0),
            )
            s = np.sort(rows, axis=0)
            mid = k // 2
            oracle = s[mid] if k % 2 == 1 else (s[mid - 1] + s[mid]) / 2.0
            assert np.array_equal(out.values, oracle)

    def test_robust_to_one_corrupted_client(self):
        rng = np.random.default_rng(53)
        clean = rng.normal(size=(4, 15))
        corrupted = np.vstack([clean, 1e9 * np.sign(rng.normal(size=15))])
        out = aggregate_fedmedian(
            make_updates(corrupted), make_vec(np.zeros(15)),
            StrategyHyperparams(server_lr=1.0),
        )
        assert np.all(out.values >= clean.min(axis=0))
        assert np.all(out.values <= clean.max(axis=0))


class TestFedOpt:
    def _step(self, prev, client_value, state, hp):
        updates = make_updates([[client_value]] if np.isscalar(client_value) else [client_value])
        return aggregate_fedopt(updates, prev, state, hp)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad", "adam", "yogi"])
    def test_zero_delta_is_fixed_point(self, optimizer):
        prev = make_vec([0.7, -0.3, 2.0])
        updates = [ClientUpdate(f"c{i}", 2, prev) for i in range(3)]
        hp = StrategyHyperparams(
            server_lr=0.5, tau=1e-9, beta1=0.0, beta2=0.0, server_optimizer=optimizer
        )
        if optimizer in ("adam", "yogi"):
            hp = StrategyHyperparams(
                server_lr=0.5, tau=1e-9, beta1=0.0, beta2=0.9, server_optimizer=optimizer
            )
        out, _ = aggregate_fedopt(updates, prev, StrategyState(), hp)
        assert np.array_equal(out.values, prev.values)

    def test_adagrad_two_step_hand_recursion(self):
        # unit deltas: v = 1 then 2; steps lr/(1+tau), lr/(sqrt(2)+tau).
        # tau^2 = 1e-18 is below 1 ulp of 1.0, so v after step one is exactly 1.
        hp = StrategyHyperparams(server_lr=0.1, tau=1e-9, server_optimizer="adagrad")
        prev = make_vec([0.0])
        out1, state1 = self._step(prev, 1.0, StrategyState(), hp)
        assert state1.second_moment.values[0] == 1.0
        expected1 = 0.1 * 1.0 / (np.sqrt(1.0) + 1e-9)
        assert out1.values[0] == expected1
        # second unit delta, up to float cancellation in (prev + 1) - prev
        client2 = out1.values[0] + 1.0
        out2, state2 = self._step(out1, client2, state1, hp)
        assert state2.second_moment.values[0] == pytest.approx(2.0, abs=1e-12)
        expected2 = out1.values[0] + 0.1 / (np.sqrt(2.0) + 1e-9)
        assert out2.values[0] == pytest.approx(expected2, abs=1e-12)

    def test_yogi_single_step_hand_values(self):
        # delta=0.1 > tau so sign(v0 - delta^2) = -1 and v grows
        hp = StrategyHyperparams(
            server_lr=0.01, tau=1e-3, beta1=0.0, beta2=0.99, server_optimizer="yogi"
        )
        out, state = self._step(make_vec([0.0]), 0.1, StrategyState(), hp)
        d2 = 0.1**2
        expected_v = 1e-6 + (1.0 - 0.99) * d2
        expected_step = 0.01 * 0.1 / (np.sqrt(expected_v) + 1e-3)
        assert state.second_moment.values[0] == pytest.approx(expected_v, rel=1e-15)
        assert out.values[0] == pytest.approx(expected_step, rel=1e-12)

    def test_adam_single_step_hand_values(self):
        hp = StrategyHyperparams(
            server_lr=1.0, tau=1e-9, beta1=0.0, beta2=0.9, server_optimizer="adam"
        )
        out, state = self._step(make_vec([0.0]), 1.0, StrategyState(), hp)
        # v = 0.9*tau^2 + 0.1*1; the tau^2 term vanishes below one ulp of 0.1
        assert state.second_moment.values[0] == pytest.approx(0.1, rel=1e-15)
        assert out.values[0] == pytest.approx(1.0 / (np.sqrt(0.1) + 1e-9), rel=1e-12)

    def test_sgd_step_ignores_second_moment(self):
        hp = StrategyHyperparams(server_lr=0.1, tau=1e-9, server_optimizer="sgd")
        out, state = self._step(make_vec([0.0]), 2.0, StrategyState(), hp)
        assert out.values[0] == 0.1 * 2.0
        # second moment stays at its tau^2 floor
        assert np.array_equal(state.second_moment.values, [1e-18])

    def test_first_moment_recursion_with_beta1(self):
        hp = StrategyHyperparams(
            server_lr=1.0, tau=1e-9, beta1=0.9, beta2=0.0, server_optimizer="sgd"
        )
        prev = make_vec([0.0])
        out1, state1 = self._step(prev, 1.0, StrategyState(), hp)
        m1 = (1.0 - 0.9) * 1.0
        assert state1.first_moment.values[0] == pytest.approx(m1, rel=1e-15)
        delta2 = 0.5 - out1.values[0]
        out2, state2 = self._step(out1, 0.5, state1, hp)
        m2 = 0.9 * m1 + (1.0 - 0.9) * delta2
        assert state2.first_moment.values[0] == pytest.approx(m2, rel=1e-14)
        assert out2.values[0] == pytest.approx(out1.values[0] + m2, rel=1e-14)


class TestObjectiveF:
    def test_identical_clients_at_ones_is_zero(self):
        w = make_vec([0.4, -1.1, 2.2])
        params = [w, w, w, w]
        assert objective_f([1.0] * 4, params, [5, 5, 5, 5]) == 0.0

    def test_orthogonal_pair_at_ones(self):
        params = [make_vec([1.0, 0.0]), make_vec([0.0, 1.0])]
        value = objective_f([1.0, 1.0], params, [1, 1])
        # 2*sqrt(0.5/2.5) by hand
        assert value == pytest.approx(2.0 * math.sqrt(0.2), abs=1e-6)

    def test_orthogonal_pair_at_sqrt2(self):
        params = [make_vec([1.0, 0.0]), make_vec([0.0, 1.0])]
        s = math.sqrt(2.0)
        value = objective_f([s, s], params, [1, 1])
        # analytic minimum on the symmetric axis: 2*sqrt((2-sqrt2)/(2+sqrt2))
        expected = 2.0 * math.sqrt((2.0 - s) / (2.0 + s))
        assert value == pytest.approx(expected, abs=1e-6)
        assert value == pytest.approx(0.82843, abs=1e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            objective_f([1.0], [make_vec([1.0]), make_vec([2.0])], [1, 1])
        with pytest.raises(ValueError):
            objective_f([], [], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(61)
        params = random_vectors(rng, 4, 9)
        counts = [3, 1, 4, 2]
        x = rng.uniform(0.5, 1.5, size=4)
        perm = [2, 0, 3, 1]
        a = objective_f(x, params, counts)
        b = objective_f(x[perm], [params[k] for k in perm], [counts[k] for k in perm])
        assert a == pytest.approx(b, rel=1e-12)

    def test_denominator_guard_keeps_value_finite(self):
        # candidate equals -w1 exactly, so that summand hits the 1e-12 floor
        params = [make_vec([1.0, 0.0]), make_vec([-3.0, 0.0])]
        value = objective_f([1.0, 1.0], params, [1, 1])
        assert math.isfinite(value)
        assert value == pytest.approx(2.0 / 1e-12 + 0.5, rel=1e-15)

    def test_summands_nonnegative(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            params = random_vectors(rng, 3, 6)
            x = rng.uniform(-2, 2, size=3)
            assert objective_f(x, params, [1, 2, 3]) >= 0.0


def clustered_clients(seed, num_clients, size, spread, scale=1.0):
    """Client vectors at ``spread`` around a shared N(0, 1) center, times
    ``scale``, with counts in [1, 500]."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=size) + spread * rng.normal(size=(num_clients, size))
    updates = make_updates(rows * scale, rng.integers(1, 501, size=num_clients))
    return [u.params for u in updates], [u.num_examples for u in updates], rng


def same_value(gram_value, oracle_value):
    # Absolute while the objective is O(1); relative once the denominator
    # floor makes it huge.
    return gram_value == pytest.approx(oracle_value, rel=1e-9, abs=1e-9)


gram_settings = settings(max_examples=60, deadline=None)
num_clients = st.integers(1, 32)
sizes = st.integers(1, 4000)
seeds = st.integers(0, 2**32 - 1)
# From near-identical clients to clients with nothing in common.
spreads = st.sampled_from([1e-8, 1e-4, 0.1, 1.0, 100.0])


def probe_x(kind, counts, rng):
    """A coefficient vector for ``len(counts)`` clients: ``random`` in
    [-2, 2], ``cancelling`` near all-ones or near the x whose candidate is
    +-w_j, ``huge`` with entries of 1e155 to 1e300 in magnitude, or
    ``non-finite`` with one entry inf, -inf or NaN."""
    k = len(counts)
    if kind == "random":
        return rng.uniform(-2, 2, size=k)
    if kind == "cancelling":
        x = rng.choice([0.0, 1e-12, 1e-8, 1e-4]) * rng.normal(size=k)
        if rng.random() < 0.5:
            return x + 1.0
        j = rng.integers(k)
        x[j] += rng.choice([-1.0, 1.0]) * sum(counts) / counts[j]
        return x
    if kind == "huge":
        return rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(155, 300, size=k)
    x = rng.uniform(-2, 2, size=k)
    x[rng.integers(k)] = rng.choice([math.inf, -math.inf, math.nan])
    return x


class TestGramObjective:
    """gram_objective against the direct evaluation objective_f, and against
    the Gram evaluation it was thinned from."""

    @gram_settings
    @given(seed=seeds, k=num_clients, size=sizes, spread=spreads)
    def test_same_bits_as_oracle(self, seed, k, size, spread):
        params, counts, rng = clustered_clients(seed, k, size, spread)
        fast = gram_objective(params, counts)
        slow = oracles.gram_objective(params, counts)
        for kind in ("random", "cancelling", "huge", "non-finite"):
            for _ in range(3):
                x = probe_x(kind, counts, rng)
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        expected = slow(x)
                    except OverflowError:
                        # The oracle squares its cancellation bound as a
                        # Python float, which raises where the fast path
                        # returns inf.
                        expected = math.inf
                    assert fast(x).hex() == expected.hex()

    @gram_settings
    @given(seed=seeds, k=num_clients, size=st.integers(1, 200), spread=spreads)
    def test_huge_x_scores_inf(self, seed, k, size, spread):
        params, counts, rng = clustered_clients(seed, k, size, spread)
        x = 10.0 ** rng.uniform(155, 300, size=k)
        with np.errstate(over="ignore", invalid="ignore"):
            assert gram_objective(params, counts)(x) == math.inf

    @gram_settings
    @given(seed=seeds, k=num_clients, size=sizes, spread=spreads)
    def test_matches_objective_f(self, seed, k, size, spread):
        params, counts, rng = clustered_clients(seed, k, size, spread)
        gram = gram_objective(params, counts)
        for x in (np.ones(k), rng.uniform(-2, 2, size=k)):
            assert same_value(gram(x), objective_f(x, params, counts))

    @gram_settings
    @given(seed=seeds, k=num_clients, size=sizes)
    def test_identical_clients(self, seed, k, size):
        params, counts, rng = clustered_clients(seed, k, size, 0.0)
        assert all(np.array_equal(w.values, params[0].values) for w in params)
        gram = gram_objective(params, counts)
        assert gram(np.ones(k)) <= 1e-9
        x = rng.uniform(-2, 2, size=k)
        assert same_value(gram(x), objective_f(x, params, counts))

    def test_denominator_floor(self):
        params = [make_vec([1.0, 0.0]), make_vec([-3.0, 0.0])]
        value = gram_objective(params, [1, 1])(np.ones(2))
        assert value == pytest.approx(2.0 / 1e-12 + 0.5, rel=1e-15)
        assert same_value(value, objective_f([1.0, 1.0], params, [1, 1]))

    @gram_settings
    @given(seed=seeds, k=num_clients, size=st.integers(1, 200), spread=spreads,
           scale=st.sampled_from([1e200, 2.0**600, 1e300]))
    def test_huge_entries(self, seed, k, size, spread, scale):
        # objective_f's norms overflow above about 1e154, so the unscaled
        # clients are the oracle: without the floor the objective is scale
        # invariant.
        params, counts, rng = clustered_clients(seed, k, size, spread)
        huge, _, _ = clustered_clients(seed, k, size, spread, scale)
        x = rng.uniform(-2, 2, size=k)
        assert same_value(gram_objective(huge, counts)(x), objective_f(x, params, counts))

    @gram_settings
    @given(seed=seeds, k=num_clients, size=st.integers(1, 200), spread=spreads,
           scale=st.sampled_from([1e-200, 2.0**-600, 1e-300]))
    def test_tiny_entries(self, seed, k, size, spread, scale):
        # Every denominator sits below the floor, so both evaluations are ~0.
        params, counts, rng = clustered_clients(seed, k, size, spread, scale)
        x = rng.uniform(-2, 2, size=k)
        assert same_value(gram_objective(params, counts)(x), objective_f(x, params, counts))

    @given(k=num_clients, data=st.data())
    def test_non_finite_x_scores_inf(self, k, data):
        params, counts, rng = clustered_clients(k, k, 5, 0.1)
        x = rng.uniform(-2, 2, size=k)
        x[data.draw(st.integers(0, k - 1))] = data.draw(
            st.sampled_from([math.inf, -math.inf, math.nan])
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert gram_objective(params, counts)(x) == math.inf


class TestFedAvgOpt:
    def test_forcing_ones_is_bitwise_fedavg(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            rows = rng.normal(size=(k, int(rng.integers(1, 64))))
            counts = rng.integers(1, 500, size=k).tolist()
            updates = make_updates(rows, counts)
            forced = candidate_aggregate([u.params for u in updates], counts, [1.0] * k)
            avg = aggregate_fedavg(updates)
            assert np.array_equal(forced.values, avg.values)

    def test_identical_clients_returns_their_params_exactly(self):
        w = [0.3, -0.7, 1.9]
        updates = make_updates([w, w, w, w], counts=[6, 6, 6, 6])
        out, solution = aggregate_fedavgopt(updates)
        assert np.array_equal(out.values, w)
        assert solution.objective_at_ones == 0.0
        assert solution.objective_at_alpha == 0.0
        # weighted mean of the coefficients stays 1 within solver tolerance
        assert abs(np.mean(solution.alpha) - 1.0) <= 1e-3

    def test_orthogonal_pair_scales_by_sqrt2(self):
        updates = make_updates([[1.0, 0.0], [0.0, 1.0]])
        out, solution = aggregate_fedavgopt(updates)
        s = math.sqrt(2.0)
        assert np.allclose(solution.alpha, [s, s], rtol=0, atol=5e-3)
        assert np.allclose(out.values, [s / 2, s / 2], rtol=0, atol=1e-2)
        assert solution.objective_at_alpha == pytest.approx(0.82843, abs=1e-3)
        assert solution.converged

    def test_single_client_recovers_params(self):
        (u,) = make_updates([[2.0, -4.0, 0.25]], counts=[7])
        out, solution = aggregate_fedavgopt([u])
        assert np.array_equal(out.values, u.params.values)
        assert solution.alpha[0] == 1.0

    def test_descent_from_ones_randomized(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            rows = rng.normal(size=(k, 12))
            counts = rng.integers(1, 100, size=k).tolist()
            _, solution = aggregate_fedavgopt(make_updates(rows, counts))
            assert solution.objective_at_alpha <= solution.objective_at_ones
            assert len(solution.alpha) == k

    @pytest.mark.parametrize("bad_alpha", [0.01, 1e200])
    def test_solution_worse_than_ones_falls_back_to_fedavg(self, monkeypatch, bad_alpha):
        # 0.01 scores worse than all-ones; at 1e200 the candidate overflows.
        rng = np.random.default_rng(74)
        rows = 1e150 * (1.0 + 0.1 * rng.normal(size=(4, 3)))
        updates = make_updates(rows, counts=[3, 1, 4, 1])
        params, counts = [u.params for u in updates], [3, 1, 4, 1]
        x_bad = np.full(4, bad_alpha)
        if bad_alpha < 1:
            assert objective_f(x_bad, params, counts) > objective_f(np.ones(4), params, counts)
        monkeypatch.setattr(
            "fedsim.strategies.minimize",
            lambda objective, x0, config: MinimizeResult(x_bad, 0.0, 1, True),
        )
        out, solution = aggregate_fedavgopt(updates)
        assert np.array_equal(solution.alpha, np.ones(4))
        assert np.array_equal(out.values, aggregate_fedavg(updates).values)
        assert solution.objective_at_alpha == solution.objective_at_ones
        assert (solution.iterations, solution.converged) == (1, True)

    def test_reports_the_solve_it_ran(self):
        rng = np.random.default_rng(75)
        counts = rng.integers(1, 100, size=5).tolist()
        updates = make_updates(rng.normal(size=(5, 12)), counts)
        result = minimize(gram_objective([u.params for u in updates], counts), np.ones(5))
        _, solution = aggregate_fedavgopt(updates)
        assert solution.iterations > 0
        assert (solution.iterations, solution.converged) == (result.iterations, result.converged)

    def test_non_finite_objective_at_ones_raises(self):
        # objective_f's norms overflow at 1e200, so it is non-finite at all-ones.
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            aggregate_fedavgopt(make_updates([[1e200, 0.0], [0.0, 1e200]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fedavgopt([])


class TestAggregator:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Aggregator("fedprox")

    def test_strategy_name_table_is_stable(self):
        assert STRATEGIES == (
            "fedavg", "fedavgm", "fedmedian", "fedopt", "fedyogi", "fedavgopt",
        )

    def test_fedavg_matches_function(self):
        updates = make_updates([[1.0, 2.0], [3.0, 4.0]], counts=[1, 3])
        agg = Aggregator("fedavg")
        out = agg.aggregate(updates, make_vec([0.0, 0.0]))
        assert np.array_equal(out.values, aggregate_fedavg(updates).values)
        assert agg.last_alpha is None

    def test_fedavgm_threads_momentum(self):
        agg = Aggregator("fedavgm", StrategyHyperparams(server_lr=1.0, momentum_beta=0.5))
        updates = make_updates([[1.0]])
        out1 = agg.aggregate(updates, make_vec([2.0]))
        out2 = agg.aggregate(updates, out1)
        assert np.array_equal(out1.values, [1.0])
        assert np.array_equal(out2.values, [0.5])

    def test_fedavgopt_records_alpha(self):
        agg = Aggregator("fedavgopt")
        updates = make_updates([[1.0, 0.0], [0.0, 1.0]])
        agg.aggregate(updates, make_vec([0.0, 0.0]))
        assert agg.last_alpha is not None
        assert len(agg.last_alpha.alpha) == 2

    def test_fedyogi_uses_yogi_defaults(self):
        agg = Aggregator("fedyogi")
        assert agg.hyperparams.server_optimizer == "yogi"
        assert agg.hyperparams.server_lr == 0.01


class TestLengthChecks:
    """A server step combines the clients' arrays elementwise with the previous
    global's, so a client vector of another length is rejected, not
    broadcast."""

    @pytest.mark.parametrize("strategy", ["fedavgm", "fedmedian", "fedopt"])
    def test_client_length_differs_from_previous_global(self, strategy):
        client = make_vec([5.0])  # size 1: numpy would broadcast it
        updates = [ClientUpdate(client_id="c0", num_examples=3, params=client)]
        with pytest.raises(ShapeMismatchError):
            Aggregator(strategy).aggregate(updates, make_vec([0.0, 0.0]))


def random_clients(seed, k, size):
    """``k`` N(0, 1) client rows of length ``size`` and counts in [1, 50]."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(k, size)), rng.integers(1, 51, size=k)


def clear_of_floor(x, rows, counts, s):
    """True when every objective denominator, at scale 1 and at scale ``s``,
    stays far above DENOMINATOR_FLOOR; only then is the objective scale
    invariant."""
    candidate = candidate_aggregate([make_vec(r) for r in rows], counts, x).values
    smallest = np.linalg.norm(candidate + rows, axis=1).min()
    return smallest * min(abs(s), 1.0) > 1e6 * DENOMINATOR_FLOOR


property_settings = settings(max_examples=60, deadline=None)


class TestAggregationProperties:
    @property_settings
    @given(seed=seeds, k=st.integers(1, 9), size=st.integers(1, 50),
           lr=st.sampled_from([1.0, 0.5, 0.0]), data=st.data())
    def test_fedmedian_permutation_invariant_bitwise(self, seed, k, size, lr, data):
        rows, counts = random_clients(seed, k, size)
        order = data.draw(st.permutations(range(k)))
        previous = make_vec(np.linspace(-1.0, 1.0, size))
        hp = StrategyHyperparams(server_lr=lr)
        out = aggregate_fedmedian(make_updates(rows, counts), previous, hp)
        permuted = aggregate_fedmedian(make_updates(rows[order], counts[order]), previous, hp)
        assert permuted.values.tobytes() == out.values.tobytes()

    @property_settings
    @given(seed=seeds, k=st.integers(1, 9), size=st.integers(1, 50), data=st.data())
    def test_fedavg_permutation_invariant(self, seed, k, size, data):
        rows, counts = random_clients(seed, k, size)
        order = data.draw(st.permutations(range(k)))
        out = aggregate_fedavg(make_updates(rows, counts)).values
        permuted = aggregate_fedavg(make_updates(rows[order], counts[order])).values
        # Relative to the clients' scale: a coordinate that cancels to ~0
        # keeps only absolute rounding error.
        np.testing.assert_allclose(permuted, out, rtol=1e-12, atol=1e-12 * np.abs(rows).max())

    @property_settings
    @given(seed=seeds, k=st.integers(1, 9), size=st.integers(1, 50),
           shift=st.floats(-100.0, 100.0))
    def test_fedmedian_translation_equivariant(self, seed, k, size, shift):
        rows, counts = random_clients(seed, k, size)
        translation = shift * np.random.default_rng(seed + 1).normal(size=size)
        previous = make_vec(np.zeros(size))
        hp = StrategyHyperparams(server_lr=1.0)
        out = aggregate_fedmedian(make_updates(rows, counts), previous, hp).values
        moved = aggregate_fedmedian(make_updates(rows + translation, counts), previous, hp).values
        scale = np.abs(rows).max() + np.abs(translation).max()
        np.testing.assert_allclose(moved, out + translation, rtol=1e-12, atol=1e-12 * scale)

    @property_settings
    @given(seed=seeds, k=st.integers(1, 9), size=st.integers(1, 50),
           exponent=st.integers(-60, 60), data=st.data())
    def test_objective_f_scale_invariant_at_powers_of_two(self, seed, k, size, exponent, data):
        rows, counts = random_clients(seed, k, size)
        x = data.draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
        s = 2.0**exponent
        assume(clear_of_floor(x, rows, counts, s))
        base = objective_f(x, [make_vec(r) for r in rows], counts)
        scaled = objective_f(x, [make_vec(s * r) for r in rows], counts)
        assert scaled == base

    @property_settings
    @given(seed=seeds, k=st.integers(1, 9), size=st.integers(1, 50),
           s=st.sampled_from([3.0, 0.7, 1e-3, 1e3, -2.5]), data=st.data())
    def test_objective_f_scale_invariant(self, seed, k, size, s, data):
        rows, counts = random_clients(seed, k, size)
        x = data.draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
        assume(clear_of_floor(x, rows, counts, s))
        base = objective_f(x, [make_vec(r) for r in rows], counts)
        scaled = objective_f(x, [make_vec(s * r) for r in rows], counts)
        assert scaled == pytest.approx(base, rel=1e-12)


def chained_rounds(step, hp, seed, k, size, scale, rounds=3):
    """(new global, state) after each of ``rounds`` chained server steps on
    fresh seeded clients, each step starting from the last one's output."""
    rng = np.random.default_rng(seed)
    previous, state, history = make_vec(scale * rng.normal(size=size)), StrategyState(), []
    for _ in range(rounds):
        updates = make_updates(scale * rng.normal(size=(k, size)), rng.integers(1, 51, size=k))
        previous, state = step(updates, previous, state, hp)
        history.append((previous, state))
    return history


def stateless(aggregate):
    return lambda updates, previous, state, hp: (aggregate(updates, previous, hp), state)


def assert_same_bits(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert len(a) == len(b)
        assert a.values.tobytes() == b.values.tobytes()


def assert_matches_oracle(step, oracle, hp, seed, k, size, scale):
    got = chained_rounds(step, hp, seed, k, size, scale)
    want = chained_rounds(oracle, hp, seed, k, size, scale)
    for (got_global, got_state), (want_global, want_state) in zip(got, want):
        assert_same_bits(got_global, want_global)
        for name in ("momentum", "first_moment", "second_moment"):
            assert_same_bits(getattr(got_state, name), getattr(want_state, name))


unit_interval = st.floats(0.0, 1.0, exclude_max=True)
client_shapes = dict(seed=seeds, k=st.integers(1, 6), size=st.integers(1, 40),
                     scale=st.sampled_from([1e-3, 1.0, 1e3]))


class TestServerStepsMatchOracle:
    """The array-based server steps match the ParamVector-based oracles in
    ``tests/oracles.py`` bit for bit, global model and carried state alike,
    over three chained rounds."""

    @property_settings
    @given(beta=unit_interval, lr=st.floats(0.0, 2.0), **client_shapes)
    def test_fedavgm(self, beta, lr, seed, k, size, scale):
        hp = StrategyHyperparams(server_lr=lr, momentum_beta=beta)
        assert_matches_oracle(
            aggregate_fedavgm, oracles.aggregate_fedavgm, hp, seed, k, size, scale
        )

    @property_settings
    @given(lr=st.sampled_from([0.0, 1.0, 0.3, 1.7]), **client_shapes)
    def test_fedmedian(self, lr, seed, k, size, scale):
        hp = StrategyHyperparams(server_lr=lr)
        assert_matches_oracle(
            stateless(aggregate_fedmedian), stateless(oracles.aggregate_fedmedian),
            hp, seed, k, size, scale,
        )

    @property_settings
    @given(optimizer=st.sampled_from(["sgd", "adagrad", "adam", "yogi"]),
           lr=st.floats(0.0, 1.0), tau=st.floats(1e-9, 1.0), beta1=unit_interval,
           beta2=unit_interval, **client_shapes)
    def test_fedopt(self, optimizer, lr, tau, beta1, beta2, seed, k, size, scale):
        hp = StrategyHyperparams(
            server_lr=lr, tau=tau, beta1=beta1, beta2=beta2, server_optimizer=optimizer
        )
        assert_matches_oracle(
            aggregate_fedopt, oracles.aggregate_fedopt, hp, seed, k, size, scale
        )

    @property_settings
    @given(**client_shapes)
    def test_fedyogi_defaults(self, seed, k, size, scale):
        assert_matches_oracle(
            aggregate_fedopt, oracles.aggregate_fedopt, default_hyperparams("fedyogi"),
            seed, k, size, scale,
        )
