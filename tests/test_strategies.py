import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedsim import (
    Aggregator,
    ClientUpdate,
    FedAvg,
    FedAvgM,
    FedAvgOpt,
    FedMedian,
    FedOpt,
    FedYogi,
    ParamVector,
    SimplexConfig,
    aggregate_fedavg,
    aggregate_fedavgopt,
)
from fedsim.exceptions import ConfigError, NumericError, ShapeMismatchError
from fedsim.nelder_mead import MinimizeResult, minimize
from fedsim.strategies import (
    DENOMINATOR_FLOOR,
    RULES,
    SERVER_OPTIMIZERS,
    STRATEGIES,
    candidate_aggregate,
    objective_f,
)
from helpers import RULE_FIELDS, count_calls, make_updates, make_vec, random_vectors
import oracles


def rule_fields(names=None):
    """(rule type, field name) for every field of every rule type, or only
    for the fields in ``names``."""
    return [
        pytest.param(rule, field, id=f"{rule.name}-{field}")
        for rule in RULES.values()
        for field in RULE_FIELDS[rule.name]
        if names is None or field in names
    ]


# An out-of-range value for every field a rule validates.
INVALID = {
    "server_lr": -0.1, "momentum_beta": 1.0, "tau": 0.0, "beta1": -0.2, "beta2": 1.5,
    "server_optimizer": "rmsprop",
}


class TestHyperparams:
    @pytest.mark.parametrize("rule, field", rule_fields(INVALID))
    def test_validation_bounds(self, rule, field):
        with pytest.raises(ValueError, match=field):
            rule(**{field: INVALID[field]})

    @pytest.mark.parametrize("rule, field", rule_fields(("server_lr", "tau")))
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected_by_name(self, rule, field, value):
        message = f"^{field} must be a finite number[^,]*, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            rule(**{field: value})

    @pytest.mark.parametrize("rule", [FedAvgM, FedMedian, FedOpt, FedYogi])
    def test_zero_server_lr_allowed(self, rule):
        assert rule(server_lr=0.0).server_lr == 0.0

    def test_defaults_table(self):
        m = FedAvgM()
        assert (m.server_lr, m.momentum_beta) == (1.0, 0.5)
        o = FedOpt()
        assert (o.server_lr, o.tau, o.beta1, o.beta2) == (0.1, 1e-9, 0.0, 0.0)
        assert o.server_optimizer == "sgd"
        y = FedYogi()
        assert (y.server_lr, y.tau, y.beta1, y.beta2) == (0.01, 1e-3, 0.9, 0.99)
        assert y.server_optimizer == "yogi"
        assert FedMedian().server_lr == 1.0
        assert FedAvgOpt().solver == SimplexConfig()

    def test_unread_field_rejected(self):
        with pytest.raises(TypeError, match="tau"):
            FedAvgM(tau=0.5)
        with pytest.raises(TypeError, match="server_lr"):
            FedAvg(server_lr=1.0)
        # fedyogi always runs yogi; another optimizer is a FedOpt.
        with pytest.raises(TypeError, match="server_optimizer"):
            FedYogi(server_optimizer="sgd")

    def test_fedyogi_override_keeps_the_yogi_defaults(self):
        rule = FedYogi(server_lr=0.5)
        assert (rule.tau, rule.beta1, rule.beta2) == (1e-3, 0.9, 0.99)
        assert rule.server_optimizer == "yogi"
        assert_matches_oracle(rule, oracles.aggregate_fedopt, 0, 3, 5, 1.0, rounds=2)

    @pytest.mark.parametrize("count", [0, 1.5, True, "3"])
    def test_client_update_needs_examples(self, count):
        # The count weights the client in every aggregate; 1.5 and True
        # were once accepted.
        message = re.escape(f"num_examples must be an integer >= 1, got {count!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ClientUpdate("c", count, make_vec([1.0]))

    def test_client_update_stores_a_plain_int_count(self):
        update = ClientUpdate("c", np.int64(3), make_vec([1.0]))
        assert type(update.num_examples) is int and update.num_examples == 3

    def test_client_update_refuses_a_raw_array(self):
        # Once accepted, and then fedavg failed on `.values` naming nothing.
        message = re.escape("params must be an instance of ParamVector, got array([1., 2.])")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ClientUpdate("c", 3, np.array([1.0, 2.0]))


# A valid value for every field that is no rule's default.
PERTURBED = {
    "server_lr": 0.37, "momentum_beta": 0.37, "tau": 0.37, "beta1": 0.37, "beta2": 0.37,
    "solver": SimplexConfig(initial_step=0.37),
}


def perturbed(rule, name):
    """``rule`` with field ``name`` moved to each other value tried."""
    if name == "server_optimizer":
        return [
            dataclasses.replace(rule, server_optimizer=o)
            for o in SERVER_OPTIMIZERS
            if o != rule.server_optimizer
        ]
    return [dataclasses.replace(rule, **{name: PERTURBED[name]})]


def two_rounds(rule):
    """Bytes of the global model after each of two Aggregator rounds on fixed
    random clients; round 2 is the first to read carried state."""
    rng = np.random.default_rng(0)
    aggregator = Aggregator(rule)
    global_params = ParamVector(rng.normal(size=6))
    out = []
    for _ in range(2):
        updates = make_updates(rng.normal(size=(3, 6)), counts=[1, 2, 3])
        global_params = aggregator.aggregate(updates, global_params)
        out.append(global_params.values.tobytes())
    return out


class TestHyperparamTable:
    def test_table_lists_the_fields_each_server_step_reads(self):
        fields = {
            name: tuple(f.name for f in dataclasses.fields(rule)) for name, rule in RULES.items()
        }
        assert fields == RULE_FIELDS
        assert STRATEGIES == tuple(RULE_FIELDS)
        assert all(rule.name == name for name, rule in RULES.items())

    @pytest.mark.parametrize("rule, name", rule_fields())
    def test_listed_field_acts_under_some_optimizer(self, rule, name):
        bases = [rule()]
        if "server_optimizer" in RULE_FIELDS[rule.name]:
            bases = [rule(server_optimizer=o) for o in SERVER_OPTIMIZERS]
        assert any(
            two_rounds(changed) != two_rounds(base)
            for base in bases
            for changed in perturbed(base, name)
        )


class TestFedAvg:
    def test_single_client_identity(self):
        (u,) = make_updates([[3.0, -1.0, 0.5]])
        out = aggregate_fedavg([u])
        assert np.array_equal(out, u.params.values)

    def test_symmetric_average(self):
        out = aggregate_fedavg(make_updates([[0, 0], [2, 2]]))
        assert np.array_equal(out, [1.0, 1.0])

    def test_weighted_mean_hand_value(self):
        out = aggregate_fedavg(make_updates([[1], [4]], counts=[3, 1]))
        assert np.array_equal(out, [1.75])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fedavg([])

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            aggregate_fedavg(make_updates([[1.0], [1.0, 2.0]]))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(4, 11))
        counts = [3, 1, 7, 2]
        base = aggregate_fedavg(make_updates(rows, counts))
        scaled = aggregate_fedavg(make_updates(2.5 * rows, counts))
        assert np.allclose(scaled, 2.5 * base, rtol=1e-12, atol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(32)
        rows = rng.normal(size=(5, 7))
        counts = [2, 9, 4, 1, 5]
        perm = [3, 0, 4, 2, 1]
        a = aggregate_fedavg(make_updates(rows, counts))
        b = aggregate_fedavg(make_updates(rows[perm], [counts[k] for k in perm]))
        assert np.allclose(a, b, rtol=0, atol=1e-12)


class TestFedAvgM:
    def test_beta0_mu1_collapses_to_fedavg(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            updates = make_updates(rng.normal(size=(3, 9)), counts=[4, 1, 2])
            prev = make_vec(rng.normal(size=9))
            out, _ = FedAvgM(momentum_beta=0.0).step(updates, prev, None)
            avg = aggregate_fedavg(updates)
            assert np.max(np.abs(out - avg)) <= 1e-12

    def test_two_step_recursion_hand_values(self):
        # single client pins fedavg to [1]; beta=0.5, lr=1, prev=[2]:
        #   round 1: dw=[1], v=[1],   next=[1]
        #   round 2 (from the new global [1]): dw=[0], v=[0.5], next=[0.5]
        rule = FedAvgM(server_lr=1.0, momentum_beta=0.5)
        updates = make_updates([[1.0]])
        out1, momentum1 = rule.step(updates, make_vec([2.0]), None)
        assert np.array_equal(out1, [1.0])
        assert np.array_equal(momentum1.values, [1.0])
        out2, momentum2 = rule.step(updates, make_vec(out1), momentum1)
        assert np.array_equal(out2, [0.5])
        assert np.array_equal(momentum2.values, [0.5])

    def test_fixed_point_when_clients_return_previous(self):
        prev = make_vec([0.25, -1.5, 3.0])
        updates = [
            ClientUpdate(f"c{i}", n, prev) for i, n in enumerate([5, 2, 2])
        ]
        for beta, lr in [(0.0, 1.0), (0.5, 1.0), (0.9, 0.3)]:
            out, _ = FedAvgM(server_lr=lr, momentum_beta=beta).step(updates, prev, None)
            assert np.array_equal(out, prev.values)


@st.composite
def median_rows(draw):
    """K = 1 to 9 client rows whose entries often tie and include both signed zeros."""
    k, size = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    entries = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5]), st.floats(-1e3, 1e3))
    return np.array(draw(st.lists(entries, min_size=k * size, max_size=k * size))).reshape(k, size)


def fedmedian(updates, previous, server_lr):
    """FedMedian's next global model; the rule carries no state."""
    new_global, _ = FedMedian(server_lr).step(updates, previous, None)
    return new_global


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
            out = fedmedian(updates, make_vec(np.full(len(expected), prev)), 1.0)
            assert np.array_equal(out, expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedmedian([], make_vec([0.0]), 1.0)

    def test_identical_clients_partial_step(self):
        w = make_vec([1.0, -2.0])
        prev = make_vec([5.0, 6.0])
        updates = [ClientUpdate(f"c{i}", 1, w) for i in range(3)]
        out = fedmedian(updates, prev, 0.5)
        expected = prev.values - 0.5 * (prev.values - w.values)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)
        out_full = fedmedian(updates, prev, 1.0)
        assert np.array_equal(out_full, w.values)

    def test_mu0_keeps_previous(self):
        prev = make_vec([4.0, 4.0])
        out = fedmedian(make_updates([[1, 1], [2, 2], [3, 9]]), prev, 0.0)
        assert np.array_equal(out, prev.values)

    def test_matches_sort_based_oracle_exactly(self):
        rng = np.random.default_rng(52)
        for k in (2, 3, 4, 5):
            rows = rng.normal(size=(k, 23))
            out = fedmedian(make_updates(rows), make_vec(rng.normal(size=23)), 1.0)
            s = np.sort(rows, axis=0)
            mid = k // 2
            oracle = s[mid] if k % 2 == 1 else (s[mid - 1] + s[mid]) / 2.0
            assert np.array_equal(out, oracle)

    def test_robust_to_one_corrupted_client(self):
        rng = np.random.default_rng(53)
        clean = rng.normal(size=(4, 15))
        corrupted = np.vstack([clean, 1e9 * np.sign(rng.normal(size=15))])
        out = fedmedian(make_updates(corrupted), make_vec(np.zeros(15)), 1.0)
        assert np.all(out >= clean.min(axis=0))
        assert np.all(out <= clean.max(axis=0))

    @settings(max_examples=300, deadline=None)
    @given(rows=median_rows())
    @example(rows=np.array([[-0.0]]))
    @example(rows=np.array([[-0.0, 0.0], [-0.0, -0.0]]))
    @example(rows=np.array([[0.0], [-0.0], [-0.0]]))
    def test_same_bits_as_np_median(self, rows):
        # np.median returns 0.0, not -0.0, where both middle entries are -0.0
        # and where an odd count's middle entry is -0.0.
        updates = make_updates(rows)
        out = fedmedian(updates, make_vec(np.ones(rows.shape[1])), 1.0)
        expected = oracles.coordinate_median([u.params for u in updates])
        assert out.tobytes() == expected.values.tobytes()

    def test_leaves_numpy_ma_unimported(self):
        # np.median's NaN check imports numpy.ma, about 1.25 MB of resident
        # memory in every process that runs fedmedian.
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            print("numpy.ma" in sys.modules)
            from fedsim import ClientUpdate, FedMedian, ParamVector
            for k in (3, 4):
                vectors = [ParamVector(np.arange(3.0) * i) for i in range(k)]
                updates = [ClientUpdate(f"c{i}", 1, v) for i, v in enumerate(vectors)]
                for rule in (FedMedian(), FedMedian(server_lr=0.5)):
                    rule.step(updates, ParamVector(np.zeros(3)), None)
            print("numpy.ma" in sys.modules)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        after_numpy, after_steps = proc.stdout.split()
        if after_numpy == "True":
            pytest.skip("this numpy loads numpy.ma on import, as numpy 1.x does")
        assert after_steps == "False"


class TestFedOpt:
    def _step(self, prev, client_value, state, rule):
        updates = make_updates([[client_value]] if np.isscalar(client_value) else [client_value])
        return rule.step(updates, prev, state)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad", "adam", "yogi"])
    def test_zero_delta_is_fixed_point(self, optimizer):
        prev = make_vec([0.7, -0.3, 2.0])
        updates = [ClientUpdate(f"c{i}", 2, prev) for i in range(3)]
        rule = FedOpt(
            server_lr=0.5, tau=1e-9, beta1=0.0, beta2=0.0, server_optimizer=optimizer
        )
        if optimizer in ("adam", "yogi"):
            rule = FedOpt(
                server_lr=0.5, tau=1e-9, beta1=0.0, beta2=0.9, server_optimizer=optimizer
            )
        out, _ = rule.step(updates, prev, None)
        assert np.array_equal(out, prev.values)

    def test_adagrad_two_step_hand_recursion(self):
        # unit deltas: v = 1 then 2; steps lr/(1+tau), lr/(sqrt(2)+tau).
        # tau^2 = 1e-18 is below 1 ulp of 1.0, so v after step one is exactly 1.
        rule = FedOpt(server_lr=0.1, tau=1e-9, server_optimizer="adagrad")
        prev = make_vec([0.0])
        out1, state1 = self._step(prev, 1.0, None, rule)
        assert state1[1].values[0] == 1.0
        expected1 = 0.1 * 1.0 / (np.sqrt(1.0) + 1e-9)
        assert out1[0] == expected1
        # second unit delta, up to float cancellation in (prev + 1) - prev
        client2 = out1[0] + 1.0
        out2, state2 = self._step(make_vec(out1), client2, state1, rule)
        assert state2[1].values[0] == pytest.approx(2.0, abs=1e-12)
        expected2 = out1[0] + 0.1 / (np.sqrt(2.0) + 1e-9)
        assert out2[0] == pytest.approx(expected2, abs=1e-12)

    def test_yogi_single_step_hand_values(self):
        # delta=0.1 > tau so sign(v0 - delta^2) = -1 and v grows
        rule = FedOpt(
            server_lr=0.01, tau=1e-3, beta1=0.0, beta2=0.99, server_optimizer="yogi"
        )
        out, state = self._step(make_vec([0.0]), 0.1, None, rule)
        d2 = 0.1**2
        expected_v = 1e-6 + (1.0 - 0.99) * d2
        expected_step = 0.01 * 0.1 / (np.sqrt(expected_v) + 1e-3)
        assert state[1].values[0] == pytest.approx(expected_v, rel=1e-15)
        assert out[0] == pytest.approx(expected_step, rel=1e-12)

    def test_adam_single_step_hand_values(self):
        rule = FedOpt(
            server_lr=1.0, tau=1e-9, beta1=0.0, beta2=0.9, server_optimizer="adam"
        )
        out, state = self._step(make_vec([0.0]), 1.0, None, rule)
        # v = 0.9*tau^2 + 0.1*1; the tau^2 term vanishes below one ulp of 0.1
        assert state[1].values[0] == pytest.approx(0.1, rel=1e-15)
        assert out[0] == pytest.approx(1.0 / (np.sqrt(0.1) + 1e-9), rel=1e-12)

    def test_sgd_step_ignores_second_moment(self):
        rule = FedOpt(server_lr=0.1, tau=1e-9, server_optimizer="sgd")
        out, state = self._step(make_vec([0.0]), 2.0, None, rule)
        assert out[0] == 0.1 * 2.0
        # second moment stays at its tau^2 floor
        assert np.array_equal(state[1].values, [1e-18])

    def test_first_moment_recursion_with_beta1(self):
        rule = FedOpt(
            server_lr=1.0, tau=1e-9, beta1=0.9, beta2=0.0, server_optimizer="sgd"
        )
        prev = make_vec([0.0])
        out1, state1 = self._step(prev, 1.0, None, rule)
        m1 = (1.0 - 0.9) * 1.0
        assert state1[0].values[0] == pytest.approx(m1, rel=1e-15)
        delta2 = 0.5 - out1[0]
        out2, state2 = self._step(make_vec(out1), 0.5, state1, rule)
        m2 = 0.9 * m1 + (1.0 - 0.9) * delta2
        assert state2[0].values[0] == pytest.approx(m2, rel=1e-14)
        assert out2[0] == pytest.approx(out1[0] + m2, rel=1e-14)


class TestObjectiveF:
    def test_identical_clients_at_ones_is_zero(self):
        w = make_vec([0.4, -1.1, 2.2])
        params = [w, w, w, w]
        assert objective_f(params, [5, 5, 5, 5])(np.ones(4)) == 0.0

    def test_orthogonal_pair_at_ones(self):
        params = [make_vec([1.0, 0.0]), make_vec([0.0, 1.0])]
        value = objective_f(params, [1, 1])(np.ones(2))
        # 2*sqrt(0.5/2.5) by hand
        assert value == pytest.approx(2.0 * math.sqrt(0.2), abs=1e-6)

    def test_orthogonal_pair_at_sqrt2(self):
        params = [make_vec([1.0, 0.0]), make_vec([0.0, 1.0])]
        s = math.sqrt(2.0)
        value = objective_f(params, [1, 1])(np.full(2, s))
        # analytic minimum on the symmetric axis: 2*sqrt((2-sqrt2)/(2+sqrt2))
        expected = 2.0 * math.sqrt((2.0 - s) / (2.0 + s))
        assert value == pytest.approx(expected, abs=1e-6)
        assert value == pytest.approx(0.82843, abs=1e-5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(61)
        params = random_vectors(rng, 4, 9)
        counts = [3, 1, 4, 2]
        x = rng.uniform(0.5, 1.5, size=4)
        perm = [2, 0, 3, 1]
        a = objective_f(params, counts)(x)
        b = objective_f([params[k] for k in perm], [counts[k] for k in perm])(x[perm])
        assert a == pytest.approx(b, rel=1e-12)

    def test_denominator_guard_keeps_value_finite(self):
        # candidate equals -w1 exactly, so that summand hits the 1e-12 floor
        params = [make_vec([1.0, 0.0]), make_vec([-3.0, 0.0])]
        value = objective_f(params, [1, 1])(np.ones(2))
        assert math.isfinite(value)
        assert value == pytest.approx(2.0 / 1e-12 + 0.5, rel=1e-15)

    def test_summands_nonnegative(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            params = random_vectors(rng, 3, 6)
            x = rng.uniform(-2, 2, size=3)
            assert objective_f(params, [1, 2, 3])(x) >= 0.0


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


def cancelling_x(counts, rng):
    """A coefficient vector for ``len(counts)`` clients near all-ones or near
    the x whose candidate is +w_j, where ||w(x) - w_j|| cancels.

    Near the x whose candidate is -w_j the denominator cancels instead, and
    the objective is ill-conditioned there: the direct evaluation itself is
    off by up to 3e-3 relative to a long-double evaluation, so it is no
    oracle there.
    Nor is it at x of entries near 1e300, where it returns inf / inf.
    """
    k = len(counts)
    x = rng.choice([0.0, 1e-12, 1e-8, 1e-4]) * rng.normal(size=k)
    if rng.random() < 0.5:
        return x + 1.0
    j = rng.integers(k)
    x[j] += sum(counts) / counts[j]
    return x


class TestGramObjective:
    """objective_f's closure, which scores x in the QR factor of the client
    basis, against the direct evaluation, oracles.objective_f."""

    @gram_settings
    @given(seed=seeds, k=num_clients, size=st.integers(1, 200), spread=spreads)
    def test_huge_x_scores_inf(self, seed, k, size, spread):
        params, counts, rng = clustered_clients(seed, k, size, spread)
        x = 10.0 ** rng.uniform(155, 300, size=k)
        with np.errstate(over="ignore", invalid="ignore"):
            assert objective_f(params, counts)(x) == math.inf

    @gram_settings
    @given(seed=seeds, k=num_clients, size=sizes, spread=spreads)
    @example(seed=0, k=32, size=5, spread=0.1)  # fewer parameters than clients
    def test_matches_objective_f(self, seed, k, size, spread):
        params, counts, rng = clustered_clients(seed, k, size, spread)
        gram = objective_f(params, counts)
        probes = [np.ones(k), rng.uniform(-2, 2, size=k)]
        probes += [cancelling_x(counts, rng) for _ in range(3)]
        for x in probes:
            assert same_value(gram(x), oracles.objective_f(x, params, counts))

    @gram_settings
    @given(seed=seeds, k=num_clients, size=sizes)
    def test_identical_clients(self, seed, k, size):
        params, counts, rng = clustered_clients(seed, k, size, 0.0)
        assert all(np.array_equal(w.values, params[0].values) for w in params)
        gram = objective_f(params, counts)
        assert gram(np.ones(k)) <= 1e-9
        x = rng.uniform(-2, 2, size=k)
        assert same_value(gram(x), oracles.objective_f(x, params, counts))

    def test_denominator_floor(self):
        params = [make_vec([1.0, 0.0]), make_vec([-3.0, 0.0])]
        value = objective_f(params, [1, 1])(np.ones(2))
        assert value == pytest.approx(2.0 / 1e-12 + 0.5, rel=1e-15)
        assert same_value(value, oracles.objective_f([1.0, 1.0], params, [1, 1]))

    @gram_settings
    @given(seed=seeds, k=num_clients, size=st.integers(1, 200), spread=spreads,
           scale=st.sampled_from([1e200, 2.0**600, 1e300]))
    def test_huge_entries(self, seed, k, size, spread, scale):
        # The direct evaluation's norms overflow above about 1e154, so the
        # unscaled clients are the oracle: without the floor the objective is
        # scale invariant.
        params, counts, rng = clustered_clients(seed, k, size, spread)
        huge, _, _ = clustered_clients(seed, k, size, spread, scale)
        x = rng.uniform(-2, 2, size=k)
        assert same_value(objective_f(huge, counts)(x), oracles.objective_f(x, params, counts))

    @gram_settings
    @given(seed=seeds, k=num_clients, size=st.integers(1, 200), spread=spreads,
           scale=st.sampled_from([1e-200, 2.0**-600, 1e-300]))
    def test_tiny_entries(self, seed, k, size, spread, scale):
        # Every denominator sits below the floor, so both evaluations are ~0.
        params, counts, rng = clustered_clients(seed, k, size, spread, scale)
        x = rng.uniform(-2, 2, size=k)
        assert same_value(objective_f(params, counts)(x), oracles.objective_f(x, params, counts))

    @pytest.mark.parametrize("size", [6, 84, 1604])
    @pytest.mark.parametrize("k", range(1, 33))
    def test_same_bits_as_oracle(self, k, size):
        # The closure writes every intermediate into buffers it keeps across
        # calls; the oracle allocates them, and scores each x in the same bits.
        params, counts, rng = clustered_clients([k, size], k, size, 0.1)
        gram, oracle = objective_f(params, counts), oracles.gram_objective(params, counts)
        probes = [np.ones(k)] + [1.0 + scale * rng.normal(size=k) for scale in (1e-3, 0.1, 1.0, 10.0)]
        probes += [cancelling_x(counts, rng) for _ in range(4)]
        probes += [10.0 ** rng.uniform(155, 300, size=k) * rng.choice([-1.0, 1.0], size=k)]
        for value in (math.inf, -math.inf, math.nan):
            probes.append(np.where(np.arange(k) == rng.integers(k), value, 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            for x in probes:
                assert np.float64(gram(x)).tobytes() == np.float64(oracle(x)).tobytes()

    @given(k=num_clients, data=st.data())
    def test_non_finite_x_scores_inf(self, k, data):
        params, counts, rng = clustered_clients(k, k, 5, 0.1)
        x = rng.uniform(-2, 2, size=k)
        x[data.draw(st.integers(0, k - 1))] = data.draw(
            st.sampled_from([math.inf, -math.inf, math.nan])
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert objective_f(params, counts)(x) == math.inf


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
            assert np.array_equal(forced, avg)

    def test_identical_clients_returns_their_params_exactly(self):
        w = [0.3, -0.7, 1.9]
        updates = make_updates([w, w, w, w], counts=[6, 6, 6, 6])
        out, solution = aggregate_fedavgopt(updates)
        assert np.array_equal(out, w)
        assert solution.objective_at_ones == 0.0
        assert solution.objective_at_alpha == 0.0
        # weighted mean of the coefficients stays 1 within solver tolerance
        assert abs(np.mean(solution.alpha) - 1.0) <= 1e-3

    def test_orthogonal_pair_scales_by_sqrt2(self):
        updates = make_updates([[1.0, 0.0], [0.0, 1.0]])
        out, solution = aggregate_fedavgopt(updates)
        s = math.sqrt(2.0)
        assert np.allclose(solution.alpha, [s, s], rtol=0, atol=5e-3)
        assert np.allclose(out, [s / 2, s / 2], rtol=0, atol=1e-2)
        assert solution.objective_at_alpha == pytest.approx(0.82843, abs=1e-3)
        assert solution.converged

    def test_single_client_recovers_params(self):
        (u,) = make_updates([[2.0, -4.0, 0.25]], counts=[7])
        out, solution = aggregate_fedavgopt([u])
        assert np.array_equal(out, u.params.values)
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

    def test_search_result_is_used_as_given(self, monkeypatch):
        # No fall-back: coefficients that score worse than all-ones still
        # aggregate, reported with the value the search stored for them.
        rng = np.random.default_rng(74)
        counts = [3, 1, 4, 1]
        updates = make_updates(1.0 + 0.1 * rng.normal(size=(4, 3)), counts)
        params = [u.params for u in updates]
        x_bad = np.full(4, 0.01)
        assert oracles.objective_f(x_bad, params, counts) > oracles.objective_f(np.ones(4), params, counts)
        monkeypatch.setattr(
            "fedsim.strategies.minimize",
            lambda objective, x0, config: MinimizeResult(x_bad, 0.25, 1, True),
        )
        out, solution = aggregate_fedavgopt(updates)
        assert solution.alpha is x_bad
        assert out.tobytes() == candidate_aggregate(params, counts, x_bad).tobytes()
        assert solution.objective_at_alpha == 0.25
        assert solution.objective_at_ones == objective_f(params, counts)(np.ones(4))
        assert (solution.iterations, solution.converged) == (1, True)

    def test_reports_the_searchs_own_values(self):
        rng = np.random.default_rng(76)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            scale = rng.choice([1e-3, 1.0, 1e200])
            counts = rng.integers(1, 100, size=k).tolist()
            updates = make_updates(scale * rng.normal(size=(k, int(rng.integers(1, 40)))), counts)
            params = [u.params for u in updates]
            ones = np.ones(k)
            result = minimize(objective_f(params, counts), ones)
            out, solution = aggregate_fedavgopt(updates)
            assert solution.alpha.tobytes() == result.x_star.tobytes()
            assert out.tobytes() == candidate_aggregate(params, counts, result.x_star).tobytes()
            assert np.float64(solution.objective_at_alpha).tobytes() == np.float64(result.f_star).tobytes()
            at_ones = objective_f(params, counts)(ones)
            assert np.float64(solution.objective_at_ones).tobytes() == np.float64(at_ones).tobytes()
            assert solution.objective_at_alpha <= solution.objective_at_ones

    def test_reports_the_solve_it_ran(self):
        rng = np.random.default_rng(75)
        counts = rng.integers(1, 100, size=5).tolist()
        updates = make_updates(rng.normal(size=(5, 12)), counts)
        result = minimize(objective_f([u.params for u in updates], counts), np.ones(5))
        _, solution = aggregate_fedavgopt(updates)
        assert solution.iterations > 0
        assert (solution.iterations, solution.converged) == (result.iterations, result.converged)

    def test_factors_the_clients_once(self, monkeypatch):
        # One objective_f closure scores all-ones and every search candidate.
        calls = count_calls(monkeypatch, np.linalg, "qr")
        aggregate_fedavgopt(make_updates([[1.0, 0.0, 2.0], [0.0, 1.0, 0.5], [0.5, 0.5, -1.0]]))
        assert len(calls) == 1

    def test_huge_clients_aggregate(self):
        # The search's objective is scaled by a power of two, so clients whose
        # norms overflow still solve: the orthogonal pair scales by sqrt(2).
        updates = make_updates([[1e200, 0.0], [0.0, 1e200]])
        out, solution = aggregate_fedavgopt(updates)
        s = math.sqrt(2.0)
        assert np.allclose(solution.alpha, [s, s], rtol=0, atol=5e-3)
        assert np.allclose(out, [s / 2 * 1e200] * 2, rtol=1e-2, atol=0)
        assert solution.objective_at_alpha == pytest.approx(0.82843, abs=1e-3)
        assert solution.objective_at_ones == pytest.approx(2.0 * math.sqrt(0.2), rel=1e-12)

    def test_solved_alpha_is_read_only(self):
        _, solution = aggregate_fedavgopt(make_updates([[1.0, 0.0], [0.0, 1.0]]))
        assert solution.objective_at_alpha < solution.objective_at_ones
        assert not solution.alpha.flags.writeable

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fedavgopt([])


class TestAggregator:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(TypeError):
            Aggregator("fedavg")

    def test_strategy_name_table_is_stable(self):
        assert STRATEGIES == (
            "fedavg", "fedavgm", "fedmedian", "fedopt", "fedyogi", "fedavgopt",
        )

    def test_fedavg_matches_function(self):
        updates = make_updates([[1.0, 2.0], [3.0, 4.0]], counts=[1, 3])
        agg = Aggregator(FedAvg())
        out = agg.aggregate(updates, make_vec([0.0, 0.0]))
        assert np.array_equal(out.values, aggregate_fedavg(updates))
        assert agg.last_alpha is None

    def test_fedavgm_threads_momentum(self):
        agg = Aggregator(FedAvgM(server_lr=1.0, momentum_beta=0.5))
        updates = make_updates([[1.0]])
        out1 = agg.aggregate(updates, make_vec([2.0]))
        out2 = agg.aggregate(updates, out1)
        assert np.array_equal(out1.values, [1.0])
        assert np.array_equal(out2.values, [0.5])

    def test_fedavgopt_records_alpha(self):
        agg = Aggregator(FedAvgOpt())
        updates = make_updates([[1.0, 0.0], [0.0, 1.0]])
        agg.aggregate(updates, make_vec([0.0, 0.0]))
        assert agg.last_alpha is not None
        assert len(agg.last_alpha.alpha) == 2

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_step_returns_a_raw_array(self, strategy):
        # Only Aggregator.aggregate wraps the new global.
        updates = make_updates([[1.0, 2.0], [3.0, 5.0]], counts=[1, 3])
        new_global, _ = RULES[strategy]().step(updates, make_vec([0.5, 0.5]), None)
        assert type(new_global) is np.ndarray and new_global.dtype == np.float64

    def test_fedyogi_uses_yogi_defaults(self):
        agg = Aggregator(FedYogi())
        assert agg.strategy == "fedyogi"
        assert agg.rule.server_optimizer == "yogi"
        assert agg.rule.server_lr == 0.01


@pytest.mark.filterwarnings("error")
class TestOverflow:
    """A step's overflow surfaces only as NumericError: a numpy warning would
    fail these tests first."""

    # Sums and differences of these entries overflow; so do their squares.
    UPDATES = make_updates([[1.5e308, 1.5e308], [1.2e308, 1.2e308]], counts=[1, 2])
    PREVIOUS = make_vec([-1.5e308, -1.5e308])

    @pytest.mark.parametrize(
        "rule",
        [
            FedAvgM(),
            FedMedian(),
            *(FedOpt(server_optimizer=name) for name in SERVER_OPTIMIZERS),
            FedYogi(),
        ],
        ids=lambda rule: f"fedopt-{rule.server_optimizer}" if rule.name == "fedopt" else rule.name,
    )
    def test_step_raises_numeric_error(self, rule):
        with pytest.raises(NumericError):
            Aggregator(rule).aggregate(self.UPDATES, self.PREVIOUS)

    def test_fedavgopt_solves_in_scaled_coordinates(self):
        # The search scores these clients scaled by a power of two, so nothing
        # overflows.  The clients lie on one ray, and the objective is least
        # where the aggregate lands on the 2-count client: 0.3 / 2.7 there,
        # against 0.2 / 2.8 + 0.1 / 2.5 at all-ones.
        params, counts = [u.params for u in self.UPDATES], [1, 2]
        out, solution = FedAvgOpt().step(self.UPDATES, self.PREVIOUS, None)
        result = minimize(objective_f(params, counts), np.ones(2))
        assert solution.alpha.tobytes() == result.x_star.tobytes()
        assert out.tobytes() == candidate_aggregate(params, counts, result.x_star).tobytes()
        assert np.allclose(out, 1.2e308, rtol=1e-6, atol=0)
        assert solution.objective_at_alpha == result.f_star == pytest.approx(1 / 9, rel=1e-8)
        assert solution.objective_at_ones == pytest.approx(0.2 / 2.8 + 0.1 / 2.5, rel=1e-15)

    @pytest.mark.parametrize(
        "rule",
        [*(FedOpt(tau=1e200, server_optimizer=name) for name in SERVER_OPTIMIZERS), FedYogi(tau=1e200)],
        ids=lambda rule: f"fedopt-{rule.server_optimizer}" if rule.name == "fedopt" else rule.name,
    )
    def test_huge_tau_raises_numeric_error(self, rule):
        # tau^2 overflows to inf in the second moment, which the state wrap
        # rejects; a Python float square once raised OverflowError.
        updates = make_updates([[1.0, -1.0], [2.0, 0.5]])
        aggregator = Aggregator(rule)
        with pytest.raises(NumericError):
            aggregator.aggregate(updates, make_vec([0.0, 0.0]))
        assert aggregator.state is None

    def test_finite_state_and_infinite_global_keep_the_old_state(self):
        # The velocity 1e308 is finite; the global 1e308 - 10 * 1e308 is not.
        aggregator = Aggregator(FedAvgM(server_lr=10.0))
        with pytest.raises(NumericError):
            aggregator.aggregate(make_updates([[0.0]]), make_vec([1e308]))
        assert aggregator.state is None

    def test_fedavg_stays_within_its_clients(self):
        # A count-weighted mean of finite clients cannot overflow.
        out, _ = FedAvg().step(self.UPDATES, self.PREVIOUS, None)
        assert np.allclose(out, 1.3e308, rtol=1e-15, atol=0)


class TestLengthChecks:
    """A server step combines the clients' arrays elementwise with the previous
    global's, so ``Aggregator.aggregate`` rejects a client vector of another
    length, for every rule, before numpy can broadcast it."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_client_length_differs_from_previous_global(self, strategy):
        client = make_vec([5.0])  # size 1: numpy would broadcast it
        updates = [ClientUpdate(client_id="c0", num_examples=3, params=client)]
        with pytest.raises(ShapeMismatchError):
            Aggregator(RULES[strategy]()).aggregate(updates, make_vec([0.0, 0.0]))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_step_checks_its_client_set(self, strategy):
        # Called directly, each step checks the set it combines before numpy
        # stacks or broadcasts it.
        step, previous = RULES[strategy]().step, make_vec([0.0, 0.0])
        with pytest.raises(ValueError, match="^need at least one client update$"):
            step([], previous, None)
        with pytest.raises(ShapeMismatchError):
            step(make_updates([[1.0, 2.0], [3.0]]), previous, None)


def random_clients(seed, k, size):
    """``k`` N(0, 1) client rows of length ``size`` and counts in [1, 50]."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(k, size)), rng.integers(1, 51, size=k)


def clear_of_floor(x, rows, counts, s):
    """True when every objective denominator, at scale 1 and at scale ``s``,
    stays far above DENOMINATOR_FLOOR; only then is the objective scale
    invariant."""
    candidate = candidate_aggregate([make_vec(r) for r in rows], counts, x)
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
        out = fedmedian(make_updates(rows, counts), previous, lr)
        permuted = fedmedian(make_updates(rows[order], counts[order]), previous, lr)
        assert permuted.tobytes() == out.tobytes()

    @property_settings
    @given(seed=seeds, k=st.integers(1, 9), size=st.integers(1, 50), data=st.data())
    def test_fedavg_permutation_invariant(self, seed, k, size, data):
        rows, counts = random_clients(seed, k, size)
        order = data.draw(st.permutations(range(k)))
        out = aggregate_fedavg(make_updates(rows, counts))
        permuted = aggregate_fedavg(make_updates(rows[order], counts[order]))
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
        out = fedmedian(make_updates(rows, counts), previous, 1.0)
        moved = fedmedian(make_updates(rows + translation, counts), previous, 1.0)
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
        base = objective_f([make_vec(r) for r in rows], counts)(np.array(x))
        scaled = objective_f([make_vec(s * r) for r in rows], counts)(np.array(x))
        assert scaled == base

    @property_settings
    @given(seed=seeds, size=st.integers(1, 50), s=st.sampled_from([3.0, 0.7, 1e-3, 1e3, -2.5]),
           x=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=9))
    # Client 2 lies almost opposite the candidate: ||w + w_2|| is about 1e-4.
    @example(seed=6503, size=1, s=3.0, x=[1.51078551445619, 1.671875, 1.671875])
    def test_objective_f_scale_invariant(self, seed, size, s, x):
        rows, counts = random_clients(seed, len(x), size)
        assume(clear_of_floor(x, rows, counts, s))
        base = objective_f([make_vec(r) for r in rows], counts)(np.array(x))
        scaled = objective_f([make_vec(s * r) for r in rows], counts)(np.array(x))
        # Rounding s * w_j moves each ratio by about eps * kappa relative, with
        # kappa the largest (||w|| + ||w_j||) / ||w + w_j|| at the candidate w;
        # over 20,000 uniform random draws the error stayed below 4 eps * kappa.
        w = candidate_aggregate([make_vec(r) for r in rows], counts, x)
        kappa = max((np.linalg.norm(w) + np.linalg.norm(r)) / np.linalg.norm(w + r) for r in rows)
        assert scaled == pytest.approx(base, rel=20 * np.finfo(np.float64).eps * kappa)


def chained_rounds(step, seed, k, size, scale, rounds=3):
    """(new global, state) after each of ``rounds`` chained server steps on
    fresh seeded clients, each step starting from the last one's output."""
    rng = np.random.default_rng(seed)
    previous, state, history = make_vec(scale * rng.normal(size=size)), None, []
    for _ in range(rounds):
        updates = make_updates(scale * rng.normal(size=(k, size)), rng.integers(1, 51, size=k))
        previous, state = step(updates, previous, state)
        history.append((previous, state))
    return history


def state_vectors(state):
    """The vectors a rule's state holds: none, the momentum, or (m, v)."""
    if state is None:
        return []
    return [state] if isinstance(state, ParamVector) else list(state)


def assert_same_bits(a, b):
    assert len(a) == len(b)
    assert a.values.tobytes() == b.values.tobytes()


def wrapped(step):
    """``step`` with its new global wrapped in a ParamVector, as
    ``Aggregator.aggregate`` wraps it, so that the next round can read it."""
    def stepped(updates, previous, state):
        new_global, state = step(updates, previous, state)
        return make_vec(new_global), state

    return stepped


def assert_matches_oracle(rule, oracle, seed, k, size, scale, rounds=3):
    """``rule.step`` and ``oracle(updates, previous, state, rule)`` give the
    same bits, global model and carried state alike, over chained rounds."""
    got = chained_rounds(wrapped(rule.step), seed, k, size, scale, rounds)
    want = chained_rounds(
        lambda updates, previous, state: oracle(updates, previous, state, rule),
        seed, k, size, scale, rounds,
    )
    for (got_global, got_state), (want_global, want_state) in zip(got, want):
        assert_same_bits(got_global, want_global)
        got_vectors, want_vectors = state_vectors(got_state), state_vectors(want_state)
        assert len(got_vectors) == len(want_vectors)
        for a, b in zip(got_vectors, want_vectors):
            assert_same_bits(a, b)


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
        rule = FedAvgM(server_lr=lr, momentum_beta=beta)
        assert_matches_oracle(rule, oracles.aggregate_fedavgm, seed, k, size, scale)

    @property_settings
    @given(lr=st.sampled_from([0.0, 1.0, 0.3, 1.7]), **client_shapes)
    def test_fedmedian(self, lr, seed, k, size, scale):
        assert_matches_oracle(
            FedMedian(server_lr=lr),
            lambda updates, previous, state, rule: (
                oracles.aggregate_fedmedian(updates, previous, rule), state
            ),
            seed, k, size, scale,
        )

    @property_settings
    @given(optimizer=st.sampled_from(["sgd", "adagrad", "adam", "yogi"]),
           lr=st.floats(0.0, 1.0), tau=st.floats(1e-9, 1.0), beta1=unit_interval,
           beta2=unit_interval, **client_shapes)
    def test_fedopt(self, optimizer, lr, tau, beta1, beta2, seed, k, size, scale):
        rule = FedOpt(
            server_lr=lr, tau=tau, beta1=beta1, beta2=beta2, server_optimizer=optimizer
        )
        assert_matches_oracle(rule, oracles.aggregate_fedopt, seed, k, size, scale)

    @property_settings
    @given(**client_shapes)
    def test_fedyogi_defaults(self, seed, k, size, scale):
        assert_matches_oracle(FedYogi(), oracles.aggregate_fedopt, seed, k, size, scale)
