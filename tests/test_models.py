import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import (
    Dataset,
    ModelSpec,
    ParamVector,
    TrainConfig,
    evaluate,
    generate_blobs,
    init_params,
    sgd_train,
)
import fedsim.models
from fedsim.exceptions import ShapeMismatchError
from fedsim.models import _softmax_cross_entropy, loss_and_gradient
from helpers import count_calls, finite_difference_gradient
import oracles


def dataset_from(features, labels, num_classes):
    names = tuple(f"class_{c}" for c in range(num_classes))
    return Dataset(np.asarray(features, dtype=np.float64), np.asarray(labels), names)


class TestModelSpec:
    def test_logistic_num_params(self):
        spec = ModelSpec(input_dim=4, num_classes=3)
        assert spec.num_params == 4 * 3 + 3
        assert len(init_params(spec, 0)) == spec.num_params

    def test_mlp_num_params(self):
        spec = ModelSpec(input_dim=6, hidden_dims=(5,), activation="tanh", num_classes=3)
        assert spec.num_params == 6 * 5 + 5 + 5 * 3 + 3
        assert len(init_params(spec, 0)) == spec.num_params

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=0, num_classes=2)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=3, num_classes=1)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=3, num_classes=2, activation="sigmoid")
        with pytest.raises(ValueError):
            ModelSpec(input_dim=3, hidden_dims=(0,), num_classes=2)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hidden_dims": (4.9,)}, "hidden_dims must be integers >= 1, got 4.9"),
            ({"hidden_dims": (True,)}, "hidden_dims must be integers >= 1, got True"),
            ({"hidden_dims": 4}, "hidden_dims must be a list of integers, got 4"),
            ({"input_dim": 2.5}, "input_dim must be an integer >= 1, got 2.5"),
            ({"num_classes": 3.0}, "num_classes must be an integer >= 2, got 3.0"),
        ],
    )
    def test_non_integer_names_the_field_and_value(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelSpec(**{"input_dim": 3, **kwargs})

    def test_numpy_integer_widths_become_ints(self):
        spec = ModelSpec(input_dim=np.int64(3), hidden_dims=[np.int32(4)])
        assert spec.hidden_dims == (4,) and type(spec.hidden_dims[0]) is int
        assert spec.num_params == 3 * 4 + 4 + 4 * 2 + 2


class TestTrainConfig:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_lr_rejected(self, value):
        message = f"^learning_rate must be a finite number >= 0, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(learning_rate=value)

    def test_zero_lr_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_batch_size_bound(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_local_epochs_bound(self):
        with pytest.raises(ValueError, match="^local_epochs must be an integer >= 1, got 0$"):
            TrainConfig(local_epochs=0)


def seed_message(seed):
    return f"^{re.escape(f'seed must be an integer >= 0, got {seed!r}')}$"


# Each was once refused only inside numpy, naming no parameter, or, for
# True, run as seed 1.
BAD_SEEDS = [-1, 1.5, True, "1"]


class TestInitParams:
    def test_deterministic(self):
        spec = ModelSpec(input_dim=7, hidden_dims=(4,), num_classes=3)
        a = init_params(spec, 123)
        b = init_params(spec, 123)
        assert np.array_equal(a.values, b.values)
        c = init_params(spec, 124)
        assert not np.array_equal(a.values, c.values)

    def test_biases_zero_and_weights_bounded(self):
        spec = ModelSpec(input_dim=9, hidden_dims=(6,), num_classes=4)
        values = init_params(spec, 5).values
        offset = 0
        for fan_in, fan_out in spec.layer_dims():
            weight = values[offset : offset + fan_in * fan_out]
            bias = values[offset + fan_in * fan_out : offset + (fan_in + 1) * fan_out]
            assert np.all(np.abs(weight) <= 1 / np.sqrt(fan_in))
            assert np.array_equal(bias, np.zeros(fan_out))
            offset += (fan_in + 1) * fan_out
        assert offset == values.size

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_is_named(self, seed):
        with pytest.raises(ValueError, match=seed_message(seed)):
            init_params(ModelSpec(input_dim=2), seed)

    def test_numpy_integer_seed_accepted(self):
        spec = ModelSpec(input_dim=2)
        assert np.array_equal(init_params(spec, np.uint8(4)).values, init_params(spec, 4).values)

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(input_dim=1),
            ModelSpec(input_dim=20, num_classes=4),
            ModelSpec(input_dim=7, hidden_dims=(4,), num_classes=3),
            ModelSpec(input_dim=5, hidden_dims=(6, 3), activation="tanh", num_classes=2),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 123])
    def test_matches_concatenating_oracle(self, spec, seed):
        got, expected = init_params(spec, seed).values, oracles.init_params(spec, seed).values
        assert got.tobytes() == expected.tobytes()


class TestLossAndGradient:
    def test_feature_width_checked(self):
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 0)
        data = dataset_from(np.zeros((2, 5)), [0, 1], spec.num_classes)
        message = re.escape("features must be (n, 4), got (2, 5)")
        with pytest.raises(ShapeMismatchError, match=message):
            evaluate([params.values], spec, [data])
        with pytest.raises(ShapeMismatchError, match=message):
            sgd_train([params], spec, [data], TrainConfig(), [0])

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_parameter_count_checked(self, delta):
        # The spec alone fixes the layout, so a vector of another size is
        # rejected by the model, not sliced.
        spec = ModelSpec(input_dim=4, hidden_dims=(3,), num_classes=3)
        params = ParamVector(np.zeros(spec.num_params + delta))
        x, y = np.zeros((2, 4)), np.zeros(2, dtype=np.int64)
        with pytest.raises(ShapeMismatchError, match=f"expects {spec.num_params} parameters"):
            loss_and_gradient(params.values, spec, x, y)
        with pytest.raises(ShapeMismatchError, match=f"expects {spec.num_params} parameters"):
            evaluate([params.values], spec, [dataset_from(x, y, spec.num_classes)])
        # sgd_train checks every start once, before any training, whether
        # its datasets make one stack or several, and whatever the other
        # starts hold.
        good = init_params(spec, 0)
        for sizes in ([2, 2], [3, 2]):
            datasets = random_datasets(spec, sizes, 0)
            for starts in ([params], [good, params]):
                with pytest.raises(
                    ShapeMismatchError,
                    match=f"^model expects {spec.num_params} parameters, got {len(params)}$",
                ):
                    sgd_train(starts, spec, datasets, TrainConfig(), [0, 1])

    def test_zero_params_loss_is_log_num_classes(self):
        spec = ModelSpec(input_dim=3, num_classes=4)
        params = init_params(spec, 0).with_values(np.zeros(spec.num_params))
        x = np.random.default_rng(4).normal(size=(8, 3))
        y = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        loss, _ = loss_and_gradient(params.values, spec, x, y)
        assert loss == float(np.log(4.0))

    def test_duplicating_samples_is_invariant(self):
        rng = np.random.default_rng(6)
        spec = ModelSpec(input_dim=4, hidden_dims=(3,), num_classes=3)
        params = init_params(spec, 6)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        loss1, grad1 = loss_and_gradient(params.values, spec, x, y)
        loss2, grad2 = loss_and_gradient(
            params.values, spec, np.vstack([x, x]), np.concatenate([y, y])
        )
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        assert np.allclose(grad1, grad2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(input_dim=4, num_classes=3),
            ModelSpec(input_dim=5, hidden_dims=(6,), activation="relu", num_classes=3),
            ModelSpec(input_dim=5, hidden_dims=(4, 3), activation="tanh", num_classes=2),
        ],
    )
    def test_gradient_matches_central_differences(self, spec):
        rng = np.random.default_rng(7)
        params = init_params(spec, 7)
        x = rng.normal(size=(10, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=10)
        _, grad = loss_and_gradient(params.values, spec, x, y)
        numeric = finite_difference_gradient(params, spec, x, y, h=1e-5)
        denom = max(1.0, float(np.max(np.abs(grad))))
        assert float(np.max(np.abs(grad - numeric))) / denom < 1e-4

    @pytest.mark.parametrize("stack", [(), (2, 3)], ids=["flat", "stacked"])
    @pytest.mark.parametrize("hidden", [(5,), (5, 4)], ids=["h1", "h2"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_array_contract(self, activation, hidden, stack):
        # The backward pass writes each delta into the activation it was
        # masked by; the stacked case passes an (S, K, P) stack with the
        # (K, n) batches broadcast over the S starts, as sgd_train does.
        spec = ModelSpec(input_dim=4, hidden_dims=hidden, activation=activation, num_classes=3)
        rng = np.random.default_rng(8)
        values = rng.normal(size=(*stack, spec.num_params))
        x, y = rng.normal(size=(*stack[1:], 6, 4)), rng.integers(0, 3, size=(*stack[1:], 6))
        xs, ys = (np.broadcast_to(x, (*stack, 6, 4)), np.broadcast_to(y, (*stack, 6))) if stack else (x, y)
        values_before, x_before = values.copy(), x.copy()

        loss, grad = loss_and_gradient(values, spec, xs, ys)
        assert type(grad) is np.ndarray and grad.dtype == np.float64
        assert grad.shape == values.shape and grad.flags.writeable
        assert not np.shares_memory(grad, values) and not np.shares_memory(grad, x)

        # The gradient is the caller's to scale in place: the next call
        # returns a fresh array with the same bits.
        expected = grad.copy()
        grad *= 0.5
        loss2, grad2 = loss_and_gradient(values, spec, xs, ys)
        assert np.array_equal(loss2, loss) and grad2.tobytes() == expected.tobytes()
        assert not np.shares_memory(grad2, grad)

        assert values.tobytes() == values_before.tobytes()
        assert x.tobytes() == x_before.tobytes()


class TestSgdTrain:
    def _blobs(self, seed=0):
        data = generate_blobs(20, 3, 4, 1.0, seed)
        return data

    def test_zero_lr_returns_input_exactly(self):
        data = self._blobs()
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 1)
        out = sgd_train([params], spec, [data], TrainConfig(learning_rate=0.0), [3])[0]
        assert np.array_equal(out, params.values)

    def test_full_batch_single_epoch_matches_gradient_step(self):
        data = self._blobs(2)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 2)
        lr = 0.2
        config = TrainConfig(learning_rate=lr, batch_size=len(data), local_epochs=1)
        out = sgd_train([params], spec, [data], config, [9])[0]
        _, grad = loss_and_gradient(params.values, spec, data.features, data.labels)
        expected = params.values - lr * grad
        assert np.array_equal(out, expected)

    def test_full_batch_result_independent_of_shuffle_seed(self):
        data = self._blobs(3)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 3)
        outs = [
            sgd_train(
                [params], spec, [data],
                TrainConfig(learning_rate=0.1, batch_size=len(data), local_epochs=3), [s],
            )[0]
            for s in (0, 1, 99)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_deterministic_in_all_arguments(self):
        data = self._blobs(4)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 4)
        config = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=2)
        a = sgd_train([params], spec, [data], config, [5])[0]
        b = sgd_train([params], spec, [data], config, [5])[0]
        assert np.array_equal(a, b)
        c = sgd_train([params], spec, [data], config, [6])[0]
        assert not np.array_equal(a, c)

    def test_descent_on_separable_two_class_blobs(self):
        data = generate_blobs(25, 2, 5, 0.1, 11)
        spec = ModelSpec(input_dim=5, num_classes=2)
        params = init_params(spec, 11)
        loss_init, _ = loss_and_gradient(params.values, spec, data.features, data.labels)
        config = TrainConfig(learning_rate=0.1, batch_size=16, local_epochs=50)
        trained = sgd_train([params], spec, [data], config, [1])[0]
        loss_final, _ = loss_and_gradient(trained, spec, data.features, data.labels)
        assert loss_final < loss_init

    def test_convex_full_batch_descent_is_monotone(self):
        data = self._blobs(5)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 5)
        config = TrainConfig(learning_rate=0.02, batch_size=len(data), local_epochs=1)
        losses = [loss_and_gradient(params.values, spec, data.features, data.labels)[0]]
        for _ in range(30):
            params = ParamVector(sgd_train([params], spec, [data], config, [0])[0])
            losses.append(loss_and_gradient(params.values, spec, data.features, data.labels)[0])
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-10)

    def test_empty_dataset_rejected(self):
        spec = ModelSpec(input_dim=4, num_classes=3)
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), ("a", "b", "c"))
        with pytest.raises(ValueError):
            sgd_train([init_params(spec, 0)], spec, [empty], TrainConfig(), [0])

    def test_every_dataset_checked_before_any_step(self, monkeypatch):
        # The step trusts its batches, so a bad dataset anywhere in the list
        # stops the call before the good ones ahead of it take a step.
        spec = ModelSpec(input_dim=4, num_classes=3)
        bad = dataset_from(np.zeros((5, 4)), [0, 1, 2, 3, 0], 4)
        steps = count_calls(monkeypatch, fedsim.models, "loss_and_gradient")
        with pytest.raises(ValueError, match="dataset has 4 classes, model has 3"):
            sgd_train([init_params(spec, 0)], spec, [self._blobs(), bad], TrainConfig(), [0, 1])
        assert steps == []

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_is_named(self, seed):
        spec = ModelSpec(input_dim=4, num_classes=3)
        with pytest.raises(ValueError, match=seed_message(seed)):
            sgd_train([init_params(spec, 0)], spec, [self._blobs()], TrainConfig(), [seed])

    @pytest.mark.parametrize("activation, learning_rate", [("relu", 1e300), ("tanh", 1e308)])
    def test_a_diverging_run_comes_back_as_a_non_finite_row(self, activation, learning_rate):
        # The weights overflow early and stay non-finite for the rest of
        # training.  No errstate here: under the suite's warnings-as-errors,
        # numpy's overflow warning would surface if training let it out.
        data = self._blobs(6)
        spec = ModelSpec(input_dim=4, hidden_dims=(5,), activation=activation, num_classes=3)
        config = TrainConfig(learning_rate=learning_rate, batch_size=8, local_epochs=3)
        trained = sgd_train([init_params(spec, 6)], spec, [data], config, [0])
        assert trained.shape == (1, spec.num_params) and trained.dtype == np.float64
        assert not np.isfinite(trained).all()
        assert not trained.flags.writeable

    @staticmethod
    def peak_in_tables(sizes):
        """tracemalloc peak of one sgd_train, two starts on sixteen clients of
        the given sizes, an MLP [64] and batches of 32, in (S, K, P) tables.
        tracemalloc counts numpy's own allocations, so the peak repeats
        exactly."""
        spec = ModelSpec(input_dim=20, hidden_dims=(64,), num_classes=4)
        starts = [init_params(spec, 0), init_params(spec, 1)]
        datasets = random_datasets(spec, sizes, 0)
        config = TrainConfig(learning_rate=0.3, batch_size=32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = sgd_train(starts, spec, datasets, config, list(range(16)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert table.shape == (2 * 16, spec.num_params)
        return peak / table.nbytes

    def test_peak_memory_stays_within_five_tables(self):
        # A second (S, K, P) buffer, the previous step's gradient and a
        # fresh hidden-layer delta together push it past 6.4.
        assert self.peak_in_tables([52] * 16) <= 5

    def test_ragged_sizes_step_the_table_in_place(self):
        # One more row on the first eight clients, as np.array_split deals
        # them: two runs of equal size, each stepping its own slice of the
        # returned table.  A working copy of each run's weights, written
        # back, would push the peak past 3.2 tables.
        assert self.peak_in_tables([53] * 8 + [52] * 8) <= 3


class TestEvaluate:
    def test_zero_params_balanced_classes_tie_break(self):
        spec = ModelSpec(input_dim=3, num_classes=4)
        params = init_params(spec, 0).with_values(np.zeros(spec.num_params))
        rng = np.random.default_rng(12)
        features = rng.normal(size=(20, 3))
        labels = np.tile(np.arange(4), 5)
        data = dataset_from(features, labels, 4)
        metrics = evaluate([params.values], spec, [data])[0]
        assert metrics["accuracy"] == 0.25
        assert metrics["loss"] == float(np.log(4.0))

    def test_perfect_logits(self):
        spec = ModelSpec(input_dim=4, num_classes=4)
        weights = 10.0 * np.eye(4)
        params = init_params(spec, 0).with_values(
            np.concatenate([weights.reshape(-1), np.zeros(4)])
        )
        labels = np.array([0, 1, 2, 3, 1, 2])
        features = np.eye(4)[labels]
        metrics = evaluate([params.values], spec, [dataset_from(features, labels, 4)])[0]
        assert metrics["accuracy"] == 1.0

    def test_accuracy_in_unit_interval(self):
        rng = np.random.default_rng(13)
        spec = ModelSpec(input_dim=5, hidden_dims=(4,), num_classes=3)
        for seed in range(5):
            data = generate_blobs(10, 3, 5, 2.0, seed)
            metrics = evaluate([init_params(spec, seed).values], spec, [data])[0]
            assert 0.0 <= metrics["accuracy"] <= 1.0
            assert metrics["loss"] >= 0.0

    def test_empty_dataset_rejected(self):
        spec = ModelSpec(input_dim=2, num_classes=2)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ("a", "b"))
        with pytest.raises(ValueError):
            evaluate([init_params(spec, 0).values], spec, [empty])

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 1],  # every label fits a 2-class model, but the dataset names 3 classes
            [2],  # a label out of the model's range
        ],
    )
    def test_more_classes_than_the_model_rejected(self, labels):
        # The one class rule bounds every label, in training as in scoring.
        spec = ModelSpec(input_dim=2, num_classes=2)
        params = init_params(spec, 0)
        data = Dataset(np.zeros((len(labels), 2)), np.array(labels), ("a", "b", "c"))
        with pytest.raises(ValueError, match="dataset has 3 classes, model has 2"):
            evaluate([params.values], spec, [data])
        with pytest.raises(ValueError, match="dataset has 3 classes, model has 2"):
            sgd_train([params], spec, [data], TrainConfig(), [0])

    def test_a_row_with_a_nan_logit_is_a_miss(self):
        # Each hidden unit reads inf, so the logits are [inf - inf, inf, inf - inf]:
        # np.argmax alone picks the first NaN and scores the class-0 rows correct.
        spec = ModelSpec(input_dim=2, hidden_dims=(2,), num_classes=3)
        hidden = np.full(4, 1e308), np.zeros(2)
        head = np.array([[1.0, 1.0, 2.0], [-1.0, 1.0, -2.0]]).reshape(-1), np.zeros(3)
        values = np.concatenate([*hidden, *head])
        data = dataset_from(np.ones((6, 2)), [0, 0, 1, 1, 2, 2], 3)
        metrics = evaluate([values], spec, [data])[0]
        assert metrics["accuracy"] == 0.0
        assert math.isnan(metrics["loss"])

    def test_fewer_classes_than_the_model_accepted(self):
        # Zero features and zero biases tie every logit, so class 0 wins.
        spec = ModelSpec(input_dim=2, num_classes=3)
        data = Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "b"))
        assert evaluate([init_params(spec, 0).values], spec, [data])[0]["accuracy"] == 0.5

    def test_a_model_must_be_a_flat_vector(self):
        # Models are plain arrays: a ParamVector is passed by its values.
        spec = ModelSpec(input_dim=2, num_classes=2)
        params = init_params(spec, 0)
        data = dataset_from(np.zeros((2, 2)), [0, 1], 2)
        for model, shape in [(params, ()), (params.values[None], (1, spec.num_params))]:
            with pytest.raises(ShapeMismatchError, match=re.escape(f"flat vector, got shape {shape}")):
                evaluate([model], spec, [data])


@st.composite
def training_cases(draw):
    """A small model, dataset, training config and shuffle seed.

    The batch size divides the example count, leaves a remainder, or covers
    the whole set in one batch.
    """
    n = draw(st.integers(5, 24))
    mode = draw(st.sampled_from(["divides", "remainder", "full"]))
    if mode == "divides":
        batch_size = draw(st.sampled_from([b for b in range(1, n) if n % b == 0]))
    elif mode == "remainder":
        batch_size = draw(st.sampled_from([b for b in range(2, n) if n % b]))
    else:
        batch_size = draw(st.integers(n, n + 5))
    spec = ModelSpec(
        input_dim=draw(st.integers(1, 5)),
        hidden_dims=draw(st.sampled_from([(), (3,), (6,), (4, 2), (2, 5)])),
        activation=draw(st.sampled_from(["relu", "tanh"])),
        num_classes=draw(st.integers(2, 4)),
    )
    config = TrainConfig(
        learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
        batch_size=batch_size,
        local_epochs=draw(st.integers(1, 2)),
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = dataset_from(
        rng.normal(size=(n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n),
        spec.num_classes,
    )
    return spec, config, data, seed


class TestAgainstRawArrayOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=training_cases(), init_seed=st.integers(0, 2**16))
    def test_sgd_train_matches_raw_array_sgd_bit_for_bit(self, case, init_seed):
        spec, config, data, seed = case
        params = init_params(spec, init_seed)
        trained = sgd_train([params], spec, [data], config, [seed])[0]
        expected = oracles.sgd_train(
            params.values,
            spec.layer_dims(),
            spec.activation,
            data.features,
            data.labels,
            config.learning_rate,
            config.batch_size,
            config.local_epochs,
            seed,
        )
        assert trained.tobytes() == expected.tobytes()

        # One cross-entropy: evaluation and training report the same loss.
        loss, _ = loss_and_gradient(trained, spec, data.features, data.labels)
        assert evaluate([trained], spec, [data])[0]["loss"] == loss


class TestAgainstPreActivationOracle:
    """The in-place forward pass, the derivatives taken from activations and
    the one gradient buffer give the bits of the forward pass that keeps
    every pre-activation."""

    @pytest.mark.parametrize("hidden", [(), (5,), (6, 3)], ids=["h0", "h1", "h2"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_bit_for_bit(self, hidden, activation, n):
        spec = ModelSpec(input_dim=4, hidden_dims=hidden, activation=activation, num_classes=3)
        rng = np.random.default_rng([n, len(hidden), len(activation)])
        params = init_params(spec, 0).with_values(rng.normal(size=spec.num_params))
        x = rng.normal(size=(n, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=n)
        x_before = x.copy()
        dims, values = spec.layer_dims(), params.values

        loss, grad = loss_and_gradient(params.values, spec, x, y)
        expected_loss, expected_grad = oracles.loss_and_gradient(values, dims, activation, x, y)
        assert type(loss) is float and loss == expected_loss
        assert grad.tobytes() == expected_grad.tobytes()

        metrics = evaluate([values], spec, [dataset_from(x, y, spec.num_classes)])[0]
        expected = oracles.evaluate(values, dims, activation, x, y)
        assert type(metrics["accuracy"]) is float
        assert repr(metrics["accuracy"]) == repr(expected["accuracy"])
        assert metrics["loss"] == expected["loss"]

        # The in-place forward pass never writes into the caller's features.
        assert x.tobytes() == x_before.tobytes()


def random_datasets(spec, sizes, seed):
    """One dataset of each size, with N(0, 1) features and uniform labels."""
    rng = np.random.default_rng(seed)
    return [
        dataset_from(
            rng.normal(size=(n, spec.input_dim)),
            rng.integers(0, spec.num_classes, size=n),
            spec.num_classes,
        )
        for n in sizes
    ]


# A hidden layer of width 1 makes a bias gradient a sum over a lone column.
STACK_SPECS = {
    "logistic": ModelSpec(input_dim=4, num_classes=3),
    "relu": ModelSpec(input_dim=4, hidden_dims=(5,), activation="relu", num_classes=3),
    "tanh": ModelSpec(input_dim=4, hidden_dims=(1, 6), activation="tanh", num_classes=4),
}


class TestStacks:
    """Each run of adjacent datasets of equal size trains as one stack; every
    model still has the bits of the per-model oracle, whatever the mix of
    sizes."""

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    @pytest.mark.parametrize(
        "sizes, batch_size, epochs",
        [
            ((12, 12, 9, 9), 5, 1),  # the ragged golden geometry
            ((9, 12, 9, 12, 7), 4, 2),  # interleaved sizes, two epochs
            ((11,), 3, 2),  # a single dataset
            ((6, 6, 6), 32, 1),  # one batch larger than every dataset
        ],
    )
    def test_each_trained_model_matches_the_oracle(self, name, sizes, batch_size, epochs):
        spec = STACK_SPECS[name]
        datasets = random_datasets(spec, sizes, len(sizes))
        params = init_params(spec, batch_size)
        config = TrainConfig(learning_rate=0.3, batch_size=batch_size, local_epochs=epochs)
        seeds = [7 + i for i in range(len(sizes))]
        trained = sgd_train([params], spec, datasets, config, seeds)
        assert len(trained) == len(datasets)
        for model, data, seed in zip(trained, datasets, seeds):
            expected = oracles.sgd_train(
                params.values, spec.layer_dims(), spec.activation, data.features,
                data.labels, config.learning_rate, batch_size, epochs, seed,
            )
            assert model.tobytes() == expected.tobytes()
            alone = sgd_train([params], spec, [data], config, [seed])[0]
            assert alone.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    def test_each_score_matches_the_oracle(self, name):
        spec = STACK_SPECS[name]
        datasets = random_datasets(spec, (13, 8, 13, 1), 4)
        rng = np.random.default_rng(4)
        models = [rng.normal(size=spec.num_params) for _ in datasets]
        metrics = evaluate(models, spec, datasets)
        assert len(metrics) == len(datasets)
        for got, values, data in zip(metrics, models, datasets):
            expected = oracles.evaluate(
                values, spec.layer_dims(), spec.activation, data.features, data.labels
            )
            assert repr(got["accuracy"]) == repr(expected["accuracy"])
            assert type(got["loss"]) is float and got["loss"] == expected["loss"]

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    @pytest.mark.parametrize("stack, n", [(1, 5), (4, 32), (3, 1)])
    def test_stacked_step_matches_each_slice(self, name, stack, n):
        spec = STACK_SPECS[name]
        rng = np.random.default_rng([stack, n])
        values = rng.normal(size=(stack, spec.num_params))
        x = rng.normal(size=(stack, n, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=(stack, n))
        losses, grads = loss_and_gradient(values, spec, x, y)
        assert losses.shape == (stack,) and grads.shape == (stack, spec.num_params)
        for k in range(stack):
            loss, grad = loss_and_gradient(values[k], spec, x[k], y[k])
            expected_loss, expected_grad = oracles.loss_and_gradient(
                values[k], spec.layer_dims(), spec.activation, x[k], y[k]
            )
            assert float(losses[k]) == loss == expected_loss
            assert grads[k].tobytes() == grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    @pytest.mark.parametrize("starts, stack, n", [(1, 4, 5), (3, 2, 8), (2, 3, 1)])
    def test_broadcast_batches_under_two_stack_axes_match_each_slice(self, name, starts, stack, n):
        # sgd_train's step: S starts over K batches, each batch read by every
        # start through a read-only broadcast view.
        spec = STACK_SPECS[name]
        rng = np.random.default_rng([starts, stack, n])
        values = rng.normal(size=(starts, stack, spec.num_params))
        x = np.broadcast_to(rng.normal(size=(stack, n, spec.input_dim)), (starts, stack, n, spec.input_dim))
        y = np.broadcast_to(rng.integers(0, spec.num_classes, size=(stack, n)), (starts, stack, n))
        values_before = values.copy()
        losses, grads = loss_and_gradient(values, spec, x, y)
        assert losses.shape == (starts, stack) and grads.shape == values.shape
        assert values.tobytes() == values_before.tobytes()
        for s in range(starts):
            for k in range(stack):
                expected_loss, expected_grad = oracles.loss_and_gradient(
                    values[s, k], spec.layer_dims(), spec.activation, x[s, k], y[s, k]
                )
                assert float(losses[s, k]) == expected_loss
                assert grads[s, k].tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    @pytest.mark.parametrize("num_starts", [1, 2, 3])
    @pytest.mark.parametrize(
        "sizes, batch_size, epochs",
        [
            ((12, 12, 9, 9), 5, 1),  # ragged sizes
            ((9, 12, 9, 12, 7), 4, 2),  # interleaved sizes, two epochs
            ((6, 6, 6), 32, 1),  # one batch larger than every dataset
        ],
    )
    def test_each_start_on_each_dataset_matches_the_oracle(
        self, name, num_starts, sizes, batch_size, epochs
    ):
        spec = STACK_SPECS[name]
        datasets = random_datasets(spec, sizes, len(sizes))
        starts = [init_params(spec, 40 + s) for s in range(num_starts)]
        config = TrainConfig(learning_rate=0.3, batch_size=batch_size, local_epochs=epochs)
        seeds = [7 + i for i in range(len(sizes))]
        trained = sgd_train(starts, spec, datasets, config, seeds)
        assert len(trained) == num_starts * len(sizes)
        for s, start in enumerate(starts):
            for i, (data, seed) in enumerate(zip(datasets, seeds)):
                expected = oracles.sgd_train(
                    start.values, spec.layer_dims(), spec.activation, data.features,
                    data.labels, config.learning_rate, batch_size, epochs, seed,
                )
                assert trained[s * len(sizes) + i].tobytes() == expected.tobytes()

    def test_a_start_diverging_on_one_dataset_leaves_only_its_row_non_finite(self):
        # Weights of 1e160 overflow the logits only on the features of 1e150;
        # every other (start, dataset) pair stays finite through its one
        # full-batch step.
        spec = STACK_SPECS["logistic"]
        datasets = random_datasets(spec, (6, 6, 6), 9)
        big = datasets[1]
        datasets[1] = dataset_from(big.features * 1e150, big.labels, spec.num_classes)
        w0 = init_params(spec, 0)
        starts = [w0, ParamVector(np.full(spec.num_params, 1e160)), w0]
        config = TrainConfig(learning_rate=0.1, batch_size=8)
        assert_table(starts, spec, datasets, config, [0, 1, 2], non_finite={1 * 3 + 1})

    def test_lengths_must_pair_up(self):
        spec = STACK_SPECS["logistic"]
        datasets = random_datasets(spec, (4, 4), 0)
        params = init_params(spec, 0)
        with pytest.raises(ValueError, match="^2 datasets but 1 seeds$"):
            sgd_train([params], spec, datasets, TrainConfig(), [0])
        with pytest.raises(ValueError, match="^1 models but 2 datasets$"):
            evaluate([params.values], spec, datasets)

    def test_no_starting_model_is_named(self):
        # numpy's own "need at least one array to stack" once surfaced here.
        spec = STACK_SPECS["logistic"]
        datasets = random_datasets(spec, (4, 4), 0)
        with pytest.raises(ValueError, match="^need at least one starting model$"):
            sgd_train([], spec, datasets, TrainConfig(), [0, 1])

    @pytest.mark.parametrize(
        "diverging",
        [
            {2},  # the middle of the stack of three 12-row datasets
            {1, 2, 4},  # rows of both the 12-row and the 9-row stack
        ],
    )
    def test_exactly_the_diverging_models_are_non_finite_rows(self, diverging):
        # Features of 1e300 overflow the weights within the first epoch.
        spec = STACK_SPECS["logistic"]
        datasets = random_datasets(spec, (12, 9, 12, 12, 9), 5)
        datasets = [
            dataset_from(d.features * 1e300, d.labels, spec.num_classes) if i in diverging else d
            for i, d in enumerate(datasets)
        ]
        config = TrainConfig(learning_rate=0.5, batch_size=5, local_epochs=2)
        assert_table([init_params(spec, 0)], spec, datasets, config, [0, 1, 2, 3, 4], diverging)


def assert_table(starts, spec, datasets, config, seeds, non_finite):
    """``sgd_train``'s table of ``starts`` on ``datasets`` is read-only, its
    rows ``non_finite`` are exactly the non-finite ones, and every other row
    has the bits of a call from its start alone on its dataset alone."""
    trained = sgd_train(starts, spec, datasets, config, seeds)
    assert trained.shape == (len(starts) * len(datasets), spec.num_params)
    assert not trained.flags.writeable
    assert {r for r, row in enumerate(trained) if not np.isfinite(row).all()} == non_finite
    for s, start in enumerate(starts):
        for i, (data, seed) in enumerate(zip(datasets, seeds)):
            row = s * len(datasets) + i
            if row not in non_finite:
                alone = sgd_train([start], spec, [data], config, [seed])[0]
                assert trained[row].tobytes() == alone.tobytes()


def same_bits(got, expected) -> bool:
    """Equal bits, signed zeros included; any NaN equals any NaN."""
    got, expected = np.asarray(got, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    canonical = lambda a: np.where(np.isnan(a), np.nan, a).tobytes()
    return np.array_equal(np.isnan(got), np.isnan(expected)) and canonical(got) == canonical(expected)


class TestSoftmaxCrossEntropy:
    """The row max reduces a class-major copy; the oracle reduces each row."""

    @staticmethod
    def logits(num_classes, special):
        rng = np.random.default_rng(num_classes)
        logits = rng.normal(size=(30, num_classes))
        logits[0] = 0.0
        logits[0, ::2] = -0.0  # a max tied between +0 and -0
        logits[1] = -1.0
        logits[1, 0], logits[1, -1] = -0.0, 0.0
        logits[2, -1] = -np.inf
        if special:
            logits[3, 1] = np.nan
            logits[4, 0] = np.inf
            logits[5] = -np.inf
            logits[6, 0], logits[6, 1] = np.inf, np.nan
            logits[7, -1] = np.inf
            logits[7, 0] = -np.inf
        return logits, rng.integers(0, num_classes, size=logits.shape[0])

    @pytest.mark.parametrize("special", [False, True], ids=["finite-max", "nan-inf"])
    @pytest.mark.parametrize("num_classes", [2, 3, 4, 5, 8, 12])
    def test_matches_the_oracle(self, num_classes, special):
        logits, y = self.logits(num_classes, special)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss, exp, row_sums = _softmax_cross_entropy(logits, y)
            softmax = exp / row_sums
            expected_softmax = oracles._softmax(logits)
            expected_loss = oracles._mean_cross_entropy(logits, y)
        assert same_bits(softmax, expected_softmax)
        assert same_bits(loss, expected_loss)
        # A label on a -inf logit scores an infinite loss, never a NaN one.
        assert special or not np.isnan(loss)

    @pytest.mark.parametrize("num_classes", [2, 4, 12])
    def test_stacked_rows_match_each_slice(self, num_classes):
        logits, y = self.logits(num_classes, True)
        stacked, labels = logits.reshape(3, 10, num_classes), y.reshape(3, 10)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            losses, exp, row_sums = _softmax_cross_entropy(stacked, labels)
            for k in range(3):
                loss_k, exp_k, sums_k = _softmax_cross_entropy(stacked[k], labels[k])
                assert same_bits(losses[k], loss_k)
                assert same_bits(exp[k], exp_k) and same_bits(row_sums[k], sums_k)
