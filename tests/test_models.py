import math
import re

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
    loss_and_gradient,
    sgd_train,
)
from fedsim.exceptions import NumericError, ShapeMismatchError
from helpers import finite_difference_gradient
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


class TestLossAndGradient:
    def test_feature_width_checked(self):
        spec = ModelSpec(input_dim=4, num_classes=3)
        params, y = init_params(spec, 0), np.zeros(2, dtype=np.int64)
        with pytest.raises(ShapeMismatchError):
            loss_and_gradient(params.values, spec, np.zeros((2, 5)), y)
        with pytest.raises(ShapeMismatchError):
            evaluate(params, spec, dataset_from(np.zeros((2, 5)), y, spec.num_classes))

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
            evaluate(params, spec, dataset_from(x, y, spec.num_classes))

    def test_zero_params_loss_is_log_num_classes(self):
        spec = ModelSpec(input_dim=3, num_classes=4)
        params = init_params(spec, 0).with_values(np.zeros(spec.num_params))
        x = np.random.default_rng(4).normal(size=(8, 3))
        y = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        loss, _ = loss_and_gradient(params.values, spec, x, y)
        assert loss == float(np.log(4.0))

    def test_out_of_range_label_rejected(self):
        spec = ModelSpec(input_dim=2, num_classes=2)
        params = init_params(spec, 0)
        with pytest.raises(ValueError):
            loss_and_gradient(params.values, spec, np.zeros((1, 2)), np.array([2]))

    @pytest.mark.parametrize("shape", [(3,), (2, 1)])
    def test_label_shape_checked(self, shape):
        spec = ModelSpec(input_dim=2, num_classes=2)
        labels = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ValueError, match=re.escape(f"must have shape (2,), got {shape}")):
            loss_and_gradient(init_params(spec, 0).values, spec, np.zeros((2, 2)), labels)

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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_array_contract(self, activation):
        spec = ModelSpec(input_dim=4, hidden_dims=(5,), activation=activation, num_classes=3)
        rng = np.random.default_rng(8)
        values = rng.normal(size=spec.num_params)
        x, y = rng.normal(size=(6, 4)), rng.integers(0, 3, size=6)
        values_before, x_before = values.copy(), x.copy()

        loss, grad = loss_and_gradient(values, spec, x, y)
        assert type(grad) is np.ndarray and grad.dtype == np.float64
        assert grad.shape == (spec.num_params,) and grad.flags.writeable
        assert not np.shares_memory(grad, values) and not np.shares_memory(grad, x)

        # The gradient is the caller's to scale in place: the next call
        # returns a fresh array with the same bits.
        expected = grad.copy()
        grad *= 0.5
        loss2, grad2 = loss_and_gradient(values, spec, x, y)
        assert loss2 == loss and grad2.tobytes() == expected.tobytes()
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
        out = sgd_train(params, spec, data, TrainConfig(learning_rate=0.0), 3)
        assert np.array_equal(out.values, params.values)

    def test_full_batch_single_epoch_matches_gradient_step(self):
        data = self._blobs(2)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 2)
        lr = 0.2
        config = TrainConfig(learning_rate=lr, batch_size=len(data), local_epochs=1)
        out = sgd_train(params, spec, data, config, 9)
        _, grad = loss_and_gradient(params.values, spec, data.features, data.labels)
        expected = params.values - lr * grad
        assert np.array_equal(out.values, expected)

    def test_full_batch_result_independent_of_shuffle_seed(self):
        data = self._blobs(3)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 3)
        outs = [
            sgd_train(
                params, spec, data,
                TrainConfig(learning_rate=0.1, batch_size=len(data), local_epochs=3), s,
            )
            for s in (0, 1, 99)
        ]
        assert np.array_equal(outs[0].values, outs[1].values)
        assert np.array_equal(outs[0].values, outs[2].values)

    def test_deterministic_in_all_arguments(self):
        data = self._blobs(4)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 4)
        config = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=2)
        a = sgd_train(params, spec, data, config, 5)
        b = sgd_train(params, spec, data, config, 5)
        assert np.array_equal(a.values, b.values)
        c = sgd_train(params, spec, data, config, 6)
        assert not np.array_equal(a.values, c.values)

    def test_descent_on_separable_two_class_blobs(self):
        data = generate_blobs(25, 2, 5, 0.1, 11)
        spec = ModelSpec(input_dim=5, num_classes=2)
        params = init_params(spec, 11)
        loss_init, _ = loss_and_gradient(params.values, spec, data.features, data.labels)
        config = TrainConfig(learning_rate=0.1, batch_size=16, local_epochs=50)
        trained = sgd_train(params, spec, data, config, 1)
        loss_final, _ = loss_and_gradient(trained.values, spec, data.features, data.labels)
        assert loss_final < loss_init

    def test_convex_full_batch_descent_is_monotone(self):
        data = self._blobs(5)
        spec = ModelSpec(input_dim=4, num_classes=3)
        params = init_params(spec, 5)
        config = TrainConfig(learning_rate=0.02, batch_size=len(data), local_epochs=1)
        losses = [loss_and_gradient(params.values, spec, data.features, data.labels)[0]]
        for _ in range(30):
            params = sgd_train(params, spec, data, config, 0)
            losses.append(loss_and_gradient(params.values, spec, data.features, data.labels)[0])
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-10)

    def test_empty_dataset_rejected(self):
        spec = ModelSpec(input_dim=4, num_classes=3)
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), ("a", "b", "c"))
        with pytest.raises(ValueError):
            sgd_train(init_params(spec, 0), spec, empty, TrainConfig(), 0)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_is_named(self, seed):
        spec = ModelSpec(input_dim=4, num_classes=3)
        with pytest.raises(ValueError, match=seed_message(seed)):
            sgd_train(init_params(spec, 0), spec, self._blobs(), TrainConfig(), seed)

    @pytest.mark.parametrize("activation, learning_rate", [("relu", 1e300), ("tanh", 1e308)])
    def test_diverging_run_raises_numeric_error(self, activation, learning_rate):
        # The weights overflow early and stay non-finite for the rest of
        # training, so the run fails with the same error whether finiteness is
        # checked after every step or once on the result.  No errstate here:
        # under the suite's warnings-as-errors, numpy's overflow warning would
        # surface instead if training let it out.
        data = self._blobs(6)
        spec = ModelSpec(input_dim=4, hidden_dims=(5,), activation=activation, num_classes=3)
        config = TrainConfig(learning_rate=learning_rate, batch_size=8, local_epochs=3)
        with pytest.raises(NumericError, match="^parameter vector contains non-finite entries$"):
            sgd_train(init_params(spec, 6), spec, data, config, 0)


class TestEvaluate:
    def test_zero_params_balanced_classes_tie_break(self):
        spec = ModelSpec(input_dim=3, num_classes=4)
        params = init_params(spec, 0).with_values(np.zeros(spec.num_params))
        rng = np.random.default_rng(12)
        features = rng.normal(size=(20, 3))
        labels = np.tile(np.arange(4), 5)
        data = dataset_from(features, labels, 4)
        metrics = evaluate(params, spec, data)
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
        metrics = evaluate(params, spec, dataset_from(features, labels, 4))
        assert metrics["accuracy"] == 1.0

    def test_accuracy_in_unit_interval(self):
        rng = np.random.default_rng(13)
        spec = ModelSpec(input_dim=5, hidden_dims=(4,), num_classes=3)
        for seed in range(5):
            data = generate_blobs(10, 3, 5, 2.0, seed)
            metrics = evaluate(init_params(spec, seed), spec, data)
            assert 0.0 <= metrics["accuracy"] <= 1.0
            assert metrics["loss"] >= 0.0

    def test_empty_dataset_rejected(self):
        spec = ModelSpec(input_dim=2, num_classes=2)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ("a", "b"))
        with pytest.raises(ValueError):
            evaluate(init_params(spec, 0), spec, empty)

    def test_more_classes_than_the_model_rejected(self):
        # Every label fits a 2-class model, but the dataset names 3 classes.
        spec = ModelSpec(input_dim=2, num_classes=2)
        data = Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "b", "c"))
        with pytest.raises(ValueError, match="dataset has 3 classes, model has 2"):
            evaluate(init_params(spec, 0), spec, data)

    def test_fewer_classes_than_the_model_accepted(self):
        # Zero features and zero biases tie every logit, so class 0 wins.
        spec = ModelSpec(input_dim=2, num_classes=3)
        data = Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "b"))
        assert evaluate(init_params(spec, 0), spec, data)["accuracy"] == 0.5


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
        trained = sgd_train(params, spec, data, config, seed)
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
        assert trained.values.tobytes() == expected.tobytes()

        # One cross-entropy: evaluation and training report the same loss.
        loss, _ = loss_and_gradient(trained.values, spec, data.features, data.labels)
        assert evaluate(trained, spec, data)["loss"] == loss


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

        metrics = evaluate(params, spec, dataset_from(x, y, spec.num_classes))
        expected = oracles.evaluate(values, dims, activation, x, y)
        assert type(metrics["accuracy"]) is float
        assert repr(metrics["accuracy"]) == repr(expected["accuracy"])
        assert metrics["loss"] == expected["loss"]

        # The in-place forward pass never writes into the caller's features.
        assert x.tobytes() == x_before.tobytes()
