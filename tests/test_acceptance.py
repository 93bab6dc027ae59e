"""Acceptance gate.

Seven end-to-end checks: the coefficient solver against a dense grid oracle,
reduction to the plain weighted mean, per-round descent of the coefficient
search, baseline equivalences against independent oracles, gradient
correctness, a six-strategy comparison on synthetic blobs, and byte-identical
reruns.  Each check prints one ``criterion N: PASS/FAIL`` line with capture
suspended so the verdicts stay visible in plain pytest output.
"""

import dataclasses
import time

import numpy as np
import pytest

from fedsim import (
    ClientUpdate,
    FedAvg,
    FedAvgM,
    FedAvgOpt,
    FederationConfig,
    FedMedian,
    FedOpt,
    FedYogi,
    ModelSpec,
    TrainConfig,
    aggregate_fedavg,
    aggregate_fedavgopt,
    evaluate,
    generate_blobs,
    init_params,
    make_client_shards,
    run_federation,
    sgd_train,
    stratified_train_test_split,
    weighted_accuracy,
)
from fedsim.cli import DatasetConfig, ExperimentConfig, run_comparison, run_experiment
from fedsim.models import loss_and_gradient
from fedsim.strategies import candidate_aggregate
from helpers import finite_difference_gradient, make_updates, random_vectors
import oracles

SERVER_OPTIMIZERS = ("sgd", "adagrad", "adam", "yogi")


@pytest.fixture
def check(capfd):
    """Verdict printer: one pass/fail line per criterion, then the assert."""

    def emit(criterion: int, condition: bool, detail: str) -> None:
        status = "PASS" if condition else "FAIL"
        with capfd.disabled():
            print(f"criterion {criterion}: {status} ({detail})", flush=True)
        assert condition, f"criterion {criterion}: {detail}"

    return emit


def _random_updates(rng, num_clients, size, max_count=100):
    vectors = random_vectors(rng, num_clients, size)
    counts = rng.integers(1, max_count + 1, size=num_clients)
    return [
        ClientUpdate(client_id=f"client_{i}", num_examples=int(n), params=v)
        for i, (v, n) in enumerate(zip(vectors, counts))
    ]


def test_criterion_1_solver_matches_grid_oracle(check):
    updates = make_updates([[1.0, 0.0], [0.0, 1.0]], [1, 1])
    params = [u.params for u in updates]
    counts = [u.num_examples for u in updates]

    # Independent oracle: with unit counts the candidate aggregate at
    # (x1, x2) is (x1/2, x2/2); evaluate the objective on a dense grid.
    step = 0.005
    grid = np.arange(0.0, 3.0 + step / 2, step)
    x1, x2 = np.meshgrid(grid, grid, indexing="ij")
    a, b = x1 / 2.0, x2 / 2.0
    eps = 1e-12
    f = np.hypot(a - 1.0, b) / np.maximum(np.hypot(a + 1.0, b), eps)
    f += np.hypot(a, b - 1.0) / np.maximum(np.hypot(a, b + 1.0), eps)
    for i, j in ((200, 200), (100, 400), (400, 50)):
        from_oracle = oracles.objective_f([grid[i], grid[j]], params, counts)
        assert f[i, j] == pytest.approx(from_oracle, rel=1e-12)
    f_grid = float(f.min())

    start = time.perf_counter()
    _, solution = aggregate_fedavgopt(updates)
    elapsed = time.perf_counter() - start
    f_star = solution.objective_at_alpha

    check(
        1,
        f_star <= f_grid + 1e-3
        and abs(f_star - 0.82843) <= 1e-3
        and elapsed < 1.0,
        f"f*={f_star:.6f}, grid min={f_grid:.6f}, solved in {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_all_ones_coefficients_reproduce_weighted_mean(check):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        num_clients = int(rng.integers(1, 6))
        size = int(rng.integers(1, 1001))
        updates = _random_updates(rng, num_clients, size, max_count=500)
        params = [u.params for u in updates]
        counts = [u.num_examples for u in updates]
        forced = candidate_aggregate(params, counts, np.ones(num_clients))
        plain = aggregate_fedavg(updates)
        worst = max(worst, float(np.max(np.abs(forced - plain))))
    elapsed = time.perf_counter() - start
    check(
        2,
        worst <= 1e-12 and elapsed < 5.0,
        f"max |difference| = {worst:.2e} over 100 instances in {elapsed:.2f} s",
    )


def test_criterion_3_descent_holds_every_round(check):
    data = generate_blobs(100, 4, 10, 1.8, 0)
    shards = make_client_shards(data, 4, 0.2, 0)
    config = FederationConfig(
        model=ModelSpec(input_dim=10, num_classes=4),
        train=TrainConfig(learning_rate=0.1, batch_size=32, local_epochs=1),
        rules=(FedAvgOpt(),),
        rounds=10,
        seed=0,
    )
    start = time.perf_counter()
    (run,) = run_federation(config, shards)
    reports = run.reports
    elapsed = time.perf_counter() - start
    descents = [
        report.alpha.objective_at_alpha <= report.alpha.objective_at_ones
        for report in reports
    ]
    check(
        3,
        len(reports) == 10 and all(descents) and elapsed < 60.0,
        f"objective_at_alpha <= objective_at_ones in {sum(descents)}/10 rounds, "
        f"{elapsed:.1f} s",
    )


def test_criterion_4_baseline_equivalences(check):
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst_momentum = 0.0
    median_exact = True
    fixed_point_exact = True
    for _ in range(200):
        num_clients = int(rng.integers(2, 7))
        size = int(rng.integers(5, 51))
        updates = _random_updates(rng, num_clients, size)
        prev = random_vectors(rng, 1, size)[0]

        # Momentum with beta=0 and a unit server step is the weighted mean.
        momentum_out, _ = FedAvgM(server_lr=1.0, momentum_beta=0.0).step(updates, prev, None)
        plain = aggregate_fedavg(updates)
        worst_momentum = max(
            worst_momentum, float(np.max(np.abs(momentum_out - plain)))
        )

        # Full-step median equals an independent sort-based oracle, exactly.
        median_out, _ = FedMedian(server_lr=1.0).step(updates, prev, None)
        stacked = np.sort(np.stack([u.params.values for u in updates]), axis=0)
        k = num_clients
        if k % 2 == 1:
            oracle = stacked[k // 2]
        else:
            oracle = (stacked[k // 2 - 1] + stacked[k // 2]) / 2.0
        median_exact = median_exact and np.array_equal(median_out, oracle)

        # Zero client delta with zero moments leaves the global untouched.
        # Client counts stay at 1, 2, or 4 equal shares so the weighted mean
        # of identical vectors is bit-exact and the delta is exactly zero.
        equal_clients = int(rng.choice([1, 2, 4]))
        frozen = [
            ClientUpdate(client_id=f"client_{i}", num_examples=7, params=prev)
            for i in range(equal_clients)
        ]
        for optimizer in SERVER_OPTIMIZERS:
            rule = FedOpt(
                server_lr=0.1,
                tau=1e-9,
                beta1=0.9,
                beta2=0.99,
                server_optimizer=optimizer,
            )
            out, _ = rule.step(frozen, prev, None)
            fixed_point_exact = fixed_point_exact and np.array_equal(
                out, prev.values
            )
    elapsed = time.perf_counter() - start
    check(
        4,
        worst_momentum <= 1e-12
        and median_exact
        and fixed_point_exact
        and elapsed < 10.0,
        f"momentum-vs-mean {worst_momentum:.2e}, median exact={median_exact}, "
        f"zero-delta fixed point={fixed_point_exact}, 200 trials in {elapsed:.2f} s",
    )


def test_criterion_5_gradients_match_finite_differences(check):
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        num_classes = int(rng.integers(2, 5))
        input_dim = int(rng.integers(2, 7))
        if i % 3 == 0:
            spec = ModelSpec(input_dim=input_dim, num_classes=num_classes)
        else:
            spec = ModelSpec(
                input_dim=input_dim,
                hidden_dims=(int(rng.integers(2, 6)),),
                activation="relu" if i % 3 == 1 else "tanh",
                num_classes=num_classes,
            )
        params = init_params(spec, i)
        params = params.with_values(
            params.values + 0.5 * rng.normal(size=spec.num_params)
        )
        features = rng.normal(size=(8, input_dim))
        labels = rng.integers(0, num_classes, size=8)
        _, grad = loss_and_gradient(params.values, spec, features, labels)
        numeric = finite_difference_gradient(params, spec, features, labels, h=1e-5)
        scale = max(1.0, float(np.max(np.abs(grad))))
        worst = max(worst, float(np.max(np.abs(grad - numeric))) / scale)
    elapsed = time.perf_counter() - start
    check(
        5,
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e} over 20 instances in {elapsed:.2f} s",
    )


@pytest.fixture(scope="module")
def blob_experiment():
    config = ExperimentConfig(
        dataset=DatasetConfig(
            kind="blobs", samples_per_class=500, num_classes=4, dim=20, spread=1.8
        ),
        rules=(FedAvg(), FedAvgM(), FedMedian(), FedOpt(), FedYogi(), FedAvgOpt()),
        seeds=(0, 1, 2, 3, 4),
        rounds=10,
        num_clients=4,
        train_fraction=0.2,
        train=TrainConfig(learning_rate=0.1, batch_size=32, local_epochs=1),
    )
    start = time.perf_counter()
    result = run_comparison(config)
    return config, result, time.perf_counter() - start


def _centralized_accuracy(config: ExperimentConfig) -> float:
    """Train one model per seed on a pooled split of the same data."""
    ds = config.dataset
    spec = ModelSpec(input_dim=ds.dim, num_classes=ds.num_classes)
    accuracies = []
    for seed in config.seeds:
        data = generate_blobs(
            ds.samples_per_class, ds.num_classes, ds.dim, ds.spread, seed
        )
        train, test = stratified_train_test_split(data, config.train_fraction, seed)
        (trained,) = sgd_train(
            [init_params(spec, seed)],
            spec,
            [train],
            TrainConfig(learning_rate=0.1, batch_size=32, local_epochs=60),
            [seed],
        )
        accuracies.append(evaluate([trained], spec, [test])[0]["accuracy"])
    return float(np.mean(accuracies))


def test_criterion_6_strategy_comparison_on_blobs(blob_experiment, check):
    config, result, elapsed = blob_experiment

    curves_complete = all(
        len(result.runs_for(s)) == len(config.seeds)
        and all(len(run.round_accuracies) == config.rounds for run in result.runs_for(s))
        for s in [rule.name for rule in config.rules]
    )

    in_range = True
    identity_ok = True
    for run in result.runs:
        for report in run.reports:
            in_range = in_range and 0.0 <= report.aggregated_accuracy <= 1.0
            recomputed = weighted_accuracy(
                [(m.num_test_examples, m.accuracy) for m in report.per_client]
            )
            identity_ok = identity_ok and (
                abs(report.aggregated_accuracy - recomputed) <= 1e-12
            )

    centralized = _centralized_accuracy(config)
    opt_mean = result.mean_accuracy("fedavgopt")
    avg_mean = result.mean_accuracy("fedavg")

    check(
        6,
        curves_complete
        and in_range
        and identity_ok
        and 0.8 <= centralized <= 0.9
        and opt_mean >= avg_mean - 0.02
        and elapsed < 300.0,
        f"fedavgopt {opt_mean:.4f} vs fedavg {avg_mean:.4f} "
        f"(diff {opt_mean - avg_mean:+.4f}), centralized {centralized:.3f}, "
        f"6 strategies x 5 seeds in {elapsed:.1f} s",
    )


def test_criterion_7_reruns_are_byte_identical(blob_experiment, tmp_path, check):
    config, _, _ = blob_experiment
    start = time.perf_counter()
    contents = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        run_experiment(dataclasses.replace(config, output_dir=str(out_dir)))
        contents.append(
            {
                path.relative_to(out_dir): path.read_bytes()
                for path in sorted(out_dir.rglob("*"))
                if path.is_file()
            }
        )
    elapsed = time.perf_counter() - start
    same_files = set(contents[0]) == set(contents[1])
    history_identical = contents[0][
        next(p for p in contents[0] if p.name == "history.csv")
    ] == contents[1][next(p for p in contents[1] if p.name == "history.csv")]
    all_identical = same_files and all(
        contents[0][path] == contents[1][path] for path in contents[0]
    )
    check(
        7,
        history_identical and all_identical and elapsed < 300.0,
        f"history.csv and all other outputs byte-identical across reruns, "
        f"{elapsed:.1f} s",
    )
