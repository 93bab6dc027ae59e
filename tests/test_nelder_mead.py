import dataclasses
import math

import numpy as np
import pytest

import oracles
from fedsim import NumericError, ParamVector, SimplexConfig, minimize
from fedsim.strategies import objective_f
from helpers import random_vectors


def quadratic(x):
    return float((x[0] - 2.0) ** 2)


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestSimplexConfig:
    def test_defaults(self):
        # minimize fixes every other setting at scipy's adaptive defaults.
        assert [f.name for f in dataclasses.fields(SimplexConfig)] == ["max_iterations"]
        assert SimplexConfig().max_iterations is None
        assert SimplexConfig().resolved_max_iterations(3) == 600

    @pytest.mark.parametrize(
        "field",
        [
            "reflection", "expansion", "contraction", "shrink",
            "initial_step", "x_tolerance", "f_tolerance",
        ],
    )
    def test_removed_setting_is_a_type_error(self, field):
        with pytest.raises(TypeError, match=f"'{field}'"):
            SimplexConfig(**{field: 0.5})

    def test_explicit_max_iterations_wins(self):
        assert SimplexConfig(max_iterations=42).resolved_max_iterations(10) == 42

    @pytest.mark.parametrize("kwargs", [{"max_iterations": 0}])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimplexConfig(**kwargs)


class TestMinimize:
    def test_scalar_quadratic(self):
        result = minimize(quadratic, [1.0])
        assert result.converged
        assert abs(result.x_star[0] - 2.0) < 1e-3

    def test_constant_objective_converges_immediately_in_f(self):
        result = minimize(lambda x: 7.0, [1.0, 1.0])
        assert result.converged
        assert result.f_star == 7.0
        # best vertex never left the initial simplex
        assert np.all(result.x_star >= 1.0) and np.all(result.x_star <= 1.05)

    def test_rosenbrock_from_origin(self):
        result = minimize(rosenbrock, [0.0, 0.0])
        assert result.converged
        assert np.all(np.abs(result.x_star - 1.0) < 1e-2)

    def test_f_star_is_objective_at_x_star(self):
        result = minimize(rosenbrock, [0.0, 0.0])
        assert result.f_star == rosenbrock(result.x_star)

    def test_descent_from_start(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(1, 5))
            center = rng.normal(size=dim)
            scales = rng.uniform(0.5, 3.0, size=dim)

            def f(x, c=center, s=scales):
                return float(np.sum(s * (x - c) ** 2))

            x0 = rng.normal(size=dim) * 2
            result = minimize(f, x0)
            assert result.f_star <= f(x0)

    def test_deterministic(self):
        a = minimize(rosenbrock, [-1.2, 1.0])
        b = minimize(rosenbrock, [-1.2, 1.0])
        assert np.array_equal(a.x_star, b.x_star)
        assert a.f_star == b.f_star
        assert a.iterations == b.iterations
        assert a.converged == b.converged

    def test_convex_quadratic_hits_minimizer(self):
        # axis-aligned strictly convex quadratics in 1..4 dims
        rng = np.random.default_rng(23)
        for dim in (1, 2, 3, 4):
            target = rng.uniform(-1, 1, size=dim)
            scales = rng.uniform(0.5, 3.0, size=dim)

            def f(x, c=target, s=scales):
                return float(np.sum(s * (x - c) ** 2))

            result = minimize(f, np.zeros(dim))
            assert result.converged
            assert np.max(np.abs(result.x_star - target)) < 10 * 1e-4

    def test_best_value_monotone_in_iteration_budget(self):
        budgets = range(1, 40)
        values = [
            minimize(rosenbrock, [-1.2, 1.0], SimplexConfig(max_iterations=k)).f_star
            for k in budgets
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_non_finite_at_start_raises(self):
        with pytest.raises(NumericError):
            minimize(lambda x: float("nan"), [1.0])

    def test_mid_run_nan_treated_as_rejected_vertex(self):
        def partial(x):
            if x[0] > 3.0:
                return float("nan")
            return quadratic(x)

        result = minimize(partial, [1.0])
        assert result.converged
        assert abs(result.x_star[0] - 2.0) < 1e-3

    def test_budget_exhaustion_reports_not_converged(self):
        result = minimize(rosenbrock, [-1.2, 1.0], SimplexConfig(max_iterations=3))
        assert not result.converged
        assert result.iterations == 3

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            minimize(quadratic, [])

    def test_x_star_read_only(self):
        result = minimize(quadratic, [1.0])
        with pytest.raises(ValueError):
            result.x_star[0] = 0.0

    def test_inf_at_start_raises(self):
        with pytest.raises(NumericError):
            minimize(lambda x: math.inf, [0.0, 0.0])


def rosenbrock_nd(x):
    """Chained Rosenbrock, with a (1 - x_n)^2 term so dimension 1 is valid."""
    return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2) + (1 - x[-1]) ** 2)


def assert_same_result(new, old):
    assert new.x_star.tobytes() == old.x_star.tobytes()
    assert new.f_star == old.f_star
    assert new.iterations == old.iterations
    assert new.converged == old.converged


class TestMatchesListOracle:
    """The array-backed simplex reproduces the list-based one bit for bit."""

    @pytest.mark.parametrize("dim", range(1, 33))
    def test_quadratic_rosenbrock_and_plateaus(self, dim):
        rng = np.random.default_rng(dim)
        center = rng.uniform(-1, 1, size=dim)
        scales = rng.uniform(0.5, 3.0, size=dim)

        def quadratic_nd(x):
            return float(np.sum(scales * (x - center) ** 2))

        def staircase(x):
            # Plateaus make contractions fail, so shrink steps and
            # creation-order tie-breaks both run.
            return float(np.sum(np.floor(8 * np.abs(x - center))))

        def walled(x):
            # The minimum at all-ones lies past a wall that the search
            # reaches mid-run, where the objective is infinite.
            return math.inf if x[0] > 0.3 else float(np.sum(scales * (x - 1.0) ** 2))

        config = SimplexConfig(max_iterations=100)
        for objective, x0 in (
            (quadratic_nd, np.zeros(dim)),
            (rosenbrock_nd, np.full(dim, -1.0)),
            (staircase, np.zeros(dim)),
            (walled, np.zeros(dim)),
        ):
            assert_same_result(
                minimize(objective, x0, config), oracles.minimize(objective, x0, config)
            )

    def test_sixteen_client_fedavgopt_objective(self):
        rng = np.random.default_rng(16)
        base = rng.normal(size=200)
        params = [v.with_values(base + 0.1 * v.values) for v in random_vectors(rng, 16, 200)]
        objective = objective_f(params, rng.integers(1, 100, size=16))
        x0 = np.ones(16)
        result = minimize(objective, x0)
        assert result.converged
        assert_same_result(result, oracles.minimize(objective, x0))

    def test_thirty_two_client_fedavgopt_objective_to_the_cap(self):
        rng = np.random.default_rng(32)
        base = rng.normal(size=84)
        params = [v.with_values(base + 0.05 * v.values) for v in random_vectors(rng, 32, 84)]
        objective = objective_f(params, rng.integers(50, 151, size=32))
        x0 = np.ones(32)
        result = minimize(objective, x0)
        assert (result.iterations, result.converged) == (6400, False)
        assert_same_result(result, oracles.minimize(objective, x0))


def client_objective(clients: int, seed: int, size: int = 84):
    """The fedavgopt objective of ``clients`` perturbations of one vector."""
    rng = np.random.default_rng([clients, seed])
    base = rng.normal(size=size)
    params = [ParamVector(base + 0.1 * rng.normal(size=size)) for _ in range(clients)]
    return objective_f(params, rng.integers(50, 151, size=clients))


class TestAdaptiveDefault:
    def test_one_dimension_shrink_collapses_onto_the_best_vertex(self):
        # shrink resolves to 0 at n = 1: on a plateau the first failed
        # contraction shrinks both vertices onto the best one, the start.
        def plateau(x):
            return float(np.floor(8 * abs(x[0] - 0.3)))

        result = minimize(plateau, [0.0])
        assert (result.iterations, result.converged, result.x_star.tolist()) == (1, True, [0.0])
        assert_same_result(result, oracles.minimize(plateau, [0.0]))

    def test_one_client_fedavgopt_objective_converges(self):
        objective = client_objective(1, 0)
        result = minimize(objective, np.ones(1))
        assert result.converged
        assert result.f_star <= objective(np.ones(1))

    # The coefficients depend on the dimension, so every client count is pinned.
    @pytest.mark.parametrize("clients", range(1, 17))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_adaptive(self, clients, seed):
        # scipy's own defaults, so moving any fixed setting of minimize fails here.
        optimize = pytest.importorskip("scipy.optimize")
        objective = client_objective(clients, seed)
        x0 = np.ones(clients)
        ours = minimize(objective, x0)
        theirs = optimize.minimize(objective, x0, method="Nelder-Mead", options={"adaptive": True})
        # scipy counts the iteration that finds the simplex converged.
        assert ours.iterations + 1 == theirs.nit
        assert ours.converged == theirs.success
        assert np.max(np.abs(ours.x_star - theirs.x)) <= 1e-12

    @pytest.mark.parametrize("dim", range(1, 33))
    @pytest.mark.parametrize("coupled", [False, True], ids=["diagonal", "coupled"])
    def test_quadratic_matches_scipy_adaptive(self, dim, coupled):
        # scipy's default also stops after 200 n objective evaluations, which
        # the quadratics at n = 29 and n = 31 reach before they converge;
        # minimize caps iterations only, so that one limit is lifted.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(dim)
        center = rng.uniform(-1, 1, size=dim)
        if coupled:
            m = rng.normal(size=(dim, dim))
            hessian = m @ m.T / dim + np.eye(dim)
        else:
            hessian = np.diag(rng.uniform(0.5, 3.0, size=dim))

        def objective(x):
            return float((x - center) @ hessian @ (x - center))

        x0 = np.ones(dim)
        ours = minimize(objective, x0)
        theirs = optimize.minimize(
            objective, x0, method="Nelder-Mead", options={"adaptive": True, "maxfev": math.inf}
        )
        assert ours.converged and theirs.success
        assert ours.iterations + 1 == theirs.nit
        assert np.max(np.abs(ours.x_star - theirs.x)) <= 1e-10
