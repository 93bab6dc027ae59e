"""Per-layer tracing of one ``compare`` from outside ``src/fedsim``.

Each hook replaces a public fedsim function at the place its caller looks
the name up (``fedsim.orchestrator.sgd_train``, not ``fedsim.models``), so
the hooks see exactly the calls fedsim makes.  A hooked call records a span
(name, parent, start, end, attributes) in memory; two hot constructors are
only counted.  :func:`layer_metrics` turns one traced compare's spans into
the per-layer metrics, and :func:`solver_sweep` times the fedavgopt solve on
synthetic client updates over a grid of client counts and parameter counts.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter, defaultdict

from workloads import ALL_STRATEGIES

# (owner, attribute, span name); the owner is a module or "module:Class".
SPAN_HOOKS = (
    ("fedsim.cli", "parse_config", "cli.parse_config"),
    ("fedsim.cli", "load_csv", "data.load_csv"),
    ("fedsim.cli", "generate_blobs", "data.generate_blobs"),
    ("fedsim.cli", "make_client_shards", "data.make_client_shards"),
    ("fedsim.cli", "write_history_csv", "cli.write_outputs"),
    ("fedsim.cli", "write_summary", "cli.write_outputs"),
    ("fedsim.cli", "emit_plot_data", "cli.write_outputs"),
    ("fedsim.orchestrator", "run_federation", "orchestrator.run_federation"),
    ("fedsim.orchestrator", "sgd_train", "models.sgd_train"),
    ("fedsim.orchestrator", "evaluate", "models.evaluate"),
    ("fedsim.models", "loss_and_gradient", "models.loss_and_gradient"),
    ("fedsim.strategies:Aggregator", "aggregate", "strategies.aggregate"),
    ("fedsim.strategies", "aggregate_fedavgopt", "strategies.aggregate_fedavgopt"),
    ("fedsim.strategies", "objective_f", "strategies.objective_f"),
    ("fedsim.strategies", "minimize", "nelder_mead.minimize"),
)
# Hot enough that a span each would dominate the trace: count calls only.
COUNT_HOOKS = (
    ("fedsim.strategies", "linear_combination", "params.linear_combination"),
    ("fedsim.params:ParamVector", "__post_init__", "params.vectors_built"),
)

SWEEP_CLIENTS = (4, 8, 16, 32)
# P=84: logistic on 20-dim, 4 classes.  P=3524: MLP [64] on 50-dim, 4 classes.
SWEEP_MODELS = {84: (20, ()), 3524: (50, (64,))}


class HookError(RuntimeError):
    """A hook target is missing or a hook did not fire where it must."""


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Spans and counts of traced calls, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [trace, id, parent, name, start_ns, end_ns, attrs]
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._stack: list[int] = []
        self._trained: dict[int, object] = {}

    def _attrs(self, name: str, args: tuple, result) -> dict | None:
        if name == "orchestrator.run_federation":
            return {"strategy": args[0].strategy}
        if name == "strategies.aggregate":
            return {"strategy": args[0].strategy}
        if name == "models.sgd_train":
            self._trained[id(result)] = result
            return None
        if name == "models.evaluate":
            # Local evaluation scores a model sgd_train just returned; global
            # evaluation scores the aggregate.
            return {"kind": "local" if id(args[0]) in self._trained else "global"}
        if name == "nelder_mead.minimize":
            return {"iterations": result.iterations, "converged": result.converged}
        if name == "strategies.aggregate_fedavgopt":
            solution = result[1]
            return {"f_ratio": solution.objective_at_alpha / solution.objective_at_ones}
        return None

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if name == "orchestrator.run_federation":
                self._trained.clear()
            index = len(spans)
            entry = [self.trace_id, index, stack[-1] if stack else -1, name, 0, 0, None]
            spans.append(entry)
            stack.append(index)
            entry[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[5] = clock()
                stack.pop()
            entry[6] = self._attrs(name, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.trace_id, name)] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        patches = []
        try:
            for hooks, make in ((SPAN_HOOKS, self.span), (COUNT_HOOKS, self.counter)):
                for owner, attribute, name in hooks:
                    target = _resolve(owner)
                    if attribute not in vars(target):
                        raise HookError(f"hook target {owner}.{attribute} does not exist")
                    original = vars(target)[attribute]
                    patches.append((target, attribute, original))
                    setattr(target, attribute, make(name, original))
            yield self
        finally:
            for target, attribute, original in reversed(patches):
                setattr(target, attribute, original)
            self._trained.clear()

    def span_records(self):
        """Every span as a JSON-ready dict, in start order."""
        for trace, index, parent, name, start, end, attrs in self.spans:
            record = {"trace": trace, "id": index, "parent": parent, "name": name,
                      "start_ns": start, "dur_ns": end - start}
            if attrs:
                record["attrs"] = attrs
            yield record


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, trace_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced compare (``trace_id``).

    Durations are summed over calls unless the name says per call (``us``,
    ``aggregate_ms``, ``federation_s``).  Self time is a span's duration
    minus the time its direct child spans cover.
    """
    spans = [s for s in tracer.spans if s[0] == trace_id]
    child_ns: Counter = Counter()
    for _, _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)

    def durations(name, keep=lambda attrs: True):
        return [(s[5] - s[4]) / 1e6 for s in by_name[name] if keep(s[6] or {})]

    def self_ms(name):
        return sum((s[5] - s[4] - child_ns[s[1]]) / 1e6 for s in by_name[name])

    minimize_ids = {s[1] for s in by_name["nelder_mead.minimize"]}
    solver_evals = sum(1 for s in by_name["strategies.objective_f"] if s[2] in minimize_ids)
    iterations = [s[6]["iterations"] for s in by_name["nelder_mead.minimize"]]
    converged = [s[6]["converged"] for s in by_name["nelder_mead.minimize"]]
    local = durations("models.evaluate", lambda a: a["kind"] == "local")
    global_ = durations("models.evaluate", lambda a: a["kind"] == "global")
    steps = durations("models.loss_and_gradient")
    objective = durations("strategies.objective_f")

    metrics = {
        "models.steps": len(steps),
        "models.step_us": _mean(steps) * 1e3,
        "models.sgd_train.calls": len(by_name["models.sgd_train"]),
        "models.sgd_train.ms": sum(durations("models.sgd_train")),
        "models.sgd_train.self_ms": self_ms("models.sgd_train"),
        "models.evaluate_local.calls": len(local),
        "models.evaluate_local.ms": sum(local),
        "models.evaluate_global.calls": len(global_),
        "models.evaluate_global.ms": sum(global_),
        "params.vectors_built": tracer.counts[(trace_id, "params.vectors_built")],
        "params.linear_combination.calls": tracer.counts[(trace_id, "params.linear_combination")],
        "strategies.objective_f.calls": len(objective),
        "strategies.objective_f.us": _mean(objective) * 1e3,
        "nelder_mead.minimize.calls": len(iterations),
        "nelder_mead.minimize.ms": sum(durations("nelder_mead.minimize")),
        "nelder_mead.minimize.self_ms": self_ms("nelder_mead.minimize"),
        "nelder_mead.iterations": _mean(iterations),
        "nelder_mead.evals_per_iteration": solver_evals / sum(iterations) if sum(iterations) else 0.0,
        "nelder_mead.converged_ratio": _mean([float(c) for c in converged]),
        "nelder_mead.f_ratio": _mean(
            [s[6]["f_ratio"] for s in by_name["strategies.aggregate_fedavgopt"]]
        ),
        "orchestrator.run_federation.calls": len(by_name["orchestrator.run_federation"]),
        "orchestrator.self_ms": self_ms("orchestrator.run_federation"),
        "data.load_csv.ms": sum(durations("data.load_csv")),
        "data.generate_blobs.ms": sum(durations("data.generate_blobs")),
        "data.make_client_shards.ms": sum(durations("data.make_client_shards")),
        "cli.parse_config.ms": sum(durations("cli.parse_config")),
        "cli.write_outputs.ms": sum(durations("cli.write_outputs")),
    }
    for strategy in ALL_STRATEGIES:
        mine = lambda a, strategy=strategy: a["strategy"] == strategy
        metrics[f"strategies.aggregate_ms.{strategy}"] = _mean(durations("strategies.aggregate", mine))
        metrics[f"orchestrator.federation_s.{strategy}"] = (
            _mean(durations("orchestrator.run_federation", mine)) / 1e3
        )
    return metrics


def check_fired(metrics: dict[str, float], expects_solver: bool, uses_csv: bool) -> None:
    """Raise :class:`HookError` unless every hook fired where the workload
    needs it, and stayed silent where the workload bypasses its layer."""
    required = [
        "cli.parse_config.ms", "cli.write_outputs.ms", "data.make_client_shards.ms",
        "models.steps", "models.sgd_train.calls", "models.evaluate_local.calls",
        "models.evaluate_global.calls", "params.vectors_built",
        "params.linear_combination.calls", "orchestrator.run_federation.calls",
        "strategies.aggregate_ms.fedavg",
    ]
    solver = ["nelder_mead.minimize.calls", "strategies.objective_f.calls",
              "strategies.aggregate_ms.fedavgopt"]
    silent = []
    if expects_solver:
        required += solver
    else:
        silent += solver
    csv, blobs = "data.load_csv.ms", "data.generate_blobs.ms"
    required.append(csv if uses_csv else blobs)
    silent.append(blobs if uses_csv else csv)
    problems = [f"{name} is 0; its hook never fired" for name in required if not metrics[name] > 0]
    problems += [f"{name} is {metrics[name]}; expected 0" for name in silent if metrics[name] != 0]
    if problems:
        raise HookError("tracer self-check failed: " + "; ".join(problems))


def solver_sweep(seed: int, simplex=None) -> dict[str, float]:
    """Time one fedavgopt solve per (K, P) on perturbations of one shared
    vector; report the wall time and whether the solve converged."""
    import numpy as np
    from fedsim import ClientUpdate, ModelSpec, SimplexConfig, aggregate_fedavgopt, init_params

    simplex = simplex if simplex is not None else SimplexConfig()
    metrics: dict[str, float] = {}
    for size, (input_dim, hidden) in SWEEP_MODELS.items():
        spec = ModelSpec(input_dim=input_dim, hidden_dims=hidden, num_classes=4)
        base = init_params(spec, seed)
        if len(base) != size:
            raise ValueError(f"sweep model has {len(base)} parameters, expected {size}")
        for clients in SWEEP_CLIENTS:
            rng = np.random.default_rng([seed, clients, size])
            updates = [
                ClientUpdate(
                    client_id=f"client_{i}",
                    num_examples=int(rng.integers(50, 151)),
                    params=base.with_values(base.values + 0.05 * rng.normal(size=size)),
                )
                for i in range(clients)
            ]
            start = time.perf_counter()
            _, solution = aggregate_fedavgopt(updates, simplex)
            key = f"K{clients}_P{size}"
            metrics[f"nelder_mead.solve_ms.{key}"] = (time.perf_counter() - start) * 1e3
            metrics[f"nelder_mead.converged.{key}"] = float(solution.converged)
    return metrics
