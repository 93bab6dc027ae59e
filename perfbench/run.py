"""fedsim benchmark: whole ``fedsim compare`` invocations on generated inputs.

    python3 perfbench/run.py --workload blobs-compare --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; fedsim is imported from ``src/``.
Load model: closed loop, one caller; one ``compare`` runs at a time, with
the BLAS thread pools pinned to one thread.

``--trace 0`` reports the end-to-end metrics.  Every timed ``compare`` runs
in a fresh process of its own, preceded by a fresh set-up process, repeated
until ``--seconds`` have passed (at least three times); each repeat passes
through the correctness gate.
``--trace 1`` runs the compare in this process with the per-layer hooks of
``tracing.py`` installed, alternating with untraced runs so the tracing
overhead can be reported, and then runs the solver scaling sweep.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with the run
environment, every sample, and (traced) the spans goes under
``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child process.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

MIN_REPEATS = 3
PROCESS_TIMEOUT_S = 170


class Gate:
    """Correctness checks on one workload's repeats.

    A repeat fails when the compare exits non-zero, ``history.csv`` has the
    wrong row count, an accuracy leaves [0, 1], an aggregated accuracy is
    not the test-count weighted mean of its clients' accuracies, a
    ``summary.txt`` mean disagrees with ``history.csv``, or any output file
    differs from the first repeat's.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.reference: dict[str, str] | None = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, exit_code, output_dir: Path) -> bool:
        """Gate one repeat; a failing repeat is counted, never dropped."""
        self.attempted += 1
        problems = self._problems(exit_code, output_dir)
        self.failed += bool(problems)
        self.failures += [f"repeat {self.attempted}: {problem}" for problem in problems]
        return not problems

    def _problems(self, exit_code, output_dir: Path) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            rows = _read_history(output_dir / "history.csv")
            reported = summary_means(output_dir / "summary.txt")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = []
        expected = self.workload.history_rows()
        if len(rows) != expected:
            problems.append(f"history.csv has {len(rows)} rows, expected {expected}")
        problems += _accuracy_problems(rows, reported)
        digest = _digest(output_dir)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            changed = sorted(k for k in digest.keys() | self.reference.keys()
                             if digest.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from the first repeat: {changed}")
        return problems


def _read_history(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for key in ("aggregated_accuracy", "client_accuracy"):
            row[key] = float(row[key])
        row["client_test_count"] = int(row["client_test_count"])
    return rows


def summary_means(path: Path) -> dict[str, float]:
    """Strategy -> across-seed ``mean`` column of ``summary.txt``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    table = lines[lines.index("") + 2:]
    return {line.split()[0]: float(line.split()[-1]) for line in table if line.strip()}


def _accuracy_problems(rows: list[dict], reported: dict[str, float]) -> list[str]:
    problems = []
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for row in rows:
        for key in ("aggregated_accuracy", "client_accuracy"):
            if not 0.0 <= row[key] <= 1.0:
                problems.append(f"{key} {row[key]} outside [0, 1]")
        groups[(row["strategy"], row["seed"], int(row["round"]))].append(row)
    per_run: dict[tuple, list[float]] = defaultdict(list)
    for (strategy, seed, _), members in groups.items():
        aggregated = members[0]["aggregated_accuracy"]
        weighted = sum(m["client_test_count"] * m["client_accuracy"] for m in members)
        total = sum(m["client_test_count"] for m in members)
        if abs(weighted / total - aggregated) > 1e-12:
            problems.append(f"{strategy} seed {seed}: aggregated accuracy is not the weighted mean")
        per_run[(strategy, seed)].append(aggregated)
    by_strategy: dict[str, list[float]] = defaultdict(list)
    for (strategy, _), accuracies in per_run.items():
        by_strategy[strategy].append(sum(accuracies) / len(accuracies))
    if set(reported) != set(by_strategy):
        problems.append(f"summary.txt strategies {sorted(reported)} != {sorted(by_strategy)}")
    for strategy, means in by_strategy.items():
        expected = sum(means) / len(means)
        if strategy in reported and abs(reported[strategy] - expected) > 1e-6:
            problems.append(f"summary.txt mean for {strategy} is {reported[strategy]}, history gives {expected}")
    return problems


def _digest(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def mean_accuracy(output_dir: Path) -> float:
    """Mean over strategies of the across-seed ``mean`` column."""
    return statistics.fmean(summary_means(output_dir / "summary.txt").values())


def child_env() -> dict[str, str]:
    env = dict(os.environ)  # carries THREAD_PINS, set at import
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(*args: str) -> tuple[int, dict]:
    """Run ``worker.py`` in a fresh process; (exit code, its JSON result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode, {}
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_run(workload, config_path: Path, work: Path, seconds: float) -> tuple[Gate, dict, dict]:
    """Alternate a set-up process and a compare process until ``seconds``
    have passed (at least MIN_REPEATS times), so both metrics sample the
    same stretch of time.  One untimed set-up process first writes the
    bytecode caches."""
    def setup_s() -> float:
        code, result = run_worker("setup", str(config_path))
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        return result["setup_s"]

    gate = Gate(workload)
    samples: dict[str, list[float]] = defaultdict(list)
    accuracy = None
    setup_s()
    deadline = time.perf_counter() + seconds
    while gate.attempted < MIN_REPEATS or time.perf_counter() < deadline:
        samples["setup_s"].append(setup_s())
        output_dir = work / f"compare{gate.attempted}"
        code, result = run_worker("compare", str(config_path), str(output_dir))
        if code == 0:
            code = result["exit_code"]
            samples["compare_s"].append(result["compare_s"])
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
        gate.check(code, output_dir)
        if accuracy is None and code == 0:
            # Read even from a repeat the gate failed; ``correct`` reports that.
            with contextlib.suppress(OSError, ValueError, IndexError):
                accuracy = mean_accuracy(output_dir)
        shutil.rmtree(output_dir, ignore_errors=True)
    if not samples["compare_s"] or accuracy is None:
        raise RuntimeError("no compare repeat produced a result: " + "; ".join(gate.failures))
    metrics = {
        "compare_s": (statistics.median(samples["compare_s"]), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        "mean_accuracy": (accuracy, "fraction"),
    }
    return gate, metrics, samples


def traced_run(workload, config_path: Path, work: Path, seconds: float, seed: int,
               sweep_simplex=None) -> tuple[Gate, dict, dict, object]:
    """Alternate an untraced and a traced in-process compare until
    ``seconds`` have passed (at least one pair), then run the solver sweep.
    Per-layer values are medians over the traced repeats."""
    import tracing
    from fedsim import cli

    def compare(output_dir: Path, *extra: str) -> tuple[int, float]:
        argv = ["compare", str(config_path), "--output-dir", str(output_dir), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - start

    # Untimed one-round warm-up: first calls into numpy set up lazily.
    compare(work / "warmup", "--rounds", "1")
    tracer = tracing.Tracer()
    gate = Gate(workload)
    samples: dict[str, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while gate.attempted == 0 or time.perf_counter() < deadline:
        for traced in (False, True):
            output_dir = work / f"compare{gate.attempted}"
            tracer.trace_id = gate.attempted
            with tracer.installed() if traced else contextlib.nullcontext():
                code, elapsed = compare(output_dir)
            gate.check(code, output_dir)
            if traced:
                samples["trace.compare_s"].append(elapsed)
                for name, value in tracing.layer_metrics(tracer, tracer.trace_id).items():
                    samples[name].append(value)
                samples["cli.output_bytes"].append(
                    sum(p.stat().st_size for p in output_dir.rglob("*") if p.is_file())
                )
            else:
                samples["compare_s"].append(elapsed)
            shutil.rmtree(output_dir, ignore_errors=True)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    tracing.check_fired(metrics, workload.expects_solver, workload.uses_csv)
    metrics["trace.overhead_ratio"] = metrics["trace.compare_s"] / metrics.pop("compare_s")
    metrics.update(tracing.solver_sweep(seed, sweep_simplex))
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    return gate, {name: (value, declared[name]) for name, value in metrics.items()}, samples, tracer


def run_record(workload_name: str, seed: int, trace: bool) -> dict:
    """Where and on what a result was measured."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "fedsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload_name,
        "workload_seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, sweep_simplex=None):
    """Generate the inputs and run one measurement; returns
    (gate, {name: (value, unit)}, raw samples, tracer or None)."""
    from workloads import write_inputs

    config_path = write_inputs(workload, seed, work / "inputs")
    if trace:
        return traced_run(workload, config_path, work, seconds, seed, sweep_simplex)
    return (*untraced_run(workload, config_path, work, seconds), None)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fedsim" / "__init__.py").is_file():
        print(f"error: no fedsim source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        gate, metrics, samples, tracer = measure(
            workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"record": run_record(workload.name, args.seed, bool(args.trace)),
              "result": result, "samples": samples, "failures": gate.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.span_records():
                handle.write(json.dumps(span) + "\n")

    print(f"{workload.name} seed {args.seed}: {result['failed']} of {result['attempted']} "
          f"repeats failed")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        count = len(samples.get(name, ())) or 1
        print(f"  {name:<44} {value:14.6g} {unit:<9} n={count}")
    print(f"  record: {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
