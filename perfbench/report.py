"""Run every workload and print each metric by name and unit.

    python3 perfbench/report.py [--seed 0] [--seconds 25] [--trace] [--save FILE]

Runs ``run.py`` once per workload (untraced, and traced as well with
``--trace``), prints one row per metric with the failed/attempted count, and
with ``--save`` writes every result and its run record to a JSON file, such
as a new point of ``perfbench/trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, echo its metric table, and return its result and record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((HERE / "out" / f"{stem}.json").read_text(encoding="utf-8"))
    return {"workload": workload, "trace": trace, **record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="also run the traced run")
    parser.add_argument("--save", type=Path, help="write all results to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            runs.append(run_one(workload, args.seed, args.seconds, trace))
    if args.save:
        args.save.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                         "runs": runs}, indent=1) + "\n", encoding="utf-8")
        print(f"saved {args.save}")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
