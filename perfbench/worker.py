"""One measurement in a fresh process; prints one JSON line on stdout.

    python3 perfbench/worker.py setup <config.yaml>
    python3 perfbench/worker.py compare <config.yaml> <output-dir>

``setup`` times ``import fedsim``, ``parse_config`` and building every
configured seed's client shards through the public data functions.
``compare`` times one ``fedsim.cli.main(["compare", ...])`` call and reports
the process's peak resident memory.  The caller sets ``PYTHONPATH`` and pins
the BLAS thread counts before starting this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def measure_setup(config_path: str) -> dict:
    start = time.perf_counter()
    import fedsim
    from fedsim.cli import parse_config

    config = parse_config(config_path)
    ds = config.dataset
    base = fedsim.load_csv(ds.path, ds.label_column) if ds.kind == "csv" else None
    shard_count = 0
    for seed in config.seeds:
        data = base
        if data is None:
            data = fedsim.generate_blobs(
                ds.samples_per_class, ds.num_classes, ds.dim, ds.spread, seed
            )
        shards = fedsim.make_client_shards(
            data, config.num_clients, config.train_fraction, seed
        )
        shard_count += len(shards)
    return {"setup_s": time.perf_counter() - start, "shards": shard_count}


def measure_compare(config_path: str, output_dir: str) -> dict:
    from fedsim.cli import main

    start = time.perf_counter()
    exit_code = main(["compare", config_path, "--output-dir", output_dir])
    elapsed = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"exit_code": exit_code, "compare_s": elapsed, "peak_rss_mb": peak_kib / 1024.0}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        result = measure_setup(argv[1])
    elif len(argv) == 3 and argv[0] == "compare":
        result = measure_compare(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
