"""Golden outputs: ``fedsim compare`` writes the recorded bytes.

Each config runs ``fedsim compare`` in a subprocess under
``-W error::RuntimeWarning``, so that a numpy warning fails the run.  The
BLAS threads are pinned to one, OpenBLAS is held to its Haswell kernels and
numpy's AVX-512 dispatch is disabled, so that any x86-64 host with AVX2
picks the same kernels.
The SHA-256 of every output file must equal the one recorded in
``tests/golden/digests.json`` under the running numpy version and the BLAS
library numpy was built with.  The test skips, saying why, on a host that is
not x86-64, on a numpy that does not report its BLAS build, and on a (numpy,
BLAS) key with no recorded digests.  It never writes the digests; after a
deliberate output change, record the running key's digests with

    PYTHONPATH=src python tests/test_golden.py

The same pinned subprocess runs ``tests/stacked_kernels.py``, which checks
stacked SGD steps against per-slice ones bit for bit, once under each
OpenBLAS kernel the host's CPU can run, with numpy's AVX-512 dispatch on and
off; a kernel the CPU lacks the flags for is skipped, naming them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "golden" / "digests.json"

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

CONFIGS = {
    "logistic-blobs": """
        dataset: {kind: blobs, samples_per_class: 30, num_classes: 3, dim: 5}
        strategies: [fedavg, fedavgm, fedmedian, fedopt, fedyogi, fedavgopt]
        seeds: [0, 1]
        rounds: 3
        num_clients: 3
        train_fraction: 0.3
        train: {learning_rate: 0.1, batch_size: 8}
        """,
    "mlp-tanh-settings": """
        dataset: {kind: blobs, samples_per_class: 24, num_classes: 3, dim: 6, spread: 2.0}
        strategies: [fedavg, fedavgm, fedmedian, fedopt, fedyogi, fedavgopt]
        seeds: [0, 1]
        rounds: 4
        num_clients: 4
        train_fraction: 0.4
        model: {hidden_dims: [8], activation: tanh}
        train: {learning_rate: 0.2, batch_size: 6, local_epochs: 2}
        hyperparams:
          fedavgm: {server_lr: 0.8, momentum_beta: 0.3}
          fedmedian: {server_lr: 0.6}
          fedopt: {server_lr: 0.05, tau: 1.0e-3, beta1: 0.5, beta2: 0.9, server_optimizer: adam}
          fedyogi: {server_lr: 0.03, beta2: 0.95}
        solver: {max_iterations: 60}
        """,
    "mlp-relu-csv": """
        dataset: {kind: csv, path: data.csv, label_column: label}
        strategies: [fedavg, fedyogi, fedavgopt]
        rounds: 3
        num_clients: 3
        train_fraction: 0.3
        model: {hidden_dims: [6], activation: relu}
        train: {learning_rate: 0.1, batch_size: 8}
        """,
    # 16 clients and a logistic model of P = 6 parameters, fewer than the
    # K + 1 = 17 vectors the fedavgopt objective is summarized by.
    "many-clients-small-p": """
        dataset: {kind: blobs, samples_per_class: 48, num_classes: 2, dim: 2, spread: 1.0}
        strategies: [fedavg, fedavgopt]
        seeds: [0, 1]
        rounds: 3
        num_clients: 16
        train_fraction: 0.5
        train: {learning_rate: 0.3, batch_size: 2}
        """,
    # Train splits of 12, 12, 9 and 9 rows: two stacks of two clients, each
    # with a ragged last batch of 5.
    "ragged-stacks": """
        dataset: {kind: blobs, samples_per_class: 26, num_classes: 3, dim: 4}
        strategies: [fedavg, fedmedian, fedavgopt]
        seeds: [0, 1]
        rounds: 3
        num_clients: 4
        train_fraction: 0.5
        model: {hidden_dims: [5]}
        train: {learning_rate: 0.2, batch_size: 5}
        """,
}


def write_csv(path: Path) -> None:
    """90 rows of three classes around distinct centres, the label column in
    the middle; four decimals keep the text independent of libm rounding."""
    rng = np.random.default_rng(5)
    centres = rng.normal(size=(3, 4))
    lines = ["f0,f1,label,f2,f3"]
    for i in range(90):
        c = i % 3
        f = centres[c] + 0.8 * rng.normal(size=4)
        lines.append(f"{f[0]:.4f},{f[1]:.4f},class_{c},{f[2]:.4f},{f[3]:.4f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_pinned(args: list[str], env: dict[str, str] = PINNED_ENV) -> subprocess.CompletedProcess:
    """Run ``python -W error::RuntimeWarning *args`` with fedsim's ``src`` on
    the path and the variables of ``env`` set; the environment's other
    variables pass through, but never a kernel pin ``env`` does not name."""
    path = os.environ.get("PYTHONPATH")
    inherited = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env={**inherited, **env, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")},
        capture_output=True, text=True,
    )


def run_compare(name: str, work: Path) -> dict[str, str]:
    """Run config ``name`` in a pinned subprocess under ``work`` and return
    the SHA-256 of each output file by its path relative to the output
    directory."""
    work.mkdir(parents=True, exist_ok=True)
    text = textwrap.dedent(CONFIGS[name])
    if "data.csv" in text:
        write_csv(work / "data.csv")
        text = text.replace("data.csv", str(work / "data.csv"))
    config = work / "config.yaml"
    config.write_text(text, encoding="utf-8")
    out = work / "out"
    proc = run_pinned(["-m", "fedsim.cli", "compare", str(config), "--output-dir", str(out)])
    assert proc.returncode == 0, proc.stderr
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def unpinned_reason() -> str | None:
    """Why the recorded digests cannot apply on this host, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the kernel pins apply to x86-64 only, not {platform.machine()}"
    if getattr(np.__config__, "CONFIG", None) is None:
        return f"numpy {np.__version__} does not report its BLAS build"
    return None


def digest_key() -> str:
    """``numpy <version>, <blas> <version>``."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_recorded_digests(name, tmp_path):
    reason = unpinned_reason()
    if reason is not None:
        pytest.skip(reason)
    key = digest_key()
    recorded = load_digests().get(key)
    if recorded is None:
        pytest.skip(f"no digests recorded for {key!r}")
    assert run_compare(name, tmp_path) == recorded[name]


# Each OpenBLAS kernel the stacked-step check forces, with the CPU flags
# (as /proc/cpuinfo names them) it needs.
KERNELS = {
    "Prescott": {"pni"},
    "Nehalem": {"ssse3", "sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}


def cpu_flags() -> set[str] | None:
    """The host CPU's flags, or None where /proc/cpuinfo does not list them."""
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return None


@pytest.mark.parametrize("avx512", ["avx512-on", "avx512-off"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stacked_step_matches_per_slice_under_every_kernel(kernel, avx512):
    reason = unpinned_reason()
    if reason is not None:
        pytest.skip(reason)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS, so no kernel can be forced")
    flags = cpu_flags()
    if flags is None:
        pytest.skip("/proc/cpuinfo lists no CPU flags")
    missing = sorted(KERNELS[kernel] - flags)
    if missing:
        pytest.skip(f"this CPU cannot run the {kernel} kernel; it lacks {', '.join(missing)}")
    env = {**PINNED_ENV, "OPENBLAS_CORETYPE": kernel}
    if avx512 == "avx512-on":
        del env["NPY_DISABLE_CPU_FEATURES"]
    proc = run_pinned([str(HERE / "stacked_kernels.py")], env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "ok"), proc.stdout + proc.stderr


if __name__ == "__main__":
    reason = unpinned_reason()
    if reason is not None:
        sys.exit(reason)
    key = digest_key()
    digests = load_digests() if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        digests[key] = {name: run_compare(name, Path(work, name)) for name in sorted(CONFIGS)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests[key].values()))} digests for {key!r} to {DIGESTS}")
