"""README examples stay runnable: a key, argument, subcommand or flag the
code no longer accepts cannot stay in the docs, and a round message it
quotes must be one the code writes."""

import logging
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fedsim.cli
import fedsim.orchestrator
from fedsim import (
    FedAvg,
    FedAvgOpt,
    FederationConfig,
    FedOpt,
    ModelSpec,
    NumericError,
    ParamVector,
    SimplexConfig,
    TrainConfig,
    evaluate,
    generate_blobs,
    make_client_shards,
    run_federation,
    sgd_train,
)
from fedsim.cli import main, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(language):
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)
    return block


def test_yaml_example_parses(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(fenced_block("yaml"), encoding="utf-8")
    config = parse_config(str(path))
    assert tuple(rule.name for rule in config.rules) == (
        "fedavg", "fedavgm", "fedmedian", "fedopt", "fedyogi", "fedavgopt",
    )


def test_yaml_example_runs(tmp_path):
    path, out = tmp_path / "config.yaml", tmp_path / "out"
    path.write_text(fenced_block("yaml"), encoding="utf-8")
    argv = ["compare", str(path), "--rounds", "1", "--seed", "0", "--output-dir", str(out)]
    assert main(argv) == 0
    names = ["fedavg", "fedavgm", "fedmedian", "fedopt", "fedyogi", "fedavgopt"]
    # summary.txt: a title, a blank line, a header, then one row per strategy.
    rows = (out / "summary.txt").read_text(encoding="utf-8").splitlines()[3:]
    assert [row.split()[0] for row in rows] == names
    assert sorted(path.name for path in (out / "curves").iterdir()) == sorted(
        f"{name}.dat" for name in names
    )


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(fenced_block("python"), "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 10
    # The hand-run local training is round 1's client 0, as the example says.
    client = namespace["run"].reports[0].per_client[0]
    assert namespace["scores"] == {"accuracy": client.accuracy, "loss": client.loss}


def help_text(subcommand, capsys):
    """``fedsim <subcommand> --help``'s output; it must exit 0."""
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0, f"fedsim {subcommand} is not a subcommand"
    return capsys.readouterr().out


def readme_subcommands():
    """The subcommand of every ``fedsim`` command line in the ``sh`` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return sorted({line.split()[1] for line in lines if line.startswith("fedsim ")})


def test_readme_subcommands_exist(capsys):
    subcommands = readme_subcommands()
    assert subcommands, "the README shows no fedsim command line"
    for name in subcommands:
        help_text(name, capsys)


def test_readme_flags_are_defined(capsys):
    cli_section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"--[a-z][a-z-]*", cli_section))
    assert flags, "the CLI section names no flag"
    helps = " ".join(help_text(name, capsys) for name in readme_subcommands())
    assert sorted(f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", helps)) == []


def test_readme_top_level_keys_are_the_parsers():
    reference = README.split("\n### Config reference\n", 1)[1]
    paragraph = " ".join(reference.split("Top level:", 1)[1].split("\n\n", 1)[0].split())
    # The key list is the first sentence, less each key's parenthesized note.
    listed = re.sub(r"\([^()]*\)", "", paragraph).split(". ", 1)[0]
    assert set(re.findall(r"`([a-z_]+)`", listed)) == set(fedsim.cli._TOP_LEVEL_KEYS)


def run_rounds(rule, rounds):
    """``rounds`` rounds of ``rule`` at seed 0 over two blob clients."""
    config = FederationConfig(
        model=ModelSpec(input_dim=3), train=TrainConfig(), rules=(rule,), rounds=rounds, seed=0
    )
    return run_federation(config, make_client_shards(generate_blobs(16, 2, 3, 1.0, 0), 2, 0.5, 0))


def replace_call(monkeypatch, owner, name, call, replacement):
    """``owner.name`` as it is, except that its ``call``-th call (counted from
    1) returns ``replacement(*args)``."""
    original, calls = getattr(owner, name), []

    def patched(*args):
        calls.append(None)
        return (replacement if len(calls) == call else original)(*args)

    monkeypatch.setattr(owner, name, patched)


def non_finite_like(params, *_):
    """Builds a ParamVector of infs, so raises the code's own NumericError."""
    return ParamVector(np.full(len(params), np.inf))


def from_nan_weights(starts, *rest):
    """Trains every client from NaN weights, so sgd_train's own check fails
    and names the first client of the first start."""
    nan = SimpleNamespace(values=np.full(len(starts[0]), np.nan))
    return sgd_train([nan] * len(starts), *rest)


def training_failure(monkeypatch, caplog):
    # A one-rule federation trains each round in one sgd_train call: call 1
    # trains round 1's clients, call 2 round 2's, which name the strategy.
    replace_call(monkeypatch, fedsim.orchestrator, "sgd_train", 2, from_nan_weights)
    with pytest.raises(NumericError) as exc:
        run_rounds(FedAvg(), 2)
    return str(exc.value)


def aggregation_failure(monkeypatch, caplog):
    def step(rule, updates, previous, state):
        return non_finite_like(previous), state

    replace_call(monkeypatch, FedOpt, "step", 1, step)
    with pytest.raises(NumericError) as exc:
        run_rounds(FedOpt(), 1)
    return str(exc.value)


def capped_solve(monkeypatch, caplog):
    # A cap too small for the two-client search to converge: every round stops at it.
    solver = SimplexConfig(max_iterations=2)
    run_rounds(FedAvgOpt(solver), 3)
    assert len(caplog.records) == 3
    return caplog.records[2].getMessage()


def non_finite_loss(monkeypatch, caplog):
    # Each round scores the two local models in one call, then the global
    # model on both test splits in another: call 3 scores round 2's local
    # models, and client_1's loss is made NaN.
    def score(models, spec, datasets):
        metrics = evaluate(models, spec, datasets)
        metrics[1] = {"accuracy": 0.0, "loss": float("nan")}
        return metrics

    replace_call(monkeypatch, fedsim.orchestrator, "evaluate", 3, score)
    run_rounds(FedAvg(), 2)
    (record,) = caplog.records
    return record.getMessage()


@pytest.mark.parametrize(
    "produce", [training_failure, aggregation_failure, capped_solve, non_finite_loss]
)
def test_round_message_is_quoted_verbatim(produce, monkeypatch, caplog):
    caplog.set_level(logging.WARNING, logger="fedsim.orchestrator")
    message = produce(monkeypatch, caplog)
    # Line breaks in the README's prose are spaces.
    assert f"`{message}`" in " ".join(README.split())
