"""README examples stay runnable: a key, argument, subcommand or flag the
code no longer accepts cannot stay in the docs."""

import re
from pathlib import Path

import pytest

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


def test_library_example_runs(capsys):
    exec(compile(fenced_block("python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 10


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
