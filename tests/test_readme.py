"""README examples stay runnable: a key or argument the code no longer
accepts cannot stay in the docs."""

import re
from pathlib import Path

from fedsim.cli import parse_config

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
