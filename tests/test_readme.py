"""Every `dpq` command in README's CLI code block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from dpquant.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_commands():
    text = README.read_text()
    section = text[text.index("\n## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("dpq ")]


COMMANDS = _cli_commands()


def test_readme_has_cli_commands():
    assert len(COMMANDS) >= 4


@pytest.mark.parametrize("command", COMMANDS, ids=range(len(COMMANDS)))
def test_readme_command_exits_ok(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DPQ_SEED", raising=False)
    assert main(shlex.split(command)[1:]) == EXIT_OK
