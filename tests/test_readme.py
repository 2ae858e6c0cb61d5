"""The examples in README.md run as written."""

import re
from pathlib import Path

from jackpoly import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_library_example_runs():
    blocks = _fenced("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_command_line_examples_print_what_they_show(capsys):
    examples = []
    for block in _fenced("sh"):
        for command, output in re.findall(r"^\$ jackpoly (.*)\n((?:.+\n)*)", block, re.M):
            examples.append((command, output))
    assert len(examples) == 5
    for command, output in examples:
        assert cli.main(command.split()) == 0, command
        assert capsys.readouterr().out == output, command
