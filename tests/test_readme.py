"""The README's examples: Python blocks run as written against the library,
and every `fairslice` line of a shell block parses as a command line."""

import pathlib
import re
import shlex

import pytest

from fairslice.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    for line in block.splitlines()
    if line.startswith("fairslice ")
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=["block%d" % k for k in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_shell_examples():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] for line in COMMANDS])
def test_shell_example_parses(line):
    # Parsed only: the scenario files the examples name are not in the repo.
    build_parser().parse_args(shlex.split(line)[1:])
