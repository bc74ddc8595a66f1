"""The README's examples: Python blocks run as written against the library,
every `fairslice` line of a shell block parses as a command line, and the
module table names only code that exists."""

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import fairslice
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


# The backticked names in the module table that name code: private names
# like `_scaled` and dotted ones like `Valuation.from_integers`.  Plain
# words (`lo`, `"p/q"`, `claim & ~claimed`) are out of scope.
MODULE_ROWS = re.findall(r"^\| `\w+` +\|(.*)\|$", README.read_text(encoding="utf-8"), re.M)
CODE_NAMES = sorted(
    {
        name
        for row in MODULE_ROWS
        for name in re.findall(r"`([^`]*)`", row)
        if re.fullmatch(r"_\w+|[A-Za-z_]\w*\.[A-Za-z_]\w*", name)
    }
)
MODULES = {
    info.name: importlib.import_module("fairslice." + info.name)
    for info in pkgutil.iter_modules(fairslice.__path__)
    if info.name != "__main__"
}


def _resolves(name):
    # A module-level name of some fairslice module, or an attribute (a
    # dataclass field included) of a module or of such a name.
    head, _, attr = name.partition(".")
    owners = [MODULES[head]] if head in MODULES else []
    owners += [getattr(module, head) for module in MODULES.values() if hasattr(module, head)]
    if not attr:
        return bool(owners)
    return any(
        hasattr(owner, attr) or attr in getattr(owner, "__dataclass_fields__", ())
        for owner in owners
    )


def test_module_table_names_code():
    assert MODULE_ROWS and "_scaled" in CODE_NAMES and "Valuation.from_integers" in CODE_NAMES


@pytest.mark.parametrize("name", CODE_NAMES)
def test_module_table_name_resolves(name):
    assert _resolves(name), "README module table names %s, which fairslice does not have" % name
