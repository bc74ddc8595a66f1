"""Every `>>>` example in the package's docstrings runs and holds."""

import doctest
import importlib
import pkgutil

import fairslice


def test_docstring_examples_hold():
    names = ["fairslice"] + [
        name for _, name, _ in pkgutil.iter_modules(fairslice.__path__, "fairslice.")
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, "%s: %d example(s) failed" % (name, result.failed)
        attempted += result.attempted
    # The valuation module alone has four; none found means none ran.
    assert attempted >= 4
