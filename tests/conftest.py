"""Set-up shared by every test module."""

import os


def pytest_configure(config):
    # pyproject's `pythonpath` puts src/ on this process's sys.path only;
    # the tests that start `python -m fairslice` need it in the environment
    # too, so that a plain `python -m pytest` needs no PYTHONPATH.
    src = str(config.rootpath / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + [p for p in paths if p])
