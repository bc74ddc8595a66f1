"""tools/code_lines.py, the line count behind every claim on the size of src/.

A temporary package with docstrings, comments, blank lines and a
multi-line string is counted by hand and by the tool.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# Code lines: `import os`, `class Thing:`, `def method(self):`, the return,
# and the three lines the TEXT string spans; 20 lines in all.
DOCUMENTED = '''"""Module docstring
over two lines."""

# a comment
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines."""
        # a comment inside
        return os.sep  # a trailing comment


TEXT = """a multi-line
string is code
"""
'''

# One code line and a comment line.
PLAIN = "# set-up\nX = 1\n"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    tool = load_tool()
    assert tool.code_lines(DOCUMENTED) == 7
    assert tool.code_lines(PLAIN) == 1


def test_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "documented.py").write_text(DOCUMENTED, encoding="utf-8")
    (tmp_path / "plain.py").write_text(PLAIN, encoding="utf-8")
    assert load_tool().main(["code_lines.py", str(tmp_path)]) == 0
    header, *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "code", "wc", "-l"]
    assert modules == [["documented", "7", "20"], ["plain", "1", "2"]]
    # The total row sums the module rows.
    assert total == ["total", "8", "22"]
