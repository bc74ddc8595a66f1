"""Count the code lines of each module of src/fairslice.

A line counts when it holds a token that is not a comment and it is not
inside a module, class or function docstring; a token that spans lines,
such as a multi-line string, holds every line it spans.  Each module is
printed with its code lines and its `wc -l` line count, then the totals.

    python3 tools/code_lines.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fairslice"
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree):
    # The lines of every module, class and function docstring.
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_code = total_wc = 0
    print("%-16s %6s %6s" % ("module", "code", "wc -l"))
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, wc = code_lines(text), text.count("\n")
        total_code += code
        total_wc += wc
        print("%-16s %6d %6d" % (path.stem, code, wc))
    print("%-16s %6d %6d" % ("total", total_code, total_wc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
