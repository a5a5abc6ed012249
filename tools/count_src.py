"""Print the size of the library: total lines, and lines of code, that is
non-blank lines outside comments and docstrings, of `src/logicloss/*.py`.

    python tools/count_src.py [SRC_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def count(text):
    """(lines, lines of code) of one Python source."""
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                skip.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - skip)


if __name__ == "__main__":
    src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent / "src" / "logicloss")
    totals = [count(p.read_text()) for p in sorted(src.glob("*.py"))]
    print(f"{sum(t[0] for t in totals)} lines, {sum(t[1] for t in totals)} lines of code")
