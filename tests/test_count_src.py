"""`tools/count_src.py` on hand-written sources in a temporary directory."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_src.py"
_SPEC = importlib.util.spec_from_file_location("count_src", _TOOL)
count_src = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_src)


def test_docstrings_are_not_code():
    text = '''"""Module
docstring."""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return 1


async def g():
    """Async docstring."""
    return 2
'''
    # class A, def f, return 1, async def g, return 2
    assert count_src.count(text) == (len(text.splitlines()), 5)


def test_comments_and_blank_lines_are_not_code():
    text = "# a comment\n\nx = 1  # trailing\n\n    \n# another\ny = 2\n"
    assert count_src.count(text) == (7, 2)


def test_a_statement_counts_each_line_it_spans():
    text = "total = (\n    1\n    + 2\n)\n"
    assert count_src.count(text) == (4, 4)


def test_a_string_after_the_first_statement_is_code():
    text = 'x = 1\n"""not a docstring"""\n\n\ndef f():\n    y = 2\n    "also code"\n    return y\n'
    assert count_src.count(text) == (8, 6)


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("# note\ny = 2\nz = 3\n")
    out = subprocess.run([sys.executable, str(_TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "a.py: 2 lines, 1 lines of code",
        "b.py: 3 lines, 2 lines of code",
        "5 lines, 3 lines of code",
    ]
