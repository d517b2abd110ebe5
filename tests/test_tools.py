"""The repository tools: tools/code_lines.py counts code lines."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

import math  # a comment after code counts


# a comment line
def area(r):
    """A one-line docstring."""
    total = (math.pi
             * r
             * r)
    return total


class Box:
    """A class docstring."""

    size = """a string that is
    not a docstring"""
'''


def _run(*paths):
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    # code: the import, the def, the three lines of the expression, the return,
    # the class line and the two lines of the assigned string
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    assert _run(sample) == (0, f"9 {sample}\n", "")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    assert _run(tmp_path / "pkg", sample) == (0, f"10 {tmp_path / 'pkg'}\n9 {sample}\n19 total\n", "")


def test_code_lines_needs_a_path():
    code, out, err = _run()
    assert (code, out) == (2, "")
    assert err.startswith("usage:")
