"""``tools/code_lines.py``: the code-line count of a package, checked on a fixture."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 14 code lines: the lines that say "code" and the rest of each bracketed or
# triple-quoted span that starts on one; docstrings, comment-only and blank
# lines are not code
FIXTURE = '''"""Module docstring,
on two lines."""

# a comment-only line
import os  # code: a trailing comment does not make a line a comment line

TEMPLATE = """code: a multi-line string
that is not a docstring
"""


class Thing:  # code
    """Class docstring."""

    # comment inside the class body

    value = 1  # code

    def method(self):  # code
        \'\'\'Method docstring,
        on two lines.\'\'\'
        return (  # code, and the two lines below
            self.value
        )


def function():  # code
    """Function docstring."""
    "a later string statement is code"


async def waiting():  # code
    """Coroutine docstring."""
    return os.sep  # code
'''


def test_counts_code_lines_of_each_module_and_the_total(tmp_path):
    (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout == "__init__.py\t0\nfixture.py\t14\ntotal\t14\n"
