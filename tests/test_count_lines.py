"""The line counter in tools/count_lines.py, which the design notes quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

# 15 lines; code on 4, 7, 8, 11, 12, 13 and 14 only.
SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment


class A:
    def f(self, x):
        """Function docstring."""
        # a comment-only line
        s = """a string
that is not a docstring"""
        return x + \\
            len(s)

'''


def test_pinned_counts():
    assert count_lines.count(SOURCE) == (15, 7)


def test_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\n\nX = 1\n', encoding="utf-8")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["a.py", "15", "7"], ["b.py", "3", "1"], ["total", "18", "8"]]
    modules = rows[:-1]
    assert rows[-1][1:] == [str(sum(int(r[i]) for r in modules)) for i in (1, 2)]
