"""The size counter (``scripts/stmt_count.py``) counts what it says.

Simplicity PRs quote its number as an acceptance criterion, so what
moves it — and what does not — is pinned here.
"""

from __future__ import annotations

import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "stmt_count", _ROOT / "scripts" / "stmt_count.py"
)
stmt_count = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stmt_count)

SOURCE = '''\
"""Module docstring."""

import os  # 1


class Thing:  # 2
    """Class docstring."""

    limit = 3  # 3

    def method(self, value):  # 4
        """Method docstring."""
        if value:  # 5
            return os.sep  # 6
        "a bare string that is not a docstring"  # 7
        return (  # 8
            value
        )
'''


def test_docstrings_comments_and_wrapping_do_not_count():
    assert stmt_count.count_statements(SOURCE) == 8
    stripped = SOURCE.replace('"""Method docstring."""', "pass")
    assert stmt_count.count_statements(stripped) == 9


def test_total_and_tables(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SOURCE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    summary = tmp_path / "summary.md"

    assert stmt_count.main([str(tmp_path), "--total"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    assert not summary.exists()

    assert stmt_count.main([str(tmp_path), "--files",
                            "--summary", str(summary)]) == 0
    table = capsys.readouterr().out
    assert f"| `{package}/` | 10 |" in table
    assert f"| `{package / 'a.py'}` | 8 |" in table
    assert "| **total** | **10** |" in table
    assert table.strip() in summary.read_text(encoding="utf-8")
