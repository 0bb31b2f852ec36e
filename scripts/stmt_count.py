"""Count AST statements — the size number simplicity PRs report.

Usage (from the repository root)::

    python scripts/stmt_count.py [PATH ...] [--total] [--files] \
        [--summary PATH]

Counts every :class:`ast.stmt` node except docstrings (a bare string
expression opening a module, class or function), so comments, blank
lines, docstrings and line wrapping do not move the number while a
deleted branch, assignment or definition does.  ``PATH`` is a file or
a directory walked for ``*.py``; the default is ``src``.

The default output is a GitHub-flavoured markdown table with one row
per package (the directory holding the file) and a total; ``--files``
adds a row per file, ``--total`` prints only the total as a bare
integer.  The table is additionally appended to ``--summary`` when
given, or to the file named by ``$GITHUB_STEP_SUMMARY`` when that
variable is set, so the number lands on the workflow run page.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import sys


def count_statements(source: str) -> int:
    """Statements in ``source``, docstrings excluded."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef,
              ast.AsyncFunctionDef)
    total = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            total += 1
        if isinstance(node, owners) and ast.get_docstring(
                node, clean=False) is not None:
            total -= 1
    return total


def python_files(paths: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def render(per_file: dict[pathlib.Path, int], *, files: bool) -> str:
    per_package: dict[pathlib.Path, int] = {}
    for path, count in per_file.items():
        per_package[path.parent] = per_package.get(path.parent, 0) + count
    lines = ["| path | statements |", "| --- | ---: |"]
    for package in sorted(per_package):
        lines.append(f"| `{package}/` | {per_package[package]} |")
        if files:
            lines.extend(
                f"| `{path}` | {count} |"
                for path, count in per_file.items()
                if path.parent == package
            )
    lines.append(f"| **total** | **{sum(per_file.values())}** |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Count AST statements, docstrings excluded."
    )
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("--total", action="store_true",
                        help="print only the total, as a bare integer")
    parser.add_argument("--files", action="store_true",
                        help="add one row per file under its package")
    parser.add_argument("--summary", default=None,
                        help="append the table to this file (default: "
                             "$GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args(argv)

    per_file = {
        path: count_statements(path.read_text(encoding="utf-8"))
        for path in python_files(args.paths)
    }
    if args.total:
        print(sum(per_file.values()))
        return 0
    table = render(per_file, files=args.files)
    print(table)
    summary = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write(f"### Statement count\n\n{table}\n\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
