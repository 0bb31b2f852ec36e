"""List the dead surface: names ``src/`` defines that nothing uses.

Usage (from the repository root)::

    python scripts/dead_surface.py [ROOT]

Collects every ``def`` and ``class`` name under ``ROOT/src`` (default:
the current directory) and counts each as a whole word across the
``*.py`` files of ``src/``, ``tests/``, ``bench/``, ``benchmarks/``,
``examples/`` and ``scripts/``.  A name that occurs exactly once — its
own definition — is dead surface: nothing calls it, imports it, tests
it or names it in a string.  Dunders (``__init__``, ``__repr__``, …)
are exempt, because the language calls them.

Prints one ``path:line: name`` per finding and exits 1 when there is
any, 0 otherwise.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re
import sys

TREES = ("src", "tests", "bench", "benchmarks", "examples", "scripts")
WORD = re.compile(r"\w+")


def sources(root: pathlib.Path, trees=TREES) -> list[pathlib.Path]:
    return [path for tree in trees
            for path in sorted((root / tree).rglob("*.py"))]


def dead_surface(root: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    """``(path, line, name)`` of every definition used nowhere else."""
    counts: collections.Counter[str] = collections.Counter()
    for path in sources(root):
        counts.update(WORD.findall(path.read_text(encoding="utf-8")))
    findings = []
    for path in sources(root, ("src",)):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and counts[name] == 1:
                findings.append((path.relative_to(root), node.lineno, name))
    return sorted(findings)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0] if args else ".")
    findings = dead_surface(root)
    for path, line, name in findings:
        print(f"{path}:{line}: {name}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
