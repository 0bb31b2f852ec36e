"""List the dead surface: names ``src/`` defines that nothing uses.

Usage (from the repository root)::

    python scripts/dead_surface.py [ROOT] [--test-only]

Collects every ``def`` and ``class`` name under ``ROOT/src`` (default:
the current directory) and counts each as a whole word across the
``*.py`` files of ``src/``, ``tests/``, ``bench/``, ``benchmarks/``,
``examples/`` and ``scripts/``.  A name that occurs exactly once — its
own definition — is dead surface: nothing calls it, imports it, tests
it or names it in a string.  Dunders (``__init__``, ``__repr__``, …)
are exempt, because the language calls them.

``--test-only`` lists the test-only surface instead: names whose only
occurrence outside ``tests/`` is their own definition, so only tests
use them.  Each is a deletion (with its tests) unless
:data:`TEST_ONLY_KEEP` gives the reason it stays.

Prints one ``path:line: name`` per finding and exits 1 when there is
any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import collections
import pathlib
import re
import sys

TREES = ("src", "tests", "bench", "benchmarks", "examples", "scripts")
WORD = re.compile(r"\w+")

#: Test-only names that stay, each with the reason why.
TEST_ONLY_KEEP = {
    "rename_kernel": "a graph mutator docs/compiler.md documents",
    "firing_spans": "a telemetry accessor docs/observability.md documents",
    "busy_by_processor":
        "a telemetry accessor docs/observability.md documents",
}


def sources(root: pathlib.Path, trees=TREES) -> list[pathlib.Path]:
    return [path for tree in trees
            for path in sorted((root / tree).rglob("*.py"))]


def word_counts(root: pathlib.Path, trees) -> collections.Counter[str]:
    counts: collections.Counter[str] = collections.Counter()
    for path in sources(root, trees):
        counts.update(WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def definitions(root: pathlib.Path):
    """``(path, line, name)`` of every non-dunder def / class in src/."""
    for path in sources(root, ("src",)):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield path.relative_to(root), node.lineno, name


def dead_surface(root: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    """``(path, line, name)`` of every definition used nowhere else."""
    counts = word_counts(root, TREES)
    return sorted(d for d in definitions(root) if counts[d[2]] == 1)


def test_only_surface(
    root: pathlib.Path,
) -> list[tuple[pathlib.Path, int, str]]:
    """``(path, line, name)`` of every definition only ``tests/`` uses,
    less :data:`TEST_ONLY_KEEP`."""
    outside = word_counts(root, [t for t in TREES if t != "tests"])
    tested = word_counts(root, ("tests",))
    return sorted(
        d for d in definitions(root)
        if outside[d[2]] == 1 and tested[d[2]] and d[2] not in TEST_ONLY_KEEP
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="List src/ definitions nothing (or only tests) uses.")
    parser.add_argument("root", nargs="?", default=".")
    parser.add_argument("--test-only", action="store_true",
                        help="list names only tests/ references")
    args = parser.parse_args(argv)
    scan = test_only_surface if args.test_only else dead_surface
    findings = scan(pathlib.Path(args.root))
    for path, line, name in findings:
        print(f"{path}:{line}: {name}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
