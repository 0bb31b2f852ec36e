"""Regenerate the CLI surface fixture.

Usage (from the repository root)::

    PYTHONPATH=src python tests/regen_cli_surface.py [OUT]

Writes ``tests/fixtures/cli_surface.json`` (or ``OUT``): the exact
stdout and exit code of ``repro --help``, of every ``repro <command>
--help``, and of the ``--json`` corpus below, run in-process through
``repro.cli.main`` at a fixed 80-column terminal (argparse wraps help
at ``$COLUMNS``).
``tests/test_cli_surface.py`` holds the working tree to those bytes.

The committed fixture was captured at the parent of the commit that
routed every command's output through ``main`` — only rerun this when a
help text or a ``--json`` payload changes **on purpose**, never to make
a refactor pass.

The corpus: ``simulate 5`` plain, with ``--noc --placement energy``,
with ``--faults`` on the scenario of ``examples/fault_sweep.json``,
with ``--critical-path`` and with ``--bench`` (minus its
wall-clock keys); ``profile 5``; ``schedule <key>`` for every suite key;
and ``1F`` at 2 MHz, which misses and is not admissible, under
``simulate --strict`` and ``schedule`` for their exit codes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.apps import benchmark_suite
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "cli_surface.json"

#: ``--bench`` keys that measure the host, not the run.
WALL_CLOCK = ("wall_s", "events_per_s")

#: Stands for the fault scenario file in a corpus ``argv``.
FAULTS = "FAULTS"


def corpus() -> list[list[str]]:
    runs = [
        ["simulate", "5", "--json"],
        ["simulate", "5", "--json", "--noc", "--placement", "energy"],
        ["simulate", "5", "--json", "--faults", FAULTS],
        ["simulate", "5", "--json", "--critical-path"],
        ["simulate", "5", "--json", "--bench"],
        ["simulate", "5", "--json", "--strict"],
        ["--clock-mhz", "2", "simulate", "1F", "--frames", "1", "--json",
         "--strict"],
        ["profile", "5", "--json"],
        ["--clock-mhz", "2", "schedule", "1F", "--json"],
    ]
    runs += [["schedule", bench.key, "--json"] for bench in benchmark_suite()]
    return runs


def commands() -> list[str]:
    """Every subcommand, in the order ``repro --help`` lists them."""
    (sub,) = [action for action in build_parser()._actions
              if action.dest == "command"]
    return list(sub.choices)


def run(argv: list[str], faults: str = FAULTS) -> tuple[int, str]:
    """``main(argv)``'s exit code and stdout (``--help`` exits 0)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main([faults if arg == FAULTS else arg for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def without_wall_clock(stdout: str) -> str:
    payload = json.loads(stdout)
    for key in WALL_CLOCK:
        payload.get("bench", {}).pop(key, None)
    return json.dumps(payload, indent=2) + "\n"


def fault_scenario(directory: str) -> str:
    """``examples/fault_sweep.json``'s fault scenario as a FaultSpec file."""
    example = json.loads((ROOT / "examples" / "fault_sweep.json").read_text())
    path = os.path.join(directory, "faults.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(example["fixed"]["faults"], handle)
    return path


def build(faults: str) -> dict:
    helps = {"": run(["--help"])[1]}
    helps.update((name, run([name, "--help"])[1]) for name in commands())
    runs = []
    for argv in corpus():
        code, stdout = run(argv, faults)
        runs.append({"argv": argv, "code": code,
                     "stdout": without_wall_clock(stdout)})
    return {"python": "%d.%d" % sys.version_info[:2], "help": helps,
            "json": runs}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps help at this width
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE
    with tempfile.TemporaryDirectory() as tmp:
        surface = build(fault_scenario(tmp))
    target.write_text(json.dumps(surface, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}")
