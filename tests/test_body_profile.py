"""The body profiler (``scripts/body_profile.py``) times what it says."""

from __future__ import annotations

import importlib.util
import pathlib

from repro.sim import SimulationOptions, simulate
from repro.sim.runtime import RuntimeKernel

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "body_profile", _ROOT / "scripts" / "body_profile.py"
)
body_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(body_profile)


def test_every_firing_lands_in_one_row():
    execute = RuntimeKernel.execute
    rows, firings, wall = body_profile.profile(
        body_profile.suite_runs("5", 1, "greedy"), ())
    assert RuntimeKernel.execute is execute  # the timer is taken off again
    assert sum(count for _, _, count, _ in rows) == firings > 0
    assert 0 < sum(s for *_, s in rows) < wall
    assert [row[3] for row in rows] == sorted((row[3] for row in rows),
                                              reverse=True)
    names = {(cls, method) for cls, method, *_ in rows}
    assert {("BufferKernel", "store"), ("InsetKernel", "filter_elem"),
            ("BufferKernel", "<forward>")} <= names


def test_the_sweep_grid_is_the_bench_grid():
    runs = body_profile.sweep_runs(201)
    assert len(runs) == 24 and {frames for _, frames in runs} == {2}
    widths = {compiled.graph.kernels["Input"].width for compiled, _ in runs}
    assert widths == set(body_profile.SWEEP_WIDTHS)


def test_main_prints_the_table(capsys):
    assert body_profile.main(["2", "--frames", "1", "--content", "all",
                              "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("execute() ") and lines[2].startswith("| kernel")
    assert len(lines) == 4 + 3


def test_event_counts_cover_every_event(capsys):
    runs = body_profile.suite_runs("5", 1, "greedy")
    counts = body_profile.event_counts(runs, ())
    compiled, frames = runs[0]
    events = simulate(compiled, SimulationOptions(frames=frames),
                      content=()).events_processed
    assert sum(counts[key] for key in body_profile.EVENT_ROWS) == events
    assert counts["finish"] == counts["fire"] > 0
    assert counts["busy"] > 0 and counts["empty"] > 0
    assert 0 < counts["source_pops"] <= counts["deliver"]
    assert body_profile.main(["5", "--frames", "1", "--events"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{events} events, {counts['source_pops']} source pops"
    assert len(lines) == 4 + len(body_profile.EVENT_ROWS)
