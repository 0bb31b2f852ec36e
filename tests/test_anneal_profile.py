"""The anneal profiler (``scripts/anneal_profile.py``) times what it says."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "anneal_profile", _ROOT / "scripts" / "anneal_profile.py"
)
anneal_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(anneal_profile)


def test_one_row_per_app_and_objective():
    rows = anneal_profile.profile(["5", "BF"], ["energy", "makespan"],
                                  repeat=2, iterations=200)
    assert [(key, objective) for key, _, objective, _ in rows] == [
        ("5", "energy"), ("5", "makespan"),
        ("BF", "energy"), ("BF", "makespan")]
    assert [side for _, side, _, _ in rows] == [2, 2, 4, 4]
    assert all(seconds > 0 for *_, seconds in rows)


def test_main_prints_the_table(capsys):
    assert anneal_profile.main(["--apps", "5", "--repeat", "1",
                                "--iterations", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "anneal_placement, 100 iterations, best of 1"
    assert lines[2].startswith("| app | mesh |")
    assert [line.split(" | ")[2] for line in lines[4:]] == [
        "energy", "makespan"]


def test_main_refuses_zero_repeats():
    with pytest.raises(SystemExit):
        anneal_profile.main(["--repeat", "0"])
