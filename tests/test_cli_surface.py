"""The CLI's observable surface, byte for byte.

``tests/fixtures/cli_surface.json`` holds what ``repro`` printed before
every command's output went through one path in ``main``: the top-level
and 18 per-command ``--help`` texts, and the stdout and exit code of a
``--json`` corpus (``simulate 5`` under each run flag, ``profile 5``,
``schedule`` on every suite key, and a run that misses under
``simulate --strict`` and ``schedule``).  Regenerate it only on purpose,
with ``tests/regen_cli_surface.py``.
"""

import json
import sys

import pytest

import regen_cli_surface as surface

SURFACE = json.loads(surface.FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.skipif(
    SURFACE["python"] != "%d.%d" % sys.version_info[:2],
    reason="argparse lays out help differently across Python versions",
)
@pytest.mark.parametrize("command", list(SURFACE["help"]))
def test_help_text(command):
    argv = [command, "--help"] if command else ["--help"]
    assert surface.run(argv) == (0, SURFACE["help"][command])


def test_help_covers_every_command():
    assert list(SURFACE["help"])[1:] == surface.commands()


@pytest.mark.parametrize("entry", SURFACE["json"],
                         ids=lambda entry: " ".join(entry["argv"]))
def test_json_payload_and_exit_code(entry, tmp_path):
    code, stdout = surface.run(entry["argv"],
                               surface.fault_scenario(str(tmp_path)))
    assert code == entry["code"]
    assert surface.without_wall_clock(stdout) == entry["stdout"]
