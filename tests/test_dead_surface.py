"""The dead-surface scan (``scripts/dead_surface.py``) finds what it says.

The ``lint`` CI job fails on any finding, so the repository itself is
held to zero here too.
"""

from __future__ import annotations

import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "dead_surface", _ROOT / "scripts" / "dead_surface.py"
)
dead_surface = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dead_surface)

LIBRARY = '''\
class Widget:
    def __init__(self):
        self.spin()

    def spin(self):
        pass

    def wobble(self):
        pass


async def orphan():
    pass
'''


def test_a_name_used_only_where_it_is_defined_is_dead(tmp_path, capsys):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "lib.py").write_text(LIBRARY,
                                                    encoding="utf-8")
    (tmp_path / "tests").mkdir()
    # A use anywhere in the scanned trees keeps a name alive, even in a
    # string; the dunder is exempt though nothing names it again.
    (tmp_path / "tests" / "test_lib.py").write_text(
        "from pkg.lib import Widget\nassert 'wobble'\n", encoding="utf-8")

    assert dead_surface.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        f"{pathlib.Path('src/pkg/lib.py')}:12: orphan\n")

    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("orphan\n",
                                                   encoding="utf-8")
    assert dead_surface.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_a_name_only_tests_use_is_test_only_surface(tmp_path, capsys):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "lib.py").write_text(
        "def used():\n    pass\n\n\ndef probe():\n    pass\n\n\n"
        "def rename_kernel():\n    pass\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_lib.py").write_text(
        "from pkg.lib import probe, rename_kernel, used\n", encoding="utf-8")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.lib import used\n", encoding="utf-8")

    # `used` has a caller outside tests/; `rename_kernel` is on the keep
    # list; `probe` is exercised by tests alone.  None of them is dead.
    assert dead_surface.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""
    assert dead_surface.main([str(tmp_path), "--test-only"]) == 1
    assert capsys.readouterr().out == (
        f"{pathlib.Path('src/pkg/lib.py')}:5: probe\n")


def test_the_repository_has_no_dead_surface():
    assert dead_surface.dead_surface(_ROOT) == []
