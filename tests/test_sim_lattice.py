"""The option lattice: faults x observers x substrate, pinned per case.

Every combination of :data:`regen_sim_fixtures.LATTICE_FAULTS` (no spec,
retry, shed, corrupt, a slow element, an element death with and without
a spare to migrate to, dropped and duplicated transfers, all of them at
once) with three option modes (plain; trace + telemetry; trace +
telemetry + NoC + ``channel_capacity=8``) on two applications must
reproduce its recorded ``as_dict()`` digest, makespan and fault counters
exactly — or raise the recorded error.  The golden faulted and NoC
fixtures pin one point each; this pins the products, which is where a
refactor of the loop's fault and bound paths can go wrong unseen.

Regenerate with ``PYTHONPATH=src python tests/regen_sim_fixtures.py`` —
only when the simulated semantics intentionally change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.faults import FaultStats

from regen_sim_fixtures import lattice_cases, lattice_record

FIXTURE = (pathlib.Path(__file__).resolve().parent / "fixtures"
           / "sim_conformance" / "lattice.json")
CASES = json.loads(FIXTURE.read_text())["cases"]


def test_fixture_covers_the_lattice():
    assert sorted(CASES) == sorted(case for case, *_ in lattice_cases())


@pytest.mark.parametrize(
    "case, key, frames, fault, mode", lattice_cases(),
    ids=[case for case, *_ in lattice_cases()],
)
def test_case_matches_its_recording(case, key, frames, fault, mode):
    # A JSON round trip so floats compare as the fixture stores them.
    got = json.loads(json.dumps(lattice_record(key, frames, fault, mode)))
    assert got == CASES[case]


def test_lattice_is_not_vacuous():
    ran = [c for c in CASES.values() if "raises" not in c]
    # Every degradation counter moves somewhere, so no fault path of the
    # loop goes unpinned.
    for counter in FaultStats().as_dict():
        assert any(c["faults"][counter] for c in ran), counter
    # A slow element stretches some run, so its scaling is pinned too.
    assert any(
        CASES[case]["makespan_s"]
        != CASES[case.replace("/slow/", "/none/")]["makespan_s"]
        for case in CASES if "/slow/" in case
    )
    # A raising case pins the error, but most cases run to the end.
    assert len(ran) > len(CASES) // 2
