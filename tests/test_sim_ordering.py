"""Same-timestamp ordering: polls, zero-time finishes and migrations.

The event loop keeps the polls of the current timestamp in one queue
and drains it only once the heap holds nothing more at that timestamp,
which is the order ``(time, kind, seq)`` gave them on one heap.  These
cases pin the three places where that order is easy to get wrong:

* a firing that takes no time (zero cycles, no element read or written)
  finishes at the current timestamp, behind polls already queued — its
  finish must run before them;
* an element death with ``migration_cycles=0`` re-polls the migrated
  kernels at the current timestamp, behind the polls already queued;
* two kernels share an element, and a same-timestamp delivery polls a
  kernel the finish handler also re-polls, so the two requests must
  coalesce into one poll.

Every timestamp is a dyadic rational (a 2**20 Hz clock, an element
period of 2**-14 s), so the coincidences are exact in floating point.
Where :mod:`repro.sim.reference` models the case the run is compared
with it; it models no faults, so the migration case is held to values
recorded from the loop that kept every poll on the heap.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults import FaultSpec
from repro.graph import ApplicationGraph, Kernel, MethodCost
from repro.kernels import ApplicationOutput
from repro.machine import ProcessorSpec
from repro.sim import SimulationOptions
from repro.sim.reference import ReferenceSimulator
from repro.sim.simulator import Simulator
from repro.tokens import EndOfLine
from repro.transform.multiplex import Mapping

#: 64 cycles per element period: a 62-cycle pass-through (one element
#: read, one written) takes exactly one period.
PROC = ProcessorSpec(clock_hz=2.0 ** 20, memory_words=1024)


class LineMarker(Kernel):
    """Passes each element on; handles end-of-line in zero time."""

    def configure(self) -> None:
        self.add_input("in", 1, 1)
        self.add_output("out", 1, 1)
        self.add_method("pass_on", inputs=("in",), outputs=("out",),
                        cost=MethodCost(cycles=4))
        self.add_method("line", outputs=("out",), cost=MethodCost(cycles=0),
                        on_token=("in", EndOfLine), forward_token=True)

    def pass_on(self) -> None:
        self.write_output("out", self.read_input("in"))

    def line(self) -> None:
        pass


class Join(Kernel):
    """Two inputs, one output: end-of-line forwards once it heads both."""

    def configure(self) -> None:
        self.add_input("a", 1, 1)
        self.add_input("b", 1, 1)
        self.add_output("out", 1, 1)
        self.add_method("join", inputs=("a", "b"), outputs=("out",),
                        cost=MethodCost(cycles=3))

    def join(self) -> None:
        self.write_output("out", self.read_input("a") - self.read_input("b"))


class Pass(Kernel):
    def __init__(self, name: str, cycles: int) -> None:
        self._cycles = cycles
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", 1, 1)
        self.add_output("out", 1, 1)
        self.add_method("pass_on", inputs=("in",), outputs=("out",),
                        cost=MethodCost(cycles=self._cycles))

    def pass_on(self) -> None:
        self.write_output("out", self.read_input("in"))


def _app(kernels, edges) -> ApplicationGraph:
    """A 4x4 input at 2**10 frames/s through ``kernels`` to ``Out``."""
    app = ApplicationGraph("ordering")
    app.add_input("In", 4, 4, 2.0 ** 10)
    for kernel in kernels:
        app.add_kernel(kernel)
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    for edge in edges:
        app.connect(*edge)
    return app


def marker_join() -> ApplicationGraph:
    return _app([LineMarker("Z"), Join("J")],
                [("In", "out", "Z", "in"), ("In", "out", "J", "b"),
                 ("Z", "out", "J", "a"), ("J", "out", "Out", "in")])


def pipeline(cycles_a: int, cycles_b: int) -> ApplicationGraph:
    return _app([Pass("A", cycles_a), Pass("B", cycles_b)],
                [("In", "out", "A", "in"), ("A", "out", "B", "in"),
                 ("B", "out", "Out", "in")])


def _mapping(app, assignment, spares=()) -> Mapping:
    return Mapping(app=app, assignment=assignment, strategy="test",
                   spares=spares)


def _digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.as_dict(), sort_keys=True).encode()).hexdigest()


def _against_reference(build, assignment):
    """The loop's run and the seed loop's run of a fresh graph each."""
    options = SimulationOptions(frames=2, trace=True)
    app = build()
    got = Simulator(app, _mapping(app, assignment), PROC, options).run()
    app = build()
    want = ReferenceSimulator(app, _mapping(app, assignment), PROC,
                              options).run()
    return got, want


@pytest.mark.parametrize("assignment", [{"Z": 0, "J": 1}, {"Z": 0, "J": 0}],
                         ids=["two-elements", "one-element"])
def test_a_zero_time_finish_runs_before_the_queued_polls(assignment):
    got, want = _against_reference(marker_join, assignment)
    assert got.as_dict() == want.as_dict()
    assert got.events_processed == want.events_processed
    # The case is live: end-of-line firings take no time at all.
    assert any(e.method == "line" and e.read_s == e.run_s == e.write_s == 0
               for e in got.trace)


def test_a_shared_element_coalesces_a_delivery_and_a_finish_repoll():
    got, want = _against_reference(lambda: pipeline(62, 62),
                                   {"A": 0, "B": 0})
    assert got.as_dict() == want.as_dict()
    assert got.events_processed == want.events_processed
    assert got.event_counts["busy"] > 0  # the two kernels contend


#: ``(B's cycles, death time in element periods, events, as_dict
#: sha256)`` recorded from the loop that kept every poll, migration polls
#: too, on one heap.  A takes exactly one period, so at each death time
#: A's poll (a source delivery) is queued ahead of B's (A's finish): A
#: observes the death, and its migration poll must queue behind B's —
#: run ahead of it, A takes the spare first and every case moves.
MIGRATIONS = [
    (62, 3, 362,
     "49bfc05770573e317261d7081b264d0c5ad5f8dc70d5e6755b4468a794a1aaba"),
    (30, 3, 364,
     "e08efd561c5541d6e47b31463a59cfcfcb85f4b684fe15f341d3416c261b0540"),
    (30, 5, 361,
     "b6125c2f1f2f601acaa15081688364a53c415c14b509161b9053a4968e8d4a39"),
    (30, 8, 361,
     "dfa6fd7407a36d07e8d77c44655bc3555ff068b6b391aff1bf3126359afff804"),
]


@pytest.mark.parametrize("cycles_b, periods, events, sha256", MIGRATIONS,
                         ids=[f"B{b}-death@{p}" for b, p, *_ in MIGRATIONS])
def test_a_zero_cycle_migration_repolls_behind_the_queued_polls(
        cycles_b, periods, events, sha256):
    spec = FaultSpec.from_dict({
        "pe_failures": [{"processor": 0, "time_s": periods * 2.0 ** -14}],
        "recovery": {"migrate": True, "migration_cycles": 0.0},
    })
    app = pipeline(62, cycles_b)
    result = Simulator(app, _mapping(app, {"A": 0, "B": 0}, spares=(1,)),
                       PROC, SimulationOptions(frames=2, trace=True,
                                               faults=spec)).run()
    assert result.fault_stats.migrations == 1
    assert result.events_processed == events
    assert _digest(result) == sha256
