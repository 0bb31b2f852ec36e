"""The value-demand slice: pixels nobody reads are not computed.

``simulate(..., content=...)`` names the application outputs whose chunks
the caller will read; kernels whose values reach none of them (and no
kernel whose timing depends on values) fire at their declared cost and
emit shared read-only stand-ins instead of computing
(docs/simulator.md "Two planes").  Two things make that sound, and both
are pinned here:

* the per-class declaration ``Kernel.timing_depends_on`` is *true* —
  every firing of every ``"declared"`` kernel in the library writes
  exactly its method's declared outputs at its declared cost;
* the slice is *exact* — the live set is the upstream cone of what was
  asked for plus every value-dependent kernel, bodies outside it never
  run, and no timing observable can tell;
* a ``"position"`` kernel outside the slice that runs its positional
  body (``Kernel.positional_bodies``) fires exactly as its live body
  does, firing by firing.

The randomized half of the proof is the content axis of
``test_sim_differential.py``.
"""

import collections
import functools

import networkx as nx
import numpy as np
import pytest

import repro.kernels as library
from repro.apps import benchmark, benchmark_suite, build_buffer_test_app
from repro.apps.suite import BENCHMARK_PROCESSOR
from repro.errors import FiringError, SimulationError
from repro.explore import SweepSpec, execute_job, executor
from repro.graph import ApplicationGraph, Kernel, MethodCost
from repro.kernels import (
    AbsDiffKernel,
    AddKernel,
    ApplicationOutput,
    BlockMatchKernel,
    BufferKernel,
    DownsampleKernel,
    GaussianKernel,
    MedianKernel,
    MultiplyKernel,
    ScaleKernel,
    SubtractKernel,
    ThresholdKernel,
)
from repro.sim import SimulationOptions, run_functional, simulate
from repro.sim.runtime import RuntimeKernel, live_kernels, stand_in
from repro.tokens import ControlToken
from repro.transform import CompileOptions, compile_application

from helpers import BIG_PROC, SMALL_PROC, single_kernel_app
from test_random_pipelines import PALETTE

LIBRARY = [
    cls for cls in (getattr(library, name) for name in library.__all__)
    if isinstance(cls, type) and issubclass(cls, Kernel)
]

#: Shape bases: they declare for their subclasses and cannot fire.
ABSTRACT = {"ComputeKernel", "BinaryElementwiseKernel",
            "UnaryElementwiseKernel", "WindowedKernel"}


def timing_plane(result) -> dict:
    """``SimulationResult.as_dict()`` minus the pixel digests — everything
    a run observes that may not depend on whose content was asked for
    (``simulate(..., content=...)``)."""
    plane = result.as_dict()
    plane["outputs"] = {
        name: entry["count"] for name, entry in plane["outputs"].items()
    }
    return plane


# ---------------------------------------------------------------------------
# (a) The declaration is sound


@pytest.mark.parametrize("cls", LIBRARY, ids=lambda cls: cls.__name__)
def test_every_library_kernel_classifies_itself(cls):
    """Inheriting ``Kernel``'s ``"values"`` default is always safe; the
    library must not do it by accident."""
    owner = next(c for c in cls.__mro__ if "timing_depends_on" in vars(c))
    assert owner.__module__.startswith("repro.kernels."), (
        f"{cls.__name__} inherits timing_depends_on from {owner.__name__}"
    )
    assert cls.timing_depends_on in ("values", "position", "declared")


@pytest.fixture
def declared_firings(monkeypatch):
    """Check every firing of a ``"declared"`` kernel against its method
    spec as it happens; yields the firing count per kernel class."""
    seen = collections.Counter()
    execute = RuntimeKernel.execute

    def checked(self, firing):
        result = execute(self, firing)
        kernel = self.kernel
        if firing.kind != "forward" and kernel.timing_depends_on == "declared":
            data = tuple(port for port, item in result.emissions
                         if not isinstance(item, ControlToken))
            where = f"{kernel!r}.{firing.method.name}"
            assert data == firing.method.outputs, where
            assert not result.dynamic, where
            assert result.cycles == firing.method.cost.cycles, where
            seen[type(kernel).__name__] += 1
        return result

    monkeypatch.setattr(RuntimeKernel, "execute", checked)
    return seen


@functools.lru_cache(maxsize=None)
def suite_app(key: str, mapping: str):
    return compile_application(benchmark(key).application(),
                               BENCHMARK_PROCESSOR,
                               CompileOptions(mapping=mapping))


SUITE_KEYS = [bench.key for bench in benchmark_suite()]


def test_declared_kernels_write_exactly_their_declared_outputs(
        declared_firings):
    # Untimed: what a firing writes does not depend on when it fires.
    for key in SUITE_KEYS:
        for mapping in ("1:1", "greedy"):
            run_functional(suite_app(key, mapping).graph, frames=1)
    for ctor, _window, _step in PALETTE:
        simulate(compile_application(single_kernel_app(ctor(0), 10, 8),
                                     SMALL_PROC),
                 SimulationOptions(frames=1))
    for cls in (SubtractKernel, AddKernel, AbsDiffKernel, MultiplyKernel):
        app = ApplicationGraph("binary")
        app.add_input("Input", 6, 4, 100.0)
        app.add_kernel(cls("op"))
        app.add_kernel(ApplicationOutput("Out"))
        app.connect("Input", "out", "op", "in0")
        app.connect("Input", "out", "op", "in1")
        app.connect("op", "out", "Out", "in")
        simulate(compile_application(app, BIG_PROC),
                 SimulationOptions(frames=1))
    # Non-vacuity: every concrete "declared" class the library exports
    # fired under the check.
    expected = {cls.__name__ for cls in LIBRARY
                if cls.timing_depends_on == "declared"} - ABSTRACT
    assert expected <= set(declared_firings), (
        expected - set(declared_firings))


# ---------------------------------------------------------------------------
# (b) Positional bodies fire as the live ones do


@pytest.fixture
def footprints(monkeypatch):
    """Log each firing's timing-plane footprint; returns ``(log, dead)``.

    A footprint is ``(kernel, label, cycles, elements read, elements
    written, data-emission ports)``.  ``dead`` counts, per kernel class,
    the firings that ran a positional body: a method named in
    ``positional_bodies`` whose body-table entry
    :meth:`RuntimeKernel.skip_bodies` rebound away from the kernel's
    own method.
    """
    log = []
    dead = collections.Counter()
    execute = RuntimeKernel.execute

    def logged(self, firing):
        result = execute(self, firing)
        log.append((self.name, result.label, result.cycles,
                    result.elements_read, result.elements_written,
                    tuple(port for port, item in result.emissions
                          if not isinstance(item, ControlToken))))
        body = self._bound.get(result.label)
        if (result.label in self.kernel.positional_bodies
                and getattr(body, "__self__", None) is not self.kernel):
            dead[type(self.kernel).__name__] += 1
        return result

    monkeypatch.setattr(RuntimeKernel, "execute", logged)
    return log, dead


def multi_row_app():
    """``Input -> rows -> med -> Out``, ``rows`` cutting the 12x8 frame
    into full-width two-row chunks, so the compiler buffers ``med``'s
    input with a full-width multi-row-chunk buffer."""
    app = ApplicationGraph("rows")
    app.add_input("Input", 12, 8, 100.0)
    app.add_kernel(BufferKernel("rows", region_w=12, region_h=8,
                                window_w=12, window_h=2, step_x=12, step_y=2))
    app.add_kernel(MedianKernel("med", 3, 3))
    app.add_kernel(ApplicationOutput("Out"))
    for src_name, dst_name in (("Input", "rows"), ("rows", "med"),
                               ("med", "Out")):
        app.connect(src_name, "out", dst_name, "in")
    return compile_application(app, BIG_PROC)


def test_dead_position_kernels_fire_as_their_live_bodies(footprints):
    log, dead = footprints
    cases = [(suite_app(key, mapping), 1) for key in SUITE_KEYS
             for mapping in ("1:1", "greedy")]
    cases += [
        # A 64-wide frame under a 5x5 window: a column-split buffer pair.
        (compile_application(build_buffer_test_app(64, 12, 50.0, window=5),
                             BENCHMARK_PROCESSOR), 2),
        # 2x2 windows at step 2.
        (compile_application(single_kernel_app(DownsampleKernel("down", 2),
                                               10, 8), SMALL_PROC), 2),
        (multi_row_app(), 2),
    ]
    buffers = collections.Counter()
    for compiled, frames in cases:
        for k in compiled.graph.kernels.values():
            if isinstance(k, BufferKernel):
                buffers["step > 1"] += k.step_x > 1
                buffers["multi-row"] += k.in_chunk_h > 1
        options = SimulationOptions(frames=frames)
        simulate(compiled, options)
        full = list(log)
        log.clear()
        simulate(compiled, options, content=())
        assert log == full, compiled.graph.name
        log.clear()
    assert buffers["step > 1"] and buffers["multi-row"]
    # Non-vacuity: every library class that declares a positional body
    # ran it.
    expected = {cls.__name__ for cls in LIBRARY if cls.positional_bodies}
    assert expected == {"BufferKernel", "InsetKernel"}
    assert expected <= set(dead), expected - set(dead)


def test_a_dead_buffer_still_overflows():
    """The region check is the position half of ``store``, so a buffer
    nobody reads that is fed past its declared region fails the same."""
    def overfed():
        compiled = compile_application(
            single_kernel_app(MedianKernel("med", 3, 3), 10, 8), SMALL_PROC)
        buf, = (k for k in compiled.graph.kernels.values()
                if isinstance(k, BufferKernel))
        buf.region_h -= 2  # the stream still carries 8 rows
        return compiled

    messages = []
    for content in (None, ()):
        with pytest.raises(FiringError, match="more data than the declared "
                           r"10x6 region") as failure:
            simulate(overfed(), SimulationOptions(frames=1), content=content)
        messages.append(str(failure.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# (c) The slice is exact


@pytest.fixture
def wrote(monkeypatch):
    """Names of the kernels whose bodies ran far enough to write."""
    names = set()
    write_output = Kernel.write_output

    def spy(self, name, data):
        names.add(self.name)
        write_output(self, name, data)

    monkeypatch.setattr(Kernel, "write_output", spy)
    return names


def block_match_app():
    """``Input -> pre -> match -> post -> Out`` with a block matcher
    (value-dependent cost, undersized bound) between two filters, and a
    value-free side branch ``Input -> side -> side_thr -> Side``."""
    app = ApplicationGraph("slice")
    src = app.add_input("Input", 20, 14, 50.0)
    src._pattern = np.random.default_rng(7).uniform(0.0, 255.0, (14, 20))
    for kernel in (
        MedianKernel("pre", 3, 3),
        BlockMatchKernel("match", 5, 5, bound_candidates=1),
        ScaleKernel("post", gain=2.0),
        GaussianKernel("side", 3, 3),
        ThresholdKernel("side_thr", 50.0),
        ApplicationOutput("Out"),
        ApplicationOutput("Side"),
    ):
        app.add_kernel(kernel)
    for src_name, dst_name in (
        ("Input", "pre"), ("pre", "match"), ("match", "post"),
        ("post", "Out"), ("Input", "side"), ("side", "side_thr"),
        ("side_thr", "Side"),
    ):
        app.connect(src_name, "out", dst_name, "in")
    return app


def upstream_cone(graph, roots):
    g = nx.DiGraph()
    g.add_nodes_from(graph.kernels)
    g.add_edges_from((e.src, e.dst) for e in graph.edges)
    return set(roots).union(*(nx.ancestors(g, root) for root in roots))


def test_live_set_is_the_value_dependent_kernels_upstream_cone(wrote):
    compiled = compile_application(block_match_app(), SMALL_PROC)
    graph = compiled.graph
    kernels = graph.kernels
    matchers = [n for n, k in kernels.items()
                if isinstance(k, BlockMatchKernel)]
    cone = upstream_cone(graph, matchers)
    assert live_kernels(graph, ()) == cone
    assert live_kernels(graph, ("Side",)) == cone | upstream_cone(
        graph, ["Side"])
    assert live_kernels(graph, (), everything=True) == set(kernels)

    opts = SimulationOptions(frames=2)
    full = simulate(compiled, opts)
    everyone = set(wrote)
    wrote.clear()
    bare = simulate(compiled, opts, content=())

    declared = {n for n, k in kernels.items()
                if k.timing_depends_on == "declared"}
    dead = declared - cone
    assert {n.split("_")[0] for n in dead} == {"post", "side"}
    assert {n.split("_")[0] for n in declared & cone} == {"pre"}
    assert declared <= everyone
    assert not wrote & dead, "a body nobody reads ran"
    assert declared & cone <= wrote

    assert full.budget_overruns, "the bound is meant to be undersized"
    assert bare.budget_overruns == full.budget_overruns
    assert bare.makespan_s == full.makespan_s
    assert timing_plane(bare) == timing_plane(full)

    # Asking for the side branch brings its cone back, and its pixels.
    side = simulate(compiled, opts, content=["Side"])
    assert set(side.outputs) == {"Side"}
    assert all(np.array_equal(a, b) for a, b in
               zip(side.outputs["Side"], full.outputs["Side"], strict=True))
    assert timing_plane(side) == timing_plane(full)
    assert side.as_dict()["outputs"] == {
        "Out": {"count": len(full.outputs["Out"]), "sha256": None},
        "Side": full.as_dict()["outputs"]["Side"],
    }


@pytest.mark.parametrize("key", ["1", "2", "5"])
def test_fresh_compiles_replay_and_batch_the_same_firings(key):
    """A kernel that was never run holds no coefficients yet; the
    configuration loads keep their bodies in a run nobody reads, so a
    fresh compile's ``content=()`` run has the full run's timing plane
    and ``ReplayStats`` is the same ledger."""
    def run(**kwargs):
        return simulate(
            compile_application(benchmark(key).application(),
                                BENCHMARK_PROCESSOR,
                                CompileOptions(mapping="greedy")),
            SimulationOptions(frames=6, replay=True), **kwargs)

    bare, full = run(content=()), run()
    assert bare.replay.as_dict() == full.replay.as_dict()
    assert timing_plane(bare) == timing_plane(full)


#: The ``sim_steady`` bench workload's kinds: (suite key, frames).
SIM_STEADY = (("5", 12), ("5", 4), ("BF", 1), ("3", 2), ("4", 2),
              ("1", 12), ("2", 12))


@pytest.mark.parametrize(
    "key, frames",
    list(dict.fromkeys(SIM_STEADY + tuple((key, 2) for key in SUITE_KEYS))),
    ids=lambda value: str(value))
def test_the_replay_ledger_never_saw_content(key, frames):
    """Dead buffers and insets emit one shared stand-in object per shape;
    nothing reads them, so the ledger and the timing plane are the full
    run's."""
    compiled = suite_app(key, "greedy")
    options = SimulationOptions(frames=frames, replay=True)
    bare, full = simulate(compiled, options, content=()), simulate(
        compiled, options)
    assert bare.replay.as_dict() == full.replay.as_dict()
    assert timing_plane(bare) == timing_plane(full)


class Gate(Kernel):
    """Passes on only what exceeds ``level``: how many chunks leave
    depends on the data.  Written the way ``tests/`` and ``examples/``
    write ad-hoc kernels — no ``timing_depends_on`` — so it is
    ``"values"`` and must be fed real pixels."""

    level = 40.0

    def configure(self):
        self.add_input("in", 1, 1, 1, 1)
        self.add_output("out", 1, 1)
        self.add_method("run", inputs=["in"], outputs=["out"],
                        cost=MethodCost(cycles=3))

    def run(self):
        chunk = self.read_input("in")
        if chunk[0, 0] > self.level:
            self.write_output("out", chunk)


class BlindGate(Gate):
    """The same kernel under a false declaration."""

    timing_depends_on = "position"


def gated(gate_cls):
    app = ApplicationGraph("gated")
    app.add_input("Input", 12, 8, 100.0)  # the default ramp: 0..95
    app.add_kernel(ScaleKernel("pre", gain=0.5))
    app.add_kernel(gate_cls("gate"))
    app.add_kernel(ScaleKernel("post", gain=3.0))
    app.add_kernel(ApplicationOutput("Out"))
    for src_name, dst_name in (("Input", "pre"), ("pre", "gate"),
                               ("gate", "post"), ("post", "Out")):
        app.connect(src_name, "out", dst_name, "in")
    return compile_application(app, BIG_PROC)


def test_an_unclassified_kernel_keeps_its_whole_upstream_cone_live(wrote):
    assert Gate.timing_depends_on == "values"
    compiled = gated(Gate)
    assert live_kernels(compiled.graph, ()) == upstream_cone(
        compiled.graph, ["gate"])
    opts = SimulationOptions(frames=1)
    full = simulate(compiled, opts)
    wrote.clear()
    bare = simulate(compiled, opts, content=())
    assert timing_plane(bare) == timing_plane(full)
    # 0.5 * ramp > 40 for the last 15 of the 96 elements.
    assert bare.as_dict()["outputs"]["Out"]["count"] == 15
    assert "pre" in wrote and "post" not in wrote

    # The test has teeth: fed stand-ins, the gate never opens.
    blind = simulate(gated(BlindGate), opts, content=())
    assert blind.as_dict()["outputs"]["Out"]["count"] == 0


# ---------------------------------------------------------------------------
# (d) Faults keep everything live

FAULTS = {
    "seed": 5,
    "transient": {"probability": 0.05},
    "channel": {"drop_probability": 0.01},
    "recovery": {"max_retries": 1, "backoff_cycles": 8, "shed": True},
}


def test_an_active_fault_scenario_keeps_every_body_running(wrote):
    compiled = compile_application(block_match_app(), SMALL_PROC)
    opts = SimulationOptions(frames=2, faults=FAULTS)
    full = simulate(compiled, opts)
    everyone = set(wrote)
    wrote.clear()
    bare = simulate(compiled, opts, content=())
    assert wrote == everyone
    assert full.fault_stats.as_dict() == bare.fault_stats.as_dict()
    assert full.fault_stats.retries > 0
    assert timing_plane(bare) == timing_plane(full)
    assert bare.outputs == {}

    # A spec that cannot inject anything is no fault scenario.
    wrote.clear()
    simulate(compiled, SimulationOptions(frames=1, faults={"seed": 5}),
             content=())
    assert wrote < everyone


HOST_TIME = ("elapsed_s", "sim_elapsed_s", "events_per_s")


@pytest.mark.parametrize("axes", [
    {},
    {"faults": [FAULTS]},
    {"telemetry": [True], "noc": [True]},
], ids=["plain", "faults", "observed"])
def test_a_job_record_never_depended_on_pixels(axes, monkeypatch):
    """``execute_job`` asks for no content; with the request withheld —
    every pixel computed, as before the slice existed — the ``stats``
    are the same bytes."""
    job, = SweepSpec.from_dict({
        "app": "image_pipeline", "frames": 2, "axes": axes,
        "fixed": {"width": 16, "height": 12, "rate_hz": 100.0},
    }).jobs()

    def stats():
        record = execute_job(job)
        return repr({k: v for k, v in record.items() if k not in HOST_TIME})

    sliced = stats()
    monkeypatch.setattr(
        executor, "simulate",
        lambda compiled, options, content: simulate(compiled, options),
    )
    assert stats() == sliced


# ---------------------------------------------------------------------------
# (e) What a no-content result looks like


class Scribbler(Kernel):
    """Declares position-only timing, then writes into its input."""

    timing_depends_on = "position"

    def configure(self):
        self.add_input("in", 1, 1, 1, 1)
        self.add_output("out", 1, 1)
        self.add_method("run", inputs=["in"], outputs=["out"],
                        cost=MethodCost(cycles=3))

    def run(self):
        chunk = self.read_input("in")
        chunk[0, 0] += 1.0
        self.write_output("out", chunk)


def test_a_result_nobody_asked_content_of():
    compiled = compile_application(
        single_kernel_app(MedianKernel("med", 3, 3), 10, 8), SMALL_PROC)
    opts = SimulationOptions(frames=2)
    full = simulate(compiled, opts)
    bare = simulate(compiled, opts, content=())
    assert bare.outputs == {}
    assert bare.as_dict()["outputs"] == {
        "Out": {"count": len(full.outputs["Out"]), "sha256": None}}
    assert bare.output_times == full.output_times
    assert bare.options is opts
    # Asking for everything by name is the default, digests included.
    assert simulate(compiled, opts, content=["Out"]).as_dict() == \
        full.as_dict()
    with pytest.raises(SimulationError, match=r"\['Nope'\].*\['Out'\]"):
        simulate(compiled, opts, content=["Out", "Nope"])


def test_stand_ins_are_shared_and_read_only():
    window = MedianKernel("m", 5, 3).input_spec("in").window
    chunk = stand_in(window)
    assert chunk is stand_in(window)
    assert chunk.shape == (3, 5) and chunk.dtype == np.float64
    assert not chunk.any() and not chunk.flags.writeable

    compiled = compile_application(
        single_kernel_app(Scribbler("scribble"), 6, 4), BIG_PROC)
    simulate(compiled, SimulationOptions(frames=1))  # real pixels: its own
    with pytest.raises(ValueError, match="read-only"):
        simulate(compiled, SimulationOptions(frames=1), content=())


class PositionalScribbler(Scribbler):
    """The same, with a positional body that scribbles too."""

    positional_bodies = {"run": "scribble"}

    def scribble(self):
        self.read_input("in")[0, 0] += 1.0
        return 1


def test_a_positional_body_cannot_write_into_a_stand_in():
    compiled = compile_application(
        single_kernel_app(PositionalScribbler("scribble"), 6, 4), BIG_PROC)
    simulate(compiled, SimulationOptions(frames=1))
    with pytest.raises(ValueError, match="read-only"):
        simulate(compiled, SimulationOptions(frames=1), content=())
