"""Graph versions, derived results and copy independence.

What a compile reuses must never be observable: the native topological
order is the one networkx gave, a result kept on a graph is dropped by
every mutation, a copy shares nothing a pass or a run can change, and
nothing is remembered from one ``compile_application`` call to the next.
"""

import pickle
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_dataflow, find_misalignments
from repro.analysis import dataflow as dataflow_module
from repro.analysis.resources import analyze_resources
from repro.analysis.validate import validate_application, validate_physical
from repro.apps import BENCHMARK_PROCESSOR, benchmark_suite
from repro.errors import BlockParallelError, GraphError
from repro.graph import ApplicationGraph
from repro.graph.edges import StreamEdge
from repro.graph.serialize import fingerprint as graph_fingerprint
from repro.kernels import (
    AddKernel,
    ApplicationOutput,
    BufferKernel,
    HistogramKernel,
    IdentityKernel,
    MedianKernel,
)
from repro.sim import run_functional
from repro.transform import CompileOptions, compile_application
from repro.transform.align import align_application
from repro.transform.buffering import insert_buffers
from repro.transform.parallelize import parallelize_application
from repro.transform.reuse import reuse_optimize_buffer
from test_random_pipelines import pipelines

REPO = Path(__file__).resolve().parent.parent
MAPPINGS = ("greedy", "1:1")
SUITE_CASES = [(bench, mapping) for bench in benchmark_suite()
               for mapping in MAPPINGS]
SUITE_IDS = [f"{bench.key}-{mapping}" for bench, mapping in SUITE_CASES]


def compile_case(bench, mapping):
    return compile_application(bench.application(), BENCHMARK_PROCESSOR,
                               CompileOptions(mapping=mapping))


def reference_order(app: ApplicationGraph):
    """What ``topological_order`` did before it went native: networkx on
    a DiGraph filled in edge order; the order, or the cycle's text."""
    g = nx.DiGraph()
    g.add_nodes_from(app.kernels)
    for e in app.edges:
        if not getattr(app.kernel(e.dst), "breaks_cycle", False):
            g.add_edge(e.src, e.dst)
    try:
        return list(nx.topological_sort(g))
    except nx.NetworkXUnfeasible:
        return " -> ".join(u for u, _ in nx.find_cycle(g))


def native_order(app: ApplicationGraph):
    try:
        return app.topological_order()
    except GraphError as exc:
        assert "cycle not broken by a feedback kernel: " in str(exc)
        return str(exc).split("kernel: ", 1)[1]


# ----------------------------------------------------------------------
# The native order is the networkx order
# ----------------------------------------------------------------------
def test_import_repro_does_not_import_networkx():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('networkx')))"],
        capture_output=True, text=True, check=True, cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin"},
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("bench", benchmark_suite(), ids=lambda b: b.key)
def test_native_order_matches_networkx_on_the_suite(bench):
    app = bench.application()
    assert app.topological_order() == reference_order(app)
    compiled = compile_case(bench, "greedy").graph
    assert compiled.topological_order() == reference_order(compiled)


def random_graph(seed: int) -> ApplicationGraph:
    """Kernels in shuffled order, forward edges (plus the odd backward or
    self edge, so about a quarter are cyclic) inserted in shuffled order,
    some of them doubled."""
    rng = random.Random(seed)
    names = [f"k{i}" for i in range(rng.randint(2, 12))]
    app = ApplicationGraph(f"random{seed}")
    for name in rng.sample(names, len(names)):
        app.add_kernel(ApplicationOutput(name))
    pairs = [
        (a, b)
        for i, a in enumerate(names) for j, b in enumerate(names)
        if rng.random() < 0.25 and (i < j or rng.random() < 0.08)
    ]
    rng.shuffle(pairs)
    for n, (a, b) in enumerate(pairs):
        # Orders ignore ports, so edges go in directly: ``connect``
        # would insist on real, single-use ports.
        app._edges.append(StreamEdge(a, "out", b, f"in{n}"))
        if rng.random() < 0.2:
            app._edges.append(StreamEdge(a, "out", b, f"in{n}'"))
    app.touch()
    return app


def test_native_order_matches_networkx_on_random_graphs():
    cyclic = 0
    for seed in range(200):
        app = random_graph(seed)
        expected = reference_order(app)
        assert native_order(app) == expected, seed
        cyclic += isinstance(expected, str)
    assert 20 < cyclic < 120  # both outcomes are exercised


# ----------------------------------------------------------------------
# Every mutator invalidates
# ----------------------------------------------------------------------
def small_graph() -> ApplicationGraph:
    app = ApplicationGraph("small")
    app.add_input("Input", 4, 4, 10.0)
    app.add_kernel(IdentityKernel("a"))
    app.add_kernel(IdentityKernel("b"))
    app.add_kernel(AddKernel("sum"))
    app.add_output("Out")
    app.connect("Input", "out", "a", "in")
    app.connect("Input", "out", "b", "in")
    app.connect("a", "out", "sum", "in0")
    app.connect("b", "out", "sum", "in1")
    app.connect("sum", "out", "Out", "in")
    return app


def apply_mutation(app: ApplicationGraph, op: int, pick, fresh: str) -> bool:
    """One of the seven mutators on something ``pick`` chooses; False
    when the graph has nothing for this one to act on."""
    names = sorted(app.kernels)
    edges = app.edges
    if op == 0:
        app.add_kernel(IdentityKernel(fresh))
    elif op == 1:
        free = [(n, p) for n in names for p in app.kernel(n).inputs
                if app.edge_into(n, p) is None]
        sources = [n for n in names if "out" in app.kernel(n).outputs]
        if not free or not sources:
            return False
        app.connect(pick(sources), "out", *pick(free))
    elif op == 2:
        app.add_dependency(pick(names), pick(names))
    elif op == 3 and edges:
        app.remove_edge(pick(edges))
    elif op == 4 and len(names) > 1:
        app.remove_kernel(pick(names))
    elif op == 5:
        app.rename_kernel(pick(names), fresh)
    elif op == 6 and edges:
        app.insert_on_edge(pick(edges), IdentityKernel(fresh), "in", "out")
    else:
        return False
    return True


def analysis_or_error(app: ApplicationGraph):
    try:
        return analyze_dataflow(app).flows
    except BlockParallelError as exc:
        return str(exc)


def misalignments_or_error(app: ApplicationGraph):
    try:
        return find_misalignments(app)
    except BlockParallelError as exc:  # column-split regions do not overlap
        return str(exc)


@given(st.lists(st.tuples(st.integers(0, 6), st.randoms(use_true_random=False)),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_mutators_invalidate_order_and_analysis(steps):
    app = small_graph()
    for n, (op, rng) in enumerate(steps):
        # Fill the cache, so a mutator that forgot to invalidate shows.
        native_order(app)
        analysis_or_error(app)
        version = app.version
        if not apply_mutation(app, op, rng.choice, f"new{n}"):
            continue
        assert app.version > version
        assert app.derived == {}
        assert native_order(app) == reference_order(app)
        untouched = pickle.loads(pickle.dumps(app))
        assert analysis_or_error(app) == analysis_or_error(untouched)


def test_results_are_kept_until_the_graph_changes():
    app = small_graph()
    first = analyze_dataflow(app)
    assert analyze_dataflow(app) is first
    assert find_misalignments(app) == []
    order = app.topological_order()
    order.append("scribble")  # callers own the list they get
    assert app.topological_order() == order[:-1]
    app.add_kernel(IdentityKernel("late"))
    assert "late" in app.topological_order()
    assert app.derived.get("dataflow") is None


def test_a_failed_or_partial_analysis_is_not_kept(monkeypatch):
    app = small_graph()
    app.insert_on_edge(app.edge_into("a", "in"), MedianKernel("med", 3, 3),
                       "in", "out")  # 2x2 meets 4x4 at the adder
    with pytest.raises(BlockParallelError, match="grids differ"):
        analyze_dataflow(app)
    assert "dataflow" not in app.derived
    (problem,) = find_misalignments(app)
    assert problem.kernel == "sum"
    assert "dataflow" not in app.derived  # the tolerant pass stopped short
    with pytest.raises(BlockParallelError, match="grids differ"):
        analyze_dataflow(app)

    # Once repaired, the sweep that finds nothing left *is* the analysis.
    passes = []
    real_pass = dataflow_module._propagate
    monkeypatch.setattr(
        dataflow_module, "_propagate",
        lambda app, **kw: passes.append(kw) or real_pass(app, **kw))
    assert align_application(app) == ["offset(in1)"]
    assert passes == [{"tolerant": True}] * 2
    assert analyze_dataflow(app) is app.derived["dataflow"]
    assert len(passes) == 2


def test_reuse_transform_flag_lands_through_the_graph():
    """``sequential_input_reuse`` is set on clones before ``add_kernel``,
    so no result computed before the transform survives it."""
    from repro.apps import build_image_pipeline

    app = build_image_pipeline(24, 16, 50.0)
    work = app.copy()
    align_application(work)
    insert_buffers(work, analyze_dataflow(work))
    stale = analyze_dataflow(work)
    buffer = next(n for n, k in work.kernels.items()
                  if isinstance(k, BufferKernel)
                  and work.kernel(work.edges_from(n, "out")[0].dst)
                  .output_spec("out").window.elements == 1)
    plan = reuse_optimize_buffer(work, buffer, 2)
    fresh = analyze_dataflow(work)
    assert fresh is not stale
    assert set(plan.consumer_instances) <= set(fresh.flows)
    assert all(work.kernel(n).sequential_input_reuse
               for n in plan.consumer_instances)


# ----------------------------------------------------------------------
# Copies share nothing that can change
# ----------------------------------------------------------------------
SHARED_SPEC_TABLES = ("_inputs", "_outputs", "_methods", "_init_methods")


def comparable(value):
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, dict):
        return {k: comparable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [comparable(v) for v in value]
    return value


def mutable_state(kernel):
    return {k: comparable(v) for k, v in kernel.__dict__.items()
            if k not in SHARED_SPEC_TABLES}


@pytest.mark.parametrize("bench,mapping", SUITE_CASES, ids=SUITE_IDS)
def test_running_a_copy_leaves_the_original_untouched(bench, mapping):
    graph = compile_case(bench, mapping).graph
    before = {n: mutable_state(k) for n, k in graph.kernels.items()}
    twin = graph.copy()
    assert twin.edges == graph.edges and twin.derived == {}
    for name, kernel in graph.kernels.items():
        other = twin.kernel(name)
        assert type(other) is type(kernel) and other is not kernel
        for attr, value in kernel.__dict__.items():
            if isinstance(value, (dict, list, set, np.ndarray)):
                assert getattr(other, attr) is not value, (name, attr)
        for table in SHARED_SPEC_TABLES:  # rebuilt tables, shared records
            ours, theirs = getattr(kernel, table), getattr(other, table)
            assert ours == theirs
            assert all(ours[k] is theirs[k] for k in ours)

    result = run_functional(twin, frames=1)

    assert any(result.outputs.values())  # the run did write state
    assert {n: mutable_state(k) for n, k in graph.kernels.items()} == before
    assert all(k.received == [] for k in graph.application_outputs())


def test_clones_of_a_stateful_kernel_are_independent():
    original = HistogramKernel("hist", 8)
    original.counts[:] = 1.0
    left, right = original.clone("hist_0"), original.clone("hist_1")
    assert left.name == "hist_0" and right.name == "hist_1"
    left.counts[0] += 5  # clones start reset; the original keeps its ones
    left._eol_seen["count"] = 3
    assert right.counts[0] == 0.0 and (original.counts == 1.0).all()
    assert right._eol_seen == {} and original._eol_seen == {}
    assert left.input_spec("in") is original.input_spec("in")

    store = BufferKernel("buf", region_w=6, region_h=4, window_w=3, window_h=3)
    twin = store.clone("buf_0")
    twin._store[:] = 7.0
    assert not (store._store == 7.0).any()


def test_aliasing_inside_one_kernel_survives_a_copy():
    values = np.arange(4.0).reshape(2, 2)
    kernel = IdentityKernel("k")
    kernel.table = values
    kernel.views = [values]
    twin = kernel.clone("k2")
    assert twin.table is twin.views[0] and twin.table is not values


# ----------------------------------------------------------------------
# Nothing is remembered across compiles
# ----------------------------------------------------------------------
def summary(compiled):
    return {
        "kernels": sorted(compiled.graph.kernels),
        "processors": compiled.processor_count,
        "alignment": list(compiled.inserted_alignment),
        "buffers": list(compiled.inserted_buffers),
        "degrees": dict(compiled.parallelization.degrees),
        "assignment": dict(compiled.mapping.assignment),
        "flows": compiled.dataflow.flows,
    }


@pytest.mark.parametrize("bench", benchmark_suite(), ids=lambda b: b.key)
def test_compiling_twice_from_one_source(bench, monkeypatch):
    copies, passes = [], []
    real_copy, real_pass = ApplicationGraph.copy, dataflow_module._propagate
    monkeypatch.setattr(
        ApplicationGraph, "copy",
        lambda self, name=None: copies.append(self) or real_copy(self, name))
    monkeypatch.setattr(
        dataflow_module, "_propagate",
        lambda app, **kw: passes.append(app) or real_pass(app, **kw))

    source = bench.application()
    try:
        fingerprint = graph_fingerprint(source)
    except GraphError:
        fingerprint = None  # procedural input patterns do not serialize
    state = {n: mutable_state(k) for n, k in source.kernels.items()}
    structure = (list(source.kernels), source.edges, source.dependencies)

    first = compile_application(source, BENCHMARK_PROCESSOR)
    first_passes = len(passes)
    second = compile_application(source, BENCHMARK_PROCESSOR)

    assert summary(first) == summary(second)
    # The second call copied the source again and ran every analysis
    # pass the first did, on its own graph: nothing came from the first.
    assert copies == [source, source]
    assert first_passes >= 1 and len(passes) == 2 * first_passes
    assert all(app is second.graph for app in passes[first_passes:])
    assert second.graph is not first.graph
    assert second.dataflow is not first.dataflow
    assert not ({id(k) for k in first.graph.iter_kernels()}
                & {id(k) for k in second.graph.iter_kernels()})
    # ... and the programmer's graph is as it was.
    assert first.source is source and second.source is source
    assert (list(source.kernels), source.edges,
            source.dependencies) == structure
    assert {n: mutable_state(k) for n, k in source.kernels.items()} == state
    if fingerprint is not None:
        assert graph_fingerprint(source) == fingerprint


def test_a_pickled_graph_recomputes_its_own_results():
    compiled = compile_case(benchmark_suite()[0], "greedy")
    assert compiled.graph.derived["dataflow"] is compiled.dataflow
    clone = pickle.loads(pickle.dumps(compiled))
    assert clone.graph.derived == {}
    assert clone.dataflow.app is clone.graph
    assert analyze_dataflow(clone.graph).flows == compiled.dataflow.flows


# ----------------------------------------------------------------------
# A kept analysis equals a from-scratch one, after every pass
# ----------------------------------------------------------------------
def check_passes(app: ApplicationGraph, processor, mapping: str = "greedy"):
    """Walk the pipeline's passes; after each, the analysis the graph
    hands out must equal the analysis of a graph that has no history."""
    def check(work):
        untouched = pickle.loads(pickle.dumps(work))
        assert untouched.derived == {}
        kept = analyze_dataflow(work)
        assert kept is analyze_dataflow(work)
        assert kept.flows == analyze_dataflow(untouched).flows
        assert misalignments_or_error(work) == misalignments_or_error(untouched)
        return kept

    work = app.copy()
    validate_application(work)
    align_application(work)
    dataflow = check(work)
    insert_buffers(work, dataflow)
    dataflow = check(work)
    parallelize_application(
        work, processor, dataflow=dataflow,
        resources=analyze_resources(work, processor, dataflow))
    dataflow = check(work)
    validate_physical(work, dataflow)
    compiled = compile_application(app, processor,
                                   CompileOptions(mapping=mapping))
    assert compiled.dataflow.flows == dataflow.flows
    assert sorted(compiled.graph.kernels) == sorted(work.kernels)


@pytest.mark.parametrize("bench,mapping", SUITE_CASES, ids=SUITE_IDS)
def test_kept_analysis_equals_fresh_analysis_on_the_suite(bench, mapping):
    check_passes(bench.application(), BENCHMARK_PROCESSOR, mapping)


@given(pipelines())
@settings(max_examples=15, deadline=None)
def test_kept_analysis_equals_fresh_analysis_on_random_pipelines(case):
    from repro.machine import ProcessorSpec

    app, _, _ = case
    check_passes(app, ProcessorSpec(clock_hz=50e6, memory_words=2048))
