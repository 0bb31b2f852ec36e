"""The application graph: kernels, stream channels, dependency edges.

An application is a directed graph of kernels connected by stream channels
(Section II), plus data-dependency edges that limit parallelism (Section
IV-B).  Application inputs declare their frame size and rate, which is the
source of every real-time constraint downstream.

The graph is a mutable container deliberately separate from the analyses:
compiler passes produce transformed copies, leaving the programmer's graph
untouched.

Every mutator bumps :attr:`ApplicationGraph.version` and empties
:attr:`ApplicationGraph.derived`, the one place results computed *from*
the graph (its topological order, its dataflow analysis) are kept, so a
pass that changes nothing costs its successors no re-analysis.  The rule
for pass authors: mutate through the graph, or call
:meth:`ApplicationGraph.touch` after changing a kernel in place.
"""

from __future__ import annotations

import copy
from typing import Any, Iterator, TYPE_CHECKING

from ..errors import GraphError
from .edges import DependencyEdge, StreamEdge
from .kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..kernels.sources import ApplicationInput, ApplicationOutput

__all__ = ["ApplicationGraph"]


class ApplicationGraph:
    """A block-parallel application under construction or transformation."""

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._kernels: dict[str, Kernel] = {}
        self._edges: list[StreamEdge] = []
        self._deps: list[DependencyEdge] = []
        #: Bumped by every mutation; see :meth:`touch`.
        self.version = 0
        #: Results derived from the graph as it is now, by name; emptied
        #: by every mutation, so they never outlive what they describe.
        self.derived: dict[str, Any] = {}

    def touch(self) -> None:
        """Record that the graph changed: bump :attr:`version` and drop
        every derived result.  The mutators below call it; a pass that
        rewrites a kernel already in the graph in place must too."""
        self.version += 1
        self.derived.clear()

    def __getstate__(self) -> dict[str, Any]:
        # Derived results describe the graph, they are not part of it: a
        # pickled (or deep-copied) graph recomputes its own.
        return {**self.__dict__, "derived": {}}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_kernel(self, kernel: Kernel) -> Kernel:
        if kernel.name in self._kernels:
            raise GraphError(f"duplicate kernel name {kernel.name!r}")
        self._kernels[kernel.name] = kernel
        self.touch()
        return kernel

    def add_input(
        self, name: str, width: int, height: int, rate_hz: float
    ) -> "ApplicationInput":
        """Declare an application input of ``width x height`` frames at
        ``rate_hz`` frames per second; data arrives one element at a time in
        scan-line order with end-of-line/end-of-frame tokens interleaved."""
        from ..kernels.sources import ApplicationInput  # circular at module load

        return self.add_kernel(
            ApplicationInput(name, width, height, rate_hz)
        )  # type: ignore[return-value]

    def add_output(self, name: str) -> "ApplicationOutput":
        """Declare an application output (a sink that records arrivals)."""
        from ..kernels.sources import ApplicationOutput

        return self.add_kernel(ApplicationOutput(name))  # type: ignore[return-value]

    def connect(
        self, src: str | Kernel, src_port: str, dst: str | Kernel, dst_port: str
    ) -> StreamEdge:
        """Connect ``src.src_port`` to ``dst.dst_port`` with a stream channel.

        Outputs may fan out to several inputs (the application input in
        Figure 1 feeds both filters); each input accepts exactly one channel.
        """
        src_name = src.name if isinstance(src, Kernel) else src
        dst_name = dst.name if isinstance(dst, Kernel) else dst
        src_k = self.kernel(src_name)
        dst_k = self.kernel(dst_name)
        src_k.output_spec(src_port)  # raises PortError on unknown ports
        dst_k.input_spec(dst_port)
        if self.edge_into(dst_name, dst_port) is not None:
            raise GraphError(
                f"input {dst_name}.{dst_port} already has an incoming channel"
            )
        edge = StreamEdge(src_name, src_port, dst_name, dst_port)
        self._edges.append(edge)
        self.touch()
        return edge

    def add_dependency(self, src: str | Kernel, dst: str | Kernel) -> DependencyEdge:
        """Add a data-dependency edge limiting ``dst`` parallelism to ``src``'s."""
        src_name = src.name if isinstance(src, Kernel) else src
        dst_name = dst.name if isinstance(dst, Kernel) else dst
        self.kernel(src_name)
        self.kernel(dst_name)
        dep = DependencyEdge(src_name, dst_name)
        self._deps.append(dep)
        self.touch()
        return dep

    def remove_edge(self, edge: StreamEdge) -> None:
        try:
            self._edges.remove(edge)
        except ValueError:
            raise GraphError(f"no such edge: {edge}") from None
        self.touch()

    def remove_kernel(self, name: str) -> None:
        """Remove a kernel and every edge touching it."""
        self.kernel(name)
        del self._kernels[name]
        self._edges = [e for e in self._edges if name not in (e.src, e.dst)]
        self._deps = [d for d in self._deps if name not in (d.src, d.dst)]
        self.touch()

    def rename_kernel(self, old: str, new: str) -> None:
        """Rename a kernel, rewriting all edges that reference it."""
        k = self.kernel(old)
        if new in self._kernels:
            raise GraphError(f"duplicate kernel name {new!r}")
        del self._kernels[old]
        k._name = new  # the graph owns kernel identity
        self._kernels[new] = k
        self._edges = [
            StreamEdge(
                new if e.src == old else e.src,
                e.src_port,
                new if e.dst == old else e.dst,
                e.dst_port,
            )
            for e in self._edges
        ]
        self._deps = [
            DependencyEdge(new if d.src == old else d.src,
                           new if d.dst == old else d.dst)
            for d in self._deps
        ]
        self.touch()

    def insert_on_edge(
        self, edge: StreamEdge, kernel: Kernel, in_port: str, out_port: str
    ) -> tuple[StreamEdge, StreamEdge]:
        """Splice ``kernel`` into ``edge`` (used by buffer/inset insertion).

        The original channel is replaced by ``src -> kernel.in_port`` and
        ``kernel.out_port -> dst``.
        """
        if kernel.name not in self._kernels:
            self.add_kernel(kernel)
        self.remove_edge(edge)
        first = self.connect(edge.src, edge.src_port, kernel.name, in_port)
        second = self.connect(kernel.name, out_port, edge.dst, edge.dst_port)
        return first, second

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def kernel(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise GraphError(f"no kernel named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    @property
    def kernels(self) -> dict[str, Kernel]:
        return dict(self._kernels)

    @property
    def edges(self) -> list[StreamEdge]:
        return list(self._edges)

    @property
    def dependencies(self) -> list[DependencyEdge]:
        return list(self._deps)

    def in_edges(self, name: str) -> list[StreamEdge]:
        return [e for e in self._edges if e.dst == name]

    def out_edges(self, name: str) -> list[StreamEdge]:
        return [e for e in self._edges if e.src == name]

    def edge_into(self, name: str, port: str) -> StreamEdge | None:
        for e in self._edges:
            if e.dst == name and e.dst_port == port:
                return e
        return None

    def edges_from(self, name: str, port: str) -> list[StreamEdge]:
        return [e for e in self._edges if e.src == name and e.src_port == port]

    def predecessors(self, name: str) -> list[str]:
        seen: list[str] = []
        for e in self.in_edges(name):
            if e.src not in seen:
                seen.append(e.src)
        return seen

    def successors(self, name: str) -> list[str]:
        seen: list[str] = []
        for e in self.out_edges(name):
            if e.dst not in seen:
                seen.append(e.dst)
        return seen

    def application_inputs(self) -> list[Kernel]:
        from ..kernels.sources import ApplicationInput

        return [k for k in self._kernels.values() if isinstance(k, ApplicationInput)]

    def application_outputs(self) -> list[Kernel]:
        from ..kernels.sources import ApplicationOutput

        return [k for k in self._kernels.values() if isinstance(k, ApplicationOutput)]

    def dependency_sources(self, name: str) -> list[str]:
        return [d.src for d in self._deps if d.dst == name]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kernel names in dataflow order.

        Edges into kernels flagged ``breaks_cycle`` (feedback kernels,
        Section III-D) are ignored when ordering, which is exactly the
        "break the feedback loops using special feedback kernels" strategy
        the paper describes.

        The order is Kahn's, generation by generation: kernels in
        insertion order, successors in the order their first channel was
        connected.  Kernel naming, degrees and processor assignment all
        follow it, so it is part of what a compile reproduces.  Computed
        once per graph version; callers get their own list.
        """
        order = self.derived.get("order")
        if order is None:
            order = self.derived["order"] = self._kahn_order()
        return list(order)

    def _kahn_order(self) -> list[str]:
        succ: dict[str, dict[str, None]] = {name: {} for name in self._kernels}
        indegree = dict.fromkeys(self._kernels, 0)
        for e in self._edges:
            if e.dst not in succ[e.src] and not getattr(
                self._kernels[e.dst], "breaks_cycle", False
            ):
                succ[e.src][e.dst] = None
                indegree[e.dst] += 1
        order: list[str] = []
        generation = [name for name, d in indegree.items() if d == 0]
        while generation:
            order.extend(generation)
            ready = []
            for name in generation:
                for child in succ[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.append(child)
            generation = ready
        if len(order) < len(succ):
            raise GraphError(
                "application graph has a cycle not broken by a feedback "
                f"kernel: {' -> '.join(_first_cycle(succ))}"
            )
        return order

    def iter_kernels(self) -> Iterator[Kernel]:
        return iter(self._kernels.values())

    # ------------------------------------------------------------------
    # Validation and utility
    # ------------------------------------------------------------------
    def check_connected(self) -> None:
        """Every input port must have a channel; every output at least one.

        Unconnected outputs are an error because data would silently vanish;
        sinks should be explicit ApplicationOutput kernels.
        """
        for name, k in self._kernels.items():
            for port in k.inputs:
                if self.edge_into(name, port) is None:
                    raise GraphError(f"unconnected input: {name}.{port}")
            for port in k.outputs:
                if not self.edges_from(name, port):
                    raise GraphError(f"unconnected output: {name}.{port}")

    def copy(self, name: str | None = None) -> "ApplicationGraph":
        """An independent copy for compiler passes to transform: kernels
        are copied (see :meth:`Kernel.__deepcopy__` for what they share),
        the immutable edge records are shared."""
        twin = ApplicationGraph(name or self.name)
        twin._kernels = {n: copy.deepcopy(k) for n, k in self._kernels.items()}
        twin._edges = list(self._edges)
        twin._deps = list(self._deps)
        return twin

    def fresh_name(self, base: str) -> str:
        """A kernel name not yet present, derived from ``base``."""
        if base not in self._kernels:
            return base
        i = 0
        while f"{base}_{i}" in self._kernels:
            i += 1
        return f"{base}_{i}"

    def describe(self) -> str:
        """Human-readable dump used by examples and reports."""
        lines = [f"application {self.name!r}:"]
        for name in self.topological_order():
            k = self._kernels[name]
            lines.append(f"  {name} [{type(k).__name__}]")
            for port, spec in k.inputs.items():
                src = self.edge_into(name, port)
                origin = f" <- {src.src}.{src.src_port}" if src else " (unconnected)"
                lines.append(f"    in  {spec.describe()}{origin}")
            for port, spec in k.outputs.items():
                dests = ", ".join(
                    f"{e.dst}.{e.dst_port}" for e in self.edges_from(name, port)
                )
                lines.append(f"    out {spec.describe()} -> {dests or '(unconnected)'}")
        for d in self._deps:
            lines.append(f"  {d}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ApplicationGraph {self.name!r}: {len(self._kernels)} kernels, "
            f"{len(self._edges)} channels, {len(self._deps)} dependencies>"
        )


def _first_cycle(succ: dict[str, dict[str, None]]) -> list[str]:
    """The first cycle a depth-first walk meets, as the kernels along it.

    Roots in kernel order, children in channel order, reported from the
    kernel the closing channel points back at.
    """
    finished: set[str] = set()
    for root in succ:
        path = [root]
        walks = [iter(succ[root])]
        while walks:
            child = next(walks[-1], None)
            if child is None:
                walks.pop()
                finished.add(path.pop())
            elif child in path:
                return path[path.index(child):]
            elif child not in finished:
                path.append(child)
                walks.append(iter(succ[child]))
    raise AssertionError("no cycle in a graph Kahn's algorithm did not empty")
