"""Runtime kernel semantics shared by the timed and functional executors.

After compilation every channel is unit-rate: one producer chunk per
consumer firing.  The runtime implements the firing rules of Sections II-B
and II-C:

* a *data method* fires when every one of its trigger inputs has a data
  chunk at the head of its channel (selector methods — round-robin joins —
  fire on the single input their FSM currently expects);
* a *token method* fires when its registered token class reaches the head
  of its input channel;
* unhandled tokens auto-forward: once the same token sits at the head of
  every input of a data method, one copy is forwarded to that method's
  outputs (the subtract kernel's two-input rule generalizes the one-input
  case) and the kernel's ``on_token_forwarded`` hook runs.

Channel items stay strictly ordered; control tokens travel in order with
the data, which is what makes end-of-frame processing deterministic.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from ..errors import FiringError, SimulationError
from ..geometry import Size2D
from ..graph.app import ApplicationGraph
from ..graph.kernel import FiringContext, Kernel
from ..graph.methods import MethodSpec
from ..tokens import ControlToken

__all__ = [
    "Item",
    "Channel",
    "Firing",
    "FiringResult",
    "RuntimeKernel",
    "build_runtime",
    "live_kernels",
    "stand_in",
]

#: A channel item: a data chunk or a control token.
Item = Union[np.ndarray, ControlToken]


class SeqCounter:
    """A shared monotonic counter stamping channel items in arrival order."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def next(self) -> int:
        self.value += 1
        return self.value


@dataclass(slots=True)
class Channel:
    """A FIFO stream channel bound to one consumer input.

    Items are stamped with a globally increasing sequence number at push
    time; a kernel with several ready methods fires the one whose trigger
    arrived first, which keeps execution deterministic and means control
    reload channels (coefficients, bin ranges) win ties against data
    injected after them.
    """

    src: str
    src_port: str
    dst: str
    dst_port: str
    seq: SeqCounter = field(default_factory=SeqCounter)
    items: deque = field(default_factory=deque)
    seqs: deque = field(default_factory=deque)
    #: Maximum items the channel may hold, or None for unbounded.  Bounded
    #: channels model the implicit single-iteration port buffers (Figure 5
    #: caption) and make producers stall — the Figure 9(b) effect.
    capacity: int | None = None
    #: High-water mark, for buffer-sizing diagnostics.
    max_occupancy: int = 0
    total_data: int = 0
    total_tokens: int = 0

    def space_for(self, count: int) -> bool:
        return self.capacity is None or len(self.items) + count <= self.capacity

    def push(self, item: Item) -> None:
        self.items.append(item)
        self.seqs.append(self.seq.next())
        if isinstance(item, ControlToken):
            self.total_tokens += 1
        else:
            self.total_data += 1
        if len(self.items) > self.max_occupancy:
            self.max_occupancy = len(self.items)

    def head(self) -> Item | None:
        return self.items[0] if self.items else None

    def head_seq(self) -> int:
        return self.seqs[0]

    def pop(self) -> Item:
        self.seqs.popleft()
        return self.items.popleft()

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class Firing:
    """A ready-to-run unit of work on a kernel.

    ``forward`` firings are automatic token forwards (no method body);
    ``init`` firings run once at startup.
    """

    kind: str  # "method" | "token" | "forward" | "init"
    method: MethodSpec | None
    consume_ports: tuple[str, ...]
    token: ControlToken | None = None


@dataclass(slots=True)
class FiringResult:
    """What a firing did: cost inputs for the machine model plus emissions."""

    kernel: str
    label: str
    cycles: float
    elements_read: int
    elements_written: int
    emissions: list[tuple[str, Item]]
    #: The statically declared cycle bound; differs from ``cycles`` only
    #: for variable-work firings that called ``charge_cycles``.
    declared_cycles: float = 0.0
    #: True when the body charged a data-dependent cost.
    dynamic: bool = False


#: Cycles charged for auto-forwarding one token (pure plumbing).
FORWARD_CYCLES = 1


class RuntimeKernel:
    """A kernel instance wired to its runtime channels."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.name = kernel.name
        self.inputs: dict[str, Channel] = {}
        self.outputs: dict[str, list[Channel]] = {
            port: [] for port in kernel.outputs
        }
        self.firings = 0
        # Hot-path caches: port order, per-port data methods, and
        # token-transparency flags are static for the kernel's lifetime.
        self._ports: tuple[str, ...] = tuple(kernel.inputs)
        self._data_method = {
            port: kernel.data_method_for_input(port) for port in self._ports
        }
        self._transparent = {
            port for port, spec in kernel.inputs.items()
            if spec.token_transparent
        }
        # Wiring-dependent caches, built lazily on the first firing probe
        # (channels are attached after construction): per-port dispatch
        # plans with pre-built Firing instances, and bound method objects.
        self._wired: tuple | None = None
        self._bound: dict[str, object] = {}

    def skip_bodies(self) -> None:
        """Bind the bodies of a kernel nobody reads to stand-in emitters.

        For a kernel outside the value-demand slice
        (:func:`live_kernels`), through the table :meth:`execute`
        already consults, so it charges, counts and emits exactly what
        the body would have:

        * ``"declared"``: each firing writes a :func:`stand_in` of the
          port's shape to each of ``method.outputs`` instead of
          computing;
        * ``"position"``: each method named in
          :attr:`Kernel.positional_bodies` runs that positional body —
          cursors, checks, no array writes — and writes the stand-ins
          as many times as it returns.  Other methods run as they are.

        Methods fed only by *replicated* inputs keep their bodies: those
        load configuration (coefficients, bin edges) once in a while, so
        the kernel holds the configuration a live run would.
        """
        kernel = self.kernel
        declared = kernel.timing_depends_on == "declared"
        positional = kernel.positional_bodies
        for method in kernel.methods.values():
            if (not declared and method.name not in positional) or (
                method.data_inputs and all(
                    kernel.input_spec(port).replicated
                    for port in method.data_inputs)):
                continue
            writes = tuple(
                (port, stand_in(kernel.output_spec(port).window))
                for port in method.outputs
            )
            if declared:
                def emit(writes=writes) -> None:
                    kernel._ctx.writes.extend(writes)
            else:
                count = getattr(kernel, positional[method.name])

                def emit(writes=writes, count=count) -> None:
                    kernel._ctx.writes.extend(writes * count())
            self._bound[method.name] = emit

    def _prime(self) -> tuple:
        """Snapshot the wired inputs into a per-port dispatch plan.

        For each wired input port the plan holds the channel plus how a
        data chunk at its head fires: a single-input method (fire
        immediately, reusing one frozen :class:`Firing`), a multi-input
        method (check the peer channels' heads), or a selector join (ask
        the FSM).  Ports whose data triggers nothing keep ``None`` so the
        seed's :class:`FiringError` still fires on arrival.
        """
        plan = []
        for port in self._ports:
            channel = self.inputs.get(port)
            if channel is None:
                continue
            method = self._data_method[port]
            if method is None:
                entry = None
            elif method.selector is not None:
                entry = (
                    "sel",
                    Firing(kind="method", method=method,
                           consume_ports=(port,)),
                    getattr(self.kernel, method.selector),
                )
            else:
                firing = Firing(kind="method", method=method,
                                consume_ports=method.data_inputs)
                if len(method.data_inputs) == 1:
                    entry = ("single", firing, None)
                else:
                    entry = (
                        "multi",
                        firing,
                        tuple(self.inputs.get(p)
                              for p in method.data_inputs),
                    )
            plan.append((port, channel, entry))
        self._wired = wired = tuple(plan)
        return wired

    # ------------------------------------------------------------------
    def run_init(self) -> list[FiringResult]:
        """Execute all init methods (e.g. the histogram clearing its bins)."""
        results = []
        for name, cost in self.kernel.init_methods.items():
            synthetic = MethodSpec(
                name=name,
                outputs=tuple(self.kernel.outputs),
                cost=cost,
                is_source=True,
            )
            ctx = FiringContext(method=synthetic)
            self.kernel.bind_context(ctx)
            getattr(self.kernel, name)()
            ctx = self.kernel.release_context()
            emissions: list[tuple[str, Item]] = list(ctx.writes)
            emissions.extend(ctx.token_writes)
            results.append(
                FiringResult(
                    kernel=self.name,
                    label=f"init:{name}",
                    cycles=cost.cycles,
                    elements_read=0,
                    elements_written=ctx.elements_written,
                    emissions=emissions,
                )
            )
        return results

    # ------------------------------------------------------------------
    def ready_firing(self) -> Firing | None:
        """The next firing this kernel can perform, or None.

        All complete triggers are collected and the one whose head item
        arrived earliest fires, so cross-input ordering follows arrival
        order (a coefficient load injected before the first data element
        runs before the first convolution).
        """
        wired = self._wired
        if wired is None:
            wired = self._prime()
        if len(wired) == 1:
            # Single wired input — no cross-port tie-break needed.
            port, channel, entry = wired[0]
            items = channel.items
            if not items:
                return None
            head = items[0]
            if isinstance(head, ControlToken):
                return self._token_firing(port, head)
            if entry is None:
                raise FiringError(
                    f"{self.name}: data arrived on {port!r} which triggers "
                    "no data method"
                )
            tag = entry[0]
            if tag == "single":
                return entry[1]
            if tag == "multi":
                for ch in entry[2]:
                    if ch is None or not ch.items or isinstance(
                        ch.items[0], ControlToken
                    ):
                        return None
                return entry[1]
            return entry[1] if entry[2]() == port else None
        best: Firing | None = None
        best_seq = -1
        for port, channel, entry in wired:
            items = channel.items
            if not items:
                continue
            head = items[0]
            if isinstance(head, ControlToken):
                firing = self._token_firing(port, head)
                if firing is None:
                    continue
                seq = min(
                    self.inputs[p].head_seq()
                    for p in firing.consume_ports
                    if p in self.inputs and self.inputs[p].items
                )
            elif entry is None:
                raise FiringError(
                    f"{self.name}: data arrived on {port!r} which triggers "
                    "no data method"
                )
            else:
                tag = entry[0]
                if tag == "single":
                    firing = entry[1]
                    seq = channel.seqs[0]
                elif tag == "multi":
                    peers = entry[2]
                    ready = True
                    seq = None
                    for ch in peers:
                        if ch is None or not ch.items or isinstance(
                            ch.items[0], ControlToken
                        ):
                            ready = False
                            break
                        s = ch.seqs[0]
                        if seq is None or s < seq:
                            seq = s
                    if not ready:
                        continue
                    firing = entry[1]
                else:  # selector join: fire only on the expected input
                    if entry[2]() != port:
                        continue
                    firing = entry[1]
                    seq = channel.seqs[0]
            if best is None or seq < best_seq:
                best, best_seq = firing, seq
        return best

    def _token_firing(self, port: str, token: ControlToken) -> Firing | None:
        if port in self._transparent:
            # Feedback-loop input: drop the token (Section III-D).
            return Firing(kind="forward", method=None, consume_ports=(port,),
                          token=token)
        handler = self.kernel.token_method_for(port, type(token))
        if handler is not None:
            return Firing(
                kind="token", method=handler, consume_ports=(port,), token=token
            )
        method = self._data_method[port]
        if method is None:
            # Tokens on control-only inputs (e.g. "coeff") are dropped.
            return Firing(kind="forward", method=None, consume_ports=(port,),
                          token=token)
        # Forward once the same token heads every (token-opaque) input of
        # the method; transparent feedback inputs never carry tokens.
        for other in method.data_inputs:
            if other in self._transparent:
                continue
            head = self.inputs[other].head() if other in self.inputs else None
            if not (
                isinstance(head, ControlToken)
                and type(head) is type(token)
                and head.frame == token.frame
            ):
                return None
        opaque = tuple(
            p for p in method.data_inputs if p not in self._transparent
        )
        return Firing(
            kind="forward",
            method=method,
            consume_ports=opaque,
            token=token,
        )

    # ------------------------------------------------------------------
    def execute(self, firing: Firing) -> FiringResult:
        """Consume the firing's inputs, run the body, collect emissions."""
        self.firings += 1
        if firing.kind == "forward":
            return self._execute_forward(firing)

        method = firing.method
        assert method is not None
        kernel = self.kernel
        inputs = self.inputs
        consumed: dict[str, np.ndarray] = {}
        token: ControlToken | None = None
        for port in firing.consume_ports:
            channel = inputs[port]
            channel.seqs.popleft()
            item = channel.items.popleft()
            if isinstance(item, ControlToken):
                token = item
            else:
                consumed[port] = item
        ctx = FiringContext(method, consumed, token)
        # bind_context/release_context, inlined (two calls per firing).
        kernel._ctx = ctx
        try:
            body = self._bound.get(method.name)
            if body is None:
                body = getattr(kernel, method.name)
                self._bound[method.name] = body
            body()
        finally:
            kernel._ctx = None

        # The context is dead after this call, so its writes list can be
        # handed out as the emissions list without copying.
        emissions: list[tuple[str, Item]] = ctx.writes
        if ctx.token_writes:
            emissions = emissions + ctx.token_writes
        if (
            firing.kind == "token"
            and token is not None
            and kernel.forwards_token(method)
        ):
            if emissions is ctx.writes:
                emissions = list(emissions)
            for out in method.outputs:
                emissions.append((out, token))
        if kernel.charges_element_io:
            elements_read = 0
            for arr in consumed.values():
                elements_read += arr.size
            elements_written = 0
            for _, arr in ctx.writes:
                elements_written += arr.size
            if (
                kernel.sequential_input_reuse
                and firing.kind == "method"
                and len(consumed) == 1
            ):
                # Figure 9: consecutive windows from a dedicated buffer —
                # only the fresh columns of each window are new reads.
                port = next(iter(consumed))
                spec = kernel.input_spec(port)
                fresh = spec.step.x * spec.window.h
                elements_read = min(elements_read, fresh)
        else:
            # Routers move chunk descriptors: one access per chunk.
            elements_read = len(consumed)
            elements_written = len(ctx.writes)
        declared = method.cost.cycles
        if ctx.dynamic_cycles is not None:
            cycles = ctx.dynamic_cycles
            dynamic = True
        else:
            cycles = declared
            dynamic = False
        return FiringResult(
            self.name, method.name, cycles, elements_read,
            elements_written, emissions, declared, dynamic,
        )

    def _execute_forward(self, firing: Firing) -> FiringResult:
        token = firing.token
        assert token is not None
        for port in firing.consume_ports:
            popped = self.inputs[port].pop()
            assert isinstance(popped, ControlToken)
        emissions: list[tuple[str, Item]] = []
        if firing.method is not None:
            if self.kernel.should_forward_token(firing.method, token):
                for out in firing.method.outputs:
                    emissions.append((out, token))
            self.kernel.on_token_forwarded(firing.method, token)
        return FiringResult(
            kernel=self.name,
            label="<forward>",
            cycles=FORWARD_CYCLES,
            elements_read=0,
            elements_written=0,
            emissions=emissions,
        )


@functools.lru_cache(maxsize=None)
def stand_in(window: Size2D) -> np.ndarray:
    """The chunk that stands for data nobody reads: right shape, all
    zeros, one shared read-only array per shape — a body that tried to
    write into it would get numpy's ``ValueError``, not silent reuse."""
    chunk = np.zeros((window.h, window.w))
    chunk.flags.writeable = False
    return chunk


def live_kernels(
    app: ApplicationGraph, content: Iterable[str], *, everything: bool = False
) -> set[str]:
    """The value-demand slice: kernels whose data somebody reads.

    ``content`` names the application outputs whose received chunks the
    caller will look at.  Live is the upstream closure, over the stream
    edges (feedback cycles included), of those outputs plus every kernel
    whose timing depends on values (anything not declared ``"position"``
    or ``"declared"``, see :attr:`Kernel.timing_depends_on`) — or simply
    ``everything``, which is what an active fault scenario asks for: a
    fault can take any kernel off its declared behaviour.
    """
    outputs = sorted(k.name for k in app.application_outputs())
    unknown = sorted(set(content) - set(outputs))
    if unknown:
        raise SimulationError(
            f"content asked for unknown application outputs {unknown}; "
            f"this graph has {outputs}"
        )
    kernels = app.kernels
    if everything:
        return set(kernels)
    edges = app.edges
    live: set[str] = set()
    todo = set(content) | {
        name for name, k in kernels.items()
        if k.timing_depends_on not in ("position", "declared")
    }
    while todo:
        live |= todo
        todo = {e.src for e in edges if e.dst in todo} - live
    return live


def build_runtime(
    app: ApplicationGraph,
) -> tuple[dict[str, RuntimeKernel], list[Channel]]:
    """Instantiate runtime kernels and channels for a compiled graph.

    Kernels are reset so repeated simulations of one graph start clean.
    """
    runtimes = {name: RuntimeKernel(k) for name, k in app.kernels.items()}
    for rk in runtimes.values():
        rk.kernel.reset()
    channels: list[Channel] = []
    seq = SeqCounter()  # shared so cross-channel arrival order is total
    for edge in app.edges:
        channel = Channel(edge.src, edge.src_port, edge.dst, edge.dst_port, seq)
        channels.append(channel)
        runtimes[edge.dst].inputs[edge.dst_port] = channel
        runtimes[edge.src].outputs[edge.src_port].append(channel)
    return runtimes, channels
