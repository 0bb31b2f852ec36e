"""Kernel base class (Section II-B of the paper).

A kernel is defined by its input/output parameterizations, one or more
computation methods with declared resource costs, and the mappings between
inputs, methods, and outputs.  Subclasses implement :meth:`configure` to
register ports and methods (the Python analogue of the paper's
``configureKernel``, Figure 6) and provide the method bodies as ordinary
Python methods that use :meth:`read_input` / :meth:`write_output`.

Example (compare Figure 6)::

    class ConvolutionKernel(Kernel):
        def __init__(self, name, width, height):
            self.width, self.height = width, height
            super().__init__(name)

        def configure(self):
            self.add_input("in", self.width, self.height, 1, 1,
                           self.width // 2, self.height // 2)
            self.add_output("out", 1, 1)
            self.add_method("run_convolve", inputs=["in"], outputs=["out"],
                            cost=MethodCost(cycles=10 + 3 * self.width * self.height))
            self.add_input("coeff", self.width, self.height,
                           self.width, self.height, replicated=True)
            self.add_method("load_coeff", inputs=["coeff"],
                            cost=MethodCost(cycles=10 + 2 * self.width * self.height))
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping

import numpy as np

from ..errors import FiringError, MethodError, PortError, RateError
from ..geometry import Inset, Region, Size2D, iteration_grid, output_extent
from ..streams import StreamInfo
from ..tokens import ControlToken, EndOfFrame, EndOfLine, token_rate_per_frame
from .methods import MethodCost, MethodSpec, TokenTrigger
from .ports import InputSpec, OutputSpec, make_input, make_output

__all__ = ["TransferResult", "FiringContext", "Kernel"]


@dataclass(frozen=True, slots=True)
class TransferResult:
    """Result of a kernel's static dataflow transfer function.

    ``outputs`` maps output-port names to the streams they produce;
    ``firings_per_second`` maps method names to worst-case invocation rates,
    which the resource analysis multiplies by per-invocation costs to size
    parallelism (Section IV).
    """

    outputs: Mapping[str, StreamInfo]
    firings_per_second: Mapping[str, float]

    @property
    def total_firings_per_second(self) -> float:
        return sum(self.firings_per_second.values())


@dataclass(slots=True)
class FiringContext:
    """Per-firing state the runtime binds before invoking a method body."""

    method: MethodSpec
    inputs: dict[str, np.ndarray] = field(default_factory=dict)
    token: ControlToken | None = None
    writes: list[tuple[str, np.ndarray]] = field(default_factory=list)
    token_writes: list[tuple[str, ControlToken]] = field(default_factory=list)
    #: Data-dependent cycle charge reported by the body (Section VII's
    #: variable-work extension); None means the declared static cost.
    dynamic_cycles: float | None = None

    @property
    def elements_read(self) -> int:
        return sum(int(a.size) for a in self.inputs.values())

    @property
    def elements_written(self) -> int:
        return sum(int(a.size) for _, a in self.writes)


class Kernel:
    """Base class for all computation kernels.

    Subclass responsibilities:

    * call ``super().__init__(name)`` (which invokes :meth:`configure`);
    * register ports and methods in :meth:`configure`;
    * implement each registered method as an instance method of the same
      name, reading inputs with :meth:`read_input` / :meth:`read_token` and
      writing outputs with :meth:`write_output`;
    * override :meth:`reset` to clear any runtime state, chaining to super.

    Class attribute ``data_parallel`` declares whether the default
    replicate-and-round-robin parallelization is semantics preserving
    (Section IV-A); kernels carrying cross-iteration state (merges, buffers)
    set it False or provide :attr:`custom_parallelize` (Section IV-C).
    """

    #: Default parallelizability; see Section IV-B for how data-dependency
    #: edges further limit the degree of data-parallel kernels.
    data_parallel: bool = True

    #: Optional custom parallelization routine (Section IV-C); the
    #: parallelize transform calls it instead of the default replicate +
    #: split/join insertion.  Signature documented in
    #: :mod:`repro.transform.parallelize`.
    custom_parallelize: Callable[..., Any] | None = None

    #: True for kernels inserted by the compiler (buffers, split/join,
    #: inset); used by reports and the multiplexing pass.
    compiler_inserted: bool = False

    #: Structural chunk movers (split/join/replicate) forward control
    #: tokens verbatim — their "windows" are whole pre-cut chunks, not
    #: sliding windows over a region, so the end-of-line translation of
    #: :meth:`should_forward_token` must not apply.
    forwards_all_line_tokens: bool = False

    #: Computation kernels touch every element they read and write, so the
    #: machine model charges per-element access costs.  Pure routers
    #: (split/join/replicate) move chunk descriptors, not element copies —
    #: they charge one access per chunk, otherwise a split in front of a
    #: wide-window kernel would be a hard serial throughput ceiling no
    #: parallelization could lift.
    charges_element_io: bool = True

    #: Set by the reuse-optimized buffering transform (Figure 9): this
    #: instance receives *consecutive* window positions from a dedicated
    #: buffer, so each firing reads only the fresh ``step_x x window_h``
    #: column of its window instead of all ``w x h`` elements.
    sequential_input_reuse: bool = False

    #: Worst-case items one firing may emit on a single output channel
    #: (one data chunk plus one forwarded token for ordinary kernels).
    #: The simulator's backpressure gate requires this much free space on
    #: every output before a firing starts; kernels with bursty emissions
    #: (pad kernels synthesizing whole border rows) override it.
    max_emissions_per_firing: int = 2

    #: What this kernel's *timing-plane* behaviour — the cycles each
    #: firing is charged and how many chunks leave on which ports — is a
    #: function of (docs/simulator.md "Two planes"):
    #:
    #: ``"values"``
    #:     the data it reads (a variable-work kernel, a conditional
    #:     emitter).  The default, so an unclassified kernel costs speed,
    #:     never correctness: its whole upstream cone computes real data.
    #: ``"position"``
    #:     its own counters and FSM only (buffers, split/join, inset/pad,
    #:     sources, sinks).  It never looks inside a chunk, so it routes
    #:     stand-ins exactly like data; when nobody reads its values, a
    #:     method named in :attr:`positional_bodies` runs only its
    #:     positional half and the rest run as they are.
    #: ``"declared"``
    #:     nothing: every firing of every method writes exactly one chunk
    #:     to each of ``method.outputs``, in that order, at
    #:     ``method.cost.cycles``, and holds no state another kernel's
    #:     timing can see.  Such a kernel has its bodies skipped when
    #:     nobody reads its values.
    timing_depends_on: str = "values"

    #: For a ``"position"`` kernel: data method name -> name of its
    #: *positional body* (docs/kernels.md "Writing your own").  That
    #: method advances exactly the state the data method advances,
    #: through the same helper, raises what it raises, and returns how
    #: many times the firing writes each of the method's outputs; it
    #: stores and copies nothing.  A firing of a kernel nobody reads
    #: runs it and emits that many shared stand-ins instead.
    positional_bodies: Mapping[str, str] = {}

    #: Registry of every Kernel subclass by class name, populated by
    #: ``__init_subclass__``; the serialization module reconstructs
    #: kernels from it.
    registry: dict[str, type["Kernel"]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        Kernel.registry[cls.__name__] = cls
        # Wrap the subclass constructor (when it defines one) so the
        # outermost call's arguments are captured for serialization.
        original = cls.__dict__.get("__init__")
        if original is not None:
            import functools

            @functools.wraps(original)
            def wrapper(self, *args, _orig=original, **kw):
                if not hasattr(self, "_ctor_args"):
                    self._ctor_args = (args, dict(kw))
                _orig(self, *args, **kw)

            cls.__init__ = wrapper  # type: ignore[method-assign]

    def __init__(self, name: str) -> None:
        if not name:
            raise PortError("kernel names must be non-empty")
        if not hasattr(self, "_ctor_args"):
            # Subclass without its own __init__: the name is everything.
            self._ctor_args = ((name,), {})
        self._name = name
        self._inputs: dict[str, InputSpec] = {}
        self._outputs: dict[str, OutputSpec] = {}
        self._methods: dict[str, MethodSpec] = {}
        self._init_methods: dict[str, MethodCost] = {}
        #: token methods whose token is re-emitted downstream after the
        #: handler runs (e.g. histogram forwards end-of-frame so a serial
        #: merge kernel can in turn detect frame boundaries).
        self._forwarding_token_methods: set[str] = set()
        #: Per-method end-of-line counters for token forwarding translation.
        self._eol_seen: dict[str, int] = {}
        self._ctx: FiringContext | None = None
        #: name -> (h, w) expected chunk shape, filled on first write.
        self._out_shapes: dict[str, tuple[int, int]] = {}
        self.configure()
        self._check_configuration()

    # ------------------------------------------------------------------
    # Configuration API (the paper's configureKernel vocabulary)
    # ------------------------------------------------------------------
    def configure(self) -> None:
        """Register ports and methods; override in subclasses."""
        raise NotImplementedError

    def add_input(
        self,
        name: str,
        width: int,
        height: int,
        step_x: int = 1,
        step_y: int = 1,
        offset_x: float | Fraction = 0,
        offset_y: float | Fraction = 0,
        *,
        replicated: bool = False,
    ) -> InputSpec:
        """Register an input port (paper: ``createInput``)."""
        if name in self._inputs or name in self._outputs:
            raise PortError(f"{self._name}: duplicate port name {name!r}")
        spec = make_input(
            name, width, height, step_x, step_y, offset_x, offset_y,
            replicated=replicated,
        )
        self._inputs[name] = spec
        return spec

    def add_output(self, name: str, width: int, height: int) -> OutputSpec:
        """Register an output port (paper: ``createOutput``)."""
        if name in self._inputs or name in self._outputs:
            raise PortError(f"{self._name}: duplicate port name {name!r}")
        spec = make_output(name, width, height)
        self._outputs[name] = spec
        return spec

    def add_method(
        self,
        name: str,
        *,
        inputs: list[str] | tuple[str, ...] = (),
        outputs: list[str] | tuple[str, ...] = (),
        cost: MethodCost | None = None,
        on_token: tuple[str, type[ControlToken]] | None = None,
        selector: str | None = None,
        forward_token: bool = False,
        source: bool = False,
    ) -> MethodSpec:
        """Register a computation method (paper: ``registerMethod`` plus the
        ``registerMethodInput``/``registerMethodOutput`` mappings).

        ``on_token=(input, TokenCls)`` registers a control method triggered
        by that token (Section II-C); ``forward_token=True`` re-emits the
        handled token to the method's outputs after the handler runs.
        """
        if name in self._methods:
            raise MethodError(f"{self._name}: duplicate method {name!r}")
        if not callable(getattr(self, name, None)):
            raise MethodError(
                f"{self._name}: no callable {name!r} on {type(self).__name__} "
                "for the registered method"
            )
        for port in inputs:
            if port not in self._inputs:
                raise MethodError(f"{self._name}: unknown input {port!r}")
        for port in outputs:
            if port not in self._outputs:
                raise MethodError(f"{self._name}: unknown output {port!r}")
        token = None
        if on_token is not None:
            port, token_cls = on_token
            if port not in self._inputs:
                raise MethodError(f"{self._name}: unknown input {port!r}")
            token = TokenTrigger(port, token_cls)
        if selector is not None and not callable(getattr(self, selector, None)):
            raise MethodError(f"{self._name}: unknown selector {selector!r}")
        spec = MethodSpec(
            name=name,
            data_inputs=tuple(inputs),
            outputs=tuple(outputs),
            cost=cost if cost is not None else MethodCost(cycles=0),
            token=token,
            selector=selector,
            is_source=source,
        )
        self._methods[name] = spec
        if forward_token:
            if token is None:
                raise MethodError(
                    f"{self._name}: forward_token applies to token methods"
                )
            self._forwarding_token_methods.add(name)
        return spec

    def update_method_cost(self, name: str, cost: MethodCost) -> None:
        """Replace a registered method's cost (profiling writes back here)."""
        import dataclasses

        if name not in self._methods:
            raise MethodError(f"{self._name}: no method {name!r}")
        self._methods[name] = dataclasses.replace(self._methods[name],
                                                  cost=cost)

    def add_init_method(self, name: str, cost: MethodCost) -> None:
        """Register a method invoked once at startup (paper: the histogram's
        ``init`` clearing its bins, charged ``numberOfBins*2+3`` cycles)."""
        if not callable(getattr(self, name, None)):
            raise MethodError(f"{self._name}: no callable {name!r} to init")
        self._init_methods[name] = cost

    def _check_configuration(self) -> None:
        if not self._methods:
            raise MethodError(f"{self._name}: kernels must register a method")
        # At most one *data* method may write each output (token methods may
        # share an output with a data method: a buffer's end-of-frame handler
        # forwards the token on the same port its store method writes).
        writers: dict[str, str] = {}
        for m in self._methods.values():
            if m.is_token_method:
                continue
            for out in m.outputs:
                if out in writers:
                    raise MethodError(
                        f"{self._name}: output {out!r} written by both data "
                        f"methods {writers[out]!r} and {m.name!r}"
                    )
                writers[out] = m.name
        # Every data input must trigger at most one data method (disjoint
        # trigger sets, Section II-B); token methods are keyed separately.
        data_triggers: dict[str, str] = {}
        for m in self._methods.values():
            if m.is_token_method:
                continue
            for port in m.data_inputs:
                if port in data_triggers:
                    raise MethodError(
                        f"{self._name}: input {port!r} triggers both "
                        f"{data_triggers[port]!r} and {m.name!r}"
                    )
                data_triggers[port] = m.name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def inputs(self) -> Mapping[str, InputSpec]:
        return dict(self._inputs)

    @property
    def outputs(self) -> Mapping[str, OutputSpec]:
        return dict(self._outputs)

    @property
    def methods(self) -> Mapping[str, MethodSpec]:
        return dict(self._methods)

    @property
    def init_methods(self) -> Mapping[str, MethodCost]:
        return dict(self._init_methods)

    def input_spec(self, name: str) -> InputSpec:
        try:
            return self._inputs[name]
        except KeyError:
            raise PortError(f"{self._name}: no input {name!r}") from None

    def output_spec(self, name: str) -> OutputSpec:
        try:
            return self._outputs[name]
        except KeyError:
            raise PortError(f"{self._name}: no output {name!r}") from None

    def mark_token_transparent(self, port: str) -> None:
        """Drop control tokens arriving on ``port`` (feedback-loop inputs).

        The loop stream lags the forward stream by one iteration, so its
        tokens can never pair with the forward input's; the forward path
        alone carries the frame structure (Section III-D).
        """
        import dataclasses

        spec = self.input_spec(port)
        self._inputs[port] = dataclasses.replace(spec, token_transparent=True)

    def data_method_for_input(self, port: str) -> MethodSpec | None:
        """The data method triggered by ``port``, if any."""
        for m in self._methods.values():
            if not m.is_token_method and port in m.data_inputs:
                return m
        return None

    def token_method_for(
        self, port: str, token_cls: type[ControlToken]
    ) -> MethodSpec | None:
        """The control method handling ``token_cls`` on ``port``, if any.

        The most specific registered handler wins (a handler for a token
        subclass shadows one for its base class).
        """
        best: MethodSpec | None = None
        for m in self._methods.values():
            if m.token is None or m.token.input_name != port:
                continue
            if issubclass(token_cls, m.token.token_cls):
                if best is None or issubclass(
                    m.token.token_cls, best.token.token_cls
                ):  # type: ignore[union-attr]
                    best = m
        return best

    def forwards_token(self, method: MethodSpec) -> bool:
        return method.name in self._forwarding_token_methods

    def on_token_forwarded(self, method: MethodSpec, token: ControlToken) -> None:
        """Hook called when the runtime auto-forwards an unhandled token.

        Structural kernels with distribution state (split/join FSMs) reset
        their counters at frame boundaries here; the default does nothing.
        ``method`` is the data method across whose inputs the token passed.
        """

    def should_forward_token(self, method: MethodSpec, token: ControlToken) -> bool:
        """Whether an unhandled token should be re-emitted downstream.

        Windowed kernels shrink the data region, so forwarding *every*
        end-of-line token would desynchronize token and data streams (the
        3x3 median's halo swallows two input lines; its output has two
        fewer lines).  The default translates end-of-line tokens to the
        output's line structure: the EOL of input line ``y`` is forwarded
        exactly when that line completes an output window row —
        ``y >= h-1`` and ``(y - (h-1)) % step_y == 0`` — which forwards
        precisely ``iteration_count`` EOLs per frame.  End-of-frame tokens
        always forward (and reset the per-frame line counters).
        """
        if isinstance(token, EndOfFrame):
            self._eol_seen.pop(method.name, None)
            return True
        if (
            not isinstance(token, EndOfLine)
            or not method.data_inputs
            or self.forwards_all_line_tokens
        ):
            return True
        spec = self._inputs[method.data_inputs[0]]
        y = self._eol_seen.get(method.name, 0)
        self._eol_seen[method.name] = y + 1
        if y < spec.window.h - 1:
            return False
        return (y - (spec.window.h - 1)) % spec.step.y == 0

    def state_words(self) -> int:
        """Private memory words this kernel holds across invocations."""
        words = sum(m.cost.state_words for m in self._methods.values())
        words += sum(c.state_words for c in self._init_methods.values())
        return words + self.extra_state_words()

    def extra_state_words(self) -> int:
        """Additional state beyond declared method state (buffers override)."""
        return 0

    def port_buffer_words(self) -> int:
        """Implicit single-iteration double buffers on each port (Fig 5)."""
        words = sum(2 * p.window.elements for p in self._inputs.values())
        words += sum(2 * p.window.elements for p in self._outputs.values())
        return words

    # ------------------------------------------------------------------
    # Dataflow transfer function (Section III-A)
    # ------------------------------------------------------------------
    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        """Propagate stream information through this kernel.

        The default implements the windowed-kernel semantics of Section
        III-A: per data method, the iteration grid over each trigger input
        is ``floor((extent - window)/step) + 1`` per dimension; all grids,
        rates, and output insets must agree (misalignment is reported by
        the alignment analysis and repaired by the align transform).
        Structural kernels (buffers, split/join, inset) override this.
        """
        outputs: dict[str, StreamInfo] = {}
        firings: dict[str, float] = {}
        # Data methods first; token methods only describe outputs no data
        # method produces (e.g. the histogram's once-per-frame dump).
        for m in self._methods.values():
            if m.is_source:
                raise NotImplementedError(
                    f"{self._name}: source kernels must override transfer()"
                )
            if not m.is_token_method:
                self._transfer_data_method(m, inputs, outputs, firings)
        for m in self._methods.values():
            if m.is_token_method:
                self._transfer_token_method(m, inputs, outputs, firings)
        return TransferResult(outputs=outputs, firings_per_second=firings)

    def _transfer_data_method(
        self,
        m: MethodSpec,
        inputs: Mapping[str, StreamInfo],
        outputs: dict[str, StreamInfo],
        firings: dict[str, float],
    ) -> None:
        grids: list[Size2D] = []
        rates: list[float] = []
        shares: list[Fraction] = []
        firing_counts: list[int] = []
        token_rates: dict[str, int] = {}
        for iname in m.data_inputs:
            if iname not in inputs:
                raise RateError(
                    f"{self._name}: input {iname!r} is unconnected or "
                    "upstream analysis failed"
                )
            s = inputs[iname]
            spec = self._inputs[iname]
            grids.append(iteration_grid(s.extent, spec.window, spec.step))
            if s.chunk == spec.window:
                # Whole-chunk consumption (post-buffering, or 1x1 streams):
                # one firing per chunk, whatever fraction of the logical
                # stream this branch carries.
                firing_counts.append(s.chunks_per_frame)
            else:
                # Logical windowing over an un-chunked region (the
                # pre-buffering graph): the iteration grid counts firings.
                firing_counts.append(int(grids[-1].elements * s.share))
            rates.append(s.rate_hz)
            shares.append(s.share)
            for tok, rate in s.token_rates.items():
                token_rates[tok] = max(token_rates.get(tok, 0), rate)
        if len(grids) > 1:  # one input agrees with itself
            if len(set(grids)) != 1:
                raise RateError(
                    f"{self._name}.{m.name}: iteration grids differ across "
                    f"inputs ({', '.join(map(str, grids))}); inputs are "
                    "misaligned"
                )
            if len(set(firing_counts)) != 1:
                raise RateError(
                    f"{self._name}.{m.name}: per-frame chunk counts differ "
                    f"across inputs ({firing_counts}); inputs are misaligned"
                )
            if len(set(rates)) != 1:
                raise RateError(
                    f"{self._name}.{m.name}: input rates differ ({rates})"
                )
            if len(set(shares)) != 1:
                raise RateError(
                    f"{self._name}.{m.name}: input stream shares differ "
                    f"({shares})"
                )
        # The output lands where the first input's window origin maps to
        # (making the other inputs agree is the alignment pass's job).
        first = inputs[m.data_inputs[0]].inset
        offset = self._inputs[m.data_inputs[0]].offset
        out_inset = first if not (offset.x or offset.y) else first + offset
        grid = grids[0]
        rate = rates[0]
        share = shares[0]
        chunks = max(1, firing_counts[0])
        firings[m.name] = float(firing_counts[0]) * rate
        for oname in m.outputs:
            ospec = self._outputs[oname]
            outputs[oname] = StreamInfo(
                region=Region(output_extent(grid, ospec.window), out_inset),
                chunk=ospec.window,
                rate_hz=rate,
                chunks_per_frame=chunks,
                token_rates=token_rates,
                share=share,
            )

    def _transfer_token_method(
        self,
        m: MethodSpec,
        inputs: Mapping[str, StreamInfo],
        outputs: dict[str, StreamInfo],
        firings: dict[str, float],
    ) -> None:
        assert m.token is not None
        iname = m.token.input_name
        if iname not in inputs:
            raise RateError(
                f"{self._name}: token input {iname!r} is unconnected"
            )
        s = inputs[iname]
        per_frame = s.token_rate(m.token.token_cls)
        if per_frame == 0:
            # Fall back to the class-level declaration for custom tokens the
            # upstream analysis could not see (e.g. injected at runtime).
            try:
                per_frame = token_rate_per_frame(
                    m.token.token_cls, s.extent.h
                )
            except ValueError:
                per_frame = 0
        firings[m.name] = per_frame * s.rate_hz
        fires = max(per_frame, 1)
        for oname in m.outputs:
            if oname in outputs:  # a data method already produces this port
                continue
            ospec = self._outputs[oname]
            outputs[oname] = StreamInfo(
                region=Region(
                    Size2D(ospec.window.w, ospec.window.h * fires), Inset(0, 0)
                ),
                chunk=ospec.window,
                rate_hz=s.rate_hz,
                chunks_per_frame=fires,
                token_rates=dict(s.token_rates),
            )

    # ------------------------------------------------------------------
    # Execution context (used by method bodies at runtime)
    # ------------------------------------------------------------------
    def bind_context(self, ctx: FiringContext) -> None:
        self._ctx = ctx

    def release_context(self) -> FiringContext:
        assert self._ctx is not None
        ctx, self._ctx = self._ctx, None
        return ctx

    def read_input(self, name: str) -> np.ndarray:
        """The data chunk consumed from ``name`` for the current firing."""
        if self._ctx is None or name not in self._ctx.inputs:
            raise FiringError(
                f"{self._name}: read_input({name!r}) outside a firing that "
                "consumed that input"
            )
        return self._ctx.inputs[name]

    def consumed_input(self) -> tuple[str, np.ndarray]:
        """(name, chunk) of the single input consumed this firing.

        For selector methods (round-robin joins) the runtime consumes from
        exactly one of the candidate inputs; the body learns which here.
        """
        if self._ctx is None or len(self._ctx.inputs) != 1:
            raise FiringError(
                f"{self._name}: consumed_input() requires a single-input firing"
            )
        return next(iter(self._ctx.inputs.items()))

    def read_token(self) -> ControlToken:
        """The control token that triggered the current control method."""
        if self._ctx is None or self._ctx.token is None:
            raise FiringError(
                f"{self._name}: read_token() outside a token-triggered firing"
            )
        return self._ctx.token

    def write_output(self, name: str, data: np.ndarray) -> None:
        """Stage ``data`` for emission on output ``name``.

        The chunk shape must match the output parameterization; shape is
        checked here so a misbehaving kernel fails at the producing site.
        Arrays are row-major ``(h, w)`` as is idiomatic for numpy images.
        """
        ctx = self._ctx
        if ctx is None:
            raise FiringError(f"{self._name}: write_output outside a firing")
        shape = self._out_shapes.get(name)
        if shape is None:
            spec = self.output_spec(name)  # raises PortError when unknown
            shape = self._out_shapes[name] = (spec.window.h, spec.window.w)
        arr = np.asarray(data, dtype=np.float64)
        if arr.shape != shape:
            raise FiringError(
                f"{self._name}: output {name!r} expects shape "
                f"{shape}, got {arr.shape}"
            )
        if name not in ctx.method.outputs:
            raise FiringError(
                f"{self._name}: method {ctx.method.name!r} is not "
                f"registered to write output {name!r}"
            )
        ctx.writes.append((name, arr))

    def charge_cycles(self, cycles: float) -> None:
        """Report this firing's data-dependent cycle cost (Section VII).

        The paper's future-work extension: kernels like a motion-vector
        search whose processing time varies per invocation declare their
        *bound* statically (``MethodCost.cycles``) and charge actuals at
        runtime.  Charges accumulate within one firing; the simulator
        raises a runtime budget exception record whenever the accumulated
        charge exceeds the declared bound.
        """
        if self._ctx is None:
            raise FiringError(f"{self._name}: charge_cycles outside a firing")
        if cycles < 0:
            raise FiringError(f"{self._name}: negative cycle charge {cycles}")
        if self._ctx.dynamic_cycles is None:
            self._ctx.dynamic_cycles = 0.0
        self._ctx.dynamic_cycles += cycles

    def emit_token(self, name: str, token: ControlToken) -> None:
        """Stage a control token for emission on output ``name``.

        Used by kernels that manage token flow explicitly (inset and pad
        kernels re-shape the line structure of the data, so automatic
        forwarding would emit the wrong number of end-of-line tokens).
        """
        if self._ctx is None:
            raise FiringError(f"{self._name}: emit_token outside a firing")
        self.output_spec(name)
        self._ctx.token_writes.append((name, token))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serialize_extra(self) -> dict[str, Any]:
        """Configuration applied after construction, for serialization.

        Most kernels are fully described by their constructor arguments;
        kernels that accept post-construction configuration (application
        inputs take a frame pattern) override this and its counterpart
        :meth:`apply_serialized_extra`.  Values must be JSON-encodable by
        the serializer (scalars, sequences, numpy arrays, Fractions).
        """
        return {}

    def apply_serialized_extra(self, extra: Mapping[str, Any]) -> None:
        """Re-apply :meth:`serialize_extra` state on a loaded kernel."""

    def reset(self) -> None:
        """Clear runtime state; subclasses chain to super."""
        self._ctx = None
        self._eol_seen = {}

    def __deepcopy__(self, memo: dict) -> "Kernel":
        """Copy what can change, share what cannot.

        Each attribute is deep-copied on its own with the caller's memo —
        tables, arrays and runtime state are duplicated, aliasing inside
        one kernel survives — while the frozen spec records, being
        :func:`~repro.geometry.shared_on_copy`, come back as themselves.
        Skipping the reduce/reconstruct protocol for the kernel object is
        what this method saves over the generic path.
        """
        twin = object.__new__(type(self))
        memo[id(self)] = twin
        for key, value in self.__dict__.items():
            twin.__dict__[key] = copy.deepcopy(value, memo)
        return twin

    def clone(self, new_name: str) -> "Kernel":
        """A fresh copy under a new name (used when replicating kernels)."""
        twin = copy.deepcopy(self)
        twin._name = new_name
        twin.reset()
        return twin

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._name!r}>"
