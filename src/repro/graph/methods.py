"""Kernel methods: triggers, input/output mappings, and resource costs.

A kernel may register multiple computation methods, each triggered by a
disjoint set of inputs (Section II-B).  A method either triggers on *data*
arriving on one or more inputs (all must have data for the method to fire)
or on a specific *control token* arriving on one input (Section II-C).
Methods declare the resources each invocation consumes — computation cycles
and private state words — which the compiler uses to size the parallelism
needed to meet the real-time input rate (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MethodError, ResourceError
from ..geometry import shared_on_copy
from ..tokens import ControlToken

__all__ = ["MethodCost", "TokenTrigger", "MethodSpec"]


@shared_on_copy
@dataclass(frozen=True, slots=True)
class MethodCost:
    """Resources consumed by one invocation of a method.

    ``cycles`` is the computation time in processor cycles (the paper's
    explicit per-method cycle counts, e.g. ``10 + 3*height*width`` for the
    convolution).  ``state_words`` is the private kernel memory the method
    needs live across invocations (e.g. histogram bin counts).  Time spent
    reading inputs and writing outputs is charged separately by the machine
    model from the element counts actually moved, which is what produces the
    run/read/write utilization breakdown of Figure 13.
    """

    cycles: int
    state_words: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ResourceError(f"negative cycle cost: {self.cycles}")
        if self.state_words < 0:
            raise ResourceError(f"negative state words: {self.state_words}")


@shared_on_copy
@dataclass(frozen=True, slots=True)
class TokenTrigger:
    """A (input name, token class) pair that triggers a token method."""

    input_name: str
    token_cls: type[ControlToken]

    def __post_init__(self) -> None:
        if not issubclass(self.token_cls, ControlToken):
            raise MethodError(
                f"token trigger for {self.input_name!r} must be a "
                f"ControlToken subclass, got {self.token_cls!r}"
            )


@shared_on_copy
@dataclass(frozen=True, slots=True)
class MethodSpec:
    """Registration record for one kernel method.

    Exactly one of the following trigger forms holds:

    * ``data_inputs`` non-empty and ``token`` is None — a data method that
      fires when every listed input has a data chunk at the head of its
      channel (the subtract kernel lists two inputs; both must have data).
    * ``token`` set — a control method that fires when the given token class
      arrives at the head of the given input (e.g. the histogram's
      ``finish_count`` on end-of-frame).

    ``selector`` names a kernel callable returning which *single* input to
    consume this firing; it is used by join kernels whose round-robin FSM
    decides the next input dynamically (Section IV-A).  When a selector is
    set, ``data_inputs`` lists the candidate inputs.
    """

    name: str
    data_inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    cost: MethodCost = field(default_factory=lambda: MethodCost(cycles=0))
    token: TokenTrigger | None = None
    selector: str | None = None
    #: Source methods have no trigger: the runtime drives them at the
    #: declared input rate (application inputs and constant sources only).
    is_source: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise MethodError("method names must be non-empty")
        if self.is_source and (self.data_inputs or self.token is not None):
            raise MethodError(
                f"method {self.name!r}: source methods take no triggers"
            )
        if self.token is not None and self.data_inputs:
            raise MethodError(
                f"method {self.name!r}: token methods may not also list "
                "data inputs; register a separate data method"
            )
        if self.token is None and not self.data_inputs and not self.is_source:
            raise MethodError(
                f"method {self.name!r} has no trigger: give it data inputs "
                "or a token trigger"
            )
        if self.selector is not None and self.token is not None:
            raise MethodError(
                f"method {self.name!r}: selectors apply to data methods only"
            )
        if len(set(self.data_inputs)) != len(self.data_inputs):
            raise MethodError(f"method {self.name!r}: duplicate data inputs")

    @property
    def is_token_method(self) -> bool:
        return self.token is not None
