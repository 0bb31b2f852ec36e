"""Processing-element model.

The compiler consumes exactly what the paper's does (Section IV): the
computation cycles and memory words one processing element provides per
second, plus per-element input/output access costs.  The access costs are
what split processor busy time into the run/read/write components reported
in Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from ..errors import ResourceError
from ..records import NON_NEGATIVE, POSITIVE, conform

__all__ = ["ProcessorSpec", "DEFAULT_PROCESSOR"]


@dataclass(frozen=True, slots=True)
class ProcessorSpec:
    """One processing element of the target many-core chip.

    Attributes
    ----------
    clock_hz:
        Computation cycles available per second.
    memory_words:
        Local storage per element, in data words.  Buffer kernels whose row
        storage exceeds this must be split column-wise across elements
        (Section IV-C).
    read_cycles_per_element / write_cycles_per_element:
        Cycles to move one element across a kernel input/output port; the
        simulator charges these per element actually moved.
    """

    clock_hz: Annotated[float, POSITIVE] = 200e6
    memory_words: Annotated[int, POSITIVE] = 2048
    read_cycles_per_element: Annotated[float, NON_NEGATIVE] = 1.0
    write_cycles_per_element: Annotated[float, NON_NEGATIVE] = 1.0

    def __post_init__(self) -> None:
        conform(self, error=ResourceError, where="ProcessorSpec")

    def seconds_for(self, cycles: float) -> float:
        return cycles / self.clock_hz

    def firing_time(
        self, run_cycles: float, elements_read: int, elements_written: int
    ) -> tuple[float, float, float]:
        """(read, run, write) seconds for one firing."""
        read = self.seconds_for(elements_read * self.read_cycles_per_element)
        run = self.seconds_for(run_cycles)
        write = self.seconds_for(elements_written * self.write_cycles_per_element)
        return read, run, write


#: A modest embedded many-core tile: 200 MHz, 2 K words of local store.
DEFAULT_PROCESSOR = ProcessorSpec()
