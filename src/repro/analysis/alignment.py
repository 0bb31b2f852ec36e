"""Inset propagation and misalignment detection (Section III-C, Figure 8).

The dataflow analysis already carries each stream's inset from its
originating application input.  This module checks every multi-input data
method for consistency: all inputs must present the same data extent *and*
the same inset, otherwise a per-pixel operation like the subtract kernel
would be comparing different pixels.

For each misalignment the analysis computes the aligned target region (the
intersection of the input regions, Figure 8's "3x3 and 5x5 Outputs
Aligned") and the trim margins per input — everything the align transform
needs to insert inset kernels, and everything the pad policy needs to grow
the smaller side instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AlignmentError
from ..geometry import Inset, Region
from ..graph.app import ApplicationGraph
from ..streams import StreamInfo
from .dataflow import DataflowResult, tolerant_dataflow

__all__ = ["Misalignment", "find_misalignments", "check_alignment"]


@dataclass(frozen=True, slots=True)
class Misalignment:
    """One multi-input method whose input regions disagree.

    ``regions`` maps each input port to the *output-aligned* region its
    data represents (stream region shifted by the port's declared offset);
    ``target`` is the intersection all inputs must be trimmed to;
    ``trims`` maps each port to its (left, top, right, bottom) margins.
    """

    kernel: str
    method: str
    regions: dict[str, Region]
    target: Region
    trims: dict[str, tuple[int, int, int, int]]

    def describe(self) -> str:
        parts = [f"{self.kernel}.{self.method}: inputs misaligned"]
        for port, region in self.regions.items():
            parts.append(f"  {port}: {region} trim {self.trims[port]}")
        parts.append(f"  aligned target: {self.target}")
        return "\n".join(parts)


def _effective_region(stream: StreamInfo, offset) -> Region:
    """The region a port's data covers in output coordinates.

    Shifting by the port offset expresses each input in the coordinates of
    the *results* the method will produce, which is where per-pixel
    consistency must hold.

    Insets are origin-relative: regions descending from *different*
    application inputs compare at their common upper-left corner, so
    mismatched source extents align by trimming the larger source to the
    overlap — the natural semantics for synchronized multi-camera inputs.
    """
    return Region(
        stream.extent,
        Inset(stream.inset.x + offset.x, stream.inset.y + offset.y),
    )


def find_misalignments(
    app: ApplicationGraph, dataflow: DataflowResult | None = None
) -> list[Misalignment]:
    """All multi-input methods whose inputs disagree in extent or inset.

    ``dataflow`` may be supplied to avoid re-running the analysis; when the
    graph is misaligned the default kernel transfer raises, so this
    function tolerates per-kernel analysis failures by comparing the
    *incoming* streams directly.
    """
    if dataflow is None:
        dataflow = tolerant_dataflow(app)
    found: list[Misalignment] = []
    for name in app.topological_order():
        kernel = app.kernel(name)
        for method in kernel.methods.values():
            if method.is_token_method or len(method.data_inputs) < 2:
                continue
            regions: dict[str, Region] = {}
            ok = True
            for port in method.data_inputs:
                try:
                    stream = dataflow.stream_into(name, port)
                except Exception:
                    ok = False
                    break
                regions[port] = _effective_region(
                    stream, kernel.input_spec(port).offset
                )
            if not ok or not regions:
                continue
            first = next(iter(regions.values()))
            if all(r.aligned_with(first) for r in regions.values()):
                continue
            target = first
            for r in regions.values():
                target = target.intersection(r)
            trims = {
                port: r.trim_margins(target) for port, r in regions.items()
            }
            found.append(
                Misalignment(
                    kernel=name,
                    method=method.name,
                    regions=regions,
                    target=target,
                    trims=trims,
                )
            )
    return found


def check_alignment(
    app: ApplicationGraph, dataflow: DataflowResult | None = None
) -> None:
    """Raise :class:`AlignmentError` describing every misalignment found."""
    problems = find_misalignments(app, dataflow)
    if problems:
        raise AlignmentError(
            "application has misaligned multi-input kernels:\n"
            + "\n".join(p.describe() for p in problems)
        )
