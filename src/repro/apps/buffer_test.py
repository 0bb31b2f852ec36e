"""Parallel buffer test — benchmark 3 of Figure 13.

A deliberately storage-heavy pipeline: a wide frame through a tall
window so the line buffer's row storage dwarfs one processing element's
local memory, forcing a column-wise split (Section IV-C, Figure 10).
The computation itself — one big convolution — is cheap relative to the
buffering, which is what makes this a *buffer* test.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..graph.app import ApplicationGraph
from ..kernels.filters import ConvolutionKernel

__all__ = ["build_buffer_test_app"]


def build_buffer_test_app(
    width: int = 96,
    height: int = 24,
    rate_hz: float = 50.0,
    *,
    window: int = 7,
    name: str | None = None,
) -> ApplicationGraph:
    """Build the parallel-buffer stress application.

    ``window`` rows of a ``width``-wide frame must be resident (doubled)
    for the convolution to slide; at the defaults that is ``96 x 14``
    words, several processing elements' worth on a small-memory target.
    """
    if window < 1:
        raise GraphError(f"window must be at least 1, got {window}")
    app = ApplicationGraph(name or f"buffer_test_{width}x{height}@{rate_hz:g}")
    app.add_input("Input", width, height, rate_hz)
    coeff = np.full((window, window), 1.0 / (window * window))
    app.add_kernel(
        ConvolutionKernel(
            "BigConv", window, window, with_coeff_input=False, coeff=coeff
        )
    )
    app.add_output("Out")
    app.connect("Input", "out", "BigConv", "in")
    app.connect("BigConv", "out", "Out", "in")
    return app
