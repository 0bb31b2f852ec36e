"""Bayer demosaicing application — benchmark 1/1F of Figure 13.

A Bayer-mosaic sensor stream is buffered into 2x2 quads, demosaiced into
R/G/B planes, and folded to luminance for output.  At the baseline rate the
pipeline fits a handful of processors; at the faster rate ("1F") the
demosaic kernel must replicate.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..graph.app import ApplicationGraph
from ..kernels.bayer import BayerDemosaicKernel, LuminanceKernel

__all__ = ["build_bayer_app", "bayer_mosaic_pattern"]


class BayerMosaicPattern:
    """A deterministic RGGB mosaic test frame generator.

    Each colour site gets a distinct ramp so demosaic output is easy to
    verify: R sites carry 100+i, G sites 50+i, B sites 10+i.

    A class rather than a closure so graphs carrying it stay picklable —
    compiled Bayer apps must cross process boundaries for the
    ``repro.explore`` pool workers.
    """

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height

    def __call__(self, frame: int) -> np.ndarray:
        width, height = self.width, self.height
        arr = np.empty((height, width), dtype=np.float64)
        idx = np.arange(width * height, dtype=np.float64).reshape(height, width)
        arr[0::2, 0::2] = 100.0 + idx[0::2, 0::2] % 17  # R
        arr[0::2, 1::2] = 50.0 + idx[0::2, 1::2] % 13   # G on R rows
        arr[1::2, 0::2] = 50.0 + idx[1::2, 0::2] % 11   # G on B rows
        arr[1::2, 1::2] = 10.0 + idx[1::2, 1::2] % 7    # B
        return arr + frame


def bayer_mosaic_pattern(width: int, height: int) -> BayerMosaicPattern:
    """Build the RGGB test pattern for a ``width x height`` sensor."""
    return BayerMosaicPattern(width, height)


def build_bayer_app(
    width: int = 32,
    height: int = 16,
    rate_hz: float = 200.0,
    *,
    name: str | None = None,
) -> ApplicationGraph:
    """Build the Bayer demosaicing application.

    ``width`` and ``height`` must be even (RGGB quads tile the frame).
    """
    if width % 2 or height % 2:
        raise GraphError("Bayer frames must have even dimensions")
    app = ApplicationGraph(name or f"bayer_{width}x{height}@{rate_hz:g}")
    app.add_input("Sensor", width, height, rate_hz)
    app.kernels["Sensor"]._pattern = bayer_mosaic_pattern(width, height)

    app.add_kernel(BayerDemosaicKernel("Demosaic"))
    app.add_kernel(LuminanceKernel("Luma"))
    app.add_output("Video")

    app.connect("Sensor", "out", "Demosaic", "in")
    app.connect("Demosaic", "r", "Luma", "r")
    app.connect("Demosaic", "g", "Luma", "g")
    app.connect("Demosaic", "b", "Luma", "b")
    app.connect("Luma", "out", "Video", "in")
    return app
