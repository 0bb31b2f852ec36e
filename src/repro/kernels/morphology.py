"""Morphological kernels: erosion and dilation.

Standard fixed-function vision blocks, here as ordinary windowed kernels:
min/max over a rectangular structuring element.  Opening and closing are
compositions — two windowed kernels in sequence — which also makes them a
natural test of multi-stage buffering: the compiler inserts a line buffer
in front of *each* stage.
"""

from __future__ import annotations

import numpy as np

from ..graph.app import ApplicationGraph
from .filters import WindowedKernel

__all__ = ["ErodeKernel", "DilateKernel", "add_opening", "add_closing"]


class ErodeKernel(WindowedKernel):
    """Grayscale erosion: minimum over a ``width x height`` neighbourhood."""

    def __init__(self, name: str, width: int = 3, height: int = 3) -> None:
        super().__init__(name, width, height, cycles=8 + 2 * width * height)

    def compute(self, window: np.ndarray) -> np.ndarray:
        return window.min()


class DilateKernel(WindowedKernel):
    """Grayscale dilation: maximum over a ``width x height`` neighbourhood."""

    def __init__(self, name: str, width: int = 3, height: int = 3) -> None:
        super().__init__(name, width, height, cycles=8 + 2 * width * height)

    def compute(self, window: np.ndarray) -> np.ndarray:
        return window.max()


def add_opening(
    app: ApplicationGraph, name: str, width: int = 3, height: int = 3
) -> tuple[ErodeKernel, DilateKernel]:
    """Add an opening (erode then dilate) as two connected kernels.

    Returns (first, last); the caller wires ``first``'s input and
    ``last``'s output.
    """
    erode = ErodeKernel(f"{name}_erode", width, height)
    dilate = DilateKernel(f"{name}_dilate", width, height)
    app.add_kernel(erode)
    app.add_kernel(dilate)
    app.connect(erode.name, "out", dilate.name, "in")
    return erode, dilate


def add_closing(
    app: ApplicationGraph, name: str, width: int = 3, height: int = 3
) -> tuple[DilateKernel, ErodeKernel]:
    """Add a closing (dilate then erode) as two connected kernels."""
    dilate = DilateKernel(f"{name}_dilate", width, height)
    erode = ErodeKernel(f"{name}_erode", width, height)
    app.add_kernel(dilate)
    app.add_kernel(erode)
    app.connect(dilate.name, "out", erode.name, "in")
    return dilate, erode
