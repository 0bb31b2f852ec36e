"""A kernel's math is declared once, as ``compute``.

Every elementwise and windowed kernel states its math as one
``compute`` on :class:`~repro.kernels.ComputeKernel`; the base derives
the per-firing body (``run``) from it.  These tests hold that body to a
plain-numpy statement of each kernel's math on random chunks, for every
concrete kernel the library builds on the base.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.kernels as library
from repro.errors import FiringError
from repro.graph.kernel import FiringContext
from repro.kernels import (
    AbsDiffKernel,
    AddKernel,
    ComputeKernel,
    ConvolutionKernel,
    DilateKernel,
    ErodeKernel,
    GaussianKernel,
    IdentityKernel,
    MedianKernel,
    MultiplyKernel,
    ScaleKernel,
    SobelKernel,
    SubtractKernel,
    ThresholdKernel,
    WindowedKernel,
)

ELEMENTS = (st.floats(-1e3, 1e3, allow_nan=False)
            | st.integers(-3, 3).map(float))
SIDES = st.integers(1, 5)


def fire(kernel, method, inputs):
    """One per-firing execution of ``method``; returns what it wrote."""
    ctx = FiringContext(kernel.methods[method], inputs)
    kernel.bind_context(ctx)
    try:
        getattr(kernel, method)()
    finally:
        kernel.release_context()
    return ctx.writes


@st.composite
def loaded_convolution(draw):
    w, h = draw(SIDES), draw(SIDES)
    kernel = ConvolutionKernel("conv", w, h)
    fire(kernel, "load_coeff", {"coeff": draw(arrays(np.float64, (h, w),
                                                     elements=ELEMENTS))})
    return kernel


#: One strategy per concrete kernel on the shape base.
KERNELS = {
    SubtractKernel: st.just(SubtractKernel("k")),
    AddKernel: st.just(AddKernel("k")),
    AbsDiffKernel: st.just(AbsDiffKernel("k")),
    MultiplyKernel: st.just(MultiplyKernel("k")),
    ScaleKernel: st.builds(ScaleKernel, st.just("k"), ELEMENTS, ELEMENTS),
    ThresholdKernel: st.builds(ThresholdKernel, st.just("k"), ELEMENTS),
    IdentityKernel: st.just(IdentityKernel("k")),
    # Both parities: an even window averages the two middle elements.
    MedianKernel: st.builds(MedianKernel, st.just("k"), SIDES, SIDES),
    SobelKernel: st.just(SobelKernel("k")),
    ConvolutionKernel: loaded_convolution(),
    GaussianKernel: st.builds(GaussianKernel, st.just("k"), SIDES, SIDES,
                              st.floats(0.3, 3.0)),
    ErodeKernel: st.builds(ErodeKernel, st.just("k"), SIDES, SIDES),
    DilateKernel: st.builds(DilateKernel, st.just("k"), SIDES, SIDES),
}


def test_every_concrete_compute_kernel_is_covered():
    concrete = {
        cls for cls in (getattr(library, name) for name in library.__all__)
        if isinstance(cls, type) and issubclass(cls, ComputeKernel)
        and cls.compute is not ComputeKernel.compute
    }
    assert concrete == set(KERNELS)


def _median(k, w):
    return np.median(w)


def _convolve(k, w):
    return (w * k.coeff[::-1, ::-1]).sum()


def _sobel(k, w):
    gx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    return abs((w * gx).sum()) + abs((w * gx.T).sum())


#: Each kernel's math in plain numpy, over its operands' chunks.
REFERENCE = {
    SubtractKernel: lambda k, a, b: a - b,
    AddKernel: lambda k, a, b: a + b,
    AbsDiffKernel: lambda k, a, b: abs(a - b),
    MultiplyKernel: lambda k, a, b: a * b,
    ScaleKernel: lambda k, x: k.gain * x + k.bias,
    ThresholdKernel: lambda k, x: (x >= k.level) * 1.0,
    IdentityKernel: lambda k, x: x,
    MedianKernel: _median,
    SobelKernel: _sobel,
    ConvolutionKernel: _convolve,
    GaussianKernel: _convolve,
    ErodeKernel: lambda k, w: w.min(),
    DilateKernel: lambda k, w: w.max(),
}


@st.composite
def firings(draw):
    """A kernel and the chunks one firing of its body consumes."""
    kernel = draw(st.one_of(*KERNELS.values()))
    method = kernel.methods[kernel.body]
    chunks = {
        port: draw(arrays(np.float64, (spec.window.h, spec.window.w),
                          elements=ELEMENTS))
        for port in method.data_inputs
        for spec in [kernel.input_spec(port)]
    }
    return kernel, chunks


@settings(max_examples=300, derandomize=True, deadline=None)
@given(firings())
def test_per_firing_body_computes_the_declared_math(firing):
    kernel, chunks = firing
    (port, got), = fire(kernel, kernel.body, chunks)
    assert port == "out"
    assert got.dtype == np.float64 and got.shape == (1, 1)
    operands = [chunks[p] if kernel.windowed else chunks[p].item()
                for p in kernel.operands]
    want = REFERENCE[type(kernel)](kernel, *operands)
    np.testing.assert_allclose(got.item(), want, rtol=1e-12, atol=1e-9)


class _Unreduced(WindowedKernel):
    """Forgets to reduce its window: the wrong output shape."""

    def __init__(self, name: str) -> None:
        super().__init__(name, 3, 3, cycles=1)

    def compute(self, window):
        return window * 2.0


def test_a_compute_of_the_wrong_shape_names_the_kernel():
    kernel = _Unreduced("sloppy")
    window = np.ones((3, 3))
    with pytest.raises(FiringError, match=r"^sloppy: output 'out' expects"):
        fire(kernel, "run", {"in": window})


def test_convolution_runs_only_once_coefficients_arrived():
    kernel = ConvolutionKernel("conv", 3, 3)
    with pytest.raises(FiringError, match="before any coefficients"):
        fire(kernel, "run_convolve", {"in": np.ones((3, 3))})
    fire(kernel, "load_coeff", {"coeff": np.ones((3, 3))})
    (_, out), = fire(kernel, "run_convolve", {"in": np.ones((3, 3))})
    assert out.item() == 9.0
