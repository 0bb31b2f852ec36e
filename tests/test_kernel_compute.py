"""A kernel's math is declared once: per-firing and batched bodies agree.

Every elementwise and windowed kernel states its math as one
``compute`` on :class:`~repro.kernels.ComputeKernel`; the base derives
the per-firing body (``run``) and the batched one (``batched_apply``)
from it.  These tests hold the two paths to byte equality on random
chunks, for every concrete kernel the library builds on the base, and
check that the batched path reaches real pipelines (erode and dilate
batch under replay).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.kernels as library
from repro.errors import FiringError
from repro.graph import ApplicationGraph
from repro.graph.kernel import FiringContext
from repro.kernels import (
    AbsDiffKernel,
    AddKernel,
    ApplicationOutput,
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
    add_closing,
    add_opening,
)
from repro.sim import SimulationOptions, simulate
from repro.transform import compile_application

from helpers import SMALL_PROC

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


@st.composite
def periods(draw):
    """A kernel and the chunks ``n`` firings of its body would consume."""
    kernel = draw(st.one_of(*KERNELS.values()))
    n = draw(st.integers(1, 6))
    method = kernel.methods[kernel.body]
    chunks = {
        port: [draw(arrays(np.float64, (spec.window.h, spec.window.w),
                           elements=ELEMENTS)) for _ in range(n)]
        for port in method.data_inputs
        for spec in [kernel.input_spec(port)]
    }
    return kernel, n, chunks


@settings(max_examples=300, derandomize=True, deadline=None)
@given(periods())
def test_per_firing_equals_batched_byte_for_byte(period):
    kernel, n, chunks = period
    scalar = [
        fire(kernel, kernel.body, {p: chunks[p][i] for p in chunks})
        for i in range(n)
    ]
    assert kernel.batch_accepts(kernel.body, frozenset({"<forward>"}))
    emissions, commit = kernel.batched_apply(kernel.body, chunks)
    assert commit is None and len(emissions) == n
    for want, got in zip(scalar, emissions):
        assert [port for port, _ in got] == [port for port, _ in want]
        for (_, a), (_, b) in zip(want, got):
            assert a.dtype == b.dtype == np.float64
            assert a.shape == b.shape == (1, 1)
            assert a.tobytes() == b.tobytes()


class _Unreduced(WindowedKernel):
    """Forgets to reduce its window: the wrong shape on both paths."""

    def __init__(self, name: str) -> None:
        super().__init__(name, 3, 3, cycles=1)

    def compute(self, window):
        return window * 2.0


def test_a_compute_of_the_wrong_shape_names_the_kernel():
    kernel = _Unreduced("sloppy")
    window = np.ones((3, 3))
    with pytest.raises(FiringError, match=r"^sloppy: output 'out' expects"):
        fire(kernel, "run", {"in": window})
    with pytest.raises(FiringError,
                       match=r"^sloppy: compute returned shape \(2, 9\)"):
        kernel.batched_apply("run", {"in": [window, window]})


def test_convolution_batches_only_once_coefficients_arrived():
    kernel = ConvolutionKernel("conv", 3, 3)
    assert not kernel.batch_accepts("run_convolve", frozenset())
    with pytest.raises(FiringError, match="before any coefficients"):
        fire(kernel, "run_convolve", {"in": np.ones((3, 3))})
    fire(kernel, "load_coeff", {"coeff": np.ones((3, 3))})
    assert kernel.batch_accepts("run_convolve", frozenset())
    # A reload inside the period would change the math between firings.
    assert not kernel.batch_accepts("run_convolve",
                                    frozenset({"load_coeff"}))


@pytest.mark.parametrize("compose", [add_opening, add_closing])
def test_erode_and_dilate_batch_under_replay(compose):
    app = ApplicationGraph(compose.__name__)
    source = app.add_input("Input", 12, 10, 100.0)
    source._pattern = np.random.default_rng(1).uniform(0, 255, (10, 12))
    first, last = compose(app, "m", 3, 3)
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    app.connect("Input", "out", first.name, "in")
    app.connect(last.name, "out", "Out", "in")
    compiled = compile_application(app, SMALL_PROC)

    replayed = simulate(compiled, SimulationOptions(frames=3, replay=True))
    interpreted = simulate(compiled, SimulationOptions(frames=3))
    assert {"m_erode", "m_dilate"} <= set(replayed.replay.batched_kernels)
    assert replayed.as_dict() == interpreted.as_dict()
