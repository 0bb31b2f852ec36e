"""Tests for automatic cost estimation by profiling."""

import numpy as np
import pytest

from repro.errors import ResourceError
from repro.graph import MethodCost
from repro.kernels import ConvolutionKernel, HistogramKernel, MedianKernel
from repro.profiling import apply_profile, profile_kernel

# A fixed calibration constant makes the tests independent of host noise
# in the cycle conversion (per-call medians still involve real timing).
SPC = 50e-9  # pretend one abstract cycle is 50ns of host time


class TestProfiling:
    def test_estimates_positive(self):
        k = ConvolutionKernel("c", 3, 3, with_coeff_input=False,
                              coeff=np.ones((3, 3)))
        report = profile_kernel(k, repeats=30, seconds_per_cycle=SPC)
        assert report.cycles("run_convolve") >= 1
        assert report.costs["run_convolve"].seconds_per_call > 0

    def test_all_methods_profiled(self):
        k = HistogramKernel("h", 16, with_bins_input=False)
        report = profile_kernel(k, repeats=30, seconds_per_cycle=SPC)
        assert set(report.costs) == {"count", "finish_count"}

    def test_kernel_state_reset_after_profiling(self):
        k = HistogramKernel("h", 16, with_bins_input=False)
        profile_kernel(k, repeats=30, seconds_per_cycle=SPC)
        assert k.counts.sum() == 0.0

    def test_apply_profile_rewrites_costs(self):
        k = MedianKernel("m", 3, 3)
        before = k.methods["run"].cost.cycles
        report = profile_kernel(k, repeats=30, seconds_per_cycle=SPC)
        apply_profile(k, report)
        assert k.methods["run"].cost.cycles == report.cycles("run")
        # state words preserved
        assert k.methods["run"].cost.state_words == 0
        assert before != 0  # the declared cost existed

    def test_update_method_cost_validates(self):
        from repro.errors import MethodError

        k = MedianKernel("m", 3, 3)
        with pytest.raises(MethodError):
            k.update_method_cost("nope", MethodCost(cycles=1))

    def test_too_few_repeats_rejected(self):
        k = MedianKernel("m", 3, 3)
        with pytest.raises(ResourceError):
            profile_kernel(k, repeats=2)

    def test_describe(self):
        k = MedianKernel("m", 3, 3)
        report = profile_kernel(k, repeats=30, seconds_per_cycle=SPC)
        text = report.describe()
        assert "run" in text and "cycles" in text

    def test_profiled_kernel_still_compiles(self):
        """Profiled costs flow through the whole compile pipeline."""
        from repro.apps import build_image_pipeline
        from repro.transform import compile_application
        from helpers import BIG_PROC

        app = build_image_pipeline(16, 12, 100.0)
        for name in ("Median3x3", "Conv5x5"):
            kernel = app.kernel(name)
            report = profile_kernel(kernel, repeats=20,
                                    seconds_per_cycle=SPC)
            apply_profile(kernel, report)
        compiled = compile_application(app, BIG_PROC)
        assert compiled.resources.resources("Median3x3").compute_cps > 0


class TestCalibration:
    def test_default_calibration_runs(self):
        """profile_kernel without an explicit cycle unit self-calibrates."""
        from repro.kernels import IdentityKernel
        from repro.profiling import calibrate

        spc = calibrate(iterations=20_000)
        assert 0 < spc < 1e-3  # a host cycle-unit in a sane range
        k = IdentityKernel("i")
        from repro.profiling import profile_kernel

        report = profile_kernel(k, repeats=15)
        assert report.seconds_per_cycle > 0
        assert report.cycles("run") >= 1
