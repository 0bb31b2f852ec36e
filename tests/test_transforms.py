"""Tests for the align, buffering, and compile transforms (Sections III-B/C)."""

import pytest

from repro.analysis import (
    analyze_dataflow,
    check_alignment,
    find_misalignments,
    validate_application,
    validate_physical,
)
from repro.apps import build_image_pipeline, build_multi_conv_app
from repro.errors import (
    AlignmentError,
    AnalysisError,
    GraphError,
    RateError,
    TransformError,
)
from repro.geometry import Inset, Size2D
from repro.graph import ApplicationGraph
from repro.kernels import (
    ApplicationOutput,
    BufferKernel,
    InsetKernel,
    PadKernel,
    RoundRobinSplit,
    SubtractKernel,
)
from repro.sim import simulate
from repro.transform import (
    CompileOptions,
    align_application,
    compile_application,
    insert_buffers,
)

from helpers import BIG_PROC, SMALL_PROC, run_compiled


class TestAlignmentDetection:
    def test_figure8_misalignment(self):
        app = build_image_pipeline(100, 100, 50.0)
        problems = find_misalignments(app)
        assert len(problems) == 1
        p = problems[0]
        assert p.kernel == "Subtract"
        assert p.regions["in0"].extent == Size2D(96, 96)  # conv
        assert p.regions["in1"].extent == Size2D(98, 98)  # median
        assert p.trims["in1"] == (1, 1, 1, 1)
        assert p.trims["in0"] == (0, 0, 0, 0)
        assert p.target.extent == Size2D(96, 96)
        assert p.target.inset == Inset(2, 2)

    def test_check_alignment_raises(self):
        with pytest.raises(AlignmentError):
            check_alignment(build_image_pipeline())

    def test_aligned_app_clean(self):
        app = build_image_pipeline()
        align_application(app)
        check_alignment(app)  # no raise
        assert find_misalignments(app) == []


class TestTrimPolicy:
    def test_inset_kernel_inserted_on_median_path(self):
        app = build_image_pipeline(24, 16, 100.0)
        inserted = align_application(app, policy="trim")
        assert inserted == ["offset(in1)"]
        kernel = app.kernel("offset(in1)")
        assert isinstance(kernel, InsetKernel)
        assert kernel.trim == (1, 1, 1, 1)
        # Spliced between the median and the subtract.
        assert app.edge_into("offset(in1)", "in").src == "Median3x3"
        assert app.edge_into("Subtract", "in1").src == "offset(in1)"

    def test_trimmed_graph_analyzes(self):
        app = build_image_pipeline(24, 16, 100.0)
        align_application(app, policy="trim")
        df = analyze_dataflow(app)
        sub = df.flow("Subtract").outputs["out"]
        assert sub.extent == Size2D(20, 12)
        assert sub.inset == Inset(2, 2)


class TestPadPolicy:
    def test_pad_kernel_inserted_before_conv(self):
        app = build_image_pipeline(24, 16, 100.0)
        inserted = align_application(app, policy="pad")
        assert inserted == ["pad(Conv5x5)"]
        pad = app.kernel("pad(Conv5x5)")
        assert isinstance(pad, PadKernel)
        assert pad.pad == (1, 1, 1, 1)
        assert app.edge_into("Conv5x5", "in").src == "pad(Conv5x5)"

    def test_padded_graph_analyzes_to_median_extent(self):
        app = build_image_pipeline(24, 16, 100.0)
        align_application(app, policy="pad")
        df = analyze_dataflow(app)
        sub = df.flow("Subtract").outputs["out"]
        assert sub.extent == Size2D(22, 14)  # the median's full output
        assert sub.inset == Inset(1, 1)

    def test_pad_functional_output_differs_only_at_border(self):
        """Trim and pad agree on the interior pixels (zero-pad only
        perturbs outputs whose window touches the synthetic border)."""
        app_t = build_image_pipeline(16, 12, 100.0, hist_lo=-512, hist_hi=512)
        app_p = build_image_pipeline(16, 12, 100.0, hist_lo=-512, hist_hi=512)
        _, res_t = run_compiled(app_t, alignment_policy="trim")
        _, res_p = run_compiled(app_p, alignment_policy="pad")
        # Both produce exactly one histogram per frame.
        assert len(res_t.output("result")) == 1
        assert len(res_p.output("result")) == 1
        # Pad counts more pixels: the padded region is 14x10 vs 12x8.
        assert res_p.output("result")[0].sum() == 14 * 10
        assert res_t.output("result")[0].sum() == 12 * 8

    def test_unknown_policy_rejected(self):
        with pytest.raises(TransformError):
            align_application(
                build_image_pipeline(), policy="mirror"
            )  # type: ignore[arg-type]


class TestBuffering:
    def test_figure3_buffers(self):
        app = build_image_pipeline(24, 16, 100.0)
        align_application(app)
        inserted = insert_buffers(app)
        assert sorted(inserted) == ["buf_Conv5x5.in", "buf_Median3x3.in"]
        buf = app.kernel("buf_Conv5x5.in")
        assert isinstance(buf, BufferKernel)
        assert buf.window_w == 5 and buf.storage_rows == 10
        assert buf.region_w == 24
        # Figure 4's label: [24x10] storage for the 5x5 on a 24-wide frame.
        assert buf.storage_words == 240

    def test_no_buffers_where_chunks_match(self):
        app = build_image_pipeline(24, 16, 100.0)
        align_application(app)
        insert_buffers(app)
        df = analyze_dataflow(app)
        validate_physical(app, df)  # every channel now unit-rate
        # Re-running inserts nothing new.
        assert insert_buffers(app, df) == []

    def test_validate_physical_rejects_unbuffered(self):
        app = build_image_pipeline(24, 16, 100.0)
        align_application(app)
        with pytest.raises(RateError):
            validate_physical(app)


class TestCompilePipeline:
    def test_source_graph_untouched(self):
        app = build_image_pipeline(24, 16, 100.0)
        names_before = set(app.kernels)
        compile_application(app, SMALL_PROC)
        assert set(app.kernels) == names_before

    def test_compiled_graph_valid(self):
        compiled = compile_application(
            build_image_pipeline(24, 16, 100.0), SMALL_PROC
        )
        validate_application(compiled.graph)
        validate_physical(compiled.graph, compiled.dataflow)

    def test_multi_conv_needs_two_insets(self):
        """The filter bank misaligns twice: 3x3 pair vs 5x5 branch."""
        compiled = compile_application(build_multi_conv_app(), BIG_PROC)
        insets = [
            n for n, k in compiled.graph.kernels.items()
            if isinstance(k, InsetKernel)
        ]
        assert len(insets) == 1  # only the 3x3-vs-5x5 join misaligns
        compiled_graph_buffers = [
            n for n, k in compiled.graph.kernels.items()
            if isinstance(k, BufferKernel)
        ]
        assert len(compiled_graph_buffers) == 3  # one per windowed filter

    def test_mapping_strategies_differ(self):
        app = build_image_pipeline(24, 16, 100.0)
        one = compile_application(app, SMALL_PROC, CompileOptions(mapping="1:1"))
        gm = compile_application(app, SMALL_PROC, CompileOptions(mapping="greedy"))
        assert gm.processor_count <= one.processor_count

    def test_describe(self):
        compiled = compile_application(build_image_pipeline(), SMALL_PROC)
        text = compiled.describe()
        assert "kernels on" in text

    def test_validation_catches_missing_output(self):
        app = ApplicationGraph("no_out")
        app.add_input("Input", 4, 4, 10.0)
        app.add_kernel(SubtractKernel("s"))
        app.connect("Input", "out", "s", "in0")
        app.connect("Input", "out", "s", "in1")
        with pytest.raises(GraphError):
            compile_application(app, BIG_PROC)


class TestContract:
    """``CompiledApp.contract`` reads the verdict's arguments off the
    dataflow analysis; every refusal names the candidate outputs."""

    @staticmethod
    def halves():
        app = ApplicationGraph("halves")
        app.add_input("Input", 8, 4, 10.0)
        app.add_kernel(RoundRobinSplit("split", 2))
        app.add_output("A")
        app.add_output("B")
        app.connect("Input", "out", "split", "in")
        app.connect("split", "out_0", "A", "in")
        app.connect("split", "out_1", "B", "in")
        return compile_application(app, BIG_PROC)

    def test_reads_the_only_output(self):
        compiled = compile_application(
            build_multi_conv_app(32, 20, 100), SMALL_PROC
        )
        expected = {"output": "Out", "chunks_per_frame": 28 * 16,
                    "rate_hz": 100.0}
        assert compiled.contract() == compiled.contract("Out") == expected
        assert type(compiled.contract()["rate_hz"]) is float
        assert simulate(compiled).verdict(**compiled.contract()).meets

    def test_several_outputs_and_none_named(self):
        with pytest.raises(AnalysisError, match=r"2 application outputs "
                                                r"\['A', 'B'\]"):
            self.halves().contract()

    def test_unknown_output(self):
        with pytest.raises(AnalysisError, match=r"no application output 'C'; "
                                                r"candidates: \['A', 'B'\]"):
            self.halves().contract("C")

    def test_split_branch_output_refused(self):
        with pytest.raises(AnalysisError, match=r"'A' receives a 1/2 share"
                                                r".*\['A', 'B'\]"):
            self.halves().contract("A")

    def test_graph_without_outputs(self):
        compiled = self.halves()
        compiled.graph = ApplicationGraph("bare")  # hand-assembled artefact
        with pytest.raises(AnalysisError, match=r"0 application outputs \[\]"):
            compiled.contract()


class TestPadPolicyErrors:
    def test_non_unit_step_producer_rejected(self):
        """Padding cannot exactly grow a decimating producer's output."""
        from repro.kernels import DownsampleKernel, SubtractKernel, MedianKernel
        from repro.kernels import ApplicationOutput

        app = ApplicationGraph("padfail")
        app.add_input("Input", 16, 16, 50.0)
        app.add_kernel(DownsampleKernel("down", 2))   # 8x8 @ (0.5, 0.5)
        app.add_kernel(MedianKernel("med", 3, 3))     # big halo branch
        app.add_kernel(SubtractKernel("sub"))
        app.add_kernel(ApplicationOutput("Out", 1, 1))
        app.connect("Input", "out", "down", "in")
        app.connect("Input", "out", "med", "in")
        app.connect("down", "out", "sub", "in0")
        app.connect("med", "out", "sub", "in1")
        app.connect("sub", "out", "Out", "in")
        # Fractional insets (the downsampler) cannot be aligned at all:
        # regions differ by half-pixel offsets.
        with pytest.raises(Exception):
            align_application(app, policy="pad")

    def test_trim_reports_fractional_misalignment(self):
        """Half-pixel offsets are a genuine semantic error, not trimmable."""
        from repro.kernels import DownsampleKernel, SubtractKernel
        from repro.kernels import ApplicationOutput, IdentityKernel

        app = ApplicationGraph("frac")
        app.add_input("Input", 8, 8, 50.0)
        app.add_kernel(DownsampleKernel("down", 2))
        app.add_kernel(IdentityKernel("id"))
        app.add_kernel(SubtractKernel("sub"))
        app.add_kernel(ApplicationOutput("Out", 1, 1))
        app.connect("Input", "out", "down", "in")
        app.connect("Input", "out", "id", "in")
        app.connect("down", "out", "sub", "in0")
        app.connect("id", "out", "sub", "in1")
        app.connect("sub", "out", "Out", "in")
        with pytest.raises(Exception):
            align_application(app, policy="trim")
