"""Unit tests for ports, methods, kernel registration, and the app graph."""

import numpy as np
import pytest

from repro.errors import (
    FiringError,
    GraphError,
    MethodError,
    PortError,
    ResourceError,
)
from repro.geometry import Size2D
from repro.graph import ApplicationGraph, Kernel, MethodCost
from repro.graph.methods import MethodSpec, TokenTrigger
from repro.graph.ports import make_input, make_output
from repro.kernels import (
    ApplicationInput,
    ApplicationOutput,
    ConvolutionKernel,
    IdentityKernel,
    MedianKernel,
    SubtractKernel,
)
from repro.tokens import EndOfFrame


class TestPortSpecs:
    def test_input_describe_matches_paper(self):
        spec = make_input("in", 5, 5, 1, 1, 2, 2)
        assert spec.describe() == "in (5x5)[1,1] [2.0,2.0]"

    def test_replicated_flag(self):
        spec = make_input("coeff", 5, 5, 5, 5, replicated=True)
        assert spec.replicated
        assert "(replicated)" in spec.describe()

    def test_input_halo(self):
        assert make_input("in", 5, 5, 1, 1).halo == (4, 4)
        assert make_input("in", 2, 2, 2, 2).halo == (0, 0)

    def test_step_exceeding_window_rejected(self):
        with pytest.raises(PortError):
            make_input("in", 2, 2, 3, 1)

    def test_output_step_must_equal_window(self):
        out = make_output("out", 32, 1)
        assert out.step.x == 32 and out.step.y == 1

    def test_empty_name_rejected(self):
        with pytest.raises(PortError):
            make_input("", 1, 1)


class TestMethodSpec:
    def test_needs_a_trigger(self):
        with pytest.raises(MethodError):
            MethodSpec(name="m")

    def test_token_method_excludes_data_inputs(self):
        with pytest.raises(MethodError):
            MethodSpec(
                name="m",
                data_inputs=("in",),
                token=TokenTrigger("in", EndOfFrame),
            )

    def test_negative_cycles_rejected(self):
        with pytest.raises(ResourceError):
            MethodCost(cycles=-1)


class TestKernelConfiguration:
    def test_convolution_matches_figure6(self):
        """Figure 6's parameterization: in (5x5)[1,1] offset [2,2]; coeff
        (5x5)[5,5] replicated; costs 10+3hw and 10+2hw."""
        k = ConvolutionKernel("conv", 5, 5)
        assert k.inputs["in"].window == Size2D(5, 5)
        assert float(k.inputs["in"].offset.x) == 2.0
        assert k.inputs["coeff"].replicated
        assert k.methods["run_convolve"].cost.cycles == 10 + 3 * 25
        assert k.methods["load_coeff"].cost.cycles == 10 + 2 * 25

    def test_duplicate_port_rejected(self):
        class Bad(Kernel):
            def configure(self):
                self.add_input("in", 1, 1)
                self.add_input("in", 1, 1)

        with pytest.raises(PortError):
            Bad("bad")

    def test_method_without_body_rejected(self):
        class Bad(Kernel):
            def configure(self):
                self.add_input("in", 1, 1)
                self.add_method("missing", inputs=["in"])

        with pytest.raises(MethodError):
            Bad("bad")

    def test_kernel_without_methods_rejected(self):
        class Bad(Kernel):
            def configure(self):
                self.add_input("in", 1, 1)

        with pytest.raises(MethodError):
            Bad("bad")

    def test_input_triggering_two_data_methods_rejected(self):
        class Bad(Kernel):
            def configure(self):
                self.add_input("in", 1, 1)
                self.add_method("a", inputs=["in"])
                self.add_method("b", inputs=["in"])

            def a(self):
                pass

            def b(self):
                pass

        with pytest.raises(MethodError):
            Bad("bad")

    def test_data_method_for_input(self):
        k = SubtractKernel("sub")
        m = k.data_method_for_input("in0")
        assert m is not None and m.name == "run"
        assert k.data_method_for_input("in1") is m

    def test_port_buffer_words_double_buffer(self):
        """Each port implicitly buffers one iteration, double-buffered."""
        k = MedianKernel("med", 3, 3)
        # in: 2*9, out: 2*1
        assert k.port_buffer_words() == 2 * 9 + 2 * 1

    def test_clone_is_independent(self):
        k = ConvolutionKernel("conv", 3, 3, with_coeff_input=False,
                              coeff=np.ones((3, 3)))
        twin = k.clone("conv_0")
        assert twin.name == "conv_0"
        twin.coeff[0, 0] = 99.0
        assert k.coeff[0, 0] == 1.0

    def test_write_output_shape_checked(self):
        k = MedianKernel("med", 3, 3)
        from repro.graph.kernel import FiringContext

        ctx = FiringContext(method=k.methods["run"],
                            inputs={"in": np.zeros((3, 3))})
        k.bind_context(ctx)
        with pytest.raises(FiringError):
            k.write_output("out", np.zeros((2, 2)))

    def test_read_input_outside_firing_raises(self):
        k = MedianKernel("med", 3, 3)
        with pytest.raises(FiringError):
            k.read_input("in")


class TestApplicationGraph:
    def build(self):
        app = ApplicationGraph("t")
        app.add_input("Input", 10, 10, 50.0)
        app.add_kernel(IdentityKernel("id"))
        app.add_output("Out")
        app.connect("Input", "out", "id", "in")
        app.connect("id", "out", "Out", "in")
        return app

    def test_check_connected_passes(self):
        self.build().check_connected()

    def test_unconnected_input_detected(self):
        app = self.build()
        app.add_kernel(SubtractKernel("sub"))
        with pytest.raises(GraphError):
            app.check_connected()

    def test_duplicate_kernel_rejected(self):
        app = self.build()
        with pytest.raises(GraphError):
            app.add_kernel(IdentityKernel("id"))

    def test_double_connection_to_input_rejected(self):
        app = self.build()
        app.add_kernel(IdentityKernel("id2"))
        with pytest.raises(GraphError):
            app.connect("Input", "out", "id", "in")

    def test_fanout_from_output_allowed(self):
        app = ApplicationGraph("t")
        app.add_input("Input", 10, 10, 50.0)
        app.add_kernel(IdentityKernel("a"))
        app.add_kernel(IdentityKernel("b"))
        app.connect("Input", "out", "a", "in")
        app.connect("Input", "out", "b", "in")
        assert len(app.edges_from("Input", "out")) == 2

    def test_unknown_port_rejected(self):
        app = self.build()
        with pytest.raises(PortError):
            app.connect("id", "nope", "Out", "in")

    def test_topological_order(self):
        order = self.build().topological_order()
        assert order.index("Input") < order.index("id") < order.index("Out")

    def test_cycle_without_feedback_kernel_rejected(self):
        app = ApplicationGraph("t")
        app.add_kernel(IdentityKernel("a"))
        app.add_kernel(IdentityKernel("b"))
        app.connect("a", "out", "b", "in")
        app.connect("b", "out", "a", "in")
        with pytest.raises(GraphError):
            app.topological_order()

    def test_insert_on_edge(self):
        app = self.build()
        edge = app.edge_into("Out", "in")
        app.insert_on_edge(edge, IdentityKernel("mid"), "in", "out")
        assert app.edge_into("mid", "in").src == "id"
        assert app.edge_into("Out", "in").src == "mid"
        app.check_connected()

    def test_remove_kernel_drops_edges(self):
        app = self.build()
        app.remove_kernel("id")
        assert "id" not in app
        assert all("id" not in (e.src, e.dst) for e in app.edges)

    def test_rename_kernel_rewrites_edges(self):
        app = self.build()
        app.rename_kernel("id", "ident")
        assert app.edge_into("Out", "in").src == "ident"
        app.check_connected()

    def test_dependency_edges(self):
        app = self.build()
        app.add_dependency("Input", "id")
        assert app.dependency_sources("id") == ["Input"]

    def test_copy_is_deep(self):
        app = self.build()
        twin = app.copy()
        twin.remove_kernel("id")
        assert "id" in app
        assert app.kernel("id") is not None

    def test_fresh_name(self):
        app = self.build()
        assert app.fresh_name("id") == "id_0"
        assert app.fresh_name("new") == "new"

    def test_application_boundaries(self):
        app = self.build()
        assert [k.name for k in app.application_inputs()] == ["Input"]
        assert [k.name for k in app.application_outputs()] == ["Out"]

    def test_describe_mentions_every_kernel(self):
        text = self.build().describe()
        for name in ("Input", "id", "Out"):
            assert name in text


class TestBoundaryKernels:
    def test_input_rates(self):
        src = ApplicationInput("in", 100, 100, 50.0)
        assert src.elements_per_second == 100 * 100 * 50
        assert src.element_period == pytest.approx(1 / 500_000)

    def test_input_frame_deterministic(self):
        src = ApplicationInput("in", 4, 3, 1.0)
        f0 = src.frame(0)
        assert f0.shape == (3, 4)
        np.testing.assert_array_equal(f0, src.frame(0))
        assert not np.array_equal(f0, src.frame(1))

    def test_input_pattern_array(self):
        pat = np.arange(12.0).reshape(3, 4)
        src = ApplicationInput("in", 4, 3, 1.0, pattern=pat)
        np.testing.assert_array_equal(src.frame(7), pat)

    def test_input_pattern_shape_checked(self):
        src = ApplicationInput("in", 4, 3, 1.0, pattern=np.zeros((2, 2)))
        with pytest.raises(GraphError):
            src.frame(0)

    def test_output_records(self):
        out = ApplicationOutput("out")
        from repro.graph.kernel import FiringContext

        ctx = FiringContext(method=out.methods["record"],
                            inputs={"in": np.array([[7.0]])})
        out.bind_context(ctx)
        out.record()
        assert len(out.received) == 1
        out.reset()
        assert out.received == []
