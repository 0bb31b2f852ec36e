"""Unit tests for 2-D geometry: sizes, steps, offsets, regions, iteration."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AnalysisError, PortError
from repro.geometry import (
    Inset,
    Offset2D,
    Region,
    Size2D,
    Step2D,
    halo,
    iteration_count,
    iteration_grid,
    output_extent,
    steady_state_reuse,
    window_positions,
)


class TestSize2D:
    def test_elements(self):
        assert Size2D(5, 5).elements == 25
        assert Size2D(32, 1).elements == 32

    def test_rejects_nonpositive(self):
        with pytest.raises(PortError):
            Size2D(0, 5)
        with pytest.raises(PortError):
            Size2D(5, -1)

    def test_str_matches_paper_notation(self):
        assert str(Size2D(5, 5)) == "(5x5)"

    def test_fits_in(self):
        assert Size2D(3, 3).fits_in(Size2D(5, 5))
        assert not Size2D(6, 3).fits_in(Size2D(5, 5))

    def test_iter_unpacks(self):
        w, h = Size2D(4, 7)
        assert (w, h) == (4, 7)


class TestStep2D:
    def test_rejects_nonpositive(self):
        with pytest.raises(PortError):
            Step2D(0, 1)

    def test_str(self):
        assert str(Step2D(1, 1)) == "[1,1]"


class TestOffset2D:
    def test_fractional_exact(self):
        o = Offset2D(0.5, 0.5)
        assert o.x == Fraction(1, 2)

    def test_add(self):
        assert Offset2D(1, 2) + Offset2D(0.5, 0.5) == Offset2D(1.5, 2.5)

    def test_str_matches_paper(self):
        assert str(Offset2D(2, 2)) == "[2.0,2.0]"


class TestIteration:
    def test_paper_example_100x100_through_5x5(self):
        """Section III-A: 100x100 through a 5x5 step-1 window -> 96x96."""
        grid = iteration_grid(Size2D(100, 100), Size2D(5, 5), Step2D(1, 1))
        assert grid == Size2D(96, 96)

    def test_output_extent(self):
        grid = Size2D(96, 96)
        assert output_extent(grid, Size2D(1, 1)) == Size2D(96, 96)
        assert output_extent(Size2D(3, 1), Size2D(32, 1)) == Size2D(96, 1)

    def test_window_too_big(self):
        with pytest.raises(AnalysisError):
            iteration_count(4, 5, 1)

    def test_non_unit_step(self):
        # 10 wide, window 2, step 2 -> 5 positions
        assert iteration_count(10, 2, 2) == 5
        # 11 wide, window 2, step 2 -> 5 positions (last element unused)
        assert iteration_count(11, 2, 2) == 5

    def test_halo(self):
        """5x5 step (1,1) has a 4x4 halo (Section III-A)."""
        assert halo(Size2D(5, 5), Step2D(1, 1)) == (4, 4)
        assert halo(Size2D(2, 2), Step2D(2, 2)) == (0, 0)

    @given(
        extent=st.integers(1, 200),
        window=st.integers(1, 20),
        step=st.integers(1, 20),
    )
    def test_iteration_count_consistency(self, extent, window, step):
        """Last window position must fit; one more step must not."""
        if window > extent or step > window:
            return
        n = iteration_count(extent, window, step)
        last = (n - 1) * step
        assert last + window <= extent
        assert n * step + window > extent

    def test_window_positions_scan_order(self):
        pos = list(window_positions(Size2D(4, 3), Size2D(2, 2), Step2D(1, 1)))
        assert pos[0] == (0, 0)
        assert pos[1] == (1, 0)  # x advances first: scan-line order
        assert pos[-1] == (2, 1)
        assert len(pos) == 3 * 2


class TestReuse:
    def test_figure5_24_of_25(self):
        """Figure 5(b): 5x5 step-1 window reuses 24 of 25 elements."""
        assert steady_state_reuse(Size2D(5, 5), Step2D(1, 1)) == Fraction(24, 25)

    def test_no_reuse_when_step_equals_window(self):
        assert steady_state_reuse(Size2D(5, 5), Step2D(5, 5)) == 0

    @given(w=st.integers(1, 30), h=st.integers(1, 30), sx=st.integers(1, 30))
    def test_reuse_bounds(self, w, h, sx):
        if sx > w:
            return
        r = steady_state_reuse(Size2D(w, h), Step2D(sx, 1))
        assert 0 <= r < 1


class TestRegion:
    def test_alignment(self):
        a = Region(Size2D(96, 96), Inset(2, 2))
        b = Region(Size2D(96, 96), Inset(2, 2))
        c = Region(Size2D(98, 98), Inset(1, 1))
        assert a.aligned_with(b)
        assert not a.aligned_with(c)

    def test_figure8_intersection(self):
        """Median output 98x98@(1,1) vs conv output 96x96@(2,2): aligned
        overlap is the conv region (Figure 8)."""
        median = Region(Size2D(98, 98), Inset(1, 1))
        conv = Region(Size2D(96, 96), Inset(2, 2))
        inter = median.intersection(conv)
        assert inter == conv

    def test_trim_margins(self):
        median = Region(Size2D(98, 98), Inset(1, 1))
        conv = Region(Size2D(96, 96), Inset(2, 2))
        assert median.trim_margins(conv) == (1, 1, 1, 1)

    def test_trim_margins_rejects_uncontained(self):
        small = Region(Size2D(10, 10), Inset(0, 0))
        big = Region(Size2D(20, 20), Inset(0, 0))
        with pytest.raises(AnalysisError):
            small.trim_margins(big)

    def test_union_bound(self):
        a = Region(Size2D(10, 10), Inset(0, 0))
        b = Region(Size2D(10, 10), Inset(5, 0))
        u = a.union_bound(b)
        assert u.extent == Size2D(15, 10)
        assert u.inset == Inset(0, 0)

    def test_disjoint_intersection_raises(self):
        a = Region(Size2D(5, 5), Inset(0, 0))
        b = Region(Size2D(5, 5), Inset(10, 10))
        with pytest.raises(AnalysisError):
            a.intersection(b)

    @given(
        w=st.integers(2, 40), h=st.integers(2, 40),
        dx=st.integers(0, 10), dy=st.integers(0, 10),
    )
    def test_intersection_contained_in_both(self, w, h, dx, dy):
        a = Region(Size2D(w + dx, h + dy), Inset(0, 0))
        b = Region(Size2D(w, h), Inset(dx, dy))
        inter = a.intersection(b)
        assert inter.extent.fits_in(a.extent)
        assert inter.extent.fits_in(b.extent)
        # target contained in both -> margins nonnegative
        assert all(m >= 0 for m in a.trim_margins(inter))
        assert all(m >= 0 for m in b.trim_margins(inter))
