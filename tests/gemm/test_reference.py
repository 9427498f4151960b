"""Convolution -> GEMM shape algebra tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.gemm.reference import conv_output_shape, conv_to_gemm


def _window_starts(extent, kernel, stride, padding, dilation):
    """Every offset, walking by ``stride`` from ``-padding``, at which the
    dilated kernel window lies inside the padded input."""
    span = dilation * (kernel - 1)
    return range(-padding, extent + padding - span, stride)


class TestConvShapes:
    def test_alexnet_conv1(self):
        assert conv_output_shape(227, 227, 11, stride=4) == (55, 55)

    def test_same_padding(self):
        assert conv_output_shape(56, 56, 3, padding=1) == (56, 56)

    def test_dilation(self):
        # 3x3 rate-2 atrous with padding 2 preserves extent.
        assert conv_output_shape(65, 65, 3, padding=2, dilation=2) == (65, 65)

    def test_empty_output_rejected(self):
        with pytest.raises(MappingError):
            conv_output_shape(4, 4, 7)

    def test_nonpositive_geometry_rejected(self):
        for height, width, kernel, stride in (
            (0, 8, 3, 1), (8, 0, 3, 1), (8, 8, 0, 1), (8, 8, 3, 0),
        ):
            with pytest.raises(MappingError, match="must be positive"):
                conv_output_shape(height, width, kernel, stride=stride)

    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        kernel=st.integers(1, 11),
        stride=st.integers(1, 5),
        padding=st.integers(0, 5),
        dilation=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_extent_counts_the_window_positions(
        self, height, width, kernel, stride, padding, dilation
    ):
        rows = _window_starts(height, kernel, stride, padding, dilation)
        cols = _window_starts(width, kernel, stride, padding, dilation)
        if not rows or not cols:
            with pytest.raises(MappingError, match="empty output"):
                conv_output_shape(
                    height, width, kernel, stride, padding, dilation
                )
            return
        assert conv_output_shape(
            height, width, kernel, stride, padding, dilation
        ) == (len(rows), len(cols))

    def test_conv_to_gemm_dims(self):
        m, n, k = conv_to_gemm(3, 96, 227, 227, 11, stride=4)
        assert (m, n, k) == (55 * 55, 96, 3 * 11 * 11)

    def test_batch_scales_m(self):
        m1, _n, _k = conv_to_gemm(3, 8, 32, 32, 3, padding=1)
        m4, _n, _k = conv_to_gemm(3, 8, 32, 32, 3, padding=1, batch=4)
        assert m4 == 4 * m1
