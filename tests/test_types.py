"""Tests for repro.types."""

import numpy as np

from repro.types import CodegenError, DType, Pass, ReproError, ShapeError


class TestDType:
    def test_f32_sizes(self):
        assert DType.F32.input_itemsize == 4
        assert DType.F32.output_itemsize == 4

    def test_qi16_sizes(self):
        # int16 inputs but 32-bit outputs (section II-K)
        assert DType.QI16F32.input_itemsize == 2
        assert DType.QI16F32.output_itemsize == 4

    def test_numpy_dtypes(self):
        assert DType.F32.np_input == np.float32
        assert DType.F32.np_accum == np.float32
        assert DType.QI16F32.np_input == np.int16
        assert DType.QI16F32.np_accum == np.int32

    def test_roundtrip_by_value(self):
        assert DType("f32") is DType.F32
        assert DType("qi16f32") is DType.QI16F32


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ShapeError, ReproError)
        assert issubclass(CodegenError, ReproError)

    def test_pass_values(self):
        assert {p.value for p in Pass} == {"forward", "backward", "update"}
