"""make_engine factory, ConvEngine protocol, keyword-only configuration."""

import numpy as np
import pytest

from repro import ConvEngine, make_engine
from repro.arch.machine import KNM, SKX
from repro.conv.backward import DirectConvBackward
from repro.conv.forward import DirectConvForward
from repro.conv.params import ConvParams
from repro.conv.upd import DirectConvUpd
from repro.jit.kernel_cache import KernelCache
from repro.quant.qconv_engine import QuantConvForward
from repro.types import DType, Pass, ReproError, UnsupportedError
from tests.conftest import TINY, rand_conv_tensors

P = ConvParams(N=1, C=8, K=8, H=6, W=6, R=3, S=3, stride=1)
P16 = ConvParams(N=1, C=16, K=16, H=6, W=6, R=3, S=3, stride=1)


class TestDispatch:
    @pytest.mark.parametrize(
        "pass_, cls",
        [
            (Pass.FWD, DirectConvForward),
            (Pass.BWD, DirectConvBackward),
            (Pass.UPD, DirectConvUpd),
            ("fwd", DirectConvForward),
            ("F", DirectConvForward),
            ("forward", DirectConvForward),
            ("bwd", DirectConvBackward),
            ("B", DirectConvBackward),
            ("data", DirectConvBackward),
            ("upd", DirectConvUpd),
            ("U", DirectConvUpd),
            ("wu", DirectConvUpd),
        ],
    )
    def test_pass_spellings(self, pass_, cls):
        eng = make_engine(pass_, P16, machine=SKX)
        assert type(eng) is cls
        assert isinstance(eng, ConvEngine)

    def test_quant_by_name_and_by_dtype(self):
        assert type(make_engine("quant", P16, machine=KNM)) is QuantConvForward
        eng = make_engine(Pass.FWD, P16, machine=KNM, dtype=DType.QI16F32)
        assert type(eng) is QuantConvForward

    def test_unknown_pass_raises(self):
        with pytest.raises(ReproError, match="unknown pass"):
            make_engine("sideways", P)

    def test_quant_backward_raises(self):
        with pytest.raises(ReproError, match="forward pass only"):
            make_engine("bwd", P16, machine=KNM, dtype=DType.QI16F32)

    def test_strategy_only_for_upd(self):
        with pytest.raises(ReproError, match="update pass"):
            make_engine(Pass.FWD, P, machine=TINY, strategy="flat")

    def test_upd_fused_ops_raises(self):
        from repro.conv.fusion import ReLU

        with pytest.raises(UnsupportedError):
            make_engine("upd", P16, machine=SKX, fused_ops=[ReLU()])

    def test_gemm_backward_fused_ops_raises(self):
        from repro.conv.fusion import ReLU

        strided = ConvParams(N=1, C=8, K=8, H=8, W=8, R=3, S=3, stride=2)
        with pytest.raises(UnsupportedError):
            make_engine("bwd", strided, machine=TINY, fused_ops=[ReLU()])


class TestNumericsMatchDirect:
    """The factory must be a pure router: bitwise-identical results."""

    def test_forward(self, rng):
        x, w, _ = rand_conv_tensors(P, rng)
        a = make_engine(Pass.FWD, P, machine=TINY, threads=2)
        b = DirectConvForward(P, TINY, threads=2)
        assert np.array_equal(a.run_nchw(x, w), b.run_nchw(x, w))

    def test_backward(self, rng):
        _, w, dy = rand_conv_tensors(P, rng)
        a = make_engine(Pass.BWD, P, machine=TINY)
        b = DirectConvBackward(P, TINY)
        assert np.array_equal(a.run_nchw(dy, w), b.run_nchw(dy, w))

    def test_upd(self, rng):
        x, _, dy = rand_conv_tensors(P16, rng)
        a = make_engine(Pass.UPD, P16, machine=SKX)
        b = DirectConvUpd(P16, SKX)
        assert np.array_equal(a.run_nchw(x, dy), b.run_nchw(x, dy))

    def test_quant(self, rng):
        x, w, _ = rand_conv_tensors(P16, rng, scale=0.3)
        a = make_engine("quant", P16, machine=KNM)
        b = QuantConvForward(P16, KNM)
        assert np.array_equal(a.run_nchw(x, w), b.run_nchw(x, w))

    def test_shared_kernel_cache_is_used(self):
        cache = KernelCache()
        make_engine(Pass.FWD, P, machine=TINY, kernel_cache=cache)
        assert len(cache) > 0


class TestDeprecationShims:
    """The positional-argument shims are gone: every engine takes its
    configuration after ``machine`` as keywords only."""

    def test_too_many_positionals_is_a_typeerror(self):
        for cls, p, machine in (
            (DirectConvForward, P, TINY),
            (DirectConvBackward, P, TINY),
            (DirectConvUpd, P16, SKX),
            (QuantConvForward, P16, KNM),
        ):
            with pytest.raises(TypeError):
                cls(p, machine, DType.F32)


class TestProtocol:
    def test_protocol_attributes(self):
        eng = make_engine(Pass.FWD, P, machine=TINY, threads=3)
        assert eng.params is P
        assert eng.machine is TINY
        assert eng.dtype is DType.F32
        assert eng.threads == 3

    def test_non_engine_fails_isinstance(self):
        class NotAnEngine:
            pass

        assert not isinstance(NotAnEngine(), ConvEngine)
