"""Execution tiers: the compiled tier must be *bitwise* identical to the
µop interpreter on every generated variant, and the tier plumbing
(engines, factory, cache, trace fallback) must behave."""

import numpy as np
import pytest

from repro.arch.machine import KNM, SKX
from repro.conv.backward import DirectConvBackward
from repro.conv.engine import make_engine
from repro.conv.forward import DirectConvForward
from repro.conv.fusion import Bias, ReLU
from repro.conv.params import ConvParams
from repro.conv.upd import DirectConvUpd
from repro.jit.compile import (
    EXECUTION_TIERS,
    CompiledKernel,
    compile_kernel,
    get_default_execution_tier,
    resolve_execution_tier,
    set_default_execution_tier,
)
from repro.jit.gemm import GemmDesc, generate_gemm_kernel
from repro.jit.interpreter import execute_kernel
from repro.jit.kernel_cache import KernelCache
from repro.jit.tiers import ExecutionTier, UnknownTierError, as_tier
from repro.quant.qconv_engine import QuantConvForward
from repro.quant.qtensor import quantize
from repro.conv.reference import conv2d_forward
from repro.tensor.blocked import block_activations, block_weights
from repro.types import ReproError
from tests.conftest import TINY, assert_close, rand_conv_tensors

#: layer shapes exercising every µop generator feature on the VLEN=4 machine:
#: multi-row pixel blocking, 1x1, strides, asymmetric taps, remainders
FWD_CASES = [
    ConvParams(N=1, C=8, K=8, H=6, W=6, R=3, S=3, stride=1, pad_h=1, pad_w=1),
    ConvParams(N=2, C=4, K=8, H=5, W=5, R=1, S=1, stride=1),
    ConvParams(N=1, C=8, K=4, H=7, W=7, R=1, S=1, stride=2),
    ConvParams(N=1, C=4, K=4, H=6, W=7, R=2, S=3, stride=1),
    ConvParams(N=1, C=8, K=8, H=9, W=9, R=3, S=3, stride=2, pad_h=1, pad_w=1),
]


def _fwd_out(p, rng, tier, **kw):
    x, w, _ = rand_conv_tensors(p, rng)
    eng = DirectConvForward(p, machine=TINY, execution_tier=tier, **kw)
    bx = block_activations(x, 4, pad_h=p.pad_h, pad_w=p.pad_w)
    bw = block_weights(w, 4)
    return eng(bx, bw).data, x, w


class TestForwardTiers:
    @pytest.mark.parametrize("p", FWD_CASES, ids=lambda p: p.describe())
    def test_compiled_bitwise_equals_interpreter(self, p, rng):
        out_c, x, w = _fwd_out(p, rng, "compiled")
        rng2 = np.random.default_rng(1234)
        out_i, _, _ = _fwd_out(p, rng2, "interpret")
        assert np.array_equal(out_c.view(np.uint32), out_i.view(np.uint32))
        eng = DirectConvForward(p, machine=TINY)
        assert_close(
            eng.run_nchw(x, w), conv2d_forward(x, w, p), rtol=1e-4
        )

    def test_fused_ops_and_threads(self, rng):
        p = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        x, w, _ = rand_conv_tensors(p, rng)
        bias = rng.standard_normal(p.K).astype(np.float32)
        outs = {}
        for tier in ("compiled", "interpret"):
            eng = DirectConvForward(
                p, machine=TINY, threads=2, fused_ops=[Bias(bias), ReLU()],
                execution_tier=tier,
            )
            bx = block_activations(x, 4, pad_h=p.pad_h, pad_w=p.pad_w)
            bw = block_weights(w, 4)
            outs[tier] = eng(bx, bw, parallel=(tier != "interpret")).data
        assert np.array_equal(
            outs["compiled"].view(np.uint32),
            outs["interpret"].view(np.uint32),
        )
        ref = np.maximum(
            conv2d_forward(x, w, p) + bias[None, :, None, None], 0
        )
        eng = DirectConvForward(p, machine=TINY, threads=2,
                                fused_ops=[Bias(bias), ReLU()])
        assert_close(eng.run_nchw(x, w), ref, rtol=1e-4)


class TestQuantTiers:
    def test_q16_tiers_bitwise_identical(self, rng):
        p = ConvParams(N=1, C=32, K=32, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        x, w, _ = rand_conv_tensors(p, rng, scale=0.3)
        qx, qw = quantize(x), quantize(w)
        outs = {}
        for machine in (KNM, SKX):  # 4VNNIW quad form and pair form
            for tier in ("compiled", "interpret"):
                eng = QuantConvForward(p, machine=machine,
                                       execution_tier=tier)
                outs[tier] = eng.run_quantized(qx, qw)
            assert np.array_equal(
                outs["compiled"].view(np.uint32),
                outs["interpret"].view(np.uint32),
            )


class TestUpdTiers:
    def test_upd_tiers_bitwise_identical(self, rng):
        p = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        x, _, dy = rand_conv_tensors(p, rng)
        dws = {}
        for tier in ("compiled", "interpret"):
            eng = DirectConvUpd(p, machine=TINY, threads=2,
                                execution_tier=tier)
            dws[tier] = eng.run_nchw(x, dy)
        assert np.array_equal(
            dws["compiled"].view(np.uint32),
            dws["interpret"].view(np.uint32),
        )


class TestBackwardTiers:
    def test_duality_modes_thread_the_tier(self, rng):
        for p in (
            ConvParams(N=1, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1),
            ConvParams(N=1, C=8, K=4, H=6, W=6, R=1, S=1, stride=2),
        ):
            _, w, dy = rand_conv_tensors(p, rng)
            dis = {}
            for tier in ("compiled", "interpret"):
                eng = DirectConvBackward(p, machine=TINY,
                                         execution_tier=tier)
                assert eng.engine.execution_tier == tier
                dis[tier] = eng.run_nchw(dy, w)
            assert np.array_equal(
                dis["compiled"].view(np.uint32),
                dis["interpret"].view(np.uint32),
            )

    def test_gemm_fallback_accepts_the_knob(self, rng):
        p = ConvParams(N=1, C=4, K=4, H=7, W=7, R=3, S=3, stride=2)
        eng = DirectConvBackward(p, machine=TINY, execution_tier="compiled")
        assert eng.mode == "gemm" and eng.execution_tier == "compiled"


class TestTraceForcesInterpreter:
    def test_bind_with_trace_returns_interpreter_tier(self, rng):
        p = ConvParams(N=1, C=4, K=4, H=4, W=4, R=1, S=1, stride=1)
        eng = DirectConvForward(p, machine=TINY)
        x, w, _ = rand_conv_tensors(p, rng)
        bx = block_activations(x, 4)
        bw = block_weights(w, 4)
        o = np.zeros(eng.out_layout.size, dtype=np.float32)
        buffers = {"I": bx.data, "W": bw.data, "O": o}
        ck = eng.compiled[0]
        assert ck is not None and ck.tier == "compiled"
        trace = []
        fn = ck.bind(buffers, trace=trace)
        assert fn.tier == "interpret"
        fn(0, 0, 0, 0, 0, 0)
        ref_trace = []
        execute_kernel(
            eng.programs[0], dict(buffers, O=o.copy()),
            {"I": 0, "W": 0, "O": 0, "I_pf": 0, "W_pf": 0, "O_pf": 0},
            trace=ref_trace,
        )
        assert trace == ref_trace


class TestCompiledKernelStandalone:
    def test_gemm_program_compiles_exactly(self, rng):
        desc = GemmDesc(vlen=4, k=3, n=5, a_sk=4, b_sk=1, b_sn=3, c_sn=4)
        prog = generate_gemm_kernel(desc)
        a = rng.standard_normal(12).astype(np.float32)
        b = rng.standard_normal(15).astype(np.float32)
        c = rng.standard_normal(20).astype(np.float32)
        ref = c.copy()
        execute_kernel(prog, {"A": a, "B": b, "C": ref}, {})
        got = c.copy()
        ck = compile_kernel(prog)
        ck({"A": a, "B": b, "C": got})
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
        assert isinstance(ck, CompiledKernel)
        assert sorted(ck.tensors) == ["A", "B", "C"]


class TestTierSelection:
    def test_default_tier_roundtrip(self):
        prev = set_default_execution_tier("interpret")
        try:
            assert get_default_execution_tier() == "interpret"
            assert resolve_execution_tier(None) == "interpret"
        finally:
            set_default_execution_tier(prev)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ReproError, match="unknown execution tier"):
            resolve_execution_tier("turbo")
        with pytest.raises(ReproError, match="unknown execution tier"):
            set_default_execution_tier("turbo")
        p = ConvParams(N=1, C=4, K=4, H=4, W=4, R=1, S=1, stride=1)
        with pytest.raises(ReproError, match="unknown execution tier"):
            DirectConvForward(p, machine=TINY, execution_tier="turbo")

    def test_make_engine_passes_the_tier(self):
        p = ConvParams(N=1, C=4, K=4, H=4, W=4, R=1, S=1, stride=1)
        for pass_ in ("fwd", "upd", "bwd"):
            eng = make_engine(pass_, p, machine=TINY,
                              execution_tier="interpret")
            assert eng.execution_tier == "interpret"
        assert EXECUTION_TIERS == ("compiled", "interpret")

    def test_cache_tracks_compiled_variants(self):
        cache = KernelCache()
        p = ConvParams(N=1, C=4, K=4, H=4, W=4, R=1, S=1, stride=1)
        DirectConvForward(p, machine=TINY, kernel_cache=cache)
        st = cache.stats()
        assert st["compiled_variants"] >= 1
        assert st["compiled_misses"] >= 1
        DirectConvForward(p, machine=TINY, kernel_cache=cache)
        assert cache.stats()["compiled_hits"] >= 1


class TestTierRegistry:
    """The tier enum: coercion, validation, and what each tier can do."""

    def test_as_tier_coerces_strings_and_enums(self):
        assert as_tier("interpret") is ExecutionTier.INTERPRET
        assert as_tier(ExecutionTier.COMPILED) is ExecutionTier.COMPILED
        # the enum doubles as its string spelling (call sites compare
        # with ==, format with f-strings)
        assert as_tier("compiled") == "compiled"
        assert f"{ExecutionTier.COMPILED}" == "compiled"

    def test_unknown_tier_is_valueerror_listing_tiers(self):
        for bad in ("turbo", "stream_compiled", "einsum", "verify"):
            with pytest.raises(UnknownTierError) as ei:
                as_tier(bad)
            assert isinstance(ei.value, ValueError)
            for name in EXECUTION_TIERS:
                assert name in str(ei.value)

    def test_tier_capabilities(self, rng):
        """compiled binds batchable kernels; only interpret can feed a
        memory trace, so a traced bind falls back to it."""
        p = ConvParams(N=1, C=4, K=4, H=4, W=4, R=1, S=1, stride=1)
        eng = DirectConvForward(p, machine=TINY)
        x, w, _ = rand_conv_tensors(p, rng)
        buffers = {
            "I": block_activations(x, 4).data,
            "W": block_weights(w, 4).data,
            "O": np.zeros(eng.out_layout.size, dtype=np.float32),
        }
        fn = eng.compiled[0].bind(buffers)
        assert fn.tier == "compiled" and callable(fn.batch)
        traced = eng.compiled[0].bind(buffers, trace=[])
        assert traced.tier == "interpret"
        assert not hasattr(traced, "batch")
