"""Blocked int16 engine (streams + VNNI kernels end to end)."""

import numpy as np
import pytest

from repro.arch.machine import KNM, SKX
from repro.conv.params import ConvParams
from repro.conv.reference import conv2d_forward
from repro.quant import CHAIN_LIMIT_PAIRS, qconv2d_forward, quantize
from repro.quant.qconv_engine import QuantConvForward
from repro.quant.qkernels import QuantOverflowError
from tests.conftest import rand_conv_tensors

CASES = [
    ConvParams(N=2, C=32, K=32, H=10, W=10, R=3, S=3, stride=1),
    ConvParams(N=1, C=64, K=16, H=8, W=8, R=1, S=1, stride=2),
    ConvParams(N=1, C=16, K=16, H=9, W=7, R=3, S=5, stride=1),
]


class TestQuantEngine:
    @pytest.mark.parametrize("p", CASES, ids=lambda p: p.describe())
    @pytest.mark.parametrize("machine", [KNM, SKX], ids=lambda m: m.name)
    def test_matches_functional_qconv(self, p, machine, rng):
        """The blocked/streams execution must agree with the standalone
        chunked int16 kernel bit-for-bit (same flush schedule)."""
        x, w, _ = rand_conv_tensors(p, rng, scale=0.3)
        qx, qw = quantize(x), quantize(w)
        eng = QuantConvForward(p, machine=machine, threads=2)
        out = eng.run_quantized(qx, qw)
        ref = qconv2d_forward(qx, qw, p, chain_limit=CHAIN_LIMIT_PAIRS)
        assert np.abs(out - ref).max() < 1e-4 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("machine", [KNM, SKX], ids=lambda m: m.name)
    def test_chain_limit_flushes_keep_int32_in_range(self, machine):
        """§II-K: the JIT'ed variants flush the int32 chain every
        CHAIN_LIMIT_PAIRS VNNI ops.  With these operands one unflushed
        3x5 chain overflows int32; flushed, both tiers run and agree
        bitwise."""
        p = CASES[2]
        x, w, _ = rand_conv_tensors(p, np.random.default_rng(0), scale=0.3)
        qx, qw = quantize(x), quantize(w)
        outs = [
            QuantConvForward(p, machine=machine, execution_tier=tier)
            .run_quantized(qx, qw)
            for tier in ("compiled", "interpret")
        ]
        assert np.array_equal(outs[0].view(np.uint32), outs[1].view(np.uint32))

    @pytest.mark.parametrize("tier", ["compiled", "interpret"])
    def test_overflow_is_a_typed_error_on_both_tiers(self, tier):
        """Full-scale operands overflow int32 inside one flush window;
        both tiers raise QuantOverflowError, not a generic error."""
        p = ConvParams(N=1, C=32, K=16, H=2, W=2, R=1, S=1, stride=1)
        x = np.ones((p.N, p.C, p.H, p.W), dtype=np.float32)
        w = np.ones((p.K, p.C, p.R, p.S), dtype=np.float32)
        eng = QuantConvForward(p, machine=SKX, execution_tier=tier)
        with pytest.raises(QuantOverflowError):
            eng.run_nchw(x, w)

    @pytest.mark.parametrize("machine", [KNM, SKX], ids=lambda m: m.name)
    def test_unhoisted_plan_still_initializes_outputs(self, machine, rng):
        """A 1x1 layer with one channel block gets a plan without output
        hoisting; the int16 variants hoist anyway, since their fp32
        results stay in registers for the whole call."""
        p = ConvParams(N=1, C=16, K=16, H=3, W=3, R=1, S=1, stride=1)
        x, w, _ = rand_conv_tensors(p, rng, scale=0.3)
        qx, qw = quantize(x), quantize(w)
        ref = qconv2d_forward(qx, qw, p, chain_limit=CHAIN_LIMIT_PAIRS)
        for tier in ("compiled", "interpret"):
            eng = QuantConvForward(p, machine=machine, execution_tier=tier)
            assert not eng.plan.hoist_output
            out = eng.run_quantized(qx, qw)
            assert np.abs(out - ref).max() < 1e-4 * np.abs(ref).max()

    def test_close_to_fp32(self, rng):
        p = CASES[0]
        x, w, _ = rand_conv_tensors(p, rng, scale=0.3)
        eng = QuantConvForward(p, machine=KNM)
        out = eng.run_nchw(x, w)
        ref = conv2d_forward(x, w, p)
        rel = np.abs(out - ref).max() / np.abs(ref).max()
        assert rel < 5e-3

    def test_variants_are_q16(self):
        eng = QuantConvForward(CASES[0], machine=KNM)
        assert all(v.startswith("conv_q16") for v in eng.variant_names)

    def test_register_budget_halved(self):
        """int32+fp32 accumulator pairs: RB capped (section II-K)."""
        eng = QuantConvForward(
            ConvParams(N=1, C=16, K=16, H=56, W=56, R=3, S=3, stride=1),
            machine=KNM,
        )
        assert eng.plan.rb_p * eng.plan.rb_q <= 13
        f32 = __import__(
            "repro.conv.blocking", fromlist=["choose_blocking"]
        ).choose_blocking(eng.params, KNM)
        assert eng.plan.rb_q <= f32.rb_q

    def test_4vnni_on_knm_only(self):
        knm = QuantConvForward(CASES[0], machine=KNM)
        skx = QuantConvForward(CASES[0], machine=SKX)
        from repro.arch.isa import Op

        knm_prog = knm.programs[0]
        skx_prog = skx.programs[0]
        knm_quads = [u for u in knm_prog.uops
                     if u.op is Op.VVNNI and u.tensor is not None]
        skx_quads = [u for u in skx_prog.uops
                     if u.op is Op.VVNNI and u.tensor is not None]
        assert knm_quads and not skx_quads

    def test_output_dtype_f32(self, rng):
        p = CASES[1]
        x, w, _ = rand_conv_tensors(p, rng)
        out = QuantConvForward(p, machine=KNM).run_nchw(x, w)
        assert out.dtype == np.float32
