"""Execution tiers: the compiled tier must be *bitwise* identical to the
µop interpreter on every generated variant, and the tier plumbing
(engines, factory, cache, trace fallback) must behave."""

import numpy as np
import pytest

from repro.arch.isa import KernelProgram, Op, Uop
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
from repro.models.resnet50 import resnet50_layer
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


def _bound_calls(ck, buffers, args, stored, calls):
    """Run ``calls`` (offset triples for ``args``) three ways: one
    ``batch``, the compiled kernel one call at a time, and the
    interpreter; return the three resulting copies of ``stored``."""
    i_arr, w_arr, o_arr = (np.array(c, dtype=np.int64) for c in zip(*calls))
    results = []
    for mode in ("batch", "single", "interpret"):
        bufs = dict(buffers, **{stored: buffers[stored].copy()})
        if mode == "batch":
            ck.bind(bufs, args=args).batch(i_arr, w_arr, o_arr)
        elif mode == "single":
            fn = ck.bind(bufs, args=args)
            for i, w, o in calls:
                fn(i, w, o)
        else:
            for i, w, o in calls:
                execute_kernel(ck.program, bufs, dict(zip(args, (i, w, o))))
        results.append(bufs[stored])
    return results


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

    def test_members_with_their_own_weights(self, rng):
        """Two isomorphic accumulators reading different weight vectors
        form one store group whose weights are gathered per member."""
        uops = [
            Uop(Op.VLOAD, dst=0, tensor="W", offset=0),
            Uop(Op.VLOAD, dst=1, tensor="W", offset=4),
            Uop(Op.VZERO, dst=2),
            Uop(Op.VZERO, dst=3),
        ]
        for k in range(3):
            uops += [
                Uop(Op.VFMA_MEM, dst=2, src1=0, tensor="I", offset=k),
                Uop(Op.VFMA_MEM, dst=3, src1=1, tensor="I", offset=k + 3),
            ]
        uops += [
            Uop(Op.VSTORE, src1=2, tensor="O", offset=0),
            Uop(Op.VSTORE, src1=3, tensor="O", offset=4),
        ]
        ck = compile_kernel(KernelProgram(name="two_w", vlen=4, uops=uops))
        buffers = {
            "I": rng.standard_normal(16).astype(np.float32),
            "W": rng.standard_normal(16).astype(np.float32),
        }
        calls = [(0, 0, 0), (5, 8, 8), (2, 4, 16)]
        got, single, ref = _bound_calls(
            ck, dict(buffers, O=np.zeros(24, np.float32)), ("I", "W", "O"),
            "O", calls,
        )
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
        assert np.array_equal(single.view(np.uint32), ref.view(np.uint32))


class TestBatchRounds:
    """``.batch`` schedules calls that store to the same block into
    dependency rounds; the result must be exactly sequential replay."""

    def test_repeated_output_blocks_out_of_order(self, rng):
        # cb-outer loop order: variant 1 accumulates into its output
        p = ConvParams(N=1, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        eng = DirectConvForward(p, machine=TINY)
        assert eng.plan.loop_order == "cb_outer"
        ck = eng.compiled[1]
        assert not eng._descs[1].zero_init
        x, w, _ = rand_conv_tensors(p, rng)
        buffers = {
            "I": block_activations(x, 4, pad_h=1, pad_w=1).data,
            "W": block_weights(w, 4).data,
            "O": rng.standard_normal(eng.out_layout.size).astype(np.float32),
        }
        st = eng.streams[0]
        recorded = sorted(
            {(int(st.i_off[t]), int(st.w_off[t]), int(st.o_off[t]))
             for t in range(len(st))},
            key=lambda c: c[2],
        )
        by_o = {}
        for c in recorded:
            by_o.setdefault(c[2], []).append(c)
        a, b, c = (by_o[o] for o in sorted(by_o)[:3])
        # A B A C B A: block A is revisited after other blocks ran
        calls = [a[0], b[0], a[1], c[0], b[1], a[0]]
        got, single, ref = _bound_calls(
            ck, buffers, ("I", "W", "O"), "O", calls
        )
        assert np.array_equal(got.view(np.uint32), single.view(np.uint32))
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_one_dw_block_accumulated_by_every_call(self, rng):
        p = ConvParams(N=2, C=16, K=8, H=4, W=4, R=1, S=1, stride=1)
        eng = DirectConvUpd(p, machine=TINY)
        x, _, dy = rand_conv_tensors(p, rng)
        buffers = {
            "I": block_activations(x, 4).data,
            "dO": block_activations(dy, 4).data,
            "dW": rng.standard_normal(eng.dw_layout.size).astype(np.float32),
        }
        st = eng.streams[0]
        # every recorded (input, output-gradient) pair, all summed into
        # the dW block at offset 16
        calls = [(int(st.i_off[t]), 16, int(st.o_off[t]))
                 for t in range(len(st))]
        assert len(calls) > 2
        got, single, ref = _bound_calls(
            eng.compiled[0], buffers, ("I", "dW", "dO"), "dW", calls
        )
        assert np.array_equal(got.view(np.uint32), single.view(np.uint32))
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_store_outside_the_offset_args_keeps_call_order(self, rng):
        """A stored tensor no offset argument moves sits at one base for
        every call, so every call depends on the one before."""
        desc = GemmDesc(vlen=4, k=3, n=5, a_sk=4, b_sk=1, b_sn=3, c_sn=4)
        ck = compile_kernel(generate_gemm_kernel(desc))
        buffers = {
            "A": rng.standard_normal(40).astype(np.float32),
            "B": rng.standard_normal(40).astype(np.float32),
            "C": rng.standard_normal(20).astype(np.float32),
        }
        calls = [(0, 0, 0), (8, 5, 0), (4, 20, 0), (12, 9, 0)]
        got, single, ref = _bound_calls(
            ck, buffers, ("A", "B", "unused"), "C", calls
        )
        assert np.array_equal(got.view(np.uint32), single.view(np.uint32))
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def _chains(node):
    """Every accumulator chain in an evaluation tree, nested ones too."""
    if hasattr(node, "runs"):
        yield node
        yield from _chains(node.init)
    for attr in ("sub", "a", "b"):
        child = getattr(node, attr, None)
        if child is not None and hasattr(child, "eval"):
            yield from _chains(child)


class TestBatchBudget:
    def test_q16_plans_bound_their_working_set_like_f32(self):
        """int16 stores are scale/add trees over flushed chains; the
        batch cap must count those nested chains.  Bound: ``batch_cap``
        calls' gathered chain scalars (one float64 per member per term)
        fit in the same 2M-element budget on both dtypes."""
        p = resnet50_layer(8, minibatch=1)
        engines = (
            (DirectConvForward(p, machine=SKX), np.float32),
            (QuantConvForward(p, machine=KNM), np.int16),
        )
        for eng, in_dt in engines:
            buffers = {"I": np.zeros(1, in_dt), "W": np.zeros(1, in_dt),
                       "O": np.zeros(1, np.float32)}
            for ck in eng.compiled:
                plan = ck._plan_for(buffers)
                scalars = sum(
                    sum(run.T for run in chain.runs) * len(store.idx)
                    for store in plan.stores
                    for chain in _chains(store.node)
                )
                assert scalars > 0
                assert plan.batch_cap * scalars <= 2_000_000, ck.program.name


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
