"""Execution tiers: the compiled tier must be *bitwise* identical to the
µop interpreter on every generated variant, and the tier plumbing
(engines, factory, cache, trace fallback) must behave."""

import ctypes
import dataclasses

import numpy as np
import pytest

from repro.arch.isa import KernelProgram, Op, Uop
from repro.arch.machine import KNM, SKX
from repro.conv.blocking import UpdBlockingPlan, choose_blocking
from repro.conv.backward import DirectConvBackward
from repro.conv.engine import make_engine
from repro.conv.forward import DirectConvForward
from repro.conv.fusion import Bias, ReLU
from repro.conv.params import ConvParams
from repro.conv.upd import DirectConvUpd
from repro.jit import compile as jit_compile
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
from repro.streams.replay import replay
from repro.streams.stream import KernelStream
from repro.tensor.blocked import block_activations, block_weights
from repro.types import ReproError, ShapeError
from tests.conftest import (
    TINY,
    assert_close,
    on_both_fold_paths,
    rand_conv_tensors,
)

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


def _grid_round(ck, buffers, args, stored, i_off, w_off, o_off):
    """Run one round laid out as a grid (``(1, H)``, ``(G, 1)`` and
    ``(G, H)`` offsets for ``args``); return the stored tensor, and the
    same calls run one at a time by the interpreter."""
    grid = np.broadcast_arrays(*(np.asarray(a) for a in
                                 (i_off, w_off, o_off)))
    results = []
    for mode in ("grid", "interpret"):
        bufs = dict(buffers, **{stored: buffers[stored].copy()})
        if mode == "grid":
            ck.bind(bufs, args=args).run_round(i_off, w_off, o_off)
        else:
            for call in zip(*(a.ravel().tolist() for a in grid)):
                execute_kernel(ck.program, bufs, dict(zip(args, call)))
        results.append(bufs[stored])
    return results


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestForwardTiers:
    @pytest.mark.parametrize("p", FWD_CASES, ids=lambda p: p.describe())
    @on_both_fold_paths
    def test_compiled_bitwise_equals_interpreter(self, p, rng):
        seed = int(rng.integers(2**32))  # one draw per fold path
        out_c, x, w = _fwd_out(p, np.random.default_rng(seed), "compiled")
        out_i, _, _ = _fwd_out(p, np.random.default_rng(seed), "interpret")
        assert np.array_equal(out_c.view(np.uint32), out_i.view(np.uint32))
        eng = DirectConvForward(p, machine=TINY)
        assert_close(
            eng.run_nchw(x, w), conv2d_forward(x, w, p), rtol=1e-4
        )

    @on_both_fold_paths
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


#: the dispatch-count engine: ``c_b``-outer with two input-channel blocks,
#: so its two rounds are a zero-init variant reading channels 0-3 and an
#: accumulate variant reloading the stored output and reading 4-7
SPECIAL_FWD = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                         pad_h=1, pad_w=1)
#: quiet NaNs whose payloads are not the x86 default (0xffc00000)
NAN_PAYLOADS = np.array([0x7FC12345, 0xFFC54321], np.uint32).view(np.float32)
#: float32 values planted among normal operands, per special-value case
PLANTED = {
    "signed_zeros": np.array([0.0, -0.0], np.float32),
    "subnormals": np.array([1e-45, -1e-45, 2.5e-39, -1.1e-38], np.float32),
    "infinities": np.array([np.inf, -np.inf, 0.0], np.float32),
    "nan_payloads": NAN_PAYLOADS,
}


def _plant(a, values, rng, share):
    """``a`` with about ``share`` of its elements drawn from ``values``."""
    out = a.copy()
    hit = rng.random(a.shape) < share
    out[hit] = rng.choice(values, int(hit.sum()))
    return out


class TestSpecialValues:
    """Special values must fold to the interpreter's bits on both fold
    paths: ±0 and f32 subnormals in the products, ±inf so that inf·0
    makes a NaN in the middle of a chain, NaNs with non-default
    payloads, and a stored −0.0 reloaded as a chain init."""

    @pytest.mark.parametrize("case", list(PLANTED))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @on_both_fold_paths
    def test_forward_with_planted_values(self, rng, case):
        p = SPECIAL_FWD
        x, w, _ = rand_conv_tensors(p, rng)
        # planted in input channels 4-7 only: the first round's operands
        # stay normal, so the forced-BLAS path runs ``dger`` there even
        # when NaNs keep the second round on numpy
        x[:, 4:] = _plant(x[:, 4:], PLANTED[case], rng, 0.05)
        w[:, 4:] = _plant(w[:, 4:], PLANTED[case], rng, 0.05)
        bx = block_activations(x, 4, pad_h=1, pad_w=1)
        bw = block_weights(w, 4)
        outs = {}
        for tier in ("compiled", "interpret"):
            eng = DirectConvForward(p, machine=TINY, execution_tier=tier)
            outs[tier] = eng(bx, bw).data
        assert eng.plan.loop_order == "cb_outer" and eng.cb == 2
        _assert_bitwise(outs)
        ref = outs["interpret"]
        if case == "infinities":
            assert np.isnan(ref).any() and np.isinf(ref).any()
        if case == "nan_payloads":
            bits = set(ref[np.isnan(ref)].view(np.uint32).tolist())
            assert bits & set(NAN_PAYLOADS.view(np.uint32).tolist())

    @on_both_fold_paths
    def test_stored_negative_zero_reloaded_as_chain_init(self, rng):
        """The accumulate variant reloads an output of −0.0.  A +0 product
        turns it into +0.0 and a −0 product keeps it: weight lane 0 is
        +0.0, lane 1 −0.0, and the inputs are ≥ +0."""
        p = SPECIAL_FWD
        eng = DirectConvForward(p, machine=TINY)
        assert not eng._descs[1].zero_init
        x, w, _ = rand_conv_tensors(p, rng)
        x = _plant(np.abs(x), np.float32([0.0]), rng, 0.2)
        w[0::4], w[1::4] = 0.0, -0.0
        buffers = {
            "I": block_activations(x, 4, pad_h=1, pad_w=1).data,
            "W": block_weights(w, 4).data,
            "O": np.full(eng.out_layout.size, -0.0, np.float32),
        }
        (groups,) = eng.streams[0].schedule(2).values()
        (i, wo, o), = [g[1:] for g in groups if g[0] == 1]
        got, ref = _grid_round(eng.compiled[1], buffers, ("I", "W", "O"),
                               "O", i, wo, o)
        assert _same_bits(got, ref)
        zeros = ref[ref == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()


@pytest.fixture(params=[1, 2], ids=["1thread", "2threads"])
def blas_threads(request):
    """Run with OpenBLAS at 1 or 2 threads, restored afterwards."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pytest.skip("numpy's BLAS is not scipy-openblas")
    get.restype = ctypes.c_int
    set_.argtypes = (ctypes.c_int,)
    before = get()
    set_(request.param)
    yield request.param
    set_(before)


class TestRank1Fold:
    def test_numpy_openblas_build_resolves_dger(self):
        """numpy wheels link scipy-openblas, which exports the rank-1
        update the compiled tier folds fp32 chains with; a numpy release
        that renames it must fail here, not quietly fold on numpy."""
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pytest.skip("numpy reports no BLAS build dependency")
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy's BLAS is {blas.get('name')!r}")
        assert jit_compile._dger is not None

    def test_threaded_dger_stays_bitwise(self, rng, blas_threads,
                                         monkeypatch):
        """A 1x1 layer on SKX folds 64 x 392 accumulators, which OpenBLAS
        splits across its threads at 2 (perfbench pins one thread;
        tests, CI and serving do not)."""
        p = ConvParams(N=2, C=32, K=64, H=14, W=14, R=1, S=1, stride=1)
        sizes = []
        fold = jit_compile._fold_rank1

        def recording(w, s, acc):
            done = fold(w, s, acc)
            sizes.append(acc.size * done)
            return done

        monkeypatch.setattr(jit_compile, "_fold_rank1", recording)
        x, w, _ = rand_conv_tensors(p, rng)
        bx, bw = block_activations(x, 16), block_weights(w, 16)
        outs = {tier: DirectConvForward(p, machine=SKX,
                                        execution_tier=tier)(bx, bw).data
                for tier in ("compiled", "interpret")}
        _assert_bitwise(outs)
        assert max(sizes) == 64 * 392


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
    @on_both_fold_paths
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
    @on_both_fold_paths
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
    @on_both_fold_paths
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
            ck, dict(buffers, O=np.zeros(32, np.float32)), ("I", "W", "O"),
            "O", calls,
        )
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
        assert np.array_equal(single.view(np.uint32), ref.view(np.uint32))
        # the same program over a 2x2 grid: per-member weights gathered
        # once per row
        got, ref = _grid_round(
            ck, dict(buffers, O=np.zeros(32, np.float32)), ("I", "W", "O"),
            "O", np.array([[0, 5]]), np.array([[0], [8]]),
            np.array([[0, 8], [16, 24]]),
        )
        assert _same_bits(got, ref)

    @on_both_fold_paths
    def test_vbcast_reaches_add_and_store(self, rng):
        """A broadcast register stored as is and added to a weight
        vector (the scalar-broadcast node), next to a chain seeded from
        a weight vector -- a value that is the same for a whole grid
        row -- run as single calls and as a 2x2 grid round."""
        uops = [
            Uop(Op.VBCAST, dst=0, tensor="I", offset=1),
            Uop(Op.VLOAD, dst=1, tensor="W", offset=0),
            Uop(Op.VADD, dst=2, src1=0, src2=1),
            Uop(Op.VLOAD, dst=3, tensor="W", offset=4),
            Uop(Op.VFMA_MEM, dst=3, src1=1, tensor="I", offset=2),
            Uop(Op.VSTORE, src1=2, tensor="O", offset=0),
            Uop(Op.VSTORE, src1=0, tensor="O", offset=4),
            Uop(Op.VSTORE, src1=3, tensor="O", offset=8),
        ]
        ck = compile_kernel(KernelProgram(name="bcast", vlen=4, uops=uops))
        buffers = {
            "I": rng.standard_normal(16).astype(np.float32),
            "W": rng.standard_normal(16).astype(np.float32),
            "O": np.zeros(48, np.float32),
        }
        calls = [(0, 0, 0), (3, 0, 12), (0, 8, 24), (3, 8, 36)]
        got, single, ref = _bound_calls(ck, buffers, ("I", "W", "O"), "O",
                                        calls)
        assert _same_bits(got, ref) and _same_bits(single, ref)
        got, ref = _grid_round(
            ck, buffers, ("I", "W", "O"), "O", np.array([[0, 3]]),
            np.array([[0], [8]]), np.array([[0, 12], [24, 36]]),
        )
        assert _same_bits(got, ref)
        assert ref[4:8].tolist() == [buffers["I"][1]] * 4


class TestBindErrors:
    """A compiled bind rejects malformed offset arrays with a typed
    error instead of an index failure deep in numpy."""

    def _bind(self, rng):
        p = ConvParams(N=1, C=4, K=4, H=4, W=4, R=1, S=1, stride=1)
        eng = DirectConvForward(p, machine=TINY)
        x, w, _ = rand_conv_tensors(p, rng)
        buffers = {
            "I": block_activations(x, 4).data,
            "W": block_weights(w, 4).data,
            "O": np.zeros(eng.out_layout.size, dtype=np.float32),
        }
        return eng.compiled[0].bind(buffers)

    def test_batch_needs_equal_length_1d_arrays(self, rng):
        fn = self._bind(rng)
        with pytest.raises(ShapeError, match="equal-length 1-D"):
            fn.batch([0, 0], [0], [0, 0])
        with pytest.raises(ShapeError, match="equal-length 1-D"):
            fn.batch([[0]], [[0]], [[0]])

    def test_run_round_needs_one_grid(self, rng):
        fn = self._bind(rng)
        with pytest.raises(ShapeError, match=r"\(G, H\) grid"):
            fn.run_round(np.zeros((1, 3), np.int64),
                         np.zeros((2, 1), np.int64),
                         np.zeros((2, 2), np.int64))
        with pytest.raises(ShapeError, match=r"\(G, H\) grid"):
            fn.run_round(np.zeros(2, np.int64), np.zeros(2, np.int64),
                         np.zeros(2, np.int64))


class TestBatchRounds:
    """``.batch`` schedules calls that store to the same block into
    dependency rounds; the result must be exactly sequential replay."""

    @on_both_fold_paths
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

    @on_both_fold_paths
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

    @on_both_fold_paths
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


#: ``c_b``-outer on the VLEN=4 machine: C/VLEN = 3 input-channel blocks,
#: and RB_Q = 4 on Q = 6 leaves a 2-column remainder, so the streams mix
#: four variants (two block shapes, zero-init and accumulate)
SCHED_FWD = ConvParams(N=2, C=12, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
#: update pass with B_P = 4 on P = 6: a 2-row remainder variant
SCHED_UPD = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)


def _q_remainder_plan(p, hoist_output=True):
    return dataclasses.replace(
        choose_blocking(p, TINY), rb_p=1, rb_p_rem=0, rb_q=4,
        rb_q_rem=p.Q % 4, hoist_output=hoist_output,
    )


def _upd_remainder_plan(p):
    return UpdBlockingPlan(vlen=4, b_p=4, b_q=p.Q, b_p_rem=p.P % 4,
                           b_q_rem=0)


def _fwd_tiers(p, rng, parallel=False, **kw):
    """Forward outputs of both tiers on identical inputs."""
    x, w, _ = rand_conv_tensors(p, rng)
    bx = block_activations(x, 4, pad_h=p.pad_h, pad_w=p.pad_w)
    bw = block_weights(w, 4)
    outs = {}
    for tier in ("compiled", "interpret"):
        eng = DirectConvForward(p, machine=TINY, execution_tier=tier, **kw)
        outs[tier] = eng(bx, bw, parallel=parallel).data
    return eng, outs


def _assert_bitwise(outs):
    assert np.array_equal(outs["compiled"].view(np.uint32),
                          outs["interpret"].view(np.uint32))


def _stored_tensor_reads_stay_in_own_block(prog):
    """Every element a program loads from the tensor it stores to is one
    it also stores (so calls in one dependency round cannot see each
    other's blocks)."""
    vlen = prog.vlen
    stored, loaded = {}, {}
    for u in prog.uops:
        if u.op in (Op.VSTORE, Op.VSTORE_NT):
            stored.setdefault(u.tensor, set()).update(
                range(u.offset, u.offset + vlen))
        elif u.tensor is not None and u.op not in (Op.PREFETCH1,
                                                   Op.PREFETCH2):
            width = {Op.VLOAD: vlen, Op.V4FMA: int(u.imm) or 4,
                     Op.VVNNI: 2 * (int(u.imm) or 4)}.get(u.op, 1)
            if u.op is Op.VBCAST and u.imm == 2.0:
                width = 2
            loaded.setdefault(u.tensor, set()).update(
                range(u.offset, u.offset + width))
    assert len(stored) == 1, prog.name
    (tensor, elems), = stored.items()
    assert loaded.get(tensor, set()) <= elems, prog.name


class TestStreakSchedule:
    """Replay runs each CONV-STREAK as groups of one (dependency round,
    variant), scheduled once per stream; the result must be exactly
    recorded-order replay."""

    @pytest.mark.parametrize("hoist", [True, False],
                             ids=["hoisted", "unhoisted"])
    @on_both_fold_paths
    def test_cb_outer_four_variants(self, rng, hoist):
        eng, outs = _fwd_tiers(SCHED_FWD, rng,
                               plan=_q_remainder_plan(SCHED_FWD, hoist))
        assert eng.plan.loop_order == "cb_outer" and eng.cb == 3
        assert len(eng._descs) == 4
        assert len(set(eng.streams[0].kinds.tolist())) == 4
        _assert_bitwise(outs)

    @on_both_fold_paths
    def test_cb_outer_fused_ops_parallel_threads(self, rng):
        bias = rng.standard_normal(SCHED_FWD.K).astype(np.float32)
        eng, outs = _fwd_tiers(
            SCHED_FWD, rng, parallel=True, threads=2,
            plan=_q_remainder_plan(SCHED_FWD),
            fused_ops=[Bias(bias), ReLU()],
        )
        assert len(eng.streams) == 2
        _assert_bitwise(outs)

    @on_both_fold_paths
    def test_update_pass_with_a_bp_remainder(self, rng):
        p = SCHED_UPD
        x, _, dy = rand_conv_tensors(p, rng)
        dws = {}
        for tier in ("compiled", "interpret"):
            eng = DirectConvUpd(p, machine=TINY, execution_tier=tier,
                                plan=_upd_remainder_plan(p))
            dws[tier] = eng.run_nchw(x, dy)
        assert len(eng.descs) == 2
        _assert_bitwise(dws)

    @on_both_fold_paths
    def test_one_dispatch_per_round_and_variant(self, rng, monkeypatch):
        """24 calls alternate a zero-init and an accumulate variant in
        runs of three; replay evaluates the plan twice, one round each."""
        p = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        eng = DirectConvForward(p, machine=TINY)
        assert eng.total_conv_calls == 24 and len(eng._descs) == 2
        x, w, _ = rand_conv_tensors(p, rng)
        bx = block_activations(x, 4, pad_h=1, pad_w=1)
        bw = block_weights(w, 4)
        ref = eng.execute_uops(bx, bw).data
        sizes = []
        run = jit_compile._Plan.run

        def counting(plan, buffers, bases, scale, batch):
            sizes.append(batch)
            run(plan, buffers, bases, scale, batch)

        monkeypatch.setattr(jit_compile._Plan, "run", counting)
        for _ in range(2):
            sizes.clear()
            got = eng(bx, bw).data
            assert sizes == [12, 12]
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    @on_both_fold_paths
    def test_rounds_are_weight_by_input_grids(self, rng):
        """Each group of the dispatch-count engine is the cross product
        of 2 weight blocks and 6 input rows."""
        p = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        eng, outs = _fwd_tiers(p, rng)
        (groups,) = eng.streams[0].schedule(2).values()
        assert len(groups) == 2
        for _variant, i, w, o in groups:
            assert (i.shape, w.shape, o.shape) == ((1, 6), (2, 1), (2, 6))
            assert len(np.unique(o)) == o.size
        _assert_bitwise(outs)

    def test_partial_cross_product_runs_as_columns(self, rng):
        """A round that is a 2x2 cross product minus one call keeps one
        ``(B, 1)`` column per offset, in recorded order."""
        p = ConvParams(N=1, C=4, K=8, H=4, W=4, R=1, S=1, stride=1)
        eng = DirectConvForward(p, machine=TINY)
        st = eng.streams[0]
        i0, i1 = sorted(set(st.i_off.tolist()))[:2]
        w0, w1 = sorted(set(st.w_off.tolist()))[:2]
        o_of = {(int(st.i_off[t]), int(st.w_off[t])): int(st.o_off[t])
                for t in range(len(st))}
        rec = KernelStream()
        for i, w in ((i1, w0), (i0, w1), (i0, w0)):
            rec.record_conv(0, i, w, o_of[(i, w)])
        stream = rec.freeze()
        (groups,) = stream.schedule(2).values()
        ((_v, i, w, o),) = groups
        assert i.shape == w.shape == o.shape == (3, 1)
        assert i.ravel().tolist() == [i1, i0, i0]
        x, wt, _ = rand_conv_tensors(p, rng)
        buffers = {"I": block_activations(x, 4).data,
                   "W": block_weights(wt, 4).data}
        outs = {}
        for tier in ("compiled", "interpret"):
            bufs = dict(buffers, O=np.zeros(eng.out_layout.size, np.float32))
            if tier == "compiled":
                kernels = [eng.compiled[0].bind(bufs)]
            else:
                kernels = [eng._interp_kernel(0, bufs, 1.0)]
            replay(stream, stream.segments(), kernels, [])
            outs[tier] = bufs["O"]
        _assert_bitwise(outs)

    @on_both_fold_paths
    def test_grid_wider_than_the_cap_is_cut_both_ways(self, rng,
                                                      monkeypatch):
        p = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        eng = DirectConvForward(p, machine=TINY)
        x, w, _ = rand_conv_tensors(p, rng)
        bx = block_activations(x, 4, pad_h=1, pad_w=1)
        bw = block_weights(w, 4)
        ref = eng.execute_uops(bx, bw).data
        buffers = {"I": bx.data, "W": bw.data,
                   "O": np.zeros(1, np.float32)}
        for ck in eng.compiled:
            monkeypatch.setattr(ck._plan_for(buffers), "batch_cap", 4)
        blocks = []
        run = jit_compile._Plan.run

        def counting(plan, buffers, bases, scale, batch):
            g, h = np.broadcast_shapes(*(np.shape(b) for b in (
                bases["I"], bases["W"], bases["O"])))
            blocks.append((g, h, batch))
            run(plan, buffers, bases, scale, batch)

        monkeypatch.setattr(jit_compile._Plan, "run", counting)
        got = eng(bx, bw).data
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
        assert all(g * h == batch <= 4 for g, h, batch in blocks)
        assert sum(batch for *_, batch in blocks) == 24
        # 2 x 6 grids cut into 1 x 4 and 1 x 2 blocks
        assert {(g, h) for g, h, _ in blocks} == {(1, 4), (1, 2)}

    def test_stored_tensor_reads_stay_in_own_block(self):
        engines = [
            DirectConvForward(SCHED_FWD, machine=TINY,
                              plan=_q_remainder_plan(SCHED_FWD)),
            DirectConvForward(SCHED_FWD, machine=TINY,
                              fused_ops=[ReLU()],
                              plan=_q_remainder_plan(SCHED_FWD)),
            DirectConvForward(SCHED_FWD, machine=TINY,
                              plan=_q_remainder_plan(SCHED_FWD, False)),
            DirectConvUpd(SCHED_UPD, machine=TINY,
                          plan=_upd_remainder_plan(SCHED_UPD)),
            QuantConvForward(ConvParams(N=1, C=32, K=32, H=6, W=6, R=3,
                                        S=3, stride=1, pad_h=1, pad_w=1),
                             machine=KNM),
        ]
        for eng in engines:
            assert len(eng.programs) >= 2
            for prog in eng.programs:
                _stored_tensor_reads_stay_in_own_block(prog)


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
