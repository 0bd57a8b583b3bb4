"""Forward-only runs in the blocked layout, and the exact in-place passes.

A forward-only run on the blocked engine keeps activations blocked
between nodes and runs eval BatchNorm, ReLU and residual adds in place.
These tests hold it bit for bit to the NCHW arithmetic it replaces (each
conv through ``run_nchw``, every other node on NCHW arrays), check that
no caller's batch or Split fan-out is overwritten, that what a session
derives from the parameters is never served stale, and that every ReLU
form equals ``np.where`` on special values.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conv.fusion import ReLU as FusedReLU
from repro.gxm.checkpoint import load_checkpoint, save_checkpoint
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.inference import InferenceSession
from repro.gxm.nodes import ConvNode, SplitNode, _LayerNode
from repro.gxm.topology import LayerSpec, TopologySpec
from repro.gxm.trainer import Trainer
from repro.layers import BatchNorm2D, ReLULayer, relu
from repro.models.resnet50 import resnet_mini_topology
from repro.tensor.blocked import BlockedTensor, block_activations
from repro.types import ReproError

SHAPE = (16, 8, 8)


# -- graphs -------------------------------------------------------------
def perfbench_model() -> TopologySpec:
    return resnet_mini_topology(num_classes=8, width=32)


def identity_shortcut() -> TopologySpec:
    """A bottleneck whose shortcut is its input: Split -> Eltwise."""
    topo = TopologySpec("identity-shortcut")
    t = topo.data("data")
    t = topo.conv("conv1", t, 64, 3, relu=True, batchnorm=True)
    a = topo.conv("res_a", t, 16, 1, relu=True, batchnorm=True)
    b = topo.conv("res_b", a, 16, 3, relu=True, batchnorm=True)
    c = topo.conv("res_c", b, 64, 1, batchnorm=True)
    t = topo.eltwise("res_sum", c, t, relu=True)
    topo.loss("loss", topo.fc("fc", topo.global_pool("gap", t), 8))
    return topo


def split_branches() -> TopologySpec:
    """Split fan-outs feeding BatchNorm and ReLU directly, on both
    layouts: the Data batch (NCHW) and a conv output (blocked), and a
    residual add of a blocked and an NCHW operand."""
    topo = TopologySpec("split-branches")

    def layer(name, type_, bottom):
        topo.add(LayerSpec(name, type_, [bottom], [name], {}))
        return name

    x = topo.data("data")
    d = layer("d_relu", "ReLU", layer("d_bn", "BatchNorm", x))
    trunk = topo.conv("trunk", x, 16, 3)
    left = layer("l_relu", "ReLU", layer("l_bn", "BatchNorm", trunk))
    right = layer("r_bn", "BatchNorm", layer("r_relu", "ReLU", trunk))
    t = topo.eltwise("sum", left, right)
    t = topo.eltwise("sum2", t, d)
    t = topo.conv("out", t, 32, 1)
    topo.loss("loss", topo.fc("fc", topo.global_pool("gap", t), 8))
    return topo


GRAPHS = {"perfbench_model": perfbench_model,
          "identity_shortcut": identity_shortcut,
          "split_branches": split_branches}


def build(graph: str, bucket: int, tier: str = "compiled",
          seed: int = 0) -> ExecutionTaskGraph:
    """A blocked graph whose BatchNorm layers hold seeded non-trivial
    statistics and affine parameters."""
    etg = ExecutionTaskGraph(GRAPHS[graph](), (bucket, *SHAPE),
                             engine="blocked", execution_tier=tier,
                             seed=seed)
    rng = np.random.default_rng(seed + 100)
    for bn in bns_of(etg):
        c = bn.gamma.shape[0]
        bn.gamma[...] = rng.uniform(0.5, 1.5, c)
        bn.beta[...] = rng.standard_normal(c)
        bn.running_mean[...] = rng.standard_normal(c)
        bn.running_var[...] = rng.uniform(0.5, 2.0, c)
    return etg


def bns_of(etg):
    return [n.layer for n in etg.nodes.values()
            if isinstance(n, _LayerNode) and isinstance(n.layer, BatchNorm2D)]


def images(n: int, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (n, *SHAPE)).astype(np.float32)


def nchw_reference(etg: ExecutionTaskGraph, x: np.ndarray) -> np.ndarray:
    """Class probabilities by the NCHW arithmetic of a forward-only run
    before the blocked data path: each conv through ``run_nchw``, eval
    BatchNorm out of place, ReLU by ``np.where``, residual adds on a
    copy of the first operand."""
    acts = {}
    for task in etg.tasks:
        if task.pass_.name != "FWD":
            continue
        layer = etg.enl.layer(task.layer)
        node = etg.nodes[task.layer]
        if layer.type == "Data":
            acts[layer.tops[0]] = x
            continue
        ins = [acts[b] for b in layer.bottoms]
        if layer.type == "Convolution":
            out = node._fwd.run_nchw(ins[0], node.weight)
        elif layer.type == "BatchNorm":
            bn = node.layer
            c = (1, -1, 1, 1)
            inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
            xhat = ins[0] - bn.running_mean.reshape(c)
            xhat *= inv.reshape(c)
            out = bn.gamma.reshape(c) * xhat
            out += bn.beta.reshape(c)
        elif layer.type == "ReLU":
            out = np.where(ins[0] > 0, ins[0], 0.0).astype(np.float32)
        elif layer.type == "Split":
            for top in layer.tops:
                acts[top] = ins[0]
            continue
        elif layer.type == "Eltwise":
            out = ins[0].copy()
            for v in ins[1:]:
                out += v
        elif layer.type == "SoftmaxWithLoss":
            out = node.layer.forward(ins[0])
        else:
            out = node.layer.forward(ins[0])
        acts[layer.tops[0]] = out
    return out


def watch_splits(etg: ExecutionTaskGraph) -> list:
    """Record each Split's input (the buffer every fan-out shares) and
    a copy of its bits at the time of the split."""
    seen = []
    for node in etg.nodes.values():
        if isinstance(node, SplitNode):
            def forward(x, *a, _orig=node.forward, **kw):
                data = x.data if isinstance(x, BlockedTensor) else x
                seen.append((data, data.copy()))
                return _orig(x, *a, **kw)

            node.forward = forward
    return seen


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# -- bitwise against the NCHW arithmetic ----------------------------------
@pytest.mark.parametrize("tier", ["compiled", "interpret"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_blocked_forward_only_matches_nchw_bitwise(graph, tier):
    for bucket in (1, 2, 16):
        etg = build(graph, bucket, tier)
        x = images(bucket)
        want = nchw_reference(etg, x)
        caller = x.copy()
        splits = watch_splits(etg)
        with InferenceSession(etg) as session:
            for _ in range(2):  # the second call reuses the session's forms
                del splits[:]
                got = session.predict(x)
                assert same_bits(got, want), (graph, tier, bucket)
                assert same_bits(x, caller)
                assert splits and all(
                    same_bits(buf, bits) for buf, bits in splits)


def test_special_values_pass_bitwise():
    """±0, subnormals, ±inf and NaN payloads in the batch reach the
    answer as the NCHW arithmetic carries them."""
    x = images(2, seed=9)
    flat = x.reshape(-1)
    flat[:6] = np.array([0x80000000, 0x00000001, 0x807fffff, 0x7f800000,
                         0x7fc12345, 0xffc54321], dtype=np.uint32).view(
                             np.float32)
    etg = build("split_branches", 2)
    want = nchw_reference(etg, x)
    with InferenceSession(etg) as session:
        assert same_bits(session.predict(x), want)


def test_forward_only_keeps_no_backward_state():
    etg = build("perfbench_model", 2)
    with InferenceSession(etg) as session:
        session.predict(images(2))
    for node in etg.nodes.values():
        if isinstance(node, ConvNode):
            assert node._x is None and node._y is None
        layer = getattr(node, "layer", None)
        if isinstance(layer, BatchNorm2D):
            assert layer._cache is None
        if isinstance(layer, ReLULayer):
            assert layer._mask is None


# -- never stale -----------------------------------------------------------
def checkpoint_of(etg) -> io.BytesIO:
    buf = io.BytesIO()
    save_checkpoint(etg, buf)
    buf.seek(0)
    return buf


def fresh_answer(etg, x) -> np.ndarray:
    """The answer of a freshly built graph holding ``etg``'s state."""
    fresh = build("identity_shortcut", x.shape[0], seed=0)
    load_checkpoint(fresh, checkpoint_of(etg))
    with InferenceSession(fresh) as session:
        return session.predict(x).copy()


def test_session_freezes_and_thaw_restores_writable():
    etg = build("identity_shortcut", 1)
    with InferenceSession(etg):
        assert etg._frozen
        assert not any(p.flags.writeable for p in etg.params())
        with pytest.raises(ValueError):
            etg.params()[0][...] = 0.0
    assert not etg._frozen
    assert all(p.flags.writeable for p in etg.params())


def test_checkpoint_load_inside_session_raises_and_is_not_served():
    x = images(2)
    etg = build("identity_shortcut", 2, seed=0)
    other = checkpoint_of(build("identity_shortcut", 2, seed=1))
    want_old = fresh_answer(etg, x)
    with InferenceSession(etg) as session:
        assert same_bits(session.predict(x), want_old)
        with pytest.raises(ReproError, match="InferenceSession"):
            load_checkpoint(etg, other)
        assert same_bits(session.predict(x), want_old)
    other.seek(0)
    load_checkpoint(etg, other)
    want_new = fresh_answer(etg, x)
    assert not same_bits(want_new, want_old)
    with InferenceSession(etg) as session:
        assert same_bits(session.predict(x), want_new)


def test_training_step_between_forward_only_calls():
    x = images(2)
    labels = np.array([1, 3])
    etg = build("identity_shortcut", 2)
    trainer = Trainer(etg, lr=0.05)
    with InferenceSession(etg) as session:
        before = session.predict(x).copy()
        with pytest.raises(ReproError, match="InferenceSession"):
            trainer.train_step(x, labels)
        assert same_bits(session.predict(x), before)
    # outside a session the step runs; the next session sees its weights
    etg.forward_only(x)
    trainer.train_step(x, labels)
    want = fresh_answer(etg, x)
    assert not same_bits(want, before)
    with InferenceSession(etg) as session:
        assert same_bits(session.predict(x), want)


def test_outside_a_session_nothing_derived_is_kept():
    """Eval BatchNorm without a session: every call derives its blocked
    weights and constants afresh, so a write between calls is served."""
    x = images(1)
    etg = build("identity_shortcut", 1, seed=0)
    for bn in bns_of(etg):
        bn.training = False
    before = etg.predict(x).copy()
    load_checkpoint(etg, checkpoint_of(build("identity_shortcut", 1, seed=1)))
    got = etg.predict(x)
    assert not same_bits(got, before)
    assert same_bits(got, fresh_answer(etg, x))


def test_nested_sessions_serve_current_weights():
    x = images(1)
    etg = build("identity_shortcut", 1, seed=0)
    want = fresh_answer(etg, x)
    outer, inner = InferenceSession(etg), InferenceSession(etg)
    with outer:
        assert same_bits(outer.predict(x), want)
        with inner:
            assert same_bits(inner.predict(x), want)
            with InferenceSession(etg) as third:
                assert same_bits(third.predict(x), want)
        # still frozen: an inner exit keeps the outer session's forms
        assert etg._frozen
        assert same_bits(outer.predict(x), want)
        with pytest.raises(ReproError):
            load_checkpoint(etg, checkpoint_of(build(
                "identity_shortcut", 1, seed=1)))
    load_checkpoint(etg, checkpoint_of(build("identity_shortcut", 1, seed=1)))
    with outer:
        assert same_bits(outer.predict(x), fresh_answer(etg, x))
        assert not same_bits(outer.predict(x), want)


# -- one exact ReLU --------------------------------------------------------
#: ±0, ±subnormals, ±inf, the two NaN payloads, signalling NaNs, ±1
SPECIAL_BITS = [0x00000000, 0x80000000, 0x00000001, 0x80000001,
                0x007fffff, 0x807fffff, 0x7f800000, 0xff800000,
                0x7fc12345, 0xffc54321, 0x7f800001, 0xff800001,
                0x7fbfffff, 0x3f800000, 0xbf800000]

#: float32 bit patterns: the specials, or any pattern at all
float32_bits = st.one_of(st.sampled_from(SPECIAL_BITS),
                         st.integers(0, 2**32 - 1))


def f32(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint32).view(np.float32)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(float32_bits, float32_bits), min_size=1,
                max_size=64))
# numpy runs short arrays and tails through a scalar loop and long runs
# through SIMD: a signalling NaN alone, and every special value together
@example(pairs=[(0x7f800001, 0xff800001)])
@example(pairs=[(b, SPECIAL_BITS[-1 - i]) for i, b in enumerate(SPECIAL_BITS)])
def test_every_relu_form_equals_np_where(pairs):
    x = f32([a for a, _ in pairs])
    dy = f32([b for _, b in pairs])
    mask = x > 0
    want_fwd = np.where(mask, x, 0.0).astype(np.float32)
    want_bwd = np.where(mask, dy, 0.0).astype(np.float32)

    # a signalling NaN raises numpy's invalid-value warning as it is
    # quieted; only the bits are checked here
    with np.errstate(invalid="ignore"):
        layer = ReLULayer()
        assert same_bits(layer.forward(x), want_fwd)
        assert same_bits(layer.backward(dy), want_bwd)
        assert same_bits(relu(dy, mask), want_bwd)  # keep_grad's mask
        inplace = x.copy()
        relu(inplace, out=inplace)  # forward-only runs
        assert same_bits(inplace, want_fwd)
        block = x.copy().reshape(1, -1)
        FusedReLU().apply_block(block, 0)  # the conv-fused ReLU
        assert same_bits(block, want_fwd)


@settings(max_examples=50, deadline=None)
@given(st.lists(float32_bits, min_size=16 * 4, max_size=16 * 4))
def test_eval_batchnorm_in_place_equals_forward(bits):
    """The in-place eval pass gives ``BatchNorm2D.forward``'s eval bits,
    NaN payloads included, on a blocked activation and on NCHW."""
    x = f32(bits).reshape(1, 16, 2, 2)
    bn = BatchNorm2D(16)
    rng = np.random.default_rng(bits[0])
    bn.gamma[...] = rng.uniform(0.5, 1.5, 16)
    bn.beta[...] = rng.standard_normal(16)
    bn.running_mean[...] = rng.standard_normal(16)
    bn.running_var[...] = rng.uniform(0.5, 2.0, 16)
    bn.training = False
    node = _LayerNode(LayerSpec("bn", "BatchNorm", ["x"], ["bn"]), bn)
    with np.errstate(all="ignore"):
        want = bn.forward(x)
        blocked = block_activations(x, 16)
        assert node.forward(blocked, train=False, inplace=True) is blocked
        assert same_bits(blocked.to_nchw(), want)
        nchw = x.copy()
        assert same_bits(node.forward(nchw, train=False, inplace=True), want)
        kept = x.copy()
        assert same_bits(node.forward(x, train=False), want)
        assert same_bits(x, kept)


@pytest.mark.parametrize("engine", ["fast", "blocked"])
def test_fused_relu_matches_unfused_with_a_planted_nan(engine):
    topo = TopologySpec("conv-relu")
    t = topo.data("data")
    t = topo.conv("conv1", t, 32, 3, relu=True)
    t = topo.conv("conv2", t, 32, 1, relu=True)
    topo.loss("loss", topo.fc("fc", topo.global_pool("gap", t), 8))
    x = images(2)
    x[0, 3, 4, 4] = np.nan
    labels = np.array([2, 5])
    runs = []
    for fuse in (False, True):
        etg = ExecutionTaskGraph(topo, (2, *SHAPE), engine=engine,
                                 fuse=fuse)
        probs = etg.predict(x).copy()
        loss = Trainer(etg, nan_policy="off").train_step(x, labels)
        runs.append([probs, np.float64(loss), *etg.params()])
    assert not np.isnan(runs[0][0]).any()
    for got, want in zip(runs[1], runs[0]):
        assert same_bits(got, want)
