"""Layer forward passes against trivial cases and independent oracles."""

import math
import multiprocessing
import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    batchnorm_infer_reference,
    batchnorm_train_backward_reference,
    batchnorm_train_reference,
    conv3d_direct,
    conv3d_im2col,
    conv3d_im2col_backward,
    locally_connected_direct,
    maxpool_freq_direct,
    prelu_backward_reference,
    prelu_reference,
    softmax_xent_decimal,
)
from svkit.errors import ConfigError, DimensionError
from svkit.models.zoo import build_3dcnn
from svkit.nn import layers as layers_module
from svkit.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    LayerParams,
    batchnorm_backward,
    batchnorm_forward,
    conv3d_backward,
    conv3d_forward,
    conv3d_output_shape,
    fully_connected_backward,
    fully_connected_forward,
    locally_connected_backward,
    locally_connected_forward,
    maxpool_freq_backward,
    maxpool_freq_forward,
    prelu_backward,
    prelu_forward,
    softmax_xent_batch,
)
from svkit.rng import Rng


def conv_params(w, b=None, stride=(1, 1, 1), pad_depth=False):
    return LayerParams(
        kind="conv3d",
        weights=w,
        bias=b if b is not None else np.zeros(w.shape[-1]),
        stride=stride,
        pad_depth=pad_depth,
    )


class TestConv3d:
    def test_first_layer_output_extents(self, rng):
        x = rng.normal((20, 80, 40, 1))
        w = rng.normal((3, 1, 5, 1, 16))
        y = conv3d_forward(x[None], conv_params(w))[0]
        assert y.shape == (18, 80, 36, 16)

    def test_identity_kernel(self, rng):
        x = rng.normal((4, 5, 6, 1))
        w = np.ones((1, 1, 1, 1, 1))
        y = conv3d_forward(x[None], conv_params(w))[0]
        assert np.array_equal(y[..., 0], x[..., 0])

    def test_random_case_matches_direct_summation(self, rng):
        x = rng.normal((5, 6, 7, 2))
        w = rng.normal((3, 2, 3, 2, 4))
        b = rng.normal((4,))
        got = conv3d_forward(x[None], conv_params(w, b, stride=(1, 2, 2)))[0]
        want = conv3d_direct(x, w, b, (1, 2, 2), False)
        assert got.shape == (3, 3, 3, 4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_same_depth_padding_keeps_depth(self, rng):
        x = rng.normal((5, 9, 9, 2))
        w = rng.normal((3, 2, 2, 2, 3))
        got = conv3d_forward(x[None], conv_params(w, pad_depth=True))[0]
        want = conv3d_direct(x, w, np.zeros(3), (1, 1, 1), True)
        assert got.shape[0] == 5
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_kernel_larger_than_input_names_axis(self, rng):
        x = rng.normal((4, 4, 4, 1))
        w = rng.normal((3, 5, 1, 1, 2))
        with pytest.raises(DimensionError, match="time"):
            conv3d_forward(x[None], conv_params(w))

    def test_channel_mismatch_names_axis(self, rng):
        x = rng.normal((4, 4, 4, 3))
        w = rng.normal((1, 1, 1, 2, 2))
        with pytest.raises(DimensionError, match="channel"):
            conv3d_forward(x[None], conv_params(w))

    @settings(max_examples=25)
    @given(st.data())
    def test_matches_direct_summation_on_small_inputs(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = Rng(seed)
        dims = [data.draw(st.integers(2, 8)) for _ in range(3)]
        cin = data.draw(st.integers(1, 3))
        cout = data.draw(st.integers(1, 4))
        kext = tuple(data.draw(st.integers(1, min(3, d))) for d in dims)
        stride = tuple(data.draw(st.integers(1, 2)) for _ in range(3))
        pad = data.draw(st.booleans()) and kext[0] % 2 == 1
        x = r.normal((*dims, cin))
        w = r.normal((*kext, cin, cout))
        b = r.normal((cout,))
        got = conv3d_forward(x[None], conv_params(w, b, stride, pad))[0]
        want = conv3d_direct(x, w, b, stride, pad)
        scale = max(np.abs(want).max(), 1e-12)
        assert np.abs(got - want).max() / scale < 1e-12


CNN3D_CONVS = ("conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv4_1", "conv4_2")


@pytest.fixture(scope="module")
def cnn3d_convs():
    """{(zeta, name): (conv layer, per-example input shape)} of the full-size cube network.

    zeta=20 convolves depth validly and zeta=10 same-pads it; conv1_1 has a
    single input channel and conv1_2 a time stride of 2.
    """
    convs = {}
    for zeta in (20, 10):
        net = build_3dcnn(zeta, 4, Rng(zeta))
        shapes = [net.spec.input_shape] + [shape for _, shape in net.layer_output_shapes()]
        for layer, shape in zip(net.layers, shapes):
            if layer.kind == "conv3d":
                convs[zeta, layer.name] = (layer, shape)
    return convs


@pytest.mark.parametrize("name", CNN3D_CONVS)
@pytest.mark.parametrize("zeta", [20, 10])
def test_cnn3d_conv_matches_whole_batch_im2col(cnn3d_convs, zeta, name):
    """Per-slice products give the whole-batch product's bytes; per-tap weight gradients agree to 1e-12."""
    layer, shape = cnn3d_convs[zeta, name]
    r = Rng(zeta)
    layer = replace(layer, bias=r.normal(layer.bias.shape))
    x = r.normal((2, *shape))
    y = conv3d_forward(x, layer)
    assert np.array_equal(y, conv3d_im2col(x, layer.weights, layer.bias, layer.stride, layer.pad_depth))
    g = r.normal(y.shape)
    gx, grads = conv3d_backward(x, layer, g)
    want_gx, want_gw, want_gb = conv3d_im2col_backward(x, layer.weights, layer.stride, layer.pad_depth, g)
    assert np.array_equal(gx, want_gx)
    assert np.array_equal(grads["bias"], want_gb)
    assert np.abs(grads["weights"] - want_gw).max() <= 1e-12 * np.abs(want_gw).max()


def test_conv_forward_holds_one_slice_of_patches(cnn3d_convs):
    """conv1_2 at batch 8: the whole-batch patch matrix alone would be 547 MiB."""
    layer, shape = cnn3d_convs[20, "conv1_2"]
    x = Rng(5).normal((8, *shape))
    tracemalloc.start()
    try:
        conv3d_forward(x, layer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_conv_backward_holds_one_slice_of_patches(cnn3d_convs):
    """conv1_2 at batch 8: beyond the input gradient, one example's tap product and a slice of patches at a time."""
    layer, shape = cnn3d_convs[20, "conv1_2"]
    r = Rng(5)
    x = r.normal((8, *shape))
    g = r.normal((8, *conv3d_output_shape(shape, layer)))
    tracemalloc.start()
    try:
        conv3d_backward(x, layer, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 8 * 2**20


@pytest.mark.parametrize(
    "bounded", [test_conv_forward_holds_one_slice_of_patches, test_conv_backward_holds_one_slice_of_patches]
)
def test_conv_memory_bounds_hold_at_the_worker_cap(monkeypatch, cnn3d_convs, bounded):
    """Each worker holds its own scratch: the bounds above hold at the most workers svkit starts on any host."""
    assert 1 <= layers_module._WORKERS <= layers_module._MAX_WORKERS
    monkeypatch.setattr(layers_module, "_WORKERS", layers_module._MAX_WORKERS)
    bounded(cnn3d_convs)


@pytest.mark.parametrize("name", CNN3D_CONVS)
@pytest.mark.parametrize("zeta", [20, 10])
def test_cnn3d_batchnorm_prelu_match_reference(cnn3d_convs, zeta, name):
    """On each conv's output shape, batch 2: both references' bytes, the slope gradient to 1e-12."""
    layer, shape = cnn3d_convs[zeta, name]
    out_shape = conv3d_output_shape(shape, layer)
    c = out_shape[-1]
    r = Rng(zeta + 3)
    x = r.normal((2, *out_shape), mean=0.5, std=2.0)
    bn = LayerParams(
        kind="batchnorm",
        bn_scale=r.uniform(0.5, 1.5, (c,)),
        bn_shift=r.normal((c,)),
        bn_running_mean=r.normal((c,)),
        bn_running_var=r.uniform(0.5, 2.0, (c,)),
    )
    old_mean, old_var = bn.bn_running_mean, bn.bn_running_var
    want = batchnorm_infer_reference(x, bn.bn_scale, bn.bn_shift, old_mean, old_var, BN_EPS)
    assert np.array_equal(batchnorm_forward(x, bn), want)
    want_y, want_xh, want_inv, mu, var = batchnorm_train_reference(x, bn.bn_scale, bn.bn_shift, BN_EPS)
    cache = {}
    y = batchnorm_forward(x, bn, cache=cache)
    assert np.array_equal(y, want_y)
    assert np.array_equal(cache["bn_xh"], want_xh)
    assert np.array_equal(cache["bn_inv"], want_inv)
    assert np.array_equal(bn.bn_running_mean, BN_MOMENTUM * old_mean + (1 - BN_MOMENTUM) * mu)
    assert np.array_equal(bn.bn_running_var, BN_MOMENTUM * old_var + (1 - BN_MOMENTUM) * var)

    slope = r.uniform(0.05, 0.5, (c,))
    p = prelu_forward(y, slope)
    assert np.array_equal(p, prelu_reference(y, slope))
    gp = r.normal(p.shape)
    gy, pgrads = prelu_backward(y, slope, gp)
    want_gy, want_gs = prelu_backward_reference(y, slope, gp)
    assert np.array_equal(gy, want_gy)
    assert np.abs(pgrads["prelu_slope"] - want_gs).max() <= 1e-12 * np.abs(want_gs).max()

    want_gx, want_gscale, want_gshift = batchnorm_train_backward_reference(x, bn.bn_scale, gy, BN_EPS)
    gx, grads = batchnorm_backward(bn, gy, cache)
    assert np.array_equal(gx, want_gx)
    assert np.array_equal(grads["bn_scale"], want_gscale)
    assert np.array_equal(grads["bn_shift"], want_gshift)


def test_batchnorm_and_prelu_leave_their_inputs_alone():
    """Every array passed in, cache arrays included, keeps its bytes: outputs go to fresh buffers only."""
    r = Rng(21)
    x = r.normal((2, 3, 4, 5, 3))
    g = r.normal(x.shape)
    slope = r.uniform(0.05, 0.5, (3,))
    bn = LayerParams(
        kind="batchnorm",
        bn_scale=r.uniform(0.5, 1.5, (3,)),
        bn_shift=r.normal((3,)),
        bn_running_mean=r.normal((3,)),
        bn_running_var=r.uniform(0.5, 2.0, (3,)),
    )
    given = [x, g, slope, bn.bn_scale, bn.bn_shift, bn.bn_running_mean, bn.bn_running_var]
    before = [a.copy() for a in given]
    prelu_forward(x, slope)
    prelu_backward(x, slope, g)
    batchnorm_forward(x, bn)
    cache = {}
    batchnorm_forward(x, bn, cache)
    given += list(cache.values())
    before += [a.copy() for a in cache.values()]
    batchnorm_backward(bn, g, cache)
    assert len(given) == 9
    for i, (a, b) in enumerate(zip(given, before)):
        assert a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("failing", [0, 1])
def test_in_parallel_waits_for_every_run_and_reraises(monkeypatch, failing):
    """A run's exception reaches the caller, and only after the slowest run has written its rows."""
    monkeypatch.setattr(layers_module, "_WORKERS", 3)
    out = np.zeros(6)
    callers = []

    def run(worker, lo, hi):
        callers.append((worker, threading.current_thread() is threading.main_thread()))
        if worker == failing:
            raise ValueError(f"run {worker}")
        if worker == 2:
            time.sleep(0.2)
        out[lo:hi] = worker + 1

    with pytest.raises(ValueError, match=f"run {failing}"):
        layers_module._in_parallel(6, run)
    assert sorted(callers) == [(0, True), (1, False), (2, False)]
    assert out[4:].tolist() == [3.0, 3.0]  # the sleeping run finished before the raise reached the caller
    assert out[2 * failing : 2 * failing + 2].tolist() == [0.0, 0.0]


def test_in_parallel_splits_into_contiguous_runs(monkeypatch):
    monkeypatch.setattr(layers_module, "_WORKERS", 3)
    runs = []
    layers_module._in_parallel(7, lambda worker, lo, hi: runs.append((worker, lo, hi)))
    assert sorted(runs) == [(0, 0, 2), (1, 2, 4), (2, 4, 7)]
    runs.clear()
    layers_module._in_parallel(2, lambda worker, lo, hi: runs.append((worker, lo, hi)))
    assert sorted(runs) == [(0, 0, 1), (1, 1, 2)]  # no empty run: never more runs than rows


def _prelu_sum_in_child(x, queue):
    queue.put(float(prelu_forward(x, np.ones(x.shape[-1])).sum()))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_a_forked_child_gets_a_working_pool(monkeypatch):
    """A child forked after the pool has run work inherits no pool thread; its runs must still start."""
    monkeypatch.setattr(layers_module, "_WORKERS", 2)
    x = Rng(3).normal((4, 3))
    want = float(prelu_forward(x, np.ones(3)).sum())  # the parent's pool now has a thread
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_prelu_sum_in_child, args=(x, queue))
    child.start()
    try:
        assert queue.get(timeout=30) == want
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert not child.is_alive()


_CUBE = np.ones((2, 2, 2, 1))  # one (depth, time, freq, channels) example, no batch axis
_FC = LayerParams(kind="fully_connected", weights=np.ones((3, 2)), bias=np.zeros(2))
_LC = LayerParams(kind="locally_connected", weights=np.ones((1, 1, 1, 2, 2)), bias=np.zeros((1, 1, 1)))
_BN = LayerParams(
    kind="batchnorm", bn_scale=np.ones(2), bn_shift=np.zeros(2), bn_running_mean=np.zeros(2), bn_running_var=np.ones(2)
)
_UNBATCHED_CALLS = (
    (conv3d_forward, _CUBE, conv_params(np.ones((1, 1, 1, 1, 1)))),
    (conv3d_backward, _CUBE, conv_params(np.ones((1, 1, 1, 1, 1))), _CUBE),
    (maxpool_freq_forward, _CUBE),
    (maxpool_freq_backward, _CUBE[:, :, :1], np.zeros((2, 2, 1, 1), dtype=np.uint8), 2),
    (fully_connected_forward, np.ones(3), _FC),
    (fully_connected_backward, np.ones(3), _FC, np.ones(2)),
    (locally_connected_forward, np.ones((2, 2)), _LC),
    (locally_connected_backward, np.ones((2, 2)), _LC, np.ones(1)),
    (prelu_forward, np.ones(2), np.ones(2)),  # one example of 2 channels
    (prelu_backward, np.ones(2), np.ones(2), np.ones(2)),
    (batchnorm_forward, np.ones(2), _BN),
)


@pytest.mark.parametrize("fn,args", [pytest.param(fn, args, id=fn.__name__) for fn, *args in _UNBATCHED_CALLS])
def test_unbatched_example_rejected(fn, args):
    with pytest.raises(DimensionError, match="batch first"):
        fn(*args)


@given(st.integers(0, 10**6))
def test_finite_inputs_stay_finite_through_forward_and_backward(seed):
    """No layer may introduce NaN/Inf on finite inputs."""
    r = Rng(seed)
    x = r.normal((3, 6, 6, 2), std=3.0)[None]
    w = r.normal((3, 2, 2, 2, 3))
    conv = conv_params(w, r.normal((3,)), pad_depth=True)
    bn = LayerParams(
        kind="batchnorm",
        bn_scale=np.ones(3),
        bn_shift=np.zeros(3),
        bn_running_mean=np.zeros(3),
        bn_running_var=np.ones(3),
    )
    slope = np.full(3, 0.25)
    h1 = conv3d_forward(x, conv)
    bn_cache = {}
    h2 = batchnorm_forward(h1, bn, bn_cache)
    h3 = prelu_forward(h2, slope)
    h4, idx = maxpool_freq_forward(h3)
    for h in (h1, h2, h3, h4):
        assert np.isfinite(h).all()
    g = maxpool_freq_backward(np.ones_like(h4), idx, h3.shape[3])
    g, _ = prelu_backward(h2, slope, g)
    g, _ = batchnorm_backward(bn, g, bn_cache)
    g, grads = conv3d_backward(x, conv, g)
    assert np.isfinite(g).all()
    assert all(np.isfinite(arr).all() for arr in grads.values())


class TestMaxpoolFreq:
    def test_halves_frequency_extent(self, rng):
        x = rng.normal((4, 36, 36, 16))
        y, _ = maxpool_freq_forward(x[None])
        assert y[0].shape == (4, 36, 18, 16)

    def test_constant_input_unchanged(self):
        x = np.full((2, 3, 4, 2), 1.5)
        y, _ = maxpool_freq_forward(x[None])
        assert np.array_equal(y[0], np.full((2, 3, 2, 2), 1.5))

    def test_matches_elementwise_oracle(self, rng):
        x = rng.normal((2, 3, 6, 1))
        y, _ = maxpool_freq_forward(x[None])
        np.testing.assert_array_equal(y[0], maxpool_freq_direct(x))

    def test_odd_width_drops_last_column(self, rng):
        x = rng.normal((2, 2, 15, 3))
        y, _ = maxpool_freq_forward(x[None])
        y = y[0]
        assert y.shape[2] == 7
        np.testing.assert_array_equal(y, maxpool_freq_direct(x))

    def test_width_below_two_rejected(self, rng):
        with pytest.raises(DimensionError, match="freq"):
            maxpool_freq_forward(rng.normal((2, 2, 1, 1))[None])

    @given(st.integers(0, 10**6))
    def test_preserves_other_extents_and_dominates_inputs(self, seed):
        x = Rng(seed).normal((2, 3, 5, 2))
        y, _ = maxpool_freq_forward(x[None])
        y = y[0]
        assert y.shape == (2, 3, 2, 2)
        for i in range(2):
            assert np.all(y[:, :, i, :] >= x[:, :, 2 * i, :])
            assert np.all(y[:, :, i, :] >= x[:, :, 2 * i + 1, :])


class TestPrelu:
    @pytest.mark.parametrize("x,slope,expected", [(1.0, 0.25, 1.0), (-2.0, 0.25, -0.5)])
    def test_pointwise(self, x, slope, expected):
        got = prelu_forward(np.array([[x]]), np.array([slope]))
        assert got[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_unit_slope_is_identity(self, rng):
        x = rng.normal((3, 4, 5))
        np.testing.assert_array_equal(prelu_forward(x, np.ones(5)), x)

    @given(st.floats(0.01, 100.0), st.integers(0, 10**6))
    def test_positively_homogeneous(self, c, seed):
        x = Rng(seed).normal((4, 3))
        slope = np.array([0.25, 0.5, 1.5])
        left = prelu_forward(c * x, slope)
        right = c * prelu_forward(x, slope)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-300)

    def test_slope_length_mismatch(self, rng):
        with pytest.raises(DimensionError, match="channel"):
            prelu_forward(rng.normal((2, 3)), np.ones(4))


class TestFullyConnected:
    def test_fc5_shape(self, rng):
        fan_in = 4 * 3 * 3 * 128
        assert fan_in == 4608
        lp = LayerParams(kind="fully_connected", weights=rng.normal((fan_in, 128)), bias=np.zeros(128))
        assert fully_connected_forward(rng.normal((fan_in,))[None], lp)[0].shape == (128,)

    def test_identity_weights(self, rng):
        x = rng.normal((7,))
        lp = LayerParams(kind="fully_connected", weights=np.eye(7), bias=np.zeros(7))
        np.testing.assert_array_equal(fully_connected_forward(x[None], lp)[0], x)

    def test_matches_dot_product(self, rng):
        x = rng.normal((5,))
        w = rng.normal((5, 3))
        b = rng.normal((3,))
        lp = LayerParams(kind="fully_connected", weights=w, bias=b)
        np.testing.assert_allclose(
            fully_connected_forward(x[None], lp)[0], np.array([x @ w[:, o] + b[o] for o in range(3)]), rtol=1e-14
        )

    def test_fan_in_mismatch(self, rng):
        lp = LayerParams(kind="fully_connected", weights=rng.normal((5, 3)), bias=np.zeros(3))
        with pytest.raises(DimensionError, match="fan-in"):
            fully_connected_forward(rng.normal((6,))[None], lp)


class TestLocallyConnected:
    def test_patch_grid_arithmetic(self, rng):
        # 80x40 over 8x8 patches: 10*5 = 50 patches, 16 units each -> 800
        w = rng.normal((10, 5, 16, 8, 8))
        lp = LayerParams(kind="locally_connected", weights=w, bias=np.zeros((10, 5, 16)))
        assert locally_connected_forward(rng.normal((80, 40))[None], lp)[0].shape == (800,)

    def test_zero_input_zero_bias(self, rng):
        w = rng.normal((2, 2, 3, 8, 8))
        lp = LayerParams(kind="locally_connected", weights=w, bias=np.zeros((2, 2, 3)))
        assert not locally_connected_forward(np.zeros((1, 16, 16)), lp)[0].any()

    def test_matches_direct_summation_with_padding(self, rng):
        x = rng.normal((11, 13))  # pads up to 16x16
        w = rng.normal((2, 2, 3, 8, 8))
        b = rng.normal((2, 2, 3))
        lp = LayerParams(kind="locally_connected", weights=w, bias=b)
        np.testing.assert_allclose(
            locally_connected_forward(x[None], lp)[0], locally_connected_direct(x, w, b), rtol=1e-12
        )

    def test_one_hot_patch_weight_reads_one_cell(self, rng):
        x = rng.normal((16, 16))
        w = np.zeros((2, 2, 1, 8, 8))
        w[1, 0, 0, 2, 3] = 1.0  # second patch row, first column
        lp = LayerParams(kind="locally_connected", weights=w, bias=np.zeros((2, 2, 1)))
        y = locally_connected_forward(x[None], lp)[0]
        assert y[2] == pytest.approx(x[8 + 2, 0 + 3], abs=1e-15)


class TestSoftmaxXent:
    def test_uniform_logits_511_classes(self):
        loss, probs = softmax_xent_batch(np.zeros((1, 511)), [7])
        assert loss == pytest.approx(math.log(511), abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_confident_correct_logit(self):
        loss, _ = softmax_xent_batch(np.array([[100.0, 0.0, 0.0]]), [0])
        assert loss < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ConfigError, match="label"):
            softmax_xent_batch(np.zeros((1, 3)), [3])

    @given(st.integers(0, 10**6))
    def test_matches_decimal_oracle(self, seed):
        r = Rng(seed)
        logits = r.normal((8,), std=5.0)
        label = int(Rng(seed).child(1).integers(0, 8))
        loss, probs = softmax_xent_batch(logits[None], [label])
        assert abs(loss - softmax_xent_decimal(logits, label)) < 1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)

    @given(st.integers(0, 10**6), st.floats(-50.0, 50.0))
    def test_invariant_under_constant_shift(self, seed, c):
        logits = Rng(seed).normal((1, 6))
        loss_a, probs_a = softmax_xent_batch(logits, [2])
        loss_b, probs_b = softmax_xent_batch(logits + c, [2])
        assert abs(loss_a - loss_b) < 1e-12
        np.testing.assert_allclose(probs_a, probs_b, atol=1e-12)
