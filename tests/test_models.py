"""Network builders, forward conformance, embeddings, and checkpoints."""

import copy
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import svkit
from oracles import (
    batchnorm_train_backward_reference,
    batchnorm_train_reference,
    conv3d_im2col,
    conv3d_im2col_backward,
    forward_logits,
    prelu_backward_reference,
    prelu_reference,
)
from svkit.errors import (
    CheckpointError,
    ChecksumError,
    ConfigError,
    DimensionError,
    SvkitError,
    TruncatedFileError,
    VersionMismatchError,
)
from svkit.models import network as network_module
from svkit.models.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from svkit.models.zoo import build_network
from svkit.nn import layers as layers_module
from svkit.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    PARAM_FIELDS,
    STATE_FIELDS,
    softmax_xent_batch,
    softmax_xent_batch_gradient,
)
from svkit.rng import Rng

# Per-layer (depth, time, freq, channels) outputs of the full-size cube
# network at stack depth 20 with valid depth convolution.
EXPECTED_CHAIN_20 = {
    "conv1_1": (18, 80, 36, 16),
    "conv1_2": (16, 36, 36, 16),
    "pool1": (16, 36, 18, 16),
    "conv2_1": (14, 36, 15, 32),
    "conv2_2": (12, 15, 15, 32),
    "pool2": (12, 15, 7, 32),
    "conv3_1": (10, 15, 5, 64),
    "conv3_2": (8, 9, 5, 64),
    "conv4_1": (6, 9, 3, 128),
    "conv4_2": (4, 3, 3, 128),
    "flatten": (4608,),
    "fc5": (128,),
}


class TestBuild3dcnn:
    def test_inferred_shape_chain_at_depth_20(self):
        net = build_network("cnn3d", 20, 511, Rng(0))
        shapes = dict(net.layer_output_shapes())
        for name, expected in EXPECTED_CHAIN_20.items():
            assert shapes[name] == expected, name
        assert shapes["output"] == (511,)

    def test_forward_pass_shapes_at_depth_20(self):
        net = build_network("cnn3d", 20, 8, Rng(0))
        xb = Rng(1).normal((1, 20, 80, 40, 1))
        by_name = {}
        for layer in net.layers:
            xb = net._run(xb, [layer], [])
            by_name[layer.name] = xb.shape[1:]
        for name, expected in EXPECTED_CHAIN_20.items():
            assert by_name[name] == expected, name

    def test_depth_trace_valid_mode(self):
        net = build_network("cnn3d", 20, 8, Rng(0))
        depths = [shape[0] for name, shape in net.layer_output_shapes() if name.startswith("conv")]
        assert depths[::3] == [18, 16, 14, 12, 10, 8, 6, 4]  # conv, then its bn/act repeats

    def test_same_depth_padding_below_threshold(self):
        net = build_network("cnn3d", 5, 8, Rng(0))
        shapes = dict(net.layer_output_shapes())
        assert shapes["conv4_2"] == (5, 3, 3, 128)
        assert shapes["flatten"] == (5 * 3 * 3 * 128,)
        assert net.layers[0].pad_depth

    def test_depth_20_uses_valid_convolution(self):
        net = build_network("cnn3d", 20, 8, Rng(0))
        assert not net.layers[0].pad_depth

    def test_bad_arguments(self):
        with pytest.raises(ConfigError, match="stack depth"):
            build_network("cnn3d", 0, 8, Rng(0))
        with pytest.raises(ConfigError, match="development speakers"):
            build_network("cnn3d", 20, 1, Rng(0))
        with pytest.raises(ConfigError, match="development speakers"):
            build_network("lcn_dvector", 1, 1, Rng(0))


class TestBuildLcn:
    def test_hidden_widths(self):
        net = build_network("lcn_dvector", 1, 12, Rng(0))
        shapes = [s for _, s in net.layer_output_shapes()]
        assert shapes[0] == (800,)  # 10*5 patches * 16 units
        widths = [s[0] for name, s in net.layer_output_shapes() if name in ("fc1", "fc2", "fc3")]
        assert widths == [256, 256, 256]
        assert shapes[-1] == (12,)

    def test_zero_input_uniform_softmax(self):
        net = build_network("lcn_dvector", 1, 5, Rng(0))
        for layer in net.layers:
            if layer.bias is not None:
                assert not layer.bias.any()
        out = forward_logits(net, np.zeros((1, 80, 40)))[0]
        np.testing.assert_allclose(out, out[0], atol=1e-12)

    def test_parameter_count_closed_form(self):
        n_classes, units, hidden = 7, 16, 256
        net = build_network("lcn_dvector", 1, n_classes, Rng(0), widths=(units, hidden))
        patches = 10 * 5
        lc = patches * units * 64 + patches * units
        lc_out = patches * units
        fcs = (lc_out * hidden + hidden) + 2 * (hidden * hidden + hidden)
        prelus = lc_out + 3 * hidden
        head = hidden * n_classes + n_classes
        assert net.parameter_count() == lc + fcs + prelus + head


class TestForwardAndEmbed:
    def test_logits_length_and_determinism(self):
        net = build_network("lcn_dvector", 1, 9, Rng(2))
        x = Rng(3).normal((1, 80, 40))
        a = forward_logits(net, x)
        b = forward_logits(net, x)
        assert a.shape == (1, 9)
        np.testing.assert_array_equal(a, b)

    def test_reduced_network_matches_manual_composition(self):
        from svkit.nn.layers import fully_connected_forward, prelu_forward

        net = build_network("lcn_dvector", 1, 3, Rng(4), widths=(2, 5))
        x = Rng(5).normal((80, 40))
        from svkit.nn.layers import locally_connected_forward

        h = locally_connected_forward(x[None], net.layers[0])
        h = prelu_forward(h, net.layers[1].prelu_slope)
        for i in (2, 4, 6):
            h = fully_connected_forward(h, net.layers[i])
            h = prelu_forward(h, net.layers[i + 1].prelu_slope)
        head = fully_connected_forward(h, net.layers[8])
        np.testing.assert_allclose(forward_logits(net, x[None])[0], head[0], rtol=1e-14)

    def test_embedding_is_normalized_128(self):
        net = build_network("cnn3d", 5, 4, Rng(0))
        emb = net.embed_vectors([Rng(1).normal((5, 80, 40, 1))])[0]
        assert emb.shape == (128,)
        assert abs(np.linalg.norm(emb) - 1.0) <= 1e-12

    def test_embed_equals_truncated_forward_normalized(self):
        from svkit.nn.layers import fully_connected_forward

        net = build_network("lcn_dvector", 1, 4, Rng(6))
        x = Rng(7).normal((80, 40))
        emb = net.embed_vectors([x])[0]
        assert emb.shape == (256,)  # last hidden layer width of the baseline
        head = net.layers[-1]
        full = forward_logits(net, x[None])[0]
        reconstructed = fully_connected_forward((emb * _pre_norm(net, x))[None], head)[0]
        np.testing.assert_allclose(reconstructed, full, rtol=1e-10)

    def test_build_network_dispatch(self):
        assert build_network("cnn3d", 5, 3, Rng(0)).spec.kind == "cnn3d"
        assert build_network("lcn_dvector", 1, 3, Rng(0)).spec.kind == "lcn_dvector"
        with pytest.raises(ConfigError):
            build_network("mystery", 1, 3, Rng(0))


def test_conv_caches_hold_only_the_input():
    """A conv keeps its input, or after a PReLU a reference to that PReLU's cache; never a patch matrix."""
    net = build_network("cnn3d", 3, 3, Rng(0), widths=(2, 2, 2, 2, 6))
    _, caches = net.forward_with_cache(Rng(1).normal((2, 3, 80, 40, 1)))
    conv_caches = [cache for layer, cache in zip(net.layers, caches) if layer.kind == "conv3d"]
    assert len(conv_caches) == 8
    assert all(set(cache) in ({"x"}, {"from"}) for cache in conv_caches)


def test_prelu_caches_after_batchnorm_hold_no_array():
    """A PReLU after batchnorm refers to that batchnorm's cache; the baseline's PReLUs, after dense layers, keep their input."""
    net = build_network("cnn3d", 3, 3, Rng(0), widths=(2, 2, 2, 2, 6))
    _, caches = net.forward_with_cache(Rng(1).normal((2, 3, 80, 40, 1)))
    after_bn = [
        cache
        for prev, layer, cache in zip(net.layers, net.layers[1:], caches[1:])
        if prev.kind == "batchnorm" and layer.kind == "prelu"
    ]
    assert len(after_bn) == 8
    for cache in after_bn:
        assert not any(isinstance(v, np.ndarray) for v in cache.values())
    net = build_network("lcn_dvector", 1, 3, Rng(0), widths=(2, 8))
    x = Rng(1).normal((2, *net.spec.input_shape))
    _, caches = net.forward_with_cache(x)
    prelu_caches = [cache for layer, cache in zip(net.layers, caches) if layer.kind == "prelu"]
    assert len(prelu_caches) >= 2
    assert all(set(cache) == {"x"} and isinstance(cache["x"], np.ndarray) for cache in prelu_caches)


def test_flatten_cache_holds_the_shape_and_no_array():
    net = build_network("cnn3d", 3, 3, Rng(0), widths=(2, 2, 2, 2, 6))
    _, caches = net.forward_with_cache(Rng(1).normal((2, 3, 80, 40, 1)))
    (cache,) = [cache for layer, cache in zip(net.layers, caches) if layer.kind == "flatten"]
    assert cache == {"shape": (2, 3, 3, 3, 2)}
    assert not any(isinstance(v, np.ndarray) for v in cache.values())


def test_forward_with_cache_rejects_a_single_example():
    net = build_network("cnn3d", 3, 3, Rng(0), widths=(2, 2, 2, 2, 6))
    with pytest.raises(DimensionError, match="not a batch"):
        net.forward_with_cache(Rng(1).normal((3, 80, 40, 1)))


def test_pool_caches_hold_uint8_indices_and_no_float_array():
    net = build_network("cnn3d", 3, 3, Rng(0), widths=(2, 2, 2, 2, 6))
    _, caches = net.forward_with_cache(Rng(1).normal((2, 3, 80, 40, 1)))
    pool_caches = [cache for layer, cache in zip(net.layers, caches) if layer.kind == "maxpool_freq"]
    assert len(pool_caches) == 2
    for cache in pool_caches:
        assert cache["indices"].dtype == np.uint8
        assert not any(isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in cache.values())


_GRADIENT_STEP = """
import sys
import numpy as np
from oracles import loss_and_gradients
from svkit.models.zoo import build_network
from svkit.rng import Rng

net = build_network("cnn3d", 3, 4, Rng(0))
loss, gx, grads = loss_and_gradients(net, Rng(1).normal((4, 3, 80, 40, 1)), [0, 1, 2, 3])
arrays = {"loss": np.array([loss]), "gx": gx}
arrays.update({f"{i}.{field}": g for i, layer in enumerate(grads) for field, g in layer.items()})
np.savez(sys.argv[1], **arrays)
"""


def _gradient_step(path, threads):
    """One cnn3d loss_and_gradients step in a fresh process at `threads` BLAS threads."""
    paths = (Path(svkit.__file__).parents[1], Path(__file__).parent)  # svkit, and tests/ for oracles
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    subprocess.run([sys.executable, "-c", _GRADIENT_STEP, str(path)], env=env, check=True, timeout=300)
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


class TestBlasThreadDeterminism:
    """The README's promise: equal bytes at an equal BLAS thread count, rounding-level agreement across counts."""

    def test_equal_thread_count_is_byte_identical(self, tmp_path):
        a = _gradient_step(tmp_path / "a.npz", 1)
        b = _gradient_step(tmp_path / "b.npz", 1)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_one_and_two_threads_agree_within_1e_12(self, tmp_path):
        a = _gradient_step(tmp_path / "one.npz", 1)
        b = _gradient_step(tmp_path / "two.npz", 2)
        assert a.keys() == b.keys()
        # a conv bias feeds train-mode batchnorm, so its exact gradient is 0 and
        # both runs hold rounding noise there: each layer's arrays are compared
        # on the scale of that layer's largest gradient
        layers = {}
        for name in a:
            layers.setdefault(name.split(".")[0], []).append(name)
        for names in layers.values():
            scale = max(np.abs(a[name]).max() for name in names)
            for name in names:
                assert np.abs(a[name] - b[name]).max() <= 1e-12 * scale, name


def _trained_like_3dcnn(zeta):
    """A cube network whose biases, PReLU slopes and batchnorm statistics are not at their init values."""
    net = build_network("cnn3d", zeta, 4, Rng(10))
    rng = Rng(11)
    for layer in net.layers:
        if layer.bias is not None:
            layer.bias = rng.normal(layer.bias.shape, std=0.1)
        if layer.kind == "prelu":
            layer.prelu_slope = rng.uniform(0.05, 0.5, layer.prelu_slope.shape)
        if layer.kind == "batchnorm":
            layer.bn_running_mean = rng.normal(layer.bn_running_mean.shape, std=0.3)
            layer.bn_running_var = rng.uniform(0.5, 2.0, layer.bn_running_var.shape)
            layer.bn_scale = rng.uniform(0.5, 1.5, layer.bn_scale.shape)
            layer.bn_shift = rng.normal(layer.bn_shift.shape, std=0.1)
    return net


def _replicated(zeta, seed):
    """A test-utterance cube: one map repeated zeta times along depth."""
    return np.repeat(Rng(seed).normal((1, 80, 40, 1)), zeta, axis=0)


def _full_layer_loop(net, cubes):
    """Reference embeddings: every layer but the head on the whole cubes, then L2-normalized."""
    acts = net._run(np.stack(cubes), net.layers[:-1])
    return acts / np.linalg.norm(acts, axis=1, keepdims=True)


def _step_and_embed_arrays(zeta, batch):
    """Every array one training step and two embed_vectors calls produce, by name."""
    net = _trained_like_3dcnn(zeta)
    x = Rng(15).normal((batch, *net.spec.input_shape))
    labels = np.arange(batch) % 4
    logits, caches = net.forward_with_cache(x)
    _, probs = softmax_xent_batch(logits, labels)
    grad_x, grads = net.backward(caches, softmax_xent_batch_gradient(probs, labels))
    arrays = {"logits": logits, "grad_x": grad_x}
    for layer, layer_grads in zip(net.layers, grads):
        arrays.update({f"{layer.name}.{field}": g for field, g in layer_grads.items()})
        if layer.kind == "batchnorm":
            arrays[f"{layer.name}.running_mean"] = layer.bn_running_mean
            arrays[f"{layer.name}.running_var"] = layer.bn_running_var
    arrays["embed_enrollment_cube"] = net.embed_vectors([Rng(16).normal(net.spec.input_shape)])
    arrays["embed_cubes"] = net.embed_vectors([Rng(20 + i).normal(net.spec.input_shape) for i in range(batch)])
    arrays["embed_replicated"] = net.embed_vectors([_replicated(zeta, seed) for seed in (17, 18, 19)])
    return arrays


@pytest.mark.parametrize("zeta,batch", [(20, 3), (20, 1), (10, 3), (10, 1)])
def test_bytes_do_not_depend_on_the_worker_count(monkeypatch, zeta, batch):
    """1, 2 and 3 workers (3 examples split unevenly over 2): logits, every gradient, running statistics and
    embeddings, the last also of `batch` full cubes, so that inference runs split the same way."""
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(layers_module, "_WORKERS", workers)
        results.append(_step_and_embed_arrays(zeta, batch))
    for other in results[1:]:
        assert other.keys() == results[0].keys()
        for name, arr in results[0].items():
            assert other[name].tobytes() == arr.tobytes(), name


def _layer_bytes(net):
    """Every array of every layer, as bytes, by (layer name, field)."""
    return {
        (layer.name, field): getattr(layer, field).tobytes()
        for layer in net.layers
        for field in PARAM_FIELDS + STATE_FIELDS
        if getattr(layer, field) is not None
    }


@pytest.mark.parametrize("zeta", [20, 10])
def test_an_uncached_pass_changes_no_layer_array(zeta):
    """embed_vectors on an enrollment cube, then on depth-replicated test cubes, leaves every layer's bytes."""
    net = _trained_like_3dcnn(zeta)
    before = _layer_bytes(net)
    net.embed_vectors([Rng(20).normal(net.spec.input_shape)])
    net.embed_vectors([_replicated(zeta, seed) for seed in (21, 22, 23)])
    assert _layer_bytes(net) == before


def test_a_cached_forward_folds_the_batch_statistics_into_the_running_ones(monkeypatch):
    """Each running statistic becomes BN_MOMENTUM * old + (1 - BN_MOMENTUM) * its input's batch statistic, byte for byte."""
    net = _trained_like_3dcnn(20)
    old = copy.deepcopy(net.layers)
    forwards = []
    with monkeypatch.context() as m:
        m.setattr(network_module, "_KINDS", _recording_kinds(forwards, []))
        net.forward_with_cache(Rng(24).normal((2, *net.spec.input_shape)))
    checked = 0
    for (layer, x), was in zip(forwards, old):
        if layer.kind == "batchnorm":
            axes = tuple(range(x.ndim - 1))
            mean = BN_MOMENTUM * was.bn_running_mean + (1 - BN_MOMENTUM) * x.mean(axis=axes)
            var = BN_MOMENTUM * was.bn_running_var + (1 - BN_MOMENTUM) * x.var(axis=axes)
            assert layer.bn_running_mean.tobytes() == mean.tobytes(), layer.name
            assert layer.bn_running_var.tobytes() == var.tobytes(), layer.name
            checked += 1
    assert checked == 8


class TestDepthCollapse:
    @pytest.mark.parametrize("zeta", [17, 20])
    def test_replicated_cubes_match_full_path(self, zeta):
        net = _trained_like_3dcnn(zeta)
        cubes = [_replicated(zeta, seed) for seed in (1, 2, 3)]
        np.testing.assert_allclose(net.embed_vectors(cubes), _full_layer_loop(net, cubes), rtol=0, atol=1e-12)

    def test_mixed_batch_matches_full_path(self):
        net = _trained_like_3dcnn(20)
        cubes = [Rng(4).normal((20, 80, 40, 1)), _replicated(20, 5), _replicated(20, 6)]
        np.testing.assert_allclose(net.embed_vectors(cubes), _full_layer_loop(net, cubes), rtol=0, atol=1e-12)

    def test_same_pad_depth_is_byte_equal_to_full_path(self):
        """A same-pad net has no collapsed form: replicated cubes take the whole folded layer list."""
        net = _trained_like_3dcnn(10)
        cubes = [_replicated(10, seed) for seed in (7, 8)]
        acts = net._run(np.stack(cubes), network_module._bn_folded(net.layers[:-1]))
        np.testing.assert_array_equal(net.embed_vectors(cubes), acts / np.linalg.norm(acts, axis=1, keepdims=True))

    @pytest.mark.parametrize("zeta,replicated", [(20, False), (20, True), (10, False)])
    def test_folded_inference_matches_the_layer_list(self, zeta, replicated):
        """Batchnorm folded into each conv, PReLU in place: within 1e-12 of the unfolded conv → batchnorm → PReLU list."""
        net = _trained_like_3dcnn(zeta)
        assert [layer.kind for layer in network_module._bn_folded(net.layers)].count("batchnorm") == 0
        cubes = [_replicated(zeta, seed) if replicated else Rng(seed).normal(net.spec.input_shape) for seed in (9, 10)]
        np.testing.assert_allclose(net.embed_vectors(cubes), _full_layer_loop(net, cubes), rtol=0, atol=1e-12)

    def test_replicated_batch_runs_convs_at_depth_1(self, monkeypatch):
        depths = []
        conv = network_module.conv3d_forward

        def recording(x, params, *args, **kwargs):
            depths.append(x.shape[1])
            return conv(x, params, *args, **kwargs)

        monkeypatch.setattr(network_module, "conv3d_forward", recording)
        net = _trained_like_3dcnn(20)
        net.embed_vectors([_replicated(20, 1), _replicated(20, 2)])
        assert depths == [1] * 8
        depths.clear()
        net.embed_vectors([Rng(3).normal((20, 80, 40, 1))])  # an enrollment cube of distinct maps
        assert depths[0] == 20 and len(depths) == 8


def test_embed_vectors_leaves_writable_inputs_unchanged():
    """The in-place PReLU of an inference pass writes only activations the pass made."""
    net = _trained_like_3dcnn(20)
    cubes = [Rng(12).normal(net.spec.input_shape), _replicated(20, 13)]
    before = [cube.tobytes() for cube in cubes]
    net.embed_vectors(cubes[:1])
    net.embed_vectors(cubes[1:])
    assert all(cube.flags.writeable for cube in cubes)
    assert [cube.tobytes() for cube in cubes] == before


def test_lcn_training_pass_keeps_each_prelu_input():
    """A cached pass writes PReLU into a fresh buffer: each PReLU's cached input is still its layer's output."""
    net = build_network("lcn_dvector", 1, 4, Rng(14), widths=(2, 5))
    _, caches = net.forward_with_cache(Rng(15).normal((3, *net.spec.input_shape)))
    checked = 0
    for i, layer in enumerate(net.layers):
        if layer.kind == "prelu":
            before = net.layers[i - 1]
            want = network_module._KINDS[before.kind].forward(before, caches[i - 1]["x"], None)
            assert caches[i]["x"].tobytes() == want.tobytes(), layer.name
            checked += 1
    assert checked == 4


@pytest.mark.parametrize("replicated", [False, True], ids=["enrollment_cube", "replicated_cubes"])
def test_embed_vectors_calls_batchnorm_and_prelu_through_the_module(monkeypatch, replicated):
    """Folded or not, one embed_vectors call looks up batchnorm_forward and prelu_forward in the network module."""
    calls = []

    def recording(name):
        fn = getattr(network_module, name)

        def record(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return record

    for name in ("batchnorm_forward", "prelu_forward"):
        monkeypatch.setattr(network_module, name, recording(name))
    net = _trained_like_3dcnn(20)
    net.embed_vectors([_replicated(20, 16), _replicated(20, 17)] if replicated else [Rng(16).normal(net.spec.input_shape)])
    assert {"batchnorm_forward", "prelu_forward"} <= set(calls)


def _reference_forward(layer, x):
    """Whole-batch im2col conv and the one-expression-per-step batchnorm/PReLU; the library elsewhere."""
    if layer.kind == "conv3d":
        return conv3d_im2col(x, layer.weights, layer.bias, layer.stride, layer.pad_depth)
    if layer.kind == "batchnorm":
        return batchnorm_train_reference(x, layer.bn_scale, layer.bn_shift, BN_EPS)[0]
    if layer.kind == "prelu":
        return prelu_reference(x, layer.prelu_slope)
    return network_module._KINDS[layer.kind].forward(layer, x, {})


def _reference_backward(layer, x, g):
    if layer.kind == "conv3d":
        gx, gw, gb = conv3d_im2col_backward(x, layer.weights, layer.stride, layer.pad_depth, g)
        return gx, {"weights": gw, "bias": gb}
    if layer.kind == "batchnorm":
        gx, gscale, gshift = batchnorm_train_backward_reference(x, layer.bn_scale, g, BN_EPS)
        return gx, {"bn_scale": gscale, "bn_shift": gshift}
    if layer.kind == "prelu":
        gx, gs = prelu_backward_reference(x, layer.prelu_slope, g)
        return gx, {"prelu_slope": gs}
    cache = {"x": x}
    network_module._KINDS[layer.kind].forward(layer, x, cache)  # fills what the pool and flatten cache
    return network_module._KINDS[layer.kind].backward(layer, g, cache, True)


def _recording_kinds(forwards, backwards):
    """network._KINDS with every forward call's (layer, input) and backward call's (layer, result) recorded.

    The input and the input gradient are recorded as copies: a training pass
    later writes over them.
    """

    def kind(k):
        def forward(layer, x, *args):
            forwards.append((layer, np.copy(x)))
            return k.forward(layer, x, *args)

        def backward(layer, *args):
            g, grads = k.backward(layer, *args)
            backwards.append((layer, (None if g is None else np.copy(g), grads)))
            return g, grads

        return replace(k, forward=forward, backward=backward)

    return {name: kind(k) for name, k in network_module._KINDS.items()}


def test_cnn3d_training_step_matches_reference_bytes(monkeypatch):
    """One zeta=20, batch-2 training step against the whole-batch references, layer by layer.

    Activations, every layer's input gradient and the conv bias, bn_shift and
    bn_scale gradients must keep the reference's bytes; conv weight and PReLU
    slope gradients may differ by rounding only (1e-12 of the largest entry).
    Each layer's input and backward result are recorded as Network passes
    them, since backward consumes the caches.
    """
    net = _trained_like_3dcnn(20)
    x = Rng(12).normal((2, *net.spec.input_shape))
    labels = np.array([0, 3])
    forwards, backwards = [], []
    with monkeypatch.context() as m:
        m.setattr(network_module, "_KINDS", _recording_kinds(forwards, backwards))
        logits, caches = net.forward_with_cache(x)
        _, probs = softmax_xent_batch(logits, labels)
        g_ref = softmax_xent_batch_gradient(probs, labels)
        grad_x, grads = net.backward(caches, g_ref)
    assert caches == []
    acts = [x]
    for layer in net.layers:
        acts.append(_reference_forward(layer, acts[-1]))
    assert [layer for layer, _ in forwards] == net.layers
    for (layer, got_x), want in zip(forwards, acts):
        assert np.array_equal(got_x, want), layer.name
    assert np.array_equal(logits, acts[-1])

    assert [layer for layer, _ in backwards] == net.layers[::-1]
    compared = 0
    for (layer, (g_lib, lib_grads)), a, got in zip(backwards, acts[-2::-1], grads[::-1]):
        g_ref, want = _reference_backward(layer, a, g_ref)
        assert np.array_equal(g_lib, g_ref), layer.name  # this layer's input gradient
        assert set(got) == set(lib_grads) == set(want), layer.name
        for field, arr in want.items():
            assert np.array_equal(got[field], lib_grads[field]), (layer.name, field)
            if field == "prelu_slope" or (field == "weights" and layer.kind == "conv3d"):
                assert np.abs(got[field] - arr).max() <= 1e-12 * np.abs(arr).max(), (layer.name, field)
            else:
                assert np.array_equal(got[field], arr), (layer.name, field)
        compared += 1
    assert compared == len(net.layers)
    assert np.array_equal(grad_x, g_lib)


def _training_step(net, x, labels, input_grad):
    """One forward_with_cache and backward as train_development runs them; (input gradient, gradients, caches)."""
    logits, caches = net.forward_with_cache(x)
    _, probs = softmax_xent_batch(logits, labels)
    grad_x, grads = net.backward(caches, softmax_xent_batch_gradient(probs, labels), input_grad=input_grad)
    return grad_x, grads, caches


def test_training_step_consumes_caches_and_keeps_gradient_bytes():
    """Skipping the input gradient changes no parameter gradient byte; backward empties the caches."""
    x = Rng(13).normal((2, 20, 80, 40, 1))
    labels = np.array([1, 2])
    grad_x, full, caches = _training_step(_trained_like_3dcnn(20), x, labels, input_grad=True)
    assert caches == [] and grad_x.shape == x.shape
    grad_x, skipped, caches = _training_step(_trained_like_3dcnn(20), x, labels, input_grad=False)
    assert caches == [] and grad_x is None
    assert len(full) == len(skipped)
    for a, b in zip(full, skipped):
        assert set(a) == set(b)
        for field in a:
            assert np.array_equal(a[field], b[field]), field


def test_training_step_peak_memory():
    """One zeta=20, batch-2 step holds at most 110 MiB of Python-allocated arrays at its peak."""
    net = build_network("cnn3d", 20, 4, Rng(0))
    x = Rng(1).normal((2, *net.spec.input_shape))
    tracemalloc.start()
    try:
        _training_step(net, x, np.array([0, 3]), input_grad=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 110 * 2**20


def test_training_step_peak_memory_without_prelu_copies():
    """The same step as above peaks at most at 70 MiB: no PReLU keeps a copy of its batchnorm's output."""
    net = build_network("cnn3d", 20, 4, Rng(0))
    x = Rng(1).normal((2, *net.spec.input_shape))
    tracemalloc.start()
    try:
        _training_step(net, x, np.array([0, 3]), input_grad=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 70 * 2**20


def test_training_step_peak_memory_writing_over_owned_arrays():
    """The same step peaks at most at 52 MiB: each layer writes over the full-size arrays the pass made and reads no more.

    Batchnorm and PReLU write over the conv output, their backward passes
    over grad_out, with no full-size scratch, and the conv after a PReLU
    recomputes its input and accumulates its input gradient there.
    """
    net = build_network("cnn3d", 20, 4, Rng(0))
    x = Rng(1).normal((2, *net.spec.input_shape))
    tracemalloc.start()
    try:
        _training_step(net, x, np.array([0, 3]), input_grad=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 52 * 2**20


@pytest.mark.parametrize(
    "bounded",
    [
        test_training_step_peak_memory,
        test_training_step_peak_memory_without_prelu_copies,
        test_training_step_peak_memory_writing_over_owned_arrays,
    ],
)
def test_training_step_memory_bounds_hold_at_the_worker_cap(monkeypatch, bounded):
    """Each worker holds its own scratch: the bounds above hold at the most workers svkit starts on any host."""
    monkeypatch.setattr(layers_module, "_WORKERS", layers_module._MAX_WORKERS)
    bounded()


def test_backward_twice_over_one_cache_list_raises():
    net = build_network("cnn3d", 3, 3, Rng(0), widths=(2, 2, 2, 2, 6))
    logits, caches = net.forward_with_cache(Rng(1).normal((2, 3, 80, 40, 1)))
    net.backward(caches, np.ones_like(logits))
    with pytest.raises(SvkitError):
        net.backward(caches, np.ones_like(logits))


def _pre_norm(net, x):
    head_input = net._run(x[None], net.layers[:-1])
    return float(np.linalg.norm(head_input[0]))


class TestCheckpoints:
    def _checkpoint(self, seed=0):
        net = build_network("cnn3d", 3, 3, Rng(seed), widths=(2, 2, 2, 2, 6))
        return Checkpoint.of(net, epoch=4, seed=seed)

    def test_save_load_save_byte_identical(self, tmp_path):
        ck = self._checkpoint()
        save_checkpoint(ck, tmp_path / "a.svck")
        loaded = load_checkpoint(tmp_path / "a.svck")
        save_checkpoint(loaded, tmp_path / "b.svck")
        assert (tmp_path / "a.svck").read_bytes() == (tmp_path / "b.svck").read_bytes()

    def test_parameters_round_trip_bitwise(self, tmp_path):
        ck = self._checkpoint()
        save_checkpoint(ck, tmp_path / "a.svck")
        loaded = load_checkpoint(tmp_path / "a.svck")
        assert loaded.spec == ck.spec
        assert loaded.epoch == 4 and loaded.seed == 0
        for a, b in zip(ck.layers, loaded.layers):
            assert a.kind == b.kind and a.name == b.name
            for field, arr in a.learnable():
                assert np.array_equal(arr, getattr(b, field))

    def test_corrupt_payload_byte_raises_checksum(self, tmp_path):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = bytearray((tmp_path / "a.svck").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (tmp_path / "c.svck").write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_checkpoint(tmp_path / "c.svck")

    @pytest.mark.parametrize("offset", [12, 13])
    def test_corrupt_header_byte_raises_checkpoint_error(self, tmp_path, offset):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = bytearray((tmp_path / "a.svck").read_bytes())
        for flip in (0x01, 0xFF):  # breaks the JSON syntax / the UTF-8 decoding
            bad = bytearray(raw)
            bad[offset] ^= flip
            (tmp_path / "h.svck").write_bytes(bytes(bad))
            with pytest.raises(CheckpointError):
                load_checkpoint(tmp_path / "h.svck")

    def test_empty_file_raises_truncation(self, tmp_path):
        (tmp_path / "e.svck").write_bytes(b"")
        with pytest.raises(TruncatedFileError):
            load_checkpoint(tmp_path / "e.svck")

    def test_cut_file_raises_truncation(self, tmp_path):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = (tmp_path / "a.svck").read_bytes()
        (tmp_path / "t.svck").write_bytes(raw[: len(raw) - 100])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(tmp_path / "t.svck")

    def test_version_mismatch(self, tmp_path):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = bytearray((tmp_path / "a.svck").read_bytes())
        for version in (1, 2, 99):  # 1 and 2 are previous formats, which are not read
            raw[4] = version
            (tmp_path / "v.svck").write_bytes(bytes(raw))
            with pytest.raises(VersionMismatchError):
                load_checkpoint(tmp_path / "v.svck")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda h: h.pop("zeta"),
            lambda h: h.pop("layout"),
            lambda h: h["widths"].__setitem__(0, 2.0),
            lambda h: h["widths"].__setitem__(0, -2),
            lambda h: h["widths"].pop(),
            lambda h: h.update(widths=5),
            lambda h: h.update(n_classes="3"),
            lambda h: h.update(layout=str(h["layout"])),
            lambda h: h.update(kind="cnn2d"),
            lambda h: h.update(n_classes=10**16),  # more than any address space maps
        ],
        ids=[
            "no_zeta",
            "no_layout",
            "float_width",
            "negative_width",
            "missing_width",
            "scalar_widths",
            "string_n_classes",
            "string_layout",
            "unknown_kind",
            "huge_n_classes",
        ],
    )
    def test_malformed_header_with_valid_crc_raises_checkpoint_error(self, tmp_path, damage):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = (tmp_path / "a.svck").read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12 : 12 + hlen])
        damage(header)
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = raw[:8] + struct.pack("<I", len(hjson)) + hjson + raw[12 + hlen : -4]
        (tmp_path / "m.svck").write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(tmp_path / "m.svck")

    def test_loaded_network_forward_identical(self, tmp_path):
        ck = self._checkpoint()
        x = Rng(9).normal((3, 80, 40, 1))
        before = forward_logits(ck.to_network(), x[None])
        save_checkpoint(ck, tmp_path / "a.svck")
        after = forward_logits(load_checkpoint(tmp_path / "a.svck").to_network(), x[None])
        np.testing.assert_array_equal(before, after)

    def test_summary_mentions_every_layer(self):
        net = build_network("cnn3d", 20, 6, Rng(0))
        text = net.summary()
        for name in EXPECTED_CHAIN_20:
            assert name in text
