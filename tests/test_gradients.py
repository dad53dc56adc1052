"""Analytic backward passes against central finite differences."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import finite_diff_check, max_relative_error, numeric_gradient
from svkit.errors import ConfigError
from svkit.models import network as network_module
from svkit.models.zoo import build_3dcnn
from svkit.nn.layers import (
    LayerParams,
    batchnorm_backward,
    batchnorm_forward,
    conv3d_backward,
    conv3d_forward,
    fully_connected_backward,
    fully_connected_forward,
    locally_connected_backward,
    locally_connected_forward,
    maxpool_freq_backward,
    maxpool_freq_forward,
    prelu_backward,
    prelu_forward,
    softmax_xent_batch,
    softmax_xent_batch_gradient,
)
from svkit.nn.optim import SgdMomentum, sgd_momentum_step
from svkit.nn.init import variance_scaling_init
from svkit.rng import Rng

EPS = 1e-6


def check_layer(forward, backward, x, params, param_arrays, rng, nudge=0.0):
    """Compare analytic gradients of sum(output * R) with central differences."""
    if nudge:
        x = x + nudge * np.sign(x)  # keep activations away from kinks
    proj = rng.normal(forward(x).shape)

    def loss():
        return float((forward(x) * proj).sum())

    gx, grads = backward(x, proj)
    worst = max_relative_error(gx, numeric_gradient(loss, x, EPS))
    for field, arr in param_arrays.items():
        worst = max(worst, max_relative_error(grads[field], numeric_gradient(loss, arr, EPS)))
    return worst


def test_conv3d_gradients(rng):
    x = rng.normal((4, 5, 6, 2))[None]
    w = rng.normal((3, 2, 3, 2, 3))
    b = rng.normal((3,))
    lp = LayerParams(kind="conv3d", weights=w, bias=b, stride=(1, 2, 1))
    err = check_layer(
        lambda x_: conv3d_forward(x_, lp),
        lambda x_, g: conv3d_backward(x_, lp, g),
        x,
        lp,
        {"weights": w, "bias": b},
        rng.child(1),
    )
    assert err < 1e-6


def test_conv3d_single_element_kernel_gradcheck(rng):
    x = rng.normal((3, 3, 3, 1))[None]
    w = rng.normal((1, 1, 1, 1, 1))
    lp = LayerParams(kind="conv3d", weights=w, bias=np.zeros(1))
    err = check_layer(
        lambda x_: conv3d_forward(x_, lp),
        lambda x_, g: conv3d_backward(x_, lp, g),
        x,
        lp,
        {"weights": w},
        rng.child(1),
    )
    assert err < 1e-6


def test_conv3d_zero_grad_out_gives_zero_gradients(rng):
    x = rng.normal((4, 4, 4, 2))[None]
    w = rng.normal((3, 1, 3, 2, 2))
    lp = LayerParams(kind="conv3d", weights=w, bias=np.zeros(2))
    y = conv3d_forward(x, lp)
    gx, grads = conv3d_backward(x, lp, np.zeros_like(y))
    assert not gx.any() and not grads["weights"].any() and not grads["bias"].any()


def test_maxpool_gradients_and_tie_break(rng):
    x = rng.normal((2, 3, 6, 2))[None]
    proj = rng.normal((2, 3, 3, 2))[None]

    def loss():
        return float((maxpool_freq_forward(x)[0] * proj).sum())

    gx = maxpool_freq_backward(proj, maxpool_freq_forward(x)[1], x.shape[3])
    assert max_relative_error(gx, numeric_gradient(loss, x, EPS)) < 1e-6

    # exact tie: gradient routes to the first element of the window
    tied = np.zeros((1, 1, 1, 2, 1))
    _, idx = maxpool_freq_forward(tied)
    g = maxpool_freq_backward(np.ones((1, 1, 1, 1, 1)), idx, tied.shape[3])[0]
    assert g[0, 0, 0, 0] == 1.0 and g[0, 0, 1, 0] == 0.0


def test_prelu_gradients_away_from_zero(rng):
    x = rng.normal((5, 4))
    slope = np.full(4, 0.25)
    err = check_layer(
        lambda x_: prelu_forward(x_, slope),
        lambda x_, g: prelu_backward(x_, slope, g),
        x,
        None,
        {"prelu_slope": slope},
        rng.child(1),
        nudge=1e-3,
    )
    assert err < 1e-6


def test_batchnorm_gradients_full_train_mode(rng):
    x = rng.normal((6, 5))
    lp = LayerParams(
        kind="batchnorm",
        bn_scale=rng.normal((5,), mean=1.0, std=0.1),
        bn_shift=rng.normal((5,), std=0.1),
        bn_running_mean=np.zeros(5),
        bn_running_var=np.ones(5),
    )

    def backward(x_, g):
        cache = {}
        batchnorm_forward(x_, lp, cache)
        return batchnorm_backward(lp, g, cache)

    err = check_layer(
        lambda x_: batchnorm_forward(x_, lp, {}),
        backward,
        x,
        lp,
        {"bn_scale": lp.bn_scale, "bn_shift": lp.bn_shift},
        rng.child(1),
    )
    assert err < 1e-5  # and comfortably under the per-layer bound below
    assert err < 1e-6


def test_batchnorm_train_normalizes_per_channel(rng):
    # output variance is var/(var+eps); keep var >> eps so it sits within 1e-6 of 1
    x = rng.normal((64, 3), mean=5.0, std=4.0)
    lp = LayerParams(
        kind="batchnorm",
        bn_scale=np.ones(3),
        bn_shift=np.zeros(3),
        bn_running_mean=np.zeros(3),
        bn_running_var=np.ones(3),
    )
    y = batchnorm_forward(x, lp, {})
    assert np.abs(y.mean(axis=0)).max() < 1e-10
    assert np.abs(y.var(axis=0) - 1.0).max() < 1e-6


def test_batchnorm_infer_identity_with_unit_stats():
    lp = LayerParams(
        kind="batchnorm",
        bn_scale=np.ones(3),
        bn_shift=np.zeros(3),
        bn_running_mean=np.zeros(3),
        bn_running_var=np.ones(3),
    )
    x = np.array([[0.5, -1.0, 2.0]])
    eps = 1e-5
    np.testing.assert_allclose(batchnorm_forward(x, lp), x / np.sqrt(1 + eps), rtol=1e-12)


def test_fully_connected_gradients(rng):
    x = rng.normal((5,))[None]
    w = rng.normal((5, 3))
    b = rng.normal((3,))
    lp = LayerParams(kind="fully_connected", weights=w, bias=b)
    err = check_layer(
        lambda x_: fully_connected_forward(x_, lp),
        lambda x_, g: fully_connected_backward(x_, lp, g),
        x,
        lp,
        {"weights": w, "bias": b},
        rng.child(1),
    )
    assert err < 1e-8  # linear layer, quadratic objective: exact up to roundoff


def test_locally_connected_gradients(rng):
    x = rng.normal((11, 13))[None]
    w = rng.normal((2, 2, 3, 8, 8))
    b = rng.normal((2, 2, 3))
    lp = LayerParams(kind="locally_connected", weights=w, bias=b)
    err = check_layer(
        lambda x_: locally_connected_forward(x_, lp),
        lambda x_, g: locally_connected_backward(x_, lp, g),
        x,
        lp,
        {"weights": w, "bias": b},
        rng.child(1),
    )
    assert err < 1e-6


def test_softmax_gradient_matches_finite_differences(rng):
    logits = rng.normal((4, 7))
    labels = np.array([3, 0, 3, 6])  # a repeated label, as in a training batch
    _, probs = softmax_xent_batch(logits, labels)
    analytic = softmax_xent_batch_gradient(probs, labels)

    def loss():
        return softmax_xent_batch(logits, labels)[0]

    assert max_relative_error(analytic, numeric_gradient(loss, logits, EPS)) < 1e-6


# -- optimizer ---------------------------------------------------------------


def test_sgd_single_step_no_momentum():
    p, v = sgd_momentum_step(np.array([0.0]), np.array([1.0]), np.array([0.0]), lr=1.0, momentum=0.0)
    assert p[0] == -1.0 and v[0] == -1.0


def test_sgd_zero_gradient_decays_velocity():
    p, v = sgd_momentum_step(np.array([2.0]), np.array([0.0]), np.array([1.0]), lr=0.5, momentum=0.9)
    assert p[0] == pytest.approx(2.9) and v[0] == pytest.approx(0.9)


def test_sgd_two_steps_match_hand_recurrence():
    lr, mom = 0.1, 0.9
    p = np.array([1.0])
    v = np.array([0.0])
    for g in (0.5, -0.25):
        p, v = sgd_momentum_step(p, np.array([g]), v, lr, mom)
    # hand: v1 = -0.05, p1 = 0.95; v2 = 0.9*(-0.05) + 0.025 = -0.02, p2 = 0.93
    assert v[0] == pytest.approx(-0.02, abs=1e-15)
    assert p[0] == pytest.approx(0.93, abs=1e-15)


def test_sgd_class_updates_layer_params(rng):
    lp = LayerParams(kind="fully_connected", weights=np.ones((2, 2)), bias=np.zeros(2))
    opt = SgdMomentum(lr=0.5, momentum=0.0)
    opt.step([lp], [{"weights": np.ones((2, 2)), "bias": np.ones(2)}])
    np.testing.assert_allclose(lp.weights, 0.5 * np.ones((2, 2)))
    np.testing.assert_allclose(lp.bias, -0.5 * np.ones(2))


# -- initialization -----------------------------------------------------------


def test_sgd_shape_mismatch_rejected():
    from svkit.errors import DimensionError

    with pytest.raises(DimensionError):
        sgd_momentum_step(np.zeros(3), np.zeros(4), np.zeros(3), lr=0.1, momentum=0.0)


def test_sgd_hyperparameter_validation():
    with pytest.raises(ConfigError):
        SgdMomentum(lr=0.0)
    with pytest.raises(ConfigError):
        SgdMomentum(lr=0.1, momentum=1.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_sgd_non_finite_lr_rejected(lr):
    with pytest.raises(ConfigError, match="finite and positive"):
        SgdMomentum(lr=lr)


def test_numeric_gradient_eps_bounds(rng):
    x = rng.normal((3,))
    with pytest.raises(ConfigError):
        numeric_gradient(lambda: float(x.sum()), x, eps=1e-2)
    with pytest.raises(ConfigError):
        numeric_gradient(lambda: float(x.sum()), x, eps=0.0)


def test_variance_scaling_statistics():
    samples = variance_scaling_init((10**5,), fan_in=2, rng=Rng(0))
    assert abs(samples.std() - 1.0) < 0.02
    assert abs(samples.mean()) < 0.02


def test_variance_scaling_fc5_std():
    target = math.sqrt(2.0 / 4608)
    assert target == pytest.approx(1.0 / 48, rel=1e-12)
    samples = variance_scaling_init((200, 128), fan_in=4608, rng=Rng(3))
    assert abs(samples.std() - target) < 0.02 * target


def test_rng_determinism():
    a = variance_scaling_init((64,), 9, Rng(42))
    b = variance_scaling_init((64,), 9, Rng(42))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, variance_scaling_init((64,), 9, Rng(43)))


def test_rng_child_streams_stable():
    assert np.array_equal(Rng(5).child(1, 2).normal((4,)), Rng(5).child(1, 2).normal((4,)))
    assert not np.array_equal(Rng(5).child(1, 2).normal((4,)), Rng(5).child(2, 1).normal((4,)))


# -- whole-network check ------------------------------------------------------


@pytest.mark.slow
def test_full_reduced_stack_gradient_check():
    net = build_3dcnn(2, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=6)
    x = Rng(5).normal((2, 80, 40, 1))[None]
    assert finite_diff_check(net, x, [1], eps=EPS) < 1e-4


@pytest.mark.slow
def test_full_stack_check_catches_a_scaled_gradient(monkeypatch):
    """The checker is not vacuous: one layer kind's weight gradient off by 1e-3 fails the 1e-4 bound."""
    kind = network_module._KINDS["softmax"]

    def scaled_backward(layer, *args):
        g, grads = kind.backward(layer, *args)
        return g, {**grads, "weights": grads["weights"] * (1 + 1e-3)}

    monkeypatch.setitem(network_module._KINDS, "softmax", replace(kind, backward=scaled_backward))
    net = build_3dcnn(1, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=6)
    x = Rng(5).normal((1, 80, 40, 1))[None]
    assert finite_diff_check(net, x, [1], eps=EPS) > 1e-4
