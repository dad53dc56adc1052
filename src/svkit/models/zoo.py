"""The two concrete speaker networks, built by one `build_network`.

`cnn3d` is the stacked-utterance convolutional network: four pairs of
factorized (depth x time x 1 / depth x 1 x freq) kernels with frequency-only
max pooling, batchnorm after every convolution, PReLU after every weighted
layer except the classifier head, and an embedding layer. `lcn_dvector` is
the map-level baseline: one locally connected layer over 8x8 patches
followed by three fully connected layers and the softmax head.

`undrawn_network` is the one description of each network's layers and
arrays: `build_network` draws its weights, and `load_checkpoint` fills it
from a file. Both take the same `widths` tuple, which `NetworkSpec.widths`
and the checkpoint header hold; `DEFAULT_WIDTHS` has svkit's.
"""

from __future__ import annotations

import math

import numpy as np

from ..dsp.features import N_COEFFS, N_FRAMES
from ..errors import ConfigError
from ..nn.init import variance_scaling_init
from ..nn.layers import LayerParams
from ..rng import Rng
from .network import Network, NetworkSpec, _infer_shape

# (name, (kD, kH, kW), output-channel group index, (sD, sH, sW)); pools follow
# the second convolution of groups 1 and 2.
_CNN3D_LAYOUT = (
    ("conv1_1", (3, 1, 5), 0, (1, 1, 1)),
    ("conv1_2", (3, 9, 1), 0, (1, 2, 1)),
    ("pool1",),
    ("conv2_1", (3, 1, 4), 1, (1, 1, 1)),
    ("conv2_2", (3, 8, 1), 1, (1, 2, 1)),
    ("pool2",),
    ("conv3_1", (3, 1, 3), 2, (1, 1, 1)),
    ("conv3_2", (3, 7, 1), 2, (1, 1, 1)),
    ("conv4_1", (3, 1, 3), 3, (1, 1, 1)),
    ("conv4_2", (3, 7, 1), 3, (1, 1, 1)),
)

# Valid depth convolution consumes 2 frames per conv layer (8 convs -> 16);
# shallower stacks keep their depth via same-padding on every conv.
MIN_DEPTH_FOR_VALID = 17

PRELU_INIT_SLOPE = 0.25

# Side of the square map patches the baseline's locally connected layer covers.
LCN_PATCH = 8


def _conv_layer(name, kext, cin, cout, stride, pad_depth) -> LayerParams:
    return LayerParams(
        kind="conv3d",
        name=name,
        weights=np.zeros((*kext, cin, cout)),
        bias=np.zeros(cout),
        stride=stride,
        pad_depth=pad_depth,
    )


def _batchnorm_layer(name, channels) -> LayerParams:
    # Running stats start at (0, 1), so a freshly initialized network can
    # already run inference (e.g. zero-epoch smoke runs); training folds real
    # batch statistics into them.
    return LayerParams(
        kind="batchnorm",
        name=name,
        bn_scale=np.ones(channels),
        bn_shift=np.zeros(channels),
        bn_running_mean=np.zeros(channels),
        bn_running_var=np.ones(channels),
    )


def _prelu_layer(name, channels) -> LayerParams:
    return LayerParams(kind="prelu", name=name, prelu_slope=np.full(channels, PRELU_INIT_SLOPE))


def _dense_layer(kind, name, fan_in, fan_out) -> LayerParams:
    return LayerParams(kind=kind, name=name, weights=np.zeros((fan_in, fan_out)), bias=np.zeros(fan_out))


def _cnn3d_layers(spec: NetworkSpec) -> list[LayerParams]:
    """Depth convolution is valid when the stack is deep enough to survive all
    eight convolutions, and same-padded otherwise (keeping the depth extent at
    zeta throughout)."""
    c1, c2, c3, c4, embedding_width = spec.widths
    channel_widths = (c1, c2, c3, c4)
    pad_depth = spec.zeta < MIN_DEPTH_FOR_VALID
    layers: list[LayerParams] = []
    shape = spec.input_shape  # the running shape chain sets each fan-in
    for entry in _CNN3D_LAYOUT:
        if len(entry) == 1:
            layer = LayerParams(kind="maxpool_freq", name=entry[0], stride=(1, 1, 2))
        else:
            name, kext, group, stride = entry
            layer = _conv_layer(name, kext, shape[-1], channel_widths[group], stride, pad_depth)
        layers.append(layer)
        shape = _infer_shape(layer, shape)
        if layer.kind == "conv3d":
            layers.append(_batchnorm_layer(layer.name + "_bn", shape[-1]))
            layers.append(_prelu_layer(layer.name + "_act", shape[-1]))
    layers.append(LayerParams(kind="flatten", name="flatten"))
    shape = _infer_shape(layers[-1], shape)
    layers.append(_dense_layer("fully_connected", "fc5", shape[0], embedding_width))
    layers.append(_prelu_layer("fc5_act", embedding_width))
    layers.append(_dense_layer("softmax", "output", embedding_width, spec.n_classes))
    return layers


def _lcn_layers(spec: NetworkSpec) -> list[LayerParams]:
    units_per_patch, hidden_width = spec.widths
    grid_h = -(-N_FRAMES // LCN_PATCH)
    grid_w = -(-N_COEFFS // LCN_PATCH)
    lc = LayerParams(
        kind="locally_connected",
        name="local1",
        weights=np.zeros((grid_h, grid_w, units_per_patch, LCN_PATCH, LCN_PATCH)),
        bias=np.zeros((grid_h, grid_w, units_per_patch)),
    )
    lc_out = grid_h * grid_w * units_per_patch
    layers = [lc, _prelu_layer("local1_act", lc_out)]
    fan_in = lc_out
    for i in range(1, 4):
        layers.append(_dense_layer("fully_connected", f"fc{i}", fan_in, hidden_width))
        layers.append(_prelu_layer(f"fc{i}_act", hidden_width))
        fan_in = hidden_width
    layers.append(_dense_layer("softmax", "output", fan_in, spec.n_classes))
    return layers


# svkit's widths per kind, in the order `widths` takes them: the cube network's
# four channel groups and its embedding, the baseline's units per patch and
# its hidden width.
DEFAULT_WIDTHS = {"cnn3d": (16, 32, 64, 128, 128), "lcn_dvector": (16, 256)}


def undrawn_network(kind: str, zeta: int, n_classes: int, widths: tuple[int, ...]) -> Network:
    """The `kind` network with these settings and its weights zero, not yet drawn.

    The cube network reads (zeta, 80, 40, 1) cubes. The map-level baseline
    reads one 80x40 map, so its zeta is 1 whatever is asked.
    """
    if kind == "cnn3d":
        spec = NetworkSpec(kind, (zeta, N_FRAMES, N_COEFFS, 1), n_classes, zeta, widths)
        return Network(spec, _cnn3d_layers(spec))
    if kind == "lcn_dvector":
        spec = NetworkSpec(kind, (N_FRAMES, N_COEFFS), n_classes, 1, widths)
        return Network(spec, _lcn_layers(spec))
    raise ConfigError(f"unknown model kind {kind!r} (expected 'cnn3d' or 'lcn_dvector')")


def build_network(
    kind: str, zeta: int, n_classes: int, rng: Rng, widths: tuple[int, ...] | None = None
) -> Network:
    """The `kind` network with every weight array drawn by variance scaling from `rng`, in layer order.

    `widths` defaults to `DEFAULT_WIDTHS[kind]`.
    """
    if widths is None:
        widths = DEFAULT_WIDTHS.get(kind, ())  # an unknown kind fails in undrawn_network
    network = undrawn_network(kind, zeta, n_classes, widths)
    for layer in network.layers:
        if layer.weights is not None:
            shape = layer.weights.shape
            # a locally connected unit sees one patch; every other kind sees all but its output axis
            fan_in = math.prod(shape[3:] if layer.kind == "locally_connected" else shape[:-1])
            layer.weights = variance_scaling_init(shape, fan_in, rng)
    return network
