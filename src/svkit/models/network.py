"""Network container: an ordered layer list with forward, backward, and embed.

The final layer is always the softmax classifier head; `forward_with_cache`
returns its logits (the softmax nonlinearity is fused into the loss for
stability), and `embed_vectors` returns the L2-normalized activations feeding
that head. Every entry point takes batches, with one leading batch axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..errors import ConfigError, DimensionError, NumericError
from ..nn.layers import (
    LayerParams,
    assert_finite,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_output,
    batchnorm_running_inv,
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
)

EMBED_BATCH = 32  # inputs per forward pass in embed_vectors


@dataclass(frozen=True)
class NetworkSpec:
    kind: str  # "cnn3d" | "lcn_dvector"
    input_shape: tuple[int, ...]  # per example, batch axis excluded
    n_classes: int
    zeta: int  # stacked utterance maps per cube (1 for the map-level baseline)
    widths: tuple[int, ...]  # the builder's layer widths (see models.zoo)

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 development speakers, got {self.n_classes}")
        if self.zeta < 1:
            raise ConfigError(f"stack depth must be >= 1, got {self.zeta}")
        if not all(type(w) is int and w >= 1 for w in self.widths):
            raise ConfigError(f"layer widths must be positive integers, got {self.widths}")


class Network:
    def __init__(self, spec: NetworkSpec, layers: list[LayerParams]):
        if not layers or layers[-1].kind != "softmax":
            raise ConfigError("network must end in a softmax classifier layer")
        self.spec = spec
        self.layers = layers

    # -- forward ---------------------------------------------------------

    def _run(self, xb, layers, caches: list | None = None):
        """Run `layers` in order: a train pass with `caches`, an inference pass without.

        A train pass appends each layer's backward cache to `caches`, and
        batchnorm normalizes with the batch statistics and folds them into
        its running averages. An inference pass keeps no cache, normalizes
        with the running statistics, and changes no layer. Either pass owns
        every activation it makes, and a layer writes over a full-size array
        the pass made when nothing reads that array again: in a train pass,
        batchnorm writes over its input (a conv output) and a PReLU whose
        cache keeps no copy of its input writes over it; in an inference
        pass every PReLU does. The caller passes an `xb` an inference pass
        may overwrite; forward_with_cache passes a read-only view, so that a
        train pass leaves the caller's input alone.

        A layer that reads its input keeps it as cache["x"], unless the layer
        before it can recompute its output (`_Kind.output`) from a cache that
        keeps no copy of its own input: then it keeps cache["from"] = (that
        kind, layer, cache entry) and no array.
        """
        source = None  # (kind, layer, cache entry) of the layer just run, if it can recompute its output
        for layer in layers:
            kind = _KINDS[layer.kind]
            entry = None
            if caches is not None:
                if not kind.reads_input:
                    entry = {}
                elif source:
                    entry = {"from": source}
                else:
                    entry = {"x": xb}
                caches.append(entry)
                source = (kind, layer, entry) if kind.output and "x" not in entry else None
            xb = kind.forward(layer, xb, entry)
        return xb

    def forward_with_cache(self, x):
        """Train-mode logits plus each layer's backward cache, in layer order.

        Each batchnorm folds the batch statistics into its running averages.
        A cache holds only what that layer's backward reads: the layer input
        for conv, PReLU, dense and locally-connected layers; the normalized
        input and 1/sqrt(var + eps) (not the input) for batchnorm; the window
        argmaxes and input width for the frequency pool; the input shape for
        flatten. The PReLU after a batchnorm holds no array: its cache refers
        to the batchnorm's layer and cache, and it writes its output over the
        batchnorm's. The conv after that PReLU holds no array either: its
        cache refers to the PReLU's, and its backward recomputes its input
        from the batchnorm's normalized input. `backward` consumes the list
        and computes the first layer's input gradient only on request. `x` is
        left unchanged.
        """
        xb = np.asarray(x, dtype=np.float64)
        if xb.shape[1:] != self.spec.input_shape:
            raise DimensionError(f"input shape {xb.shape} is not a batch of network inputs {self.spec.input_shape}")
        xb = xb.view()
        xb.flags.writeable = False  # the caller's: a layer that wrote over it would raise
        caches: list[dict] = []
        return self._run(xb, self.layers, caches), caches

    # -- backward --------------------------------------------------------

    def backward(self, caches: list[dict], grad_logits: np.ndarray, input_grad: bool = True):
        """Per-layer parameter gradients plus the gradient w.r.t. the input.

        Consumes `caches` from forward_with_cache: each layer's entry is taken
        off the list and released once that layer's backward has run, so the
        list is empty afterwards and a step holds only what is still to be
        read; a second backward over it raises ConfigError. Every gradient
        between layers is an array this call made, so PReLU and batchnorm
        write their input gradient over their grad_out, and a conv
        accumulates its input gradient in its input when the pass made that
        input (see _conv_backward). The first layer's input gradient is
        computed only on request: with `input_grad` off (training, which
        discards it) the input gradient is None, and a conv first layer
        skips its products. `grad_logits` is left unchanged.
        """
        if len(caches) != len(self.layers):
            raise ConfigError(
                f"backward needs one cache per layer ({len(self.layers)}), got {len(caches)}; "
                "each forward_with_cache result can be used by one backward only"
            )
        grads: list[dict] = []
        g = np.asarray(grad_logits, dtype=np.float64)
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            cache = caches.pop()
            g, layer_grads = _KINDS[layer.kind].backward(layer, g, cache, input_grad or i > 0)
            grads.append(layer_grads)
        return (g if input_grad else None), grads[::-1]

    # -- embeddings --------------------------------------------------------

    def embed_vectors(self, inputs) -> np.ndarray:
        """Unit-norm rows of penultimate activations for a list of inputs, EMBED_BATCH at a time.

        The inference pass runs on this call's weights with each batchnorm
        folded into the conv before it (_bn_folded), and with PReLU in place
        (see _run); the embeddings agree with the unfolded layer list to
        within 1e-12. A batch whose every input is a depth-replicated cube
        (all depth slices equal, as a single test utterance is) runs through
        the depth-collapsed folded layers on one slice when the network's
        depth convolution is valid; they are built for the first such batch.
        Any other batch runs through the whole folded list. `inputs` are left
        unchanged.
        """
        inputs = list(inputs)
        layers = _bn_folded(self.layers[:-1])
        collapsed = functools.cache(lambda: _depth_collapsed(layers, self.spec.input_shape))
        rows = []
        for start in range(0, len(inputs), EMBED_BATCH):
            batch = [np.asarray(v, dtype=np.float64) for v in inputs[start : start + EMBED_BATCH]]
            replicated = all(v.shape == self.spec.input_shape and (v == v[:1]).all() for v in batch)
            if replicated and collapsed() is not None:
                rows.append(self._run(np.stack([v[:1] for v in batch]), collapsed()))
            else:
                # pass the stacked batch without holding a name to it, so it is freed after the first layer
                rows.append(self._run(np.stack(batch), layers))
        vecs = np.concatenate(rows) if rows else np.zeros((0, 0))
        assert_finite(vecs, "embeddings")
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise NumericError("zero-norm embedding cannot be normalized")
        return vecs / norms

    # -- shape bookkeeping -------------------------------------------------

    def layer_output_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, per-example output shape) for every layer, by shape inference."""
        shape = self.spec.input_shape
        out = []
        for layer in self.layers:
            shape = _infer_shape(layer, shape)
            out.append((layer.name or layer.kind, shape))
        return out

    def parameter_count(self) -> int:
        return sum(layer.parameter_count() for layer in self.layers)

    def summary(self) -> str:
        """Human-readable per-layer table: name, kind, output shape, kernel, stride."""
        rows = [("layer", "kind", "output", "kernel", "stride", "params")]
        for layer, (name, shape) in zip(self.layers, self.layer_output_shapes()):
            kernel = "x".join(map(str, layer.weights.shape[:3])) if layer.kind == "conv3d" else "-"
            stride = "x".join(map(str, layer.stride)) if layer.kind in ("conv3d", "maxpool_freq") else "-"
            rows.append(
                (name, layer.kind, "x".join(map(str, shape)), kernel, stride, str(layer.parameter_count()))
            )
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def _infer_shape(layer: LayerParams, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-example output shape of `layer` for a per-example input `shape`."""
    return _KINDS[layer.kind].shape(layer, shape)


def _bn_folded(layers: list[LayerParams]) -> list[LayerParams]:
    """`layers` for an inference pass, each conv3d → batchnorm pair made one conv.

    Inference batchnorm is the per-channel affine map ((y - mean) * scale) *
    inv + shift, so it folds into the conv before it: weights W * a, with
    a = scale * inv, and as bias the inference batchnorm of the conv's bias.
    The output agrees with the pair's to rounding; padding is on the conv's
    input side, so a same-pad conv folds alike. The layers are new objects;
    `layers` is left unchanged.
    """
    out: list[LayerParams] = []
    for layer in layers:
        if layer.kind == "batchnorm" and out and out[-1].kind == "conv3d":
            conv = out.pop()
            out.append(
                replace(
                    conv,
                    weights=conv.weights * (layer.bn_scale * batchnorm_running_inv(layer)),
                    bias=batchnorm_forward(conv.bias[None], layer)[0],
                )
            )
        else:
            out.append(layer)
    return out


def _depth_collapsed(layers: list[LayerParams], input_shape) -> list[LayerParams] | None:
    """`layers` rewritten to act on one depth slice of a depth-constant cube, or None.

    With valid depth convolution (no depth padding, depth stride 1), every
    output slice of a conv fed equal slices is the one slice convolved with
    the kernel summed over depth, so a depth-1 conv with that kernel gives it.
    Uncached batchnorm, PReLU and the frequency pool act per slice. The
    dense layer after `flatten` sees the same block repeated once per depth
    slice, so its weights are summed over those blocks. Later layers see the
    same vectors as on the full path and are kept. None when `layers` has no
    such form (same-pad depth, no conv front, or another layer kind).
    """
    shape = input_shape
    out = []
    for i, layer in enumerate(layers):
        if layer.kind == "flatten":
            if i + 1 == len(layers) or layers[i + 1].kind != "fully_connected":
                return None
            fc = layers[i + 1]
            w = fc.weights.reshape(shape[0], -1, fc.weights.shape[1]).sum(axis=0)
            return out + [layer, replace(fc, weights=w)] + layers[i + 2 :]
        if layer.kind == "conv3d" and not layer.pad_depth and layer.stride[0] == 1:
            out.append(replace(layer, weights=layer.weights.sum(axis=0, keepdims=True)))
        elif out and layer.kind in ("batchnorm", "prelu", "maxpool_freq"):
            out.append(layer)
        else:
            return None
        shape = _infer_shape(layer, shape)
    return None


@dataclass(frozen=True)
class _Kind:
    """What Network needs to know about one layer kind.

    forward(layer, x, cache) -> y: a train pass with a cache dict to fill
        for backward, an inference pass with None; y may be written over x
        (see Network._run)
    backward(layer, grad_out, cache, input_grad) -> (grad_in, parameter
        gradients); grad_in may be written over grad_out
    shape(layer, per-example input shape) -> per-example output shape
    reads_input: whether backward reads the layer input (see _layer_input)
    output(layer, cache) -> the train-mode output, recomputed from the
        layer's own cache into an array of this call's own; when the cache
        keeps no copy of the layer's input, the layer after it keeps no
        copy of its input either

    `input_grad` off allows, but does not require, grad_in to be skipped.
    The recomputed output must be byte-equal to what forward returned;
    backward runs before any parameter changes, so it reads the same
    parameters.

    Entries call the layer functions through this module's globals on every
    call, so rebinding one of those names (e.g. to wrap it) takes effect.
    """

    forward: Callable
    backward: Callable
    shape: Callable
    reads_input: bool = True
    output: Callable | None = None


def _layer_input(cache):
    """The layer input a backward reads: cache["x"], or recomputed by the layer before it into a fresh array."""
    if "x" in cache:
        return cache["x"]
    kind, layer, entry = cache["from"]
    return kind.output(layer, entry)


def _conv_backward(layer, g, cache, input_grad):
    """conv3d_backward, accumulating the input gradient in the input when the pass made it.

    That input is recomputed (cache["from"]) or an earlier layer's output,
    which nothing reads again; only the caller's network input, which
    forward_with_cache passes read-only, gets a fresh array.
    """
    x = _layer_input(cache)
    return conv3d_backward(x, layer, g, input_grad=input_grad, out=x if x.flags.writeable else None)


def _prelu_forward(layer, x, cache):
    """prelu_forward, written over x unless the cache keeps x for backward."""
    return prelu_forward(x, layer.prelu_slope, out=None if cache is not None and "x" in cache else x)


def _prelu_backward(layer, g, cache, input_grad):
    """prelu_backward over grad_out; after a batchnorm, the input is formed from its x_hat one slice at a time."""
    if "x" not in cache:
        _, source, entry = cache["from"]
        if source.kind == "batchnorm":
            return prelu_backward(entry["bn_xh"], layer.prelu_slope, g, out=g, bn=source)
    return prelu_backward(_layer_input(cache), layer.prelu_slope, g, out=g)


def _prelu_output(layer, cache):
    x = _layer_input(cache)  # recomputed by the layer before: this call's own array
    return prelu_forward(x, layer.prelu_slope, out=x)


def _maxpool_forward(layer, x, cache):
    y, idx = maxpool_freq_forward(x)
    if cache is not None:
        cache["indices"] = idx
        cache["width"] = x.shape[3]
    return y


def _flatten_forward(layer, x, cache):
    if cache is not None:
        cache["shape"] = x.shape
    return x.reshape(x.shape[0], -1)


_DENSE = _Kind(
    lambda layer, x, cache: fully_connected_forward(x, layer),
    lambda layer, g, cache, input_grad: fully_connected_backward(_layer_input(cache), layer, g),
    lambda layer, shape: layer.weights.shape[1:],
)
_KINDS = {
    "conv3d": _Kind(
        lambda layer, x, cache: conv3d_forward(x, layer),
        _conv_backward,
        lambda layer, shape: conv3d_output_shape(shape, layer),
    ),
    "maxpool_freq": _Kind(
        _maxpool_forward,
        lambda layer, g, cache, input_grad: (maxpool_freq_backward(g, cache["indices"], cache["width"]), {}),
        lambda layer, shape: (*shape[:2], shape[2] // 2, shape[3]),
        reads_input=False,
    ),
    "prelu": _Kind(
        _prelu_forward,
        _prelu_backward,
        lambda layer, shape: shape,
        output=_prelu_output,
    ),
    "batchnorm": _Kind(
        lambda layer, x, cache: batchnorm_forward(x, layer, cache, out=None if cache is None else x),
        lambda layer, g, cache, input_grad: batchnorm_backward(layer, g, cache, out=g),
        lambda layer, shape: shape,
        reads_input=False,
        output=lambda layer, cache: batchnorm_output(cache["bn_xh"], layer),
    ),
    "flatten": _Kind(
        _flatten_forward,
        lambda layer, g, cache, input_grad: (g.reshape(cache["shape"]), {}),
        lambda layer, shape: (int(np.prod(shape)),),
        reads_input=False,
    ),
    "fully_connected": _DENSE,
    "softmax": _DENSE,
    "locally_connected": _Kind(
        lambda layer, x, cache: locally_connected_forward(x, layer),
        lambda layer, g, cache, input_grad: locally_connected_backward(_layer_input(cache), layer, g),
        lambda layer, shape: (int(np.prod(layer.weights.shape[:3])),),
    ),
}
