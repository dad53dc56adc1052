"""Network container: an ordered layer list with forward, backward, and embed.

The final layer is always the softmax classifier head; `forward` returns its
logits (the softmax nonlinearity is fused into the loss for stability), and
`embed_vectors` returns the L2-normalized activations feeding that head.
`Network` is the one place that turns a single example into a batch; every
layer below it sees batches only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..errors import ConfigError, DimensionError, NumericError
from ..nn.layers import (
    LayerParams,
    assert_finite,
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
    softmax_xent_batch_gradient,
)

EMBED_BATCH = 32  # inputs per forward pass in embed_vectors


@dataclass(frozen=True)
class NetworkSpec:
    kind: str  # "cnn3d" | "lcn_dvector"
    input_shape: tuple[int, ...]  # per example, batch axis excluded
    n_classes: int
    zeta: int  # stacked utterance maps per cube (1 for the map-level baseline)

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 development speakers, got {self.n_classes}")
        if self.zeta < 1:
            raise ConfigError(f"stack depth must be >= 1, got {self.zeta}")


class Network:
    def __init__(self, spec: NetworkSpec, layers: list[LayerParams]):
        if not layers or layers[-1].kind != "softmax":
            raise ConfigError("network must end in a softmax classifier layer")
        for layer in layers:
            if layer.kind not in _KINDS:
                raise ConfigError(f"unknown layer kind {layer.kind!r}")
        self.spec = spec
        self.layers = layers

    # -- forward ---------------------------------------------------------

    def _promote(self, x) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        rank = len(self.spec.input_shape)
        if x.shape == self.spec.input_shape:
            return x[None], True
        if x.ndim == rank + 1 and x.shape[1:] == self.spec.input_shape:
            return x, False
        raise DimensionError(
            f"input shape {x.shape} does not match network input {self.spec.input_shape}"
        )

    def _run(self, xb, layers, mode: str, update_running: bool, caches: list | None = None):
        """Run `layers` in order; with `caches`, append each layer's backward cache to it."""
        for layer in layers:
            entry = None
            if caches is not None:
                entry = {"x": xb, "mode": mode}
                caches.append(entry)
            xb = _KINDS[layer.kind].forward(layer, xb, mode, update_running, entry)
        return xb

    def forward(self, x) -> np.ndarray:
        """Infer-mode logits of the classifier head."""
        xb, single = self._promote(x)
        xb = self._run(xb, self.layers, "infer", update_running=False)
        return xb[0] if single else xb

    def forward_with_cache(self, x, mode: str = "train", update_running: bool = True):
        xb, _ = self._promote(x)
        caches: list[dict] = []
        return self._run(xb, self.layers, mode, update_running, caches), caches

    # -- backward --------------------------------------------------------

    def backward(self, caches: list[dict], grad_logits: np.ndarray):
        """Per-layer parameter gradients plus the gradient w.r.t. the input."""
        grads: list[dict] = []
        g = np.asarray(grad_logits, dtype=np.float64)
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            g, layer_grads = _KINDS[layer.kind].backward(layer, cache["x"], g, cache)
            grads.append(layer_grads)
        return g, grads[::-1]

    # -- losses (training and gradient checking) --------------------------

    def loss_only(self, x, labels) -> float:
        """Train-mode loss; leaves the batchnorm running statistics as they are."""
        xb, _ = self._promote(x)
        lb = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        logits = self._run(xb, self.layers, "train", update_running=False)
        loss, _ = softmax_xent_batch(logits, lb)
        return loss

    def loss_and_gradients(self, x, labels):
        """Train-mode loss, input gradient and parameter gradients; running statistics kept."""
        xb, single = self._promote(x)
        lb = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        logits, caches = self.forward_with_cache(xb, mode="train", update_running=False)
        loss, probs = softmax_xent_batch(logits, lb)
        grad_x, grads = self.backward(caches, softmax_xent_batch_gradient(probs, lb))
        return loss, (grad_x[0] if single else grad_x), grads

    # -- embeddings --------------------------------------------------------

    def embed_vectors(self, inputs) -> np.ndarray:
        """Unit-norm rows of penultimate activations for a list of inputs, EMBED_BATCH at a time.

        A batch whose every input is a depth-replicated cube (all depth slices
        equal, as a single test utterance is) runs through the depth-collapsed
        layers on one slice when the network's depth convolution is valid;
        any other batch runs through the full layer list.
        """
        inputs = list(inputs)
        layers = self.layers[:-1]
        collapsed = _depth_collapsed(layers, self.spec.input_shape)  # from this call's weights
        rows = []
        for start in range(0, len(inputs), EMBED_BATCH):
            batch = [np.asarray(v, dtype=np.float64) for v in inputs[start : start + EMBED_BATCH]]
            if collapsed is not None and all(
                v.shape == self.spec.input_shape and (v == v[:1]).all() for v in batch
            ):
                rows.append(self._run(np.stack([v[:1] for v in batch]), collapsed, "infer", update_running=False))
            else:
                # pass the stacked batch without holding a name to it, so it is freed after the first layer
                rows.append(self._run(np.stack(batch), layers, "infer", update_running=False))
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


def _depth_collapsed(layers: list[LayerParams], input_shape) -> list[LayerParams] | None:
    """`layers` rewritten to act on one depth slice of a depth-constant cube, or None.

    With valid depth convolution (no depth padding, depth stride 1), every
    output slice of a conv fed equal slices is the one slice convolved with
    the kernel summed over depth, so a depth-1 conv with that kernel gives it.
    Batchnorm (infer mode), PReLU and the frequency pool act per slice. The
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

    forward(layer, x, mode, update_running, cache) -> y
    backward(layer, x, grad_out, cache) -> (grad_in, parameter gradients)
    shape(layer, per-example input shape) -> per-example output shape

    Entries call the layer functions through this module's globals on every
    call, so rebinding one of those names (e.g. to wrap it) takes effect.
    """

    forward: Callable
    backward: Callable
    shape: Callable


def _maxpool_forward(layer, x, mode, update_running, cache):
    y, idx = maxpool_freq_forward(x)
    if cache is not None:
        cache["indices"] = idx
    return y


def _dense_shape(layer, shape):
    if shape != (layer.weights.shape[0],):
        raise DimensionError(f"fan-in axis: shape {shape} into weights expecting {layer.weights.shape[0]}")
    return (layer.weights.shape[1],)


_DENSE = _Kind(
    lambda layer, x, mode, update_running, cache: fully_connected_forward(x, layer),
    lambda layer, x, g, cache: fully_connected_backward(x, layer, g),
    _dense_shape,
)
_KINDS = {
    "conv3d": _Kind(
        lambda layer, x, mode, update_running, cache: conv3d_forward(x, layer),
        lambda layer, x, g, cache: conv3d_backward(x, layer, g),
        lambda layer, shape: conv3d_output_shape(shape, layer),
    ),
    "maxpool_freq": _Kind(
        _maxpool_forward,
        lambda layer, x, g, cache: (maxpool_freq_backward(x, g, cache["indices"]), {}),
        lambda layer, shape: (*shape[:2], shape[2] // 2, shape[3]),
    ),
    "prelu": _Kind(
        lambda layer, x, mode, update_running, cache: prelu_forward(x, layer.prelu_slope),
        lambda layer, x, g, cache: prelu_backward(x, layer.prelu_slope, g),
        lambda layer, shape: shape,
    ),
    "batchnorm": _Kind(
        lambda layer, x, mode, update_running, cache: batchnorm_forward(
            x, layer, mode=mode, update_running=update_running, cache=cache
        ),
        lambda layer, x, g, cache: batchnorm_backward(x, layer, g, mode=cache["mode"], cache=cache),
        lambda layer, shape: shape,
    ),
    "flatten": _Kind(
        lambda layer, x, mode, update_running, cache: x.reshape(x.shape[0], -1),
        lambda layer, x, g, cache: (g.reshape(x.shape), {}),
        lambda layer, shape: (int(np.prod(shape)),),
    ),
    "fully_connected": _DENSE,
    "softmax": _DENSE,
    "locally_connected": _Kind(
        lambda layer, x, mode, update_running, cache: locally_connected_forward(x, layer),
        lambda layer, x, g, cache: locally_connected_backward(x, layer, g),
        lambda layer, shape: (int(np.prod(layer.weights.shape[:3])),),
    ),
}
