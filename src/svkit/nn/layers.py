"""Layer forward/backward passes for the speaker networks.

All values are float64 ndarrays, channels last. Convolutional tensors are
(depth, time, freq, channels). The conv, pooling, fully-connected and
locally-connected ops take batches only, with one leading batch axis.
Backward passes are hand-derived and are validated against central finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError, NumericError

# Learnable arrays, in the order they are serialized and updated.
PARAM_FIELDS = ("weights", "bias", "prelu_slope", "bn_scale", "bn_shift")
# Non-learnable state that still travels with checkpoints.
STATE_FIELDS = ("bn_running_mean", "bn_running_var")

_CONV_AXES = ("depth", "time", "freq")
BN_EPS = 1e-5
BN_MOMENTUM = 0.99  # weight of the old running statistics in each update
_WGRAD_CHUNK_BYTES = 4 << 20  # patches copied per weight-gradient product in conv3d_backward (at least one depth slice)


@dataclass
class LayerParams:
    """One layer's descriptor plus its parameter arrays.

    Which arrays are present depends on `kind`:
      conv3d            weights (kD,kH,kW,Cin,Cout), bias (Cout,)
      prelu             prelu_slope (C,)
      batchnorm         bn_scale, bn_shift, bn_running_mean, bn_running_var (C,)
      fully_connected   weights (fan_in, fan_out), bias (fan_out,)
      softmax           same as fully_connected; the nonlinearity itself is
                        fused into the loss, so its forward emits logits
      locally_connected weights (gridH, gridW, units, P, P), bias (gridH, gridW, units)
      maxpool_freq, flatten   no parameters

    A conv layer's kernel extent is `weights.shape[:3]`. Conv reads `stride`
    and `pad_depth`; the pool's `stride` only feeds `Network.summary`.
    """

    kind: str
    name: str = ""
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    prelu_slope: np.ndarray | None = None
    bn_scale: np.ndarray | None = None
    bn_shift: np.ndarray | None = None
    bn_running_mean: np.ndarray | None = None
    bn_running_var: np.ndarray | None = None
    stride: tuple[int, int, int] = (1, 1, 1)
    pad_depth: bool = False

    def learnable(self):
        """Yield (field_name, array) for every learnable array present."""
        for field in PARAM_FIELDS:
            arr = getattr(self, field)
            if arr is not None:
                yield field, arr

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.learnable())


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")


def _require_batch(x: np.ndarray, example_ndim: int, what: str) -> np.ndarray:
    """`x` as float64, which must be a batch: one axis more than an example has."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != example_ndim + 1:
        raise DimensionError(f"{what}: expected {example_ndim + 1} axes (batch first), got {x.ndim}")
    return x


def _conv_extent(n: int, k: int, s: int, axis: str) -> int:
    if n < k:
        raise DimensionError(f"{axis} axis: input extent {n} smaller than kernel extent {k}")
    return (n - k) // s + 1


def conv3d_output_shape(shape, params: LayerParams) -> tuple[int, ...]:
    """Per-example output shape of conv3d_forward for an input of `shape`.

    `shape` is (depth, time, freq, Cin). Each axis gives (n + 2p - k)//s + 1,
    with p = (kD-1)/2 on the depth axis when `params.pad_depth` is on and 0
    everywhere else.
    """
    w = params.weights
    if w is None or w.ndim != 5:
        raise DimensionError("conv3d weights must have 5 axes (kD,kH,kW,Cin,Cout)")
    kd, kh, kw, cin, cout = w.shape
    if shape[-1] != cin:
        raise DimensionError(f"channel axis: input has {shape[-1]} channels, kernel expects {cin}")
    extents = list(shape[:3])
    if params.pad_depth:
        if kd % 2 == 0:
            raise ConfigError("same-depth padding requires an odd depth kernel extent")
        extents[0] += kd - 1
    if min(params.stride) < 1:
        raise ConfigError(f"stride components must be >= 1, got {params.stride}")
    dims = (
        _conv_extent(n, k, s, axis)
        for n, k, s, axis in zip(extents, (kd, kh, kw), params.stride, _CONV_AXES)
    )
    return (*dims, cout)


def _conv_prepare(x, params: LayerParams):
    xb = _require_batch(x, 4, "conv3d input")
    out = conv3d_output_shape(xb.shape[1:], params)[:3]
    p = (params.weights.shape[0] - 1) // 2 if params.pad_depth else 0
    if p:
        xb = np.pad(xb, ((0, 0), (p, p), (0, 0), (0, 0), (0, 0)))
    return xb, p, out


def _offset_slice(x, i, j, k, out, stride):
    """View of the positions tap (i, j, k) reads; `x` ends in (depth, time, freq, channels) axes."""
    do, ho, wo = out
    sd, sh, sw = stride
    return x[
        ...,
        i : i + (do - 1) * sd + 1 : sd,
        j : j + (ho - 1) * sh + 1 : sh,
        k : k + (wo - 1) * sw + 1 : sw,
        :,
    ]


def _patches(xb, kext, stride):
    """Strided view (B, Do, Ho, Wo, kD, kH, kW, Cin) of each output position's input patch.

    The last four axes follow the kernel's memory layout, so the patch matrix
    of output slice (b, d) is `patches[b, d].reshape(Ho * Wo, -1)` and its
    convolution is that matrix times `weights.reshape(-1, Cout)`.
    """
    sd, sh, sw = stride
    windows = np.lib.stride_tricks.sliding_window_view(xb, kext, axis=(1, 2, 3))
    return windows[:, ::sd, ::sh, ::sw].transpose(0, 1, 2, 3, 5, 6, 7, 4)


def conv3d_forward(x, params: LayerParams) -> np.ndarray:
    """Valid 3D convolution; zero-padded along depth only when `params.pad_depth`.

    Output extents follow conv3d_output_shape. Each (example, output depth
    slice) is one matrix product of that slice's patch matrix with the kernel,
    written straight into the output, so only one slice's patches are copied
    out at a time. Every row is the same dot product, in the same order, that
    a single product over the whole batch's patch matrix computes.
    """
    xb, _, out = _conv_prepare(x, params)
    w = params.weights
    cout = w.shape[4]
    w2 = w.reshape(-1, cout)
    patches = _patches(xb, w.shape[:3], params.stride)
    y = np.empty((xb.shape[0],) + out + (cout,))
    for b in range(xb.shape[0]):
        for d in range(out[0]):
            np.matmul(patches[b, d].reshape(-1, w2.shape[0]), w2, out=y[b, d].reshape(-1, cout))
    if params.bias is not None:
        y += params.bias
    return y


def _conv_weight_grad(xb, w, stride, gb):
    """Sum over output depth slices of each slice's patch matrix transposed times its grad_out.

    The patch matrices are the ones conv3d_forward multiplies. They are
    copied into one reused buffer, a run of an example's depth slices at a
    time up to _WGRAD_CHUNK_BYTES, so that a deep layer with few rows per
    slice does not pay a full (K, Cout) product per slice.
    """
    patches = _patches(xb, w.shape[:3], stride)
    cout = w.shape[4]
    rows = patches.shape[2] * patches.shape[3]
    k = w.size // cout
    n = max(1, min(gb.shape[1], _WGRAD_CHUNK_BYTES // (rows * k * 8)))
    col = np.empty((n * rows, k))
    gw = np.zeros((k, cout))
    for b in range(gb.shape[0]):
        for d in range(0, gb.shape[1], n):
            m = min(n, gb.shape[1] - d)
            chunk = col[: m * rows]
            np.copyto(chunk.reshape((m,) + patches.shape[2:]), patches[b, d : d + m])
            gw += chunk.T @ gb[b, d : d + m].reshape(-1, cout)
    return gw.reshape(w.shape)


def conv3d_backward(x, params: LayerParams, grad_out, input_grad: bool = True):
    """Exact gradients of conv3d_forward w.r.t. input, weights, and bias.

    The weight gradient is accumulated over each example's output depth
    slices from the same patch matrices the forward pass multiplies, one
    slice (or a run of slices up to 4 MiB) at a time, so no whole-batch
    patch matrix is built; it matches the whole-batch `col.T @ grad_out` to
    rounding only. The bias gradient sums grad_out over every position.

    The input gradient is computed one example at a time: each tap's
    product `grad_out[b] @ W[i, j, k].T` goes into one reused per-example
    buffer and is added into the strided view of example b that the tap
    reads, taps in (i, j, k) order. Every row of that product is the same
    dot product a whole-batch `grad_out @ W[i, j, k].T` computes, and each
    input element receives its taps in the same order, so the input and
    bias gradients keep the bytes of the whole-batch formulation: they
    decide everything downstream, and the conv biases, whose exact gradient
    is 0 under train-mode batchnorm, hold only their rounding noise. With
    `input_grad` off the input gradient is not computed and is None.
    """
    xb, p, out = _conv_prepare(x, params)
    w = params.weights
    kd, kh, kw, cin, cout = w.shape
    gb = _require_batch(grad_out, 4, "conv3d grad_out")
    expected = (xb.shape[0],) + out + (cout,)
    if gb.shape != expected:
        raise DimensionError(f"grad_out shape {gb.shape} does not match output {expected}")
    gb = np.ascontiguousarray(gb)
    grads = {"weights": _conv_weight_grad(xb, w, params.stride, gb), "bias": gb.reshape(-1, cout).sum(axis=0)}
    if not input_grad:
        return None, grads
    tap = np.empty((int(np.prod(out)), cin))  # one tap's product for one example, reused
    gxp = np.zeros_like(xb)
    for b in range(xb.shape[0]):
        go2 = gb[b].reshape(-1, cout)
        for i in range(kd):
            for j in range(kh):
                for k in range(kw):
                    np.matmul(go2, w[i, j, k].T, out=tap)
                    xs = _offset_slice(gxp[b], i, j, k, out, params.stride)
                    xs += tap.reshape(xs.shape)
    gx = gxp[:, p : gxp.shape[1] - p] if p else gxp
    return gx, grads


def maxpool_freq_forward(x):
    """Max over non-overlapping width-2 windows along the frequency axis; returns (y, indices).

    Depth, time, and channel extents are untouched; an odd trailing frequency
    column is dropped. Ties resolve to the first (lower-index) element, and
    `indices` holds each window's argmax (0 or 1, as uint8) for
    maxpool_freq_backward.
    """
    xb = _require_batch(x, 4, "maxpool input")
    w = xb.shape[3]
    if w < 2:
        raise DimensionError(f"freq axis: extent {w} below pooling window 2")
    wo = w // 2
    windows = xb[:, :, :, : 2 * wo, :].reshape(xb.shape[:3] + (wo, 2, xb.shape[4]))
    idx = np.argmax(windows, axis=4).astype(np.uint8)
    y = np.take_along_axis(windows, idx[:, :, :, :, None, :], axis=4)[:, :, :, :, 0, :]
    return y, idx


def maxpool_freq_backward(grad_out, indices, width):
    """Route grad_out to each window's argmax (first element on ties).

    `indices` are the window argmaxes from maxpool_freq_forward and `width`
    is the frequency extent of its input; a dropped odd column gets zero.
    """
    gb = _require_batch(grad_out, 4, "maxpool grad_out")
    wo = width // 2
    if gb.shape[3] != wo or np.shape(indices) != gb.shape:
        raise DimensionError(
            f"grad_out shape {gb.shape} does not match indices {np.shape(indices)} pooled from width {width}"
        )
    gx = np.zeros(gb.shape[:3] + (width, gb.shape[4]))
    gview = gx[:, :, :, : 2 * wo, :].reshape(gb.shape[:3] + (wo, 2, gb.shape[4]))
    np.put_along_axis(gview, indices[:, :, :, :, None, :], gb[:, :, :, :, None, :], axis=4)
    return gx


def prelu_forward(x, slope) -> np.ndarray:
    """y = x for x >= 0, y = slope[c] * x for x < 0 (per-channel slope)."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(slope, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != x.shape[-1]:
        raise DimensionError(
            f"channel axis: slope length {s.shape} does not match channel count {x.shape[-1]}"
        )
    return np.where(x >= 0.0, x, s * x)


def prelu_backward(x, slope, grad_out):
    """Gradients of prelu_forward w.r.t. input and slope.

    The input gradient is grad_out with its entries at x < 0 multiplied by
    their slope, each a single rounding, so its bytes do not depend on how
    the pass is arranged. The slope gradient sums min(x, 0) * grad_out per
    channel; it can differ from a sum that skips the x >= 0 terms only in
    the sign of an all-zero channel's 0.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != x.shape:
        raise DimensionError(f"grad_out shape {g.shape} does not match input {x.shape}")
    gx = g.copy()
    np.multiply(g, slope, out=gx, where=x < 0.0)
    gs = np.minimum(x, 0.0)
    gs *= g
    return gx, {"prelu_slope": gs.reshape(-1, x.shape[-1]).sum(axis=0)}


def _batch_normalize(x, axes):
    """(mean, variance, 1/sqrt(variance + eps), normalized x) over `axes`.

    The variance is `np.var`'s own arithmetic (the mean of the squared
    deviations), written out so the deviations double as the normalized
    output's buffer; its bytes equal `x.var(axis=axes)`.
    """
    mu = x.mean(axis=axes)
    xh = x - mu
    var = (xh * xh).sum(axis=axes) / (x.size // x.shape[-1])
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xh *= inv
    return mu, var, inv, xh


def batchnorm_forward(
    x,
    params: LayerParams,
    mode: str = "train",
    update_running: bool = True,
    cache: dict | None = None,
) -> np.ndarray:
    """Per-channel normalization over all leading axes, then affine scale/shift.

    Train mode normalizes with the current batch statistics and, unless
    `update_running` is off, folds them into the running averages; with
    `cache`, it keeps the normalized input and 1/sqrt(var + eps) for
    batchnorm_backward. Inference mode normalizes with the running
    statistics. Every output is one fixed sequence of elementwise roundings
    after the per-channel sums, so its bytes do not depend on how many
    passes compute it.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[-1]
    if params.bn_scale is None or params.bn_scale.shape != (c,):
        raise DimensionError(f"channel axis: batchnorm params sized for {params.bn_scale.shape if params.bn_scale is not None else None}, input has {c} channels")
    if mode == "infer":
        inv = 1.0 / np.sqrt(params.bn_running_var + BN_EPS)
        return params.bn_scale * (x - params.bn_running_mean) * inv + params.bn_shift
    mu, var, inv, xh = _batch_normalize(x, tuple(range(x.ndim - 1)))
    if update_running:
        params.bn_running_mean = BN_MOMENTUM * params.bn_running_mean + (1 - BN_MOMENTUM) * mu
        params.bn_running_var = BN_MOMENTUM * params.bn_running_var + (1 - BN_MOMENTUM) * var
    if cache is not None:
        cache["bn_xh"] = xh
        cache["bn_inv"] = inv
    y = xh * params.bn_scale
    y += params.bn_shift
    return y


def batchnorm_backward(params: LayerParams, grad_out, cache: dict):
    """Gradients of train-mode batchnorm_forward w.r.t. input, scale, and shift.

    Reads the normalized input and 1/sqrt(var + eps) from the `cache` that
    batchnorm_forward filled. The scale and shift gradients are the
    per-channel sums of grad_out * x_hat and grad_out that the input
    gradient also uses; the input gradient is
    (scale * inv / n) * (n * g - sum(g) - x_hat * sum(g * x_hat)), rounded
    in that order, so all three keep their bytes however the passes are
    arranged.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    xh = cache["bn_xh"]
    inv = cache["bn_inv"]
    if g.shape != xh.shape:
        raise DimensionError(f"grad_out shape {g.shape} does not match input {xh.shape}")
    axes = tuple(range(g.ndim - 1))
    n = g.size // g.shape[-1]
    gsum = g.sum(axis=axes)
    tmp = g * xh
    gxh_sum = tmp.sum(axis=axes)
    gx = n * g
    gx -= gsum
    gx -= np.multiply(xh, gxh_sum, out=tmp)
    gx *= params.bn_scale * inv / n
    return gx, {"bn_scale": gxh_sum, "bn_shift": gsum}


def fully_connected_forward(x, params: LayerParams) -> np.ndarray:
    """Affine map y = x W + b with weights shaped (fan_in, fan_out)."""
    xb = _require_batch(x, 1, "fully-connected input")
    w = params.weights
    if xb.shape[1] != w.shape[0]:
        raise DimensionError(
            f"fan-in axis: input length {xb.shape[1]} does not match weight fan-in {w.shape[0]}"
        )
    y = xb @ w
    if params.bias is not None:
        y = y + params.bias
    return y


def fully_connected_backward(x, params: LayerParams, grad_out):
    xb = _require_batch(x, 1, "fully-connected input")
    gb = _require_batch(grad_out, 1, "fully-connected grad_out")
    w = params.weights
    if gb.shape != (xb.shape[0], w.shape[1]):
        raise DimensionError(
            f"grad_out shape {gb.shape} does not match output ({xb.shape[0]}, {w.shape[1]})"
        )
    gx = gb @ w.T
    grads = {"weights": xb.T @ gb, "bias": gb.sum(axis=0)}
    return gx, grads


def _lc_patches(xb, params: LayerParams):
    gh, gw, units, p, p2 = params.weights.shape
    if p != p2:
        raise DimensionError(f"locally-connected patches must be square, got {p}x{p2}")
    b, h, w = xb.shape
    pad_h = gh * p - h
    pad_w = gw * p - w
    if pad_h < 0 or pad_w < 0:
        raise DimensionError(
            f"input grid {h}x{w} exceeds the {gh * p}x{gw * p} grid the weights were built for"
        )
    if pad_h or pad_w:
        xb = np.pad(xb, ((0, 0), (0, pad_h), (0, pad_w)))
    patches = xb.reshape(b, gh, p, gw, p).transpose(0, 1, 3, 2, 4)
    return patches


def locally_connected_forward(x, params: LayerParams) -> np.ndarray:
    """Untied per-patch affine maps over a non-overlapping PxP grid.

    The input is zero-padded at the bottom/right up to a multiple of the patch
    size; each grid cell has its own weight block mapping the patch to `units`
    outputs, and all cell outputs are concatenated row-major.
    """
    xb = _require_batch(x, 2, "locally-connected input")
    patches = _lc_patches(xb, params)
    y = np.einsum("bijpq,ijupq->biju", patches, params.weights)
    if params.bias is not None:
        y = y + params.bias
    return y.reshape(xb.shape[0], -1)


def locally_connected_backward(x, params: LayerParams, grad_out):
    xb = _require_batch(x, 2, "locally-connected input")
    patches = _lc_patches(xb, params)
    gh, gw, units, p, _ = params.weights.shape
    gb = _require_batch(grad_out, 1, "locally-connected grad_out")
    if gb.shape != (xb.shape[0], gh * gw * units):
        raise DimensionError(
            f"grad_out shape {gb.shape} does not match output ({xb.shape[0]}, {gh * gw * units})"
        )
    go = gb.reshape(xb.shape[0], gh, gw, units)
    gw_arr = np.einsum("bijpq,biju->ijupq", patches, go)
    gpatch = np.einsum("biju,ijupq->bijpq", go, params.weights)
    gx_pad = gpatch.transpose(0, 1, 3, 2, 4).reshape(xb.shape[0], gh * p, gw * p)
    gx = gx_pad[:, : xb.shape[1], : xb.shape[2]]
    grads = {"weights": gw_arr, "bias": go.sum(axis=0)}
    return gx, grads


def softmax_xent_batch(logits, labels):
    """Mean cross-entropy over a batch; returns (loss, probabilities)."""
    lb = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if lb.ndim != 2 or labels.shape != (lb.shape[0],):
        raise DimensionError(
            f"batch axis: logits {lb.shape} incompatible with labels {labels.shape}"
        )
    if labels.min() < 0 or labels.max() >= lb.shape[1]:
        raise ConfigError(f"labels outside [0, {lb.shape[1]}) present")
    m = lb.max(axis=1, keepdims=True)
    z = np.exp(lb - m)
    s = z.sum(axis=1, keepdims=True)
    probs = z / s
    losses = np.log(s[:, 0]) + m[:, 0] - lb[np.arange(lb.shape[0]), labels]
    return float(losses.mean()), probs


def softmax_xent_batch_gradient(probs, labels) -> np.ndarray:
    """Gradient of the batch-mean loss w.r.t. the logits."""
    g = np.array(probs, dtype=np.float64)
    g[np.arange(g.shape[0]), np.asarray(labels, dtype=np.int64)] -= 1.0
    return g / g.shape[0]
