"""Layer forward/backward passes for the speaker networks.

All values are float64 ndarrays, channels last. Convolutional tensors are
(depth, time, freq, channels). Every op takes batches only, with one
leading batch axis; PReLU and batchnorm take a batch of examples of any
rank. Backward passes are hand-derived and are validated against central
finite differences in the test suite. Batchnorm is the one op that acts
differently in training: it trains when its caller passes a cache to fill
for the backward pass, and infers when it passes none.

The conv, PReLU and batchnorm passes split their per-example work into
contiguous runs, one per CPU this process may run on, at most
_MAX_WORKERS (_in_parallel). Each run computes exactly what the serial loop
computed for its examples, and every sum across examples stays one
whole-array call or is added in the serial order, so no output depends on
the CPU count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
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
# Per-example work runs on one thread per CPU in the affinity mask, at most _MAX_WORKERS: the
# split was measured on 2 CPUs with the BLAS at 1 thread, and each worker holds its own scratch,
# so the cap also bounds one call's scratch on any host. The pool runs all runs but the caller's.
_MAX_WORKERS = 2
_WORKERS = min(
    _MAX_WORKERS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _new_pool() -> None:
    """A fresh _POOL, whose threads start on first submit.

    Also run in a forked child, which inherits the pool's bookkeeping but
    none of its threads, so that its runs would otherwise never start.
    """
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1), thread_name_prefix="svkit-nn")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _workers(n: int) -> int:
    """How many runs _in_parallel splits range(n) into: one scratch buffer each."""
    return max(1, min(n, _WORKERS))


def _in_parallel(n: int, run) -> None:
    """Call run(worker, lo, hi) on contiguous runs [lo, hi) covering range(n), _workers(n) of them.

    Run 0 goes on the calling thread and the others on _POOL. A run calls
    numpy only (which releases the GIL in matmul, copyto and ufuncs), writes
    only its own rows, and uses scratch the caller allocated, indexed by
    `worker`: buffers allocated in pool threads would come from glibc
    per-thread arenas and stay resident. Returns once every run has
    finished, then re-raises the first exception a run raised, in run order.
    """
    k = _workers(n)
    bounds = [n * i // k for i in range(k + 1)]
    futures = [_POOL.submit(run, i, bounds[i], bounds[i + 1]) for i in range(1, k)]
    try:
        run(0, bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


@dataclass
class LayerParams:
    """One layer's descriptor plus its parameter arrays.

    Which arrays are present depends on `kind`: `Network` holds a layer only
    with the arrays its kind names (`svkit.models.network._KINDS`). A
    softmax layer has a dense layer's arrays; its nonlinearity is fused into
    the loss, so its forward emits logits.

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


def _require_channel_batch(x, what: str) -> np.ndarray:
    """`x` as float64, which must be a batch: a leading batch axis, a trailing channel axis."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise DimensionError(f"{what}: expected at least 2 axes (batch first, channels last), got {x.ndim}")
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
    written straight into the output. The pairs are split across workers,
    each copying one slice's patches at a time into its own buffer. Every
    row is the same dot product, in the same order, that a single product
    over the whole batch's patch matrix computes.
    """
    xb, _, out = _conv_prepare(x, params)
    w = params.weights
    cout = w.shape[4]
    w2 = w.reshape(-1, cout)
    patches = _patches(xb, w.shape[:3], params.stride)
    y = np.empty((xb.shape[0],) + out + (cout,))
    pairs = xb.shape[0] * out[0]
    col = np.empty((_workers(pairs), out[1] * out[2], w2.shape[0]))

    def run(i, lo, hi):
        for pair in range(lo, hi):
            b, d = divmod(pair, out[0])
            np.copyto(col[i].reshape(patches.shape[2:]), patches[b, d])
            np.matmul(col[i], w2, out=y[b, d].reshape(-1, cout))
            y[b, d] += params.bias

    _in_parallel(pairs, run)
    return y


def _conv_weight_grad(xb, w, stride, gb):
    """Sum over output depth slices of each slice's patch matrix transposed times its grad_out.

    The patch matrices are the ones conv3d_forward multiplies, copied a run
    of an example's depth slices at a time, up to _WGRAD_CHUNK_BYTES, so
    that a deep layer with few rows per slice does not pay a full (K, Cout)
    product per slice. The products are computed in waves of one per
    worker, each into its own buffer, and added in the serial order, so the
    sum keeps its bytes at any worker count.
    """
    patches = _patches(xb, w.shape[:3], stride)
    cout = w.shape[4]
    rows = patches.shape[2] * patches.shape[3]
    k = w.size // cout
    n = max(1, min(gb.shape[1], _WGRAD_CHUNK_BYTES // (rows * k * 8)))
    chunks = [(b, d, min(n, gb.shape[1] - d)) for b in range(gb.shape[0]) for d in range(0, gb.shape[1], n)]
    workers = _workers(len(chunks))
    col = np.empty((workers, n * rows, k))
    prods = np.empty((workers, k, cout))

    def product(i, b, d, m):
        chunk = col[i, : m * rows]
        np.copyto(chunk.reshape((m,) + patches.shape[2:]), patches[b, d : d + m])
        np.matmul(chunk.T, gb[b, d : d + m].reshape(-1, cout), out=prods[i])

    gw = np.zeros((k, cout))
    for start in range(0, len(chunks), workers):
        wave = chunks[start : start + workers]
        _in_parallel(len(wave), lambda i, lo, hi: product(i, *wave[i]))
        for p in prods[: len(wave)]:
            gw += p
    return gw.reshape(w.shape)


def conv3d_backward(x, params: LayerParams, grad_out, input_grad: bool = True):
    """Exact gradients of conv3d_forward w.r.t. input, weights, and bias.

    The weight gradient is accumulated over each example's output depth
    slices from the same patch matrices the forward pass multiplies, one
    slice (or a run of slices up to 4 MiB) at a time, so no whole-batch
    patch matrix is built; it matches the whole-batch `col.T @ grad_out` to
    rounding only. The bias gradient sums grad_out over every position.

    The input gradient is computed one example at a time, the examples
    split across workers: each tap's product `grad_out[b] @ W[i, j, k].T`
    goes into the worker's own per-example buffer and is added into the
    strided view of example b that the tap reads, taps in (i, j, k) order.
    Every row of that product is the same dot product a whole-batch
    `grad_out @ W[i, j, k].T` computes, and each input element receives its
    taps in the same order, so the input and bias gradients keep the bytes
    of the whole-batch formulation: they decide everything downstream, and
    the conv biases, whose exact gradient is 0 under train-mode batchnorm,
    hold only their rounding noise. With `input_grad` off the input
    gradient is not computed and is None.
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
    tap = np.empty((_workers(xb.shape[0]), int(np.prod(out)), cin))  # one tap's product for one example, per worker
    gxp = np.zeros_like(xb)

    def run(t, lo, hi):
        for b in range(lo, hi):
            go2 = gb[b].reshape(-1, cout)
            for i in range(kd):
                for j in range(kh):
                    for k in range(kw):
                        np.matmul(go2, w[i, j, k].T, out=tap[t])
                        xs = _offset_slice(gxp[b], i, j, k, out, params.stride)
                        xs += tap[t].reshape(xs.shape)

    _in_parallel(xb.shape[0], run)
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
    """y = x for x >= 0, y = slope[c] * x for x < 0 (per-channel slope).

    Computed as x * slope in one fresh buffer, over which the x >= 0 entries
    are then copied from x; each entry is one rounding or none, so the bytes
    are those of the formula. The examples are split across workers, and
    the sign mask is one caller-allocated buffer. `x` is left unchanged.
    """
    x = _require_channel_batch(x, "prelu input")
    s = np.asarray(slope, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != x.shape[-1]:
        raise DimensionError(
            f"channel axis: slope length {s.shape} does not match channel count {x.shape[-1]}"
        )
    y = np.empty(x.shape)
    keep = np.empty(x.shape, dtype=bool)

    def run(i, lo, hi):
        np.multiply(x[lo:hi], s, out=y[lo:hi])
        np.greater_equal(x[lo:hi], 0.0, out=keep[lo:hi])
        np.copyto(y[lo:hi], x[lo:hi], where=keep[lo:hi])

    _in_parallel(len(x), run)
    return y


def prelu_backward(x, slope, grad_out):
    """Gradients of prelu_forward w.r.t. input and slope.

    The input gradient is grad_out with its entries at x < 0 multiplied by
    their slope, each a single rounding, so its bytes do not depend on how
    the pass is arranged. The slope gradient sums min(x, 0) * grad_out per
    channel in one whole-array call; it can differ from a sum that skips the
    x >= 0 terms only in the sign of an all-zero channel's 0.

    One fresh buffer serves both: it holds min(x, 0) * grad_out until the
    slope sums are taken, then the input gradient. Both elementwise passes
    are split by example across workers. `x` and `grad_out` are left
    unchanged.
    """
    x = _require_channel_batch(x, "prelu input")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != x.shape:
        raise DimensionError(f"grad_out shape {g.shape} does not match input {x.shape}")
    buf = np.empty(x.shape)

    def slope_terms(i, lo, hi):
        np.minimum(x[lo:hi], 0.0, out=buf[lo:hi])
        buf[lo:hi] *= g[lo:hi]

    _in_parallel(len(x), slope_terms)
    gs = buf.reshape(-1, x.shape[-1]).sum(axis=0)
    negative = np.empty(x.shape, dtype=bool)

    def input_grad(i, lo, hi):
        np.copyto(buf[lo:hi], g[lo:hi])
        np.less(x[lo:hi], 0.0, out=negative[lo:hi])
        np.multiply(g[lo:hi], slope, out=buf[lo:hi], where=negative[lo:hi])

    _in_parallel(len(x), input_grad)
    return buf, {"prelu_slope": gs}


def batchnorm_output(xh, params: LayerParams) -> np.ndarray:
    """Train-mode batchnorm output from the normalized input: (x_hat * scale) + shift.

    For a backward that kept no copy of that output: it recomputes it, split
    by example across workers, with the two roundings of _batchnorm_affine
    that batchnorm_forward also writes it with, so byte for byte. `xh` is
    left unchanged.
    """
    y = np.empty(xh.shape)
    _in_parallel(len(xh), lambda i, lo, hi: _batchnorm_affine(xh[lo:hi], params, y[lo:hi]))
    return y


def _batchnorm_affine(xh, params: LayerParams, y) -> None:
    """y = (xh * scale) + shift: the one place that knows these two roundings."""
    np.multiply(xh, params.bn_scale, out=y)
    y += params.bn_shift


def batchnorm_forward(x, params: LayerParams, cache: dict | None = None) -> np.ndarray:
    """Per-channel normalization over all leading axes, then affine scale/shift.

    A caller that keeps a `cache` dict trains: the input is normalized with
    the current batch statistics, which are folded into the running
    averages, and the cache receives the normalized input and
    1/sqrt(var + eps) for batchnorm_backward. Without a cache (inference),
    the input is normalized with the running statistics, and `params` is
    left unchanged. Every output is one fixed sequence of elementwise
    roundings after the per-channel sums, so its bytes do not depend on how
    many passes compute it.

    The train-mode variance is `np.var`'s own arithmetic (the mean of the
    squared deviations), written out so that the deviations become the
    normalized input in place and the squares' buffer then takes the
    output: two fresh full-size buffers in all. The mean and the sum of
    squares are single whole-array reductions; the elementwise passes
    around them are split by example across workers, and one pass both
    normalizes a run and writes its output (_batchnorm_affine). The
    inference output is ((x - mean) * scale) * inv + shift, rounded in that
    order into one fresh buffer, split by example across workers.
    `x` is left unchanged.
    """
    x = _require_channel_batch(x, "batchnorm input")
    c = x.shape[-1]
    if params.bn_scale.shape != (c,):
        raise DimensionError(f"channel axis: batchnorm params sized for {params.bn_scale.shape}, input has {c} channels")
    if cache is None:
        inv = 1.0 / np.sqrt(params.bn_running_var + BN_EPS)
        y = np.empty(x.shape)

        def infer(i, lo, hi):
            np.subtract(x[lo:hi], params.bn_running_mean, out=y[lo:hi])
            y[lo:hi] *= params.bn_scale
            y[lo:hi] *= inv
            y[lo:hi] += params.bn_shift

        _in_parallel(len(x), infer)
        return y
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes)
    xh = np.empty(x.shape)
    sq = np.empty(x.shape)

    def deviations(i, lo, hi):
        np.subtract(x[lo:hi], mu, out=xh[lo:hi])
        np.multiply(xh[lo:hi], xh[lo:hi], out=sq[lo:hi])

    _in_parallel(len(x), deviations)
    var = sq.sum(axis=axes) / (x.size // c)
    inv = 1.0 / np.sqrt(var + BN_EPS)

    def normalize(i, lo, hi):
        xh[lo:hi] *= inv
        _batchnorm_affine(xh[lo:hi], params, sq[lo:hi])

    _in_parallel(len(x), normalize)
    params.bn_running_mean = BN_MOMENTUM * params.bn_running_mean + (1 - BN_MOMENTUM) * mu
    params.bn_running_var = BN_MOMENTUM * params.bn_running_var + (1 - BN_MOMENTUM) * var
    cache["bn_xh"] = xh
    cache["bn_inv"] = inv
    return sq


def batchnorm_backward(params: LayerParams, grad_out, cache: dict):
    """Gradients of train-mode batchnorm_forward w.r.t. input, scale, and shift.

    Reads the normalized input and 1/sqrt(var + eps) from the `cache` that
    batchnorm_forward filled. The scale and shift gradients are the
    per-channel sums of grad_out * x_hat and grad_out that the input
    gradient also uses, each one whole-array reduction; the input gradient
    is (scale * inv / n) * (n * g - sum(g) - x_hat * sum(g * x_hat)),
    rounded in that order, so all three keep their bytes however the passes
    are arranged.

    One fresh full-size buffer holds g * x_hat for the scale sums, then the
    input gradient; both passes are split by example across workers. The
    x_hat * sum(g * x_hat) term is formed in each worker's small buffer one
    index of all but the last three axes at a time (one depth slice of one
    example for a cube; one example for an input of under four axes).
    `grad_out` and the cache are left unchanged.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    xh = cache["bn_xh"]
    inv = cache["bn_inv"]
    if g.shape != xh.shape:
        raise DimensionError(f"grad_out shape {g.shape} does not match input {xh.shape}")
    axes = tuple(range(g.ndim - 1))
    n = g.size // g.shape[-1]
    gsum = g.sum(axis=axes)
    gx = np.empty(g.shape)
    _in_parallel(len(g), lambda i, lo, hi: np.multiply(g[lo:hi], xh[lo:hi], out=gx[lo:hi]))
    gxh_sum = gx.sum(axis=axes)
    factor = params.bn_scale * inv / n
    lead = max(1, g.ndim - 3)  # leading axes looped over, the example axis at least
    tmp = np.empty((_workers(len(g)),) + g.shape[lead:])

    def input_grad(i, lo, hi):
        gx_r, xh_r = gx[lo:hi], xh[lo:hi]
        np.multiply(n, g[lo:hi], out=gx_r)
        gx_r -= gsum
        for j in np.ndindex(gx_r.shape[:lead]):
            gx_r[j] -= np.multiply(xh_r[j], gxh_sum, out=tmp[i])
        gx_r *= factor

    _in_parallel(len(g), input_grad)
    return gx, {"bn_scale": gxh_sum, "bn_shift": gsum}


def fully_connected_forward(x, params: LayerParams) -> np.ndarray:
    """Affine map y = x W + b with weights shaped (fan_in, fan_out)."""
    xb = _require_batch(x, 1, "fully-connected input")
    w = params.weights
    if xb.shape[1] != w.shape[0]:
        raise DimensionError(
            f"fan-in axis: input length {xb.shape[1]} does not match weight fan-in {w.shape[0]}"
        )
    return xb @ w + params.bias


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
    y = np.einsum("bijpq,ijupq->biju", patches, params.weights) + params.bias
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
