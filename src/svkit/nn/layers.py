"""Layer forward/backward passes for the speaker networks.

All values are float64 ndarrays, channels last. Convolutional tensors are
(depth, time, freq, channels). Every op takes batches only, with one
leading batch axis; PReLU and batchnorm take a batch of examples of any
rank. Backward passes are hand-derived and are validated against central
finite differences in the test suite. Batchnorm is the one op that acts
differently in training: it trains when its caller passes a cache to fill
for the backward pass, and infers when it passes none.

By default every op writes fresh buffers and leaves its inputs alone. The
ops a training pass runs on full-size arrays also take `out=`, an array the
caller owns and nothing reads again: batchnorm forward writes its squared
deviations and then its output there, PReLU forward its output, PReLU and
batchnorm backward their input gradient, and conv backward accumulates its
input gradient there. Each may be the op's own input (or grad_out), and the
bytes are those of the fresh-buffer call.

The conv, batchnorm and pool-forward passes and PReLU forward split their
per-example work into contiguous runs, one per CPU this process may run
on, at most _MAX_WORKERS, and a single run when numpy's BLAS runs threads
of its own (_in_parallel). Each run computes exactly what the serial
loop computed for its examples, and every sum across examples stays one
whole-array call or is added in the serial order, so no output depends on
the CPU count. The PReLU slope sums and batchnorm's sum of grad_out *
x_hat are running sums (_channel_sum): their terms are formed one slice at
a time and added row by row in the order numpy's whole-array sum adds
them, so no full-size array of terms is built; PReLU backward runs serially
for that reason.

PReLU and the frequency pool only select: each output entry is an input
entry, the input times a slope or 1.0, or +0.0. They select without
branches or masked copies, by bit operations on int64 views of the
float64 arrays (x ^ ((x ^ y) * bit) is x or y exactly), so every output
keeps its bytes, signed zeros, infinities and NaNs included.
"""

from __future__ import annotations

import contextvars
import ctypes
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


def _blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, or None for a numpy built without it."""
    try:
        from numpy._core import _multiarray_umath

        count = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    count.restype = ctypes.c_int
    return count()


# Per-example work runs on one thread per CPU in the affinity mask, at most _MAX_WORKERS: the
# split was measured on 2 CPUs with the BLAS at 1 thread, and each worker holds its own scratch,
# so the cap also bounds one call's scratch on any host. A BLAS that runs threads of its own
# already uses the CPUs for the conv products, and a split beside it was slower, so then there is
# one worker. The pool runs all runs but the caller's.
_MAX_WORKERS = 2
_WORKERS = (
    1
    if (_blas_threads() or 1) > 1
    else min(_MAX_WORKERS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
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

    Run 0 goes on the calling thread and the others on _POOL, each in a
    copy of the caller's context, so that the caller's `np.errstate` holds
    in every run. A run calls numpy only (which releases the GIL in
    matmul, copyto and ufuncs), writes only its own rows, and uses scratch
    the caller allocated, indexed by `worker`: buffers allocated in pool
    threads would come from glibc per-thread arenas and stay resident.
    Returns once every run has finished, then re-raises the first exception
    a run raised, in run order.
    """
    k = _workers(n)
    bounds = [n * i // k for i in range(k + 1)]
    futures = [_POOL.submit(contextvars.copy_context().run, run, i, bounds[i], bounds[i + 1]) for i in range(1, k)]
    try:
        run(0, bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


@dataclass
class LayerParams:
    """One layer's descriptor plus its parameter arrays.

    Which arrays are present depends on `kind`; `svkit.models.zoo` builds
    every layer with its kind's arrays. A softmax layer has a dense layer's
    arrays; its nonlinearity is fused into the loss, so its forward emits
    logits.

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


def conv3d_backward(x, params: LayerParams, grad_out, input_grad: bool = True, out=None):
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

    The input gradient is accumulated from zeros after the weight gradient
    has read the input: in `out`, a float64 array of x's shape, which may be
    x itself, or else in a fresh array. A same-pad conv accumulates it in
    its own zero-padded copy of x either way and returns the view without
    the padding. `x` and `grad_out` are left unchanged unless passed as
    `out`.
    """
    xb, p, extent = _conv_prepare(x, params)
    w = params.weights
    kd, kh, kw, cin, cout = w.shape
    gb = _require_batch(grad_out, 4, "conv3d grad_out")
    expected = (xb.shape[0],) + extent + (cout,)
    if gb.shape != expected:
        raise DimensionError(f"grad_out shape {gb.shape} does not match output {expected}")
    gb = np.ascontiguousarray(gb)
    grads = {"weights": _conv_weight_grad(xb, w, params.stride, gb), "bias": gb.reshape(-1, cout).sum(axis=0)}
    if not input_grad:
        return None, grads
    tap = np.empty((_workers(xb.shape[0]), int(np.prod(extent)), cin))  # one tap's product for one example, per worker
    if p:
        gxp = xb  # this call's own padded copy
    elif out is None:
        gxp = np.empty(xb.shape)
    elif out.shape == xb.shape:
        gxp = out
    else:
        raise DimensionError(f"out shape {out.shape} does not match input {xb.shape}")
    gxp.fill(0.0)

    def run(t, lo, hi):
        for b in range(lo, hi):
            go2 = gb[b].reshape(-1, cout)
            for i in range(kd):
                for j in range(kh):
                    for k in range(kw):
                        np.matmul(go2, w[i, j, k].T, out=tap[t])
                        xs = _offset_slice(gxp[b], i, j, k, extent, params.stride)
                        xs += tap[t].reshape(xs.shape)

    _in_parallel(xb.shape[0], run)
    gx = gxp[:, p : gxp.shape[1] - p] if p else gxp
    return gx, grads


def _pool_halves(a):
    """The first and second element of each width-2 frequency window: two strided views of `a`."""
    wo = a.shape[3] // 2
    return a[:, :, :, 0 : 2 * wo : 2], a[:, :, :, 1 : 2 * wo : 2]


def maxpool_freq_forward(x):
    """Max over non-overlapping width-2 windows along the frequency axis; returns (y, indices).

    Depth, time, and channel extents are untouched; an odd trailing frequency
    column is dropped. `indices` holds each window's argmax (0 or 1, as
    uint8) for maxpool_freq_backward, by np.argmax's rule: the first element
    wins ties, and a NaN wins, the first NaN if both are.

    The index is (first == first) > (second <= first), and y is selected
    without arithmetic on the values, first ^ ((first ^ second) * index) on
    their int64 views, so y holds the argmax element's exact bytes (a
    (-0.0, +0.0) window gives -0.0, where np.maximum would give +0.0). Each
    example's depth slices are computed one at a time, the examples split
    across workers; the only scratch is one slice's bool buffer per worker.
    """
    xb = _require_batch(x, 4, "maxpool input")
    if xb.shape[3] < 2:
        raise DimensionError(f"freq axis: extent {xb.shape[3]} below pooling window 2")
    first, second = _pool_halves(xb)
    first_bits, second_bits = _pool_halves(xb.view(np.int64))
    y = np.empty(first.shape)
    y_bits = y.view(np.int64)
    idx = np.empty(first.shape, dtype=bool)
    ordered = np.empty((_workers(len(xb)),) + first.shape[2:], dtype=bool)

    def run(i, lo, hi):
        for j in np.ndindex(hi - lo, y.shape[1]):
            j = (lo + j[0], j[1])  # (example, depth slice)
            np.equal(first[j], first[j], out=ordered[i])  # False only at a NaN
            np.less_equal(second[j], first[j], out=idx[j])
            np.greater(ordered[i], idx[j], out=idx[j])
            np.bitwise_xor(first_bits[j], second_bits[j], out=y_bits[j])
            y_bits[j] *= idx[j]
            y_bits[j] ^= first_bits[j]

    _in_parallel(len(xb), run)
    return y, idx.view(np.uint8)


def maxpool_freq_backward(grad_out, indices, width):
    """Route grad_out to each window's argmax; the window's other element, and a dropped odd column, get +0.0.

    `indices` are the window argmaxes (0 or 1) from maxpool_freq_forward and
    `width` is the frequency extent of its input. Each gradient is selected
    on int64 views, second = grad_out * index and first = grad_out ^ second,
    so it holds grad_out's exact bytes or +0.0's; only an odd column is
    filled.
    """
    gb = _require_batch(grad_out, 4, "maxpool grad_out")
    wo = width // 2
    if gb.shape[3] != wo or np.shape(indices) != gb.shape:
        raise DimensionError(
            f"grad_out shape {gb.shape} does not match indices {np.shape(indices)} pooled from width {width}"
        )
    gx = np.empty(gb.shape[:3] + (width, gb.shape[4]))
    first, second = _pool_halves(gx.view(np.int64))
    g_bits = gb.view(np.int64)
    np.multiply(g_bits, indices, out=second)
    np.bitwise_xor(g_bits, second, out=first)
    gx[:, :, :, 2 * wo :] = 0.0
    return gx


_ONE_BITS = np.float64(1.0).view(np.int64)


def _lead(ndim: int) -> int:
    """How many leading axes an op loops over: an index is one depth slice of one example of a cube, or one example."""
    return max(1, ndim - 3)


def _channel_sum(shape, form) -> np.ndarray:
    """Per-channel sum over all leading axes of an array of `shape` that is never built whole.

    form(j, buf) writes the array's slice j into `buf`, for every index j of
    the leading axes _lead loops over, in order. Each slice lands in one
    buffer below a row holding the running sum, and the buffer is summed
    over its rows: numpy's sum over the first axis of a C-ordered (rows,
    channels) array starts from 0.0 and adds the rows one after another, so
    the result keeps the bytes of the whole array's
    `.reshape(-1, channels).sum(axis=0)` when there are two channels or more
    (a single column is summed pairwise).
    """
    lead = _lead(len(shape))
    buf = np.empty((1 + int(np.prod(shape[lead:-1])), shape[-1]))
    rows = buf[1:].reshape(shape[lead:])
    total = np.zeros(shape[-1])
    for j in np.ndindex(shape[:lead]):
        form(j, rows)
        buf[0] = total
        buf.sum(axis=0, out=total)
    return total


def _prelu_slope(slope, channels: int) -> np.ndarray:
    """`slope` as a contiguous float64 vector of one entry per channel, so that it has an int64 view."""
    s = np.ascontiguousarray(slope, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != channels:
        raise DimensionError(f"channel axis: slope length {s.shape} does not match channel count {channels}")
    return s


def _prelu_factor(x, slope, f) -> None:
    """f = the int64 bits of x's PReLU factor: exactly slope[c] where x < 0, else exactly 1.0.

    Selected as 1.0 ^ ((1.0 ^ slope) * (x < 0)), so it is one of the two for
    every x and slope, a NaN x taking 1.0.
    """
    np.less(x, 0.0, out=f)
    f *= _ONE_BITS ^ slope.view(np.int64)
    f ^= _ONE_BITS


def prelu_forward(x, slope, out=None) -> np.ndarray:
    """y = x for x >= 0, y = slope[c] * x for x < 0 (per-channel slope).

    Computed as x times its PReLU factor (_prelu_factor): x * 1.0 is x, so
    every entry has the bytes of the formula, -0.0 included, and each is one
    rounding or none. The work goes one _lead index at a time, the examples
    split across workers, the factor in each worker's small buffer. y goes
    into `out`, a float64 array of x's shape, which may be x itself (each
    slice's factor is taken before the slice is written); without one it
    goes into one fresh buffer and `x` is left unchanged.
    """
    x = _require_channel_batch(x, "prelu input")
    s = _prelu_slope(slope, x.shape[-1])
    y = np.empty(x.shape) if out is None else out
    lead = _lead(x.ndim)
    f = np.empty((_workers(len(x)),) + x.shape[lead:], dtype=np.int64)

    def run(i, lo, hi):
        x_r, y_r = x[lo:hi], y[lo:hi]
        for j in np.ndindex(x_r.shape[:lead]):
            _prelu_factor(x_r[j], s, f[i])
            np.multiply(x_r[j], f[i].view(np.float64), out=y_r[j])

    _in_parallel(len(x), run)
    return y


def prelu_backward(x, slope, grad_out, out=None, bn: LayerParams | None = None):
    """Gradients of prelu_forward w.r.t. input and slope.

    The input gradient is grad_out times x's PReLU factor (_prelu_factor):
    grad_out where x >= 0 and grad_out * slope where x < 0, each a single
    rounding or none, so its bytes do not depend on how the pass is
    arranged. The slope gradient sums min(x, 0) * grad_out per channel as a
    running sum (_channel_sum), with the bytes of one whole-array sum; it
    can differ from a sum that skips the x >= 0 terms only in the sign of
    an all-zero channel's 0.

    With `bn`, `x` is that train-mode batchnorm's normalized input x_hat,
    and the PReLU input is the batchnorm's output, formed one slice at a
    time with the two roundings of _batchnorm_affine, so byte for byte what
    batchnorm_forward returned.

    The pass runs serially, one _lead index at a time: it forms the slice's
    input, its slope terms and its factor in small buffers and then writes
    its input gradient, so no full-size scratch array is built. The input
    gradient goes into `out`, a float64 array of x's shape, which may be
    grad_out itself; without one it goes into a fresh buffer, and `x` and
    `grad_out` are left unchanged.
    """
    x = _require_channel_batch(x, "prelu input")
    s = _prelu_slope(slope, x.shape[-1])
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != x.shape:
        raise DimensionError(f"grad_out shape {g.shape} does not match input {x.shape}")
    gx = np.empty(x.shape) if out is None else out
    lead = _lead(x.ndim)
    f = np.empty(x.shape[lead:], dtype=np.int64)
    xs = None if bn is None else np.empty(x.shape[lead:])

    def one_slice(j, terms):
        x_j = x[j] if bn is None else _batchnorm_affine(x[j], bn, xs)
        np.minimum(x_j, 0.0, out=terms)
        terms *= g[j]
        _prelu_factor(x_j, s, f)
        np.multiply(g[j], f.view(np.float64), out=gx[j])

    return gx, {"prelu_slope": _channel_sum(x.shape, one_slice)}


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


def _batchnorm_affine(xh, params: LayerParams, y) -> np.ndarray:
    """y = (xh * scale) + shift: the one place that knows these two roundings. Returns y."""
    np.multiply(xh, params.bn_scale, out=y)
    y += params.bn_shift
    return y


def batchnorm_running_inv(params: LayerParams) -> np.ndarray:
    """1/sqrt(running_var + eps): the per-channel factor inference batchnorm normalizes with."""
    return 1.0 / np.sqrt(params.bn_running_var + BN_EPS)


def batchnorm_forward(x, params: LayerParams, cache: dict | None = None, out=None) -> np.ndarray:
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
    normalized input in place, and the output buffer holds the squares
    before it takes the output: one fresh full-size buffer, the normalized
    input, besides the output. The mean and the sum of squares are single
    whole-array reductions; the elementwise passes around them are split by
    example across workers, and one pass both normalizes a run and writes
    its output (_batchnorm_affine). The inference output is the one
    expression ((x - mean) * scale) * inv + shift, rounded in that order,
    with inv from batchnorm_running_inv. Its one production input is a
    conv's (1, C) bias row: `Network.embed_vectors` folds this map into the
    conv before it (_bn_folded) and calls this function only on that bias.

    The output goes into `out`, a float64 array of x's shape, which may be
    x itself (each run's deviations are taken before its squares are
    written); without one it goes into a fresh buffer and `x` is left
    unchanged.
    """
    x = _require_channel_batch(x, "batchnorm input")
    c = x.shape[-1]
    if params.bn_scale.shape != (c,):
        raise DimensionError(f"channel axis: batchnorm params sized for {params.bn_scale.shape}, input has {c} channels")
    if cache is None:
        normalized = ((x - params.bn_running_mean) * params.bn_scale) * batchnorm_running_inv(params)
        return np.add(normalized, params.bn_shift, out=out)
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes)
    xh = np.empty(x.shape)
    y = np.empty(x.shape) if out is None else out

    def deviations(i, lo, hi):
        np.subtract(x[lo:hi], mu, out=xh[lo:hi])
        np.multiply(xh[lo:hi], xh[lo:hi], out=y[lo:hi])

    _in_parallel(len(x), deviations)
    var = y.sum(axis=axes) / (x.size // c)
    inv = 1.0 / np.sqrt(var + BN_EPS)

    def normalize(i, lo, hi):
        xh[lo:hi] *= inv
        _batchnorm_affine(xh[lo:hi], params, y[lo:hi])

    _in_parallel(len(x), normalize)
    params.bn_running_mean = BN_MOMENTUM * params.bn_running_mean + (1 - BN_MOMENTUM) * mu
    params.bn_running_var = BN_MOMENTUM * params.bn_running_var + (1 - BN_MOMENTUM) * var
    cache["bn_xh"] = xh
    cache["bn_inv"] = inv
    return y


def batchnorm_backward(params: LayerParams, grad_out, cache: dict, out=None):
    """Gradients of train-mode batchnorm_forward w.r.t. input, scale, and shift.

    Reads the normalized input and 1/sqrt(var + eps) from the `cache` that
    batchnorm_forward filled. The scale and shift gradients are the
    per-channel sums of grad_out * x_hat and grad_out that the input
    gradient also uses: the shift sums are one whole-array reduction, the
    scale sums a running sum of the products formed one slice at a time
    (_channel_sum), with that reduction's bytes. The input gradient is
    (scale * inv / n) * (n * g - sum(g) - x_hat * sum(g * x_hat)), rounded
    in that order, so all three keep their bytes however the passes are
    arranged.

    The input gradient pass is split by example across workers; its
    x_hat * sum(g * x_hat) term is formed in each worker's small buffer one
    _lead index at a time. The input gradient goes into `out`, a float64
    array of grad_out's shape, which may be grad_out itself; without one it
    goes into a fresh buffer, and `grad_out` is left unchanged. The cache
    is left unchanged.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    xh = cache["bn_xh"]
    inv = cache["bn_inv"]
    if g.shape != xh.shape:
        raise DimensionError(f"grad_out shape {g.shape} does not match input {xh.shape}")
    axes = tuple(range(g.ndim - 1))
    n = g.size // g.shape[-1]
    gsum = g.sum(axis=axes)
    gxh_sum = _channel_sum(g.shape, lambda j, terms: np.multiply(g[j], xh[j], out=terms))
    factor = params.bn_scale * inv / n
    gx = np.empty(g.shape) if out is None else out
    lead = _lead(g.ndim)
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
