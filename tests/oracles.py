"""Independent reference implementations the tests check against.

Everything here is deliberately naive: explicit loops, direct summation,
exhaustive enumeration, arbitrary-precision arithmetic. None of it shares
code with the library paths it verifies. The finite-difference checker at
the end re-evaluates a network's loss from scratch through the library's own
layer table; it checks backward passes, which it never calls.
"""

from __future__ import annotations

from decimal import Decimal, getcontext

import numpy as np

from svkit.corpus.slicing import slice_utterances
from svkit.dsp.audio import AudioSignal, load_wav
from svkit.dsp.features import LOG_FLOOR, N_FFT, N_FRAMES, FeatureMap
from svkit.errors import ConfigError, DimensionError, NoSpeechError, SignalTooShortError
from svkit.models import network as network_module
from svkit.nn.layers import softmax_xent_batch, softmax_xent_batch_gradient


def conv3d_direct(x, w, b, stride, pad_depth):
    """Seven-nested-loop valid convolution (depth padding optional)."""
    kd, kh, kw, cin, cout = w.shape
    if pad_depth:
        p = (kd - 1) // 2
        x = np.pad(x, ((p, p), (0, 0), (0, 0), (0, 0)))
    sd, sh, sw = stride
    do = (x.shape[0] - kd) // sd + 1
    ho = (x.shape[1] - kh) // sh + 1
    wo = (x.shape[2] - kw) // sw + 1
    y = np.zeros((do, ho, wo, cout))
    for d in range(do):
        for h in range(ho):
            for v in range(wo):
                window = x[d * sd : d * sd + kd, h * sh : h * sh + kh, v * sw : v * sw + kw, :]
                for o in range(cout):
                    y[d, h, v, o] = np.sum(window * w[:, :, :, :, o]) + b[o]
    return y


def _im2col_batch(xp, kext, stride, out):
    kd, kh, kw = kext
    sd, sh, sw = stride
    do, ho, wo = out
    cin = xp.shape[-1]
    col = np.empty((xp.shape[0], do, ho, wo, kd * kh * kw * cin))
    slot = 0
    for i in range(kd):
        for j in range(kh):
            for k in range(kw):
                col[..., slot : slot + cin] = xp[
                    :, i : i + (do - 1) * sd + 1 : sd, j : j + (ho - 1) * sh + 1 : sh, k : k + (wo - 1) * sw + 1 : sw
                ]
                slot += cin
    return col.reshape(-1, slot)


def _pad_and_extents(x, w, stride, pad_depth):
    kd = w.shape[0]
    p = (kd - 1) // 2 if pad_depth else 0
    xp = np.pad(x, ((0, 0), (p, p), (0, 0), (0, 0), (0, 0))) if p else x
    out = tuple((n - k) // s + 1 for n, k, s in zip(xp.shape[1:4], w.shape[:3], stride))
    return xp, p, out


def conv3d_im2col(x, w, b, stride, pad_depth):
    """Batched convolution as one product over the whole batch's patch matrix.

    This is the batch-wide im2col formulation the library's per-slice
    products must reproduce byte for byte.
    """
    xp, _, out = _pad_and_extents(x, w, stride, pad_depth)
    cout = w.shape[-1]
    y = (_im2col_batch(xp, w.shape[:3], stride, out) @ w.reshape(-1, cout)).reshape((x.shape[0],) + out + (cout,))
    y += b
    return y


def conv3d_im2col_backward(x, w, stride, pad_depth, grad_out):
    """(input, weight, bias) gradients of conv3d_im2col.

    The weight gradient is the patch matrix's transpose times grad_out; the
    input gradient scatters grad_out times each tap's weights back tap by tap.
    """
    xp, p, out = _pad_and_extents(x, w, stride, pad_depth)
    kd, kh, kw, _, cout = w.shape
    sd, sh, sw = stride
    do, ho, wo = out
    go2 = np.ascontiguousarray(grad_out).reshape(-1, cout)
    gw = (_im2col_batch(xp, w.shape[:3], stride, out).T @ go2).reshape(w.shape)
    gxp = np.zeros_like(xp)
    for i in range(kd):
        for j in range(kh):
            for k in range(kw):
                xs = gxp[
                    :, i : i + (do - 1) * sd + 1 : sd, j : j + (ho - 1) * sh + 1 : sh, k : k + (wo - 1) * sw + 1 : sw
                ]
                xs += (go2 @ w[i, j, k].T).reshape(xs.shape)
    gx = gxp[:, p : gxp.shape[1] - p] if p else gxp
    return gx, gw, go2.sum(axis=0)


def batchnorm_train_reference(x, scale, shift, eps):
    """Train-mode batchnorm, one full-size expression per step: (y, x_hat, inv, mean, var).

    The arrangement of passes the library's batchnorm_forward replaces, kept
    as the reference its output bytes must match.
    """
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    xh = (x - mu) * inv
    return scale * xh + shift, xh, inv, mu, var


def batchnorm_infer_reference(x, scale, shift, running_mean, running_var, eps):
    """Inference batchnorm as one whole-array expression over the running statistics."""
    return scale * (x - running_mean) * (1.0 / np.sqrt(running_var + eps)) + shift


def batchnorm_train_backward_reference(x, scale, grad_out, eps):
    """(input, scale, shift) gradients of batchnorm_train_reference, statistics recomputed from x."""
    g = grad_out
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes)
    inv = 1.0 / np.sqrt(x.var(axis=axes) + eps)
    xh = (x - mu) * inv
    n = x.size // x.shape[-1]
    gsum = g.sum(axis=axes)
    gxh_sum = (g * xh).sum(axis=axes)
    gx = (scale * inv / n) * (n * g - gsum - xh * gxh_sum)
    return gx, (g * xh).sum(axis=axes), g.sum(axis=axes)


def prelu_reference(x, slope):
    return np.where(x >= 0.0, x, slope * x)


def prelu_backward_reference(x, slope, grad_out):
    """(input, slope) gradients of prelu_reference."""
    g = grad_out
    neg = x < 0.0
    gx = np.where(neg, slope * g, g)
    gs = np.where(neg, g * x, 0.0).reshape(-1, x.shape[-1]).sum(axis=0)
    return gx, gs


def maxpool_freq_direct(x):
    """Window-by-window max along the frequency axis.

    np.maximum gives +0.0 for a (-0.0, +0.0) window, so this is not the
    pool's byte reference on signed-zero ties; maxpool_freq_reference is.
    """
    d, h, w, c = x.shape
    wo = w // 2
    y = np.empty((d, h, wo, c))
    for i in range(wo):
        y[:, :, i, :] = np.maximum(x[:, :, 2 * i, :], x[:, :, 2 * i + 1, :])
    return y


def maxpool_freq_reference(x):
    """(y, indices) of the frequency pool of a batch, by np.argmax and np.take_along_axis.

    The arrangement the library's maxpool_freq_forward replaces, kept as its
    byte reference: each window's first element wins ties, a NaN wins (the
    first NaN if both are), and y is the winner's exact value.
    """
    wo = x.shape[3] // 2
    windows = x[:, :, :, : 2 * wo, :].reshape(x.shape[:3] + (wo, 2, x.shape[4]))
    idx = np.argmax(windows, axis=4).astype(np.uint8)
    y = np.take_along_axis(windows, idx[:, :, :, :, None, :], axis=4)[:, :, :, :, 0, :]
    return y, idx


def maxpool_freq_backward_reference(grad_out, indices, width):
    """Input gradient of maxpool_freq_reference: grad_out put at each window's argmax into zeros."""
    wo = width // 2
    gx = np.zeros(grad_out.shape[:3] + (width, grad_out.shape[4]))
    gview = gx[:, :, :, : 2 * wo, :].reshape(grad_out.shape[:3] + (wo, 2, grad_out.shape[4]))
    np.put_along_axis(gview, indices[:, :, :, :, None, :], grad_out[:, :, :, :, None, :], axis=4)
    return gx


def locally_connected_direct(x, weights, bias):
    """Per-patch direct summation over an explicitly padded grid."""
    gh, gw, units, p, _ = weights.shape
    xp = np.zeros((gh * p, gw * p))
    xp[: x.shape[0], : x.shape[1]] = x
    out = np.empty((gh, gw, units))
    for i in range(gh):
        for j in range(gw):
            patch = xp[i * p : (i + 1) * p, j * p : (j + 1) * p]
            for u in range(units):
                out[i, j, u] = np.sum(patch * weights[i, j, u]) + bias[i, j, u]
    return out.reshape(-1)


def softmax_xent_decimal(logits, label, precision=50):
    """Cross-entropy via arbitrary-precision decimal arithmetic."""
    getcontext().prec = precision
    vals = [Decimal(float(v)) for v in logits]
    total = sum(v.exp() for v in vals)
    return float(total.ln() - vals[label])


def roc_brute_force(genuine, impostor):
    """Exhaustive threshold enumeration; returns (points, eer, auc).

    points are (tau, tpr, far) for every distinct score plus sentinels; EER is
    linearly interpolated where far - frr changes sign; AUC is a trapezoid sum
    over points sorted by FAR.
    """
    genuine = [float(s) for s in genuine]
    impostor = [float(s) for s in impostor]
    taus = [-float("inf")] + sorted(set(genuine + impostor)) + [float("inf")]
    points = []
    for t in taus:
        tpr = sum(1 for s in genuine if s >= t) / len(genuine)
        far = sum(1 for s in impostor if s >= t) / len(impostor)
        points.append((t, tpr, far))
    eer = None
    for j in range(1, len(points)):
        d0 = points[j - 1][2] - (1.0 - points[j - 1][1])
        d1 = points[j][2] - (1.0 - points[j][1])
        if d1 <= 0.0:
            if d1 == 0.0:
                eer = points[j][2]
            else:
                frac = d0 / (d0 - d1)
                eer = points[j - 1][2] + frac * (points[j][2] - points[j - 1][2])
            break
    curve = sorted((far, tpr) for _, tpr, far in points)
    auc = 0.0
    for j in range(1, len(curve)):
        auc += 0.5 * (curve[j][0] - curve[j - 1][0]) * (curve[j][1] + curve[j - 1][1])
    return points, eer, auc


def one_vs_all_trials(models, test_maps, vecs):
    """The per-trial scoring loop: one (utterance_id, claimed_id, label, score) row per trial.

    Test utterances in order, each against every model in order; `vecs` are
    the test embeddings, one row per map, and a score is the clipped dot
    product of two unit vectors.
    """
    rows = []
    for fmap, vec in zip(test_maps, vecs):
        for speaker, model in zip(models.speaker_ids, models.vectors):
            label = "genuine" if speaker == fmap.speaker_id else "impostor"
            score = float(np.clip(model @ vec, -1.0, 1.0))
            rows.append((fmap.utterance_id, speaker, label, score))
    return rows


def dft_power_spectrum(frame, n_fft):
    """Power spectrum by explicit complex summation (no FFT)."""
    frame = np.asarray(frame, dtype=np.float64)
    bins = np.arange(n_fft // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(bins, np.arange(frame.size)) / n_fft)
    spectrum = basis @ frame
    return (spectrum.real**2 + spectrum.imag**2) / n_fft


def detect_voice_loop(signal: AudioSignal) -> AudioSignal:
    """Median-energy VAD one frame at a time: every pass recomputes each kept frame's energy.

    Non-overlapping 20 ms frames plus a trailing partial frame; frames whose
    mean square exceeds half the median frame energy are kept, repeated
    until no frame drops out.
    """
    frame_len = int(round(signal.sample_rate * 20.0 / 1000.0))
    if len(signal) <= frame_len:
        raise SignalTooShortError(f"signal of {len(signal)} samples is not longer than one VAD frame")
    samples = signal.samples
    frames = [samples[i : i + frame_len] for i in range(0, len(samples) - frame_len + 1, frame_len)]
    if len(frames) * frame_len < len(samples):
        frames.append(samples[len(frames) * frame_len :])
    while True:
        energies = np.array([float(np.mean(f * f)) for f in frames])
        threshold = 0.5 * float(np.median(energies))
        kept = [f for f, e in zip(frames, energies) if e > threshold]
        if not kept:
            raise NoSpeechError("voice activity detection removed the entire signal")
        if len(kept) == len(frames):
            break
        frames = kept
    return AudioSignal(np.concatenate(frames), signal.sample_rate)


def frame_signal(signal: AudioSignal) -> np.ndarray:
    """One slice's 20 ms Hamming-windowed frames at a 10 ms hop, its tail reflect-padded by one hop."""
    window = int(round(signal.sample_rate * 20.0 / 1000.0))
    hop = int(round(signal.sample_rate * 10.0 / 1000.0))
    x = signal.samples
    if len(x) < window:
        raise SignalTooShortError(f"signal of {len(x)} samples shorter than one {window}-sample window")
    x = np.pad(x, (0, hop), mode="reflect")
    n = (len(x) - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(n)[:, None]
    return x[idx] * np.hamming(window)


def mfec(frames: np.ndarray, filterbank) -> FeatureMap:
    """One slice's windowed frames -> power spectrum -> filterbank energies -> natural log."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] != N_FRAMES:
        raise DimensionError(f"frame axis: got frames shaped {frames.shape}, need exactly {N_FRAMES} frames")
    spectrum = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2) / N_FFT
    energies = power @ filterbank.weights.T
    return FeatureMap(np.log(np.maximum(energies, LOG_FLOOR)))


def slice_feature_maps(voiced: AudioSignal, filterbank) -> list[np.ndarray]:
    """Each 0.8 s slice of `voiced`, at the offsets `slice_utterances` gives, cut out, framed and mapped on its own."""
    length = round(0.8 * voiced.sample_rate)
    pieces = [AudioSignal(voiced.samples[s : s + length], voiced.sample_rate) for s in slice_utterances(voiced)]
    return [mfec(frame_signal(piece), filterbank).values for piece in pieces]


def feature_maps_per_slice(entries, filterbank, max_slices: int | None) -> dict[str, list[tuple[str, np.ndarray]]]:
    """speaker -> (utterance id, map) per slice, in manifest order, capped per speaker: every slice alone."""
    maps: dict[str, list] = {}
    for entry in entries:
        out = maps.setdefault(entry.speaker_id, [])
        if max_slices is not None and len(out) >= max_slices:
            continue
        voiced = detect_voice_loop(load_wav(entry.path))
        for i, values in enumerate(slice_feature_maps(voiced, filterbank)):
            if max_slices is not None and len(out) >= max_slices:
                break
            out.append((f"{entry.path.stem}#{i:03d}", values))
    return maps


# -- finite differences and whole-network helpers ----------------------------


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the scalar function `f()` w.r.t. `x`.

    `x` is perturbed in place and restored; `f` must read the current contents
    of `x` on every call and must have no other state.
    """
    if not 0.0 < eps <= 1e-3:
        raise ConfigError(f"eps must be in (0, 1e-3], got {eps}")
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * eps)
    return g


# Central differences at eps=1e-6 on float64 losses carry ~1e-10 rounding
# noise; below this both gradients are indistinguishable from zero (e.g. a
# conv bias exactly canceled by the following batchnorm).
VANISHING_GRADIENT = 1e-8


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest |a - n| normalized by the overall gradient magnitude."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0))
    if scale < VANISHING_GRADIENT:
        return 0.0
    return float(np.abs(a - n).max(initial=0.0) / scale)


def forward_logits(network, xb, train: bool = False):
    """Classifier logits of a batch, layer by layer through the network's layer table.

    A train pass hands each layer a fresh cache, so batchnorm normalizes with
    the batch statistics (and folds them into its running averages); an
    inference pass hands it none.
    """
    for layer in network.layers:
        xb = network_module._KINDS[layer.kind].forward(layer, xb, {} if train else None)
    return xb


def loss_and_gradients(network, xb, labels):
    """Train-mode loss, input gradient and per-layer parameter gradients."""
    logits, caches = network.forward_with_cache(xb)
    loss, probs = softmax_xent_batch(logits, labels)
    grad_x, grads = network.backward(caches, softmax_xent_batch_gradient(probs, labels))
    return loss, grad_x, grads


def finite_diff_check(network, xb, labels, eps: float = 1e-6) -> float:
    """Max relative gradient error of a network on one batch.

    Central differences are taken over every learnable scalar and every input
    scalar, each against the train-mode loss recomputed from scratch.
    """
    xb = np.array(xb, dtype=np.float64)
    _, grad_x, grads = loss_and_gradients(network, xb, labels)

    def loss():
        return softmax_xent_batch(forward_logits(network, xb, train=True), labels)[0]

    worst = max_relative_error(grad_x, numeric_gradient(loss, xb, eps))
    for layer, layer_grads in zip(network.layers, grads):
        if not layer_grads:
            continue
        for field, arr in layer.learnable():
            if field not in layer_grads:
                continue
            numeric = numeric_gradient(loss, arr, eps)
            worst = max(worst, max_relative_error(layer_grads[field], numeric))
    return worst
