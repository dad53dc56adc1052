"""Independent reference implementations the tests check against.

Everything here is deliberately naive: explicit loops, direct summation,
exhaustive enumeration, arbitrary-precision arithmetic. None of it shares
code with the library paths it verifies.
"""

from __future__ import annotations

from decimal import Decimal, getcontext

import numpy as np


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
    """Window-by-window max along the frequency axis."""
    d, h, w, c = x.shape
    wo = w // 2
    y = np.empty((d, h, wo, c))
    for i in range(wo):
        y[:, :, i, :] = np.maximum(x[:, :, 2 * i, :], x[:, :, 2 * i + 1, :])
    return y


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
        for model in models:
            label = "genuine" if model.speaker_id == fmap.speaker_id else "impostor"
            score = float(np.clip(model.embedding @ vec, -1.0, 1.0))
            rows.append((fmap.utterance_id, model.speaker_id, label, score))
    return rows


def dft_power_spectrum(frame, n_fft):
    """Power spectrum by explicit complex summation (no FFT)."""
    frame = np.asarray(frame, dtype=np.float64)
    bins = np.arange(n_fft // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(bins, np.arange(frame.size)) / n_fft)
    spectrum = basis @ frame
    return (spectrum.real**2 + spectrum.imag**2) / n_fft
