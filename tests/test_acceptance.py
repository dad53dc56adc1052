"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
(6 and 7) train both networks twice on a seed-fixed synthetic corpus through
the real CLI; expect several minutes of wall time.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    conv3d_direct,
    dft_power_spectrum,
    finite_diff_check,
    max_relative_error,
    numeric_gradient,
    roc_brute_force,
)
from svkit.cli import main
from svkit.dsp.audio import AudioSignal
from svkit.dsp.features import N_FFT, mel_filterbank, signal_to_feature_map
from svkit.errors import ChecksumError
from svkit.models.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
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
from svkit.protocol.enrollment import SpeakerModel, load_speaker_models, save_speaker_models
from svkit.protocol.metrics import compute_roc
from svkit.rng import Rng

SEED = 2026
SR = 16000

EXPECTED_TABLE_CHAIN = {
    "conv1_1": (80, 36, 16),
    "conv1_2": (36, 36, 16),
    "pool1": (36, 18, 16),
    "conv2_1": (36, 15, 32),
    "conv2_2": (15, 15, 32),
    "pool2": (15, 7, 32),
    "conv3_1": (15, 5, 64),
    "conv3_2": (9, 5, 64),
    "conv4_1": (9, 3, 128),
    "conv4_2": (3, 3, 128),
}
EXPECTED_DEPTH_TRACE = [18, 16, 14, 12, 10, 8, 6, 4]


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS - {text}")


def test_criterion_1_table_shape_conformance():
    t0 = time.time()
    net = build_3dcnn(20, 511, Rng(0))
    xb = Rng(1).normal((1, 20, 80, 40, 1))
    outputs = {}
    for layer in net.layers[:-1]:
        xb = net._run(xb, [layer], [])
        outputs[layer.name] = xb.shape[1:]
    depth_trace = []
    for name, expected_tfc in EXPECTED_TABLE_CHAIN.items():
        got = outputs[name]  # (depth, time, freq, channels)
        assert got[1:] == expected_tfc, f"{name}: {got[1:]} != {expected_tfc}"
        if name.startswith("conv"):
            depth_trace.append(got[0])
    assert depth_trace == EXPECTED_DEPTH_TRACE
    assert outputs["flatten"] == (4608,)
    assert net.layers[-3].weights.shape == (4608, 128)  # fc5 fan-in
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"all table extents and depth trace 20->4, fan-in 4608 ({elapsed:.1f}s)")


def test_criterion_2_convolution_oracle():
    t0 = time.time()
    worst = 0.0
    for case in range(200):
        r = Rng(7_000 + case)
        dims = [int(r.integers(2, 7)) for _ in range(3)]
        cin = int(r.integers(1, 3))
        cout = int(r.integers(1, 4))
        kext = tuple(int(r.integers(1, min(3, d) + 1)) for d in dims)
        stride = tuple(int(r.integers(1, 3)) for _ in range(3))
        pad = bool(r.integers(0, 2)) and kext[0] % 2 == 1
        x = r.normal((*dims, cin))
        w = r.normal((*kext, cin, cout))
        b = r.normal((cout,))
        lp = LayerParams(kind="conv3d", weights=w, bias=b, stride=stride, pad_depth=pad)
        got = conv3d_forward(x[None], lp)[0]
        want = conv3d_direct(x, w, b, stride, pad)
        worst = max(worst, np.abs(got - want).max() / max(np.abs(want).max(), 1e-12))
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 60.0
    report(2, f"200 randomized cases, worst relative error {worst:.2e} ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_3_gradient_checks():
    t0 = time.time()
    eps = 1e-6
    errors = {}

    def projected(forward, backward, x, arrays, r, nudge=0.0):
        if nudge:
            x = x + nudge * np.sign(x)
        proj = r.normal(forward(x).shape)

        def loss():
            return float((forward(x) * proj).sum())

        gx, grads = backward(x, proj)
        worst = max_relative_error(gx, numeric_gradient(loss, x, eps))
        for field, arr in arrays.items():
            worst = max(worst, max_relative_error(grads[field], numeric_gradient(loss, arr, eps)))
        return worst

    r = Rng(40)
    w = r.normal((3, 2, 3, 2, 3))
    b = r.normal((3,))
    conv = LayerParams(kind="conv3d", weights=w, bias=b, stride=(1, 2, 1))
    errors["conv3d"] = projected(
        lambda x: conv3d_forward(x, conv),
        lambda x, g: conv3d_backward(x, conv, g),
        r.normal((4, 5, 6, 2))[None],
        {"weights": w, "bias": b},
        r.child(1),
    )

    x = r.normal((2, 3, 6, 2))[None]
    errors["maxpool_freq"] = projected(
        lambda x_: maxpool_freq_forward(x_)[0],
        lambda x_, g: (maxpool_freq_backward(g, maxpool_freq_forward(x_)[1], x_.shape[3]), {}),
        x,
        {},
        r.child(2),
    )

    slope = np.full(4, 0.25)
    errors["prelu"] = projected(
        lambda x_: prelu_forward(x_, slope),
        lambda x_, g: prelu_backward(x_, slope, g),
        r.normal((5, 4)),
        {"prelu_slope": slope},
        r.child(3),
        nudge=1e-3,
    )

    bn = LayerParams(
        kind="batchnorm",
        bn_scale=r.normal((5,), mean=1.0, std=0.1),
        bn_shift=r.normal((5,), std=0.1),
        bn_running_mean=np.zeros(5),
        bn_running_var=np.ones(5),
    )

    def bn_backward(x_, g):
        cache = {}
        batchnorm_forward(x_, bn, cache)
        return batchnorm_backward(bn, g, cache)

    errors["batchnorm"] = projected(
        lambda x_: batchnorm_forward(x_, bn, {}),
        bn_backward,
        r.normal((6, 5)),
        {"bn_scale": bn.bn_scale, "bn_shift": bn.bn_shift},
        r.child(4),
    )

    wf = r.normal((6, 4))
    bf = r.normal((4,))
    fc = LayerParams(kind="fully_connected", weights=wf, bias=bf)
    errors["fully_connected"] = projected(
        lambda x_: fully_connected_forward(x_, fc),
        lambda x_, g: fully_connected_backward(x_, fc, g),
        r.normal((6,))[None],
        {"weights": wf, "bias": bf},
        r.child(5),
    )

    wl = r.normal((2, 2, 3, 8, 8))
    bl = r.normal((2, 2, 3))
    lc = LayerParams(kind="locally_connected", weights=wl, bias=bl)
    errors["locally_connected"] = projected(
        lambda x_: locally_connected_forward(x_, lc),
        lambda x_, g: locally_connected_backward(x_, lc, g),
        r.normal((11, 13))[None],
        {"weights": wl, "bias": bl},
        r.child(6),
    )

    logits = r.normal((7,))[None]
    _, probs = softmax_xent_batch(logits, [2])
    errors["softmax"] = max_relative_error(
        softmax_xent_batch_gradient(probs, [2]),
        numeric_gradient(lambda: softmax_xent_batch(logits, [2])[0], logits, eps),
    )

    for kind, err in errors.items():
        assert err < 1e-6, f"{kind}: {err:.3e}"

    net = build_3dcnn(2, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=6)
    stack_err = finite_diff_check(net, Rng(5).normal((2, 80, 40, 1))[None], [1], eps=eps)
    assert stack_err < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 300.0
    per_layer = max(errors.values())
    report(3, f"per-layer worst {per_layer:.2e} (< 1e-6), full stack {stack_err:.2e} (< 1e-4) ({elapsed:.0f}s)")


def test_criterion_4_metric_oracle():
    t0 = time.time()
    worst_eer = worst_auc = 0.0
    for case in range(200):
        r = Rng(90_000 + case)
        n_g = int(r.integers(1, 1001))
        n_i = int(r.integers(1, 1001))  # up to 2000 trials total
        g = r.normal((n_g,), mean=0.3, std=0.6)
        i = r.normal((n_i,), std=0.6)
        if case % 3 == 0:
            g, i = np.round(g, 1), np.round(i, 1)  # heavy ties
        summary = compute_roc(g, i)
        _, eer, auc = roc_brute_force(g, i)
        worst_eer = max(worst_eer, abs(summary.eer - eer))
        worst_auc = max(worst_auc, abs(summary.auc - auc))
    assert worst_eer < 1e-9 and worst_auc < 1e-9

    perfect = compute_roc(np.array([0.9, 0.8]), np.array([0.1, 0.2]))
    assert perfect.eer == 0.0 and perfect.auc == 1.0

    r = Rng(123_456)
    same = r.normal((2 * 10**4,))
    chance = compute_roc(same[: 10**4], same[10**4 :])
    assert abs(chance.eer - 0.5) < 0.02
    elapsed = time.time() - t0
    report(
        4,
        f"200 score sets within {max(worst_eer, worst_auc):.1e} of brute force; "
        f"chance EER {chance.eer:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_5_feature_contract():
    bank = mel_filterbank()
    t = np.arange(int(0.8 * SR)) / SR
    voiced = AudioSignal(0.5 * np.sin(2 * np.pi * 440.0 * t), SR)
    assert signal_to_feature_map(voiced, bank, [0]).shape == (1, 80, 40)

    silent = signal_to_feature_map(AudioSignal(np.zeros(int(0.8 * SR)), SR), bank, [0])
    assert np.all(silent == math.log(1e-10))

    window = np.hamming(320)
    frame_t = np.arange(320) / SR
    for k in range(bank.n_filters):
        frame = np.cos(2 * np.pi * bank.center_freqs[k] * frame_t) * window
        energies = bank.weights @ dft_power_spectrum(frame, N_FFT)
        assert int(np.argmax(energies)) == k, f"filter {k} not maximal for its own center"
    report(5, "80x40 map from 0.8 s audio; log-floor map; all 40 center tones maximal")


# -- end-to-end experiment -----------------------------------------------------


def run_experiment(root: Path) -> dict:
    """Synth + train/enroll/evaluate both models; returns artifacts and metrics."""
    root.mkdir(parents=True, exist_ok=True)
    assert (
        main(
            ["synth", "--speakers", "30", "--utterances", "3", "--seed", str(SEED),
             "--out", str(root / "data"), "--duration", "4.0", "--dev-speakers", "20"]
        )
        == 0
    )
    manifest = str(root / "data" / "manifest.csv")
    out = {"root": root}
    for tag, model, lr, epochs in (
        ("cnn3d", "cnn3d", "0.003", "8"),
        ("lcn", "lcn_dvector", "0.0003", "8"),
    ):
        d = root / tag
        assert (
            main(
                ["train", "--manifest", manifest, "--model", model, "--zeta", "10",
                 "--epochs", epochs, "--lr", lr, "--batch", "8", "--seed", str(SEED),
                 "--max-slices", "40", "--out", str(d / "checkpoint.svck")]
            )
            == 0
        )
        assert (
            main(
                ["enroll", "--manifest", manifest, "--checkpoint", str(d / "checkpoint.svck"),
                 "--seed", str(SEED), "--max-slices", "40", "--out", str(d / "models.svsm")]
            )
            == 0
        )
        assert (
            main(
                ["evaluate", "--manifest", manifest, "--checkpoint", str(d / "checkpoint.svck"),
                 "--models", str(d / "models.svsm"), "--seed", str(SEED),
                 "--max-slices", "40", "--out-dir", str(d)]
            )
            == 0
        )
        out[tag] = json.loads((d / "metrics.json").read_text())
    return out


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    t0 = time.time()
    result = run_experiment(tmp_path_factory.mktemp("exp") / "run1")
    result["elapsed"] = time.time() - t0
    return result


@pytest.mark.slow
def test_criterion_6_end_to_end_synthetic_experiment(experiment):
    cnn_eer = experiment["cnn3d"]["eer"]
    lcn_eer = experiment["lcn"]["eer"]
    assert experiment["cnn3d"]["model_kind"] == "one_shot_3d"
    assert experiment["lcn"]["model_kind"] == "d_vector_avg"
    assert experiment["cnn3d"]["zeta"] == 10
    assert cnn_eer < 0.25, f"cube network EER {cnn_eer}"
    assert lcn_eer < 0.25, f"baseline EER {lcn_eer}"
    assert experiment["elapsed"] < 1800.0
    ordering = "cube <= baseline" if cnn_eer <= lcn_eer else "baseline < cube"
    report(
        6,
        f"cube EER {cnn_eer:.4f} / AUC {experiment['cnn3d']['auc']:.4f}, "
        f"baseline EER {lcn_eer:.4f} / AUC {experiment['lcn']['auc']:.4f}; "
        f"observed ordering: {ordering} (not asserted); {experiment['elapsed']:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7_determinism(experiment, tmp_path_factory):
    rerun_root = tmp_path_factory.mktemp("exp") / "run2"
    run_experiment(rerun_root)
    first = experiment["root"]
    compared = 0
    for tag in ("cnn3d", "lcn"):
        for name in ("checkpoint.svck", "models.svsm", "scores.csv", "metrics.json", "roc.csv"):
            a = (first / tag / name).read_bytes()
            b = (rerun_root / tag / name).read_bytes()
            assert a == b, f"{tag}/{name} differs between identical runs"
            compared += 1
    wavs = sorted(p.name for p in (first / "data").glob("*.wav"))
    for name in wavs:
        assert (first / "data" / name).read_bytes() == (rerun_root / "data" / name).read_bytes()
    report(7, f"{compared} artifacts plus {len(wavs)} WAVs byte-identical across reruns")


def test_criterion_8_serialization_round_trips(tmp_path):
    net = build_3dcnn(3, 3, Rng(11), channel_widths=(2, 2, 2, 2), embedding_width=6)
    ck = Checkpoint.of(net, epoch=2, seed=11)
    save_checkpoint(ck, tmp_path / "a.svck")
    save_checkpoint(load_checkpoint(tmp_path / "a.svck"), tmp_path / "b.svck")
    assert (tmp_path / "a.svck").read_bytes() == (tmp_path / "b.svck").read_bytes()

    corrupt = bytearray((tmp_path / "a.svck").read_bytes())
    corrupt[len(corrupt) // 2] ^= 0x40
    (tmp_path / "c.svck").write_bytes(bytes(corrupt))
    with pytest.raises(ChecksumError):
        load_checkpoint(tmp_path / "c.svck")

    vec = Rng(12).normal((128,))
    models = [SpeakerModel("spk", vec / np.linalg.norm(vec), 10, "one_shot_3d")]
    save_speaker_models(models, tmp_path / "m.svsm")
    save_speaker_models(load_speaker_models(tmp_path / "m.svsm"), tmp_path / "m2.svsm")
    assert (tmp_path / "m.svsm").read_bytes() == (tmp_path / "m2.svsm").read_bytes()

    corrupt = bytearray((tmp_path / "m.svsm").read_bytes())
    corrupt[-10] ^= 0x01
    (tmp_path / "mc.svsm").write_bytes(bytes(corrupt))
    with pytest.raises(ChecksumError):
        load_speaker_models(tmp_path / "mc.svsm")
    report(8, "checkpoint and speaker-model files round-trip bitwise; corruption raises checksum errors")
