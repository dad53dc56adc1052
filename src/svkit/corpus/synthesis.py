"""Deterministic synthetic speakers.

Each speaker is a fixed three-formant vocal tract (resonator cascade) excited
by a glottal pulse train at the speaker's pitch plus a noise component; each
utterance varies the phrase: a random sequence of syllable bursts separated
by short near-silent gaps. Everything derives from (corpus seed, speaker
index, utterance index), so regeneration is byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from ..dsp.audio import CANONICAL_RATE, AudioSignal, write_wav
from ..errors import ConfigError
from ..rng import Rng
from .manifest import ManifestEntry, write_manifest

PEAK_AMPLITUDE = 0.85


@dataclass(frozen=True)
class SynthSpeakerParams:
    formant_hz: tuple[float, float, float]
    formant_bw: tuple[float, float, float]
    pitch_hz: float
    noise_mix: float

    def __post_init__(self):
        if not (self.formant_hz[0] < self.formant_hz[1] < self.formant_hz[2]):
            raise ConfigError(f"formants must ascend, got {self.formant_hz}")
        if not 70.0 <= self.pitch_hz <= 300.0:
            raise ConfigError(f"pitch {self.pitch_hz} Hz outside [70, 300]")
        if not 0.0 <= self.noise_mix <= 1.0:
            raise ConfigError(f"noise mix {self.noise_mix} outside [0, 1]")


def speaker_params(seed: int, speaker_index: int) -> SynthSpeakerParams:
    """Per-speaker vocal parameters, a pure function of (seed, index)."""
    rng = Rng(seed).child(1, speaker_index)
    f1 = float(rng.uniform(280.0, 800.0))
    f2 = float(rng.uniform(950.0, 2200.0))
    f3 = float(rng.uniform(2350.0, 3300.0))
    bw = (float(rng.uniform(60.0, 120.0)), float(rng.uniform(80.0, 160.0)), float(rng.uniform(120.0, 240.0)))
    pitch = float(rng.uniform(80.0, 260.0))
    noise_mix = float(rng.uniform(0.05, 0.30))
    return SynthSpeakerParams((f1, f2, f3), bw, pitch, noise_mix)


def _phrase_envelope(n: int, sample_rate: int, rng: Rng) -> np.ndarray:
    """Syllable bursts with brief low-amplitude gaps and short linear ramps."""
    env = np.zeros(n)
    ramp = int(0.008 * sample_rate)
    pos = 0
    while pos < n:
        syllable = int(rng.uniform(0.10, 0.30) * sample_rate)
        gap = int(rng.uniform(0.03, 0.08) * sample_rate)
        amp = float(rng.uniform(0.45, 1.0))
        end = min(pos + syllable, n)
        env[pos:end] = amp
        if end - pos > 2 * ramp:
            env[pos : pos + ramp] *= np.linspace(0.0, 1.0, ramp)
            env[end - ramp : end] *= np.linspace(1.0, 0.0, ramp)
        pos = end + gap
    env[env == 0.0] = 0.01  # gaps are quiet, not digitally silent
    return env


def synth_utterance(
    params: SynthSpeakerParams,
    duration_s: float,
    rng: Rng,
    sample_rate: int = CANONICAL_RATE,
) -> AudioSignal:
    n = int(round(duration_s * sample_rate))
    period = max(2, int(round(sample_rate / params.pitch_hz)))
    excitation = np.zeros(n)
    excitation[::period] = 1.0
    excitation = (1.0 - params.noise_mix) * excitation + params.noise_mix * 0.1 * rng.normal(shape=n)
    excitation *= _phrase_envelope(n, sample_rate, rng)
    out = excitation
    for f, bw in zip(params.formant_hz, params.formant_bw):
        # Two-pole resonator at f with bandwidth bw.
        r = np.exp(-np.pi * bw / sample_rate)
        theta = 2.0 * np.pi * f / sample_rate
        out = lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], out)
    peak = np.abs(out).max()
    if peak > 0.0:
        out = out * (PEAK_AMPLITUDE / peak)
    return AudioSignal(out, sample_rate)


def make_synthetic_corpus(
    n_speakers: int,
    utterances_per_speaker: int,
    seed: int,
    out_dir,
    duration_s: float = 3.0,
    n_dev_speakers: int | None = None,
) -> list[ManifestEntry]:
    """Write per-speaker WAVs plus manifest.csv; returns the manifest entries.

    When `n_dev_speakers` is given, the first speakers (by id order) are
    tagged 'development' and the rest 'enrollment'; otherwise every entry is
    tagged 'auto' and the consumer decides.
    """
    if n_speakers < 2:
        raise ConfigError(f"need at least 2 speakers, got {n_speakers}")
    if utterances_per_speaker < 1:
        raise ConfigError(f"need at least 1 utterance per speaker, got {utterances_per_speaker}")
    if not (math.isfinite(duration_s) and round(duration_s * CANONICAL_RATE) >= 1):
        raise ConfigError(f"utterance duration must be finite and give at least one sample, got {duration_s} s")
    if n_dev_speakers is not None and not 0 < n_dev_speakers < n_speakers:
        raise ConfigError(
            f"n_dev_speakers must leave at least one enrollment speaker, got {n_dev_speakers}/{n_speakers}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[ManifestEntry] = []
    for s in range(n_speakers):
        speaker_id = f"spk{s:03d}"
        params = speaker_params(seed, s)
        split = "auto"
        if n_dev_speakers is not None:
            split = "development" if s < n_dev_speakers else "enrollment"
        for u in range(utterances_per_speaker):
            signal = synth_utterance(params, duration_s, Rng(seed).child(2, s, u))
            wav_path = out_dir / f"{speaker_id}_u{u:02d}.wav"
            write_wav(wav_path, signal)
            entries.append(ManifestEntry(speaker_id, wav_path.resolve(), f"s{1 + u % 4}", split))
    write_manifest(entries, out_dir / "manifest.csv")
    return entries
