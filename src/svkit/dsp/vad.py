"""Energy-based voice activity detection.

Frames the signal into non-overlapping 20 ms windows, keeps frames whose
mean-square energy exceeds 0.5 times the median frame energy, and repeats
the pass on the survivors until no frame is removed. Iterating to the fixed
point is what makes the operation exactly idempotent: re-running the detector
on its own output changes nothing.
"""

from __future__ import annotations

import numpy as np

from ..errors import NoSpeechError, SignalTooShortError
from .audio import AudioSignal

FRAME_MS = 20.0
THRESHOLD_FACTOR = 0.5  # of the median frame energy


def _frames(samples: np.ndarray, frame_len: int) -> list[np.ndarray]:
    """Full frames plus a trailing partial frame when the tail is nonempty."""
    out = [samples[i : i + frame_len] for i in range(0, len(samples) - frame_len + 1, frame_len)]
    tail_start = len(out) * frame_len
    if tail_start < len(samples):
        out.append(samples[tail_start:])
    return out


def detect_voice(signal: AudioSignal) -> AudioSignal:
    """Concatenation, in order, of frames that survive median-energy thresholding."""
    frame_len = int(round(signal.sample_rate * FRAME_MS / 1000.0))
    if len(signal) <= frame_len:
        raise SignalTooShortError(
            f"signal of {len(signal)} samples is not longer than one {frame_len}-sample VAD frame"
        )
    frames = _frames(signal.samples, frame_len)
    while True:
        energies = np.array([float(np.mean(f * f)) for f in frames])
        threshold = THRESHOLD_FACTOR * float(np.median(energies))
        kept = [f for f, e in zip(frames, energies) if e > threshold]
        if not kept:
            raise NoSpeechError("voice activity detection removed the entire signal")
        if len(kept) == len(frames):
            break
        frames = kept
    return AudioSignal(np.concatenate(frames), signal.sample_rate)
