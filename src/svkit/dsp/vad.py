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


def detect_voice(signal: AudioSignal) -> AudioSignal:
    """Concatenation, in order, of frames that survive median-energy thresholding.

    A trailing partial frame is a frame of its own. Each frame's energy is
    taken once, and a kept frame's energy never changes, so each pass only
    re-thresholds the frames still kept.
    """
    frame_len = int(round(signal.sample_rate * FRAME_MS / 1000.0))
    if len(signal) <= frame_len:
        raise SignalTooShortError(
            f"signal of {len(signal)} samples is not longer than one {frame_len}-sample VAD frame"
        )
    squares = signal.samples * signal.samples
    full = len(squares) // frame_len
    energies = squares[: full * frame_len].reshape(full, frame_len).mean(axis=1)
    if full * frame_len < len(squares):
        energies = np.append(energies, squares[full * frame_len :].mean())
    kept = np.arange(len(energies))
    while True:
        above = energies[kept] > THRESHOLD_FACTOR * float(np.median(energies[kept]))
        if not above.any():
            raise NoSpeechError("voice activity detection removed the entire signal")
        if above.all():
            break
        kept = kept[above]
    keep = np.zeros(len(energies), dtype=bool)
    keep[kept] = True
    return AudioSignal(signal.samples[np.repeat(keep, frame_len)[: len(squares)]], signal.sample_rate)
