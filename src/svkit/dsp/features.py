"""Log mel-filterbank energy features and stacked feature cubes.

The pipeline per 0.8 s slice: 20 ms Hamming frames at a 10 ms hop (tail
reflect-padded by one hop so a slice yields exactly 80 frames), power
spectrum, 40 triangular mel filters, natural log with a floor. Each slice
becomes one 80x40 feature map, and the slices of one voiced recording share
the frames they overlap on, which are computed once per recording. Maps of
one speaker stack along depth into the network-input cubes, plain
(depth, 80, 40, 1) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError, ProvenanceError, SignalTooShortError
from ..corpus.slicing import SLICE_SECONDS
from .audio import CANONICAL_RATE, AudioSignal

N_FRAMES = 80
N_COEFFS = 40  # mel filters, one log energy per filter and frame
N_FFT = 512
WINDOW_MS = 20.0
HOP_MS = 10.0
LOG_FLOOR = 1e-10


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True, eq=False)
class FilterBank:
    weights: np.ndarray  # (n_filters, N_FFT//2 + 1), nonnegative
    center_freqs: np.ndarray  # ascending Hz

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]


def mel_filterbank() -> FilterBank:
    """N_COEFFS triangular filters, centers equally spaced on the mel scale over 0-8 kHz.

    Triangles are evaluated at the FFT bin frequencies (linear in Hz between
    mel-spaced edges), so every filter peaks at its own center frequency.
    """
    nyquist = CANONICAL_RATE / 2.0
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), N_COEFFS + 2))
    bin_hz = np.arange(N_FFT // 2 + 1) * (CANONICAL_RATE / N_FFT)
    weights = np.zeros((N_COEFFS, bin_hz.size))
    for k in range(N_COEFFS):
        left, center, right = edges_hz[k : k + 3]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        weights[k] = np.maximum(0.0, np.minimum(rising, falling))
    return FilterBank(weights, edges_hz[1:-1].copy())


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """One 80x40 map of log filterbank energies, tagged with its provenance."""

    values: np.ndarray
    speaker_id: str = ""
    utterance_id: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.shape != (N_FRAMES, N_COEFFS):
            raise DimensionError(f"feature map must be {N_FRAMES}x{N_COEFFS}, got {v.shape}")
        if not np.isfinite(v).all():
            raise DimensionError("feature map contains non-finite values")


def signal_to_feature_map(voiced: AudioSignal, filterbank: FilterBank, starts) -> np.ndarray:
    """(len(starts), 80, 40) log filterbank energies of the 0.8 s slices of `voiced` at sample offsets `starts`.

    `starts` is what `slice_utterances` returns, or any part of it. Each
    slice's map is the slice framed alone: WINDOW_MS Hamming frames at a
    HOP_MS hop, the tail reflect-padded by one hop (80 frames), power
    spectrum, filterbank energies, natural log with a floor. A slice starts on
    a frame hop, so every frame that lies inside a slice is a frame of
    `voiced` itself, shared by every slice that covers it; only a slice's
    frame over its padded tail is its own. Each such frame goes through the
    window, FFT, filters and log once, as one row of one whole-array pass,
    and each map is byte-equal to its slice framed alone.
    """
    rate = voiced.sample_rate
    window = int(round(rate * WINDOW_MS / 1000.0))
    hop = int(round(rate * HOP_MS / 1000.0))
    length = int(round(SLICE_SECONDS * rate))
    starts = np.asarray(starts)
    lo, hi = starts.min(initial=0), starts.max(initial=0)
    if lo < 0 or hi + length > len(voiced):
        raise SignalTooShortError(f"slices at samples {lo} to {hi} do not lie within a signal of {len(voiced)} samples")
    if window > N_FFT or (starts % hop).any():
        raise DimensionError(f"at {rate} Hz a frame is longer than the FFT or a slice does not start on a frame hop")
    # frame f of a slice covers padded positions f*hop onward; position p >= length reflects to 2*(length-1) - p
    frame_starts = hop * np.arange((length + hop - window) // hop + 1)
    if len(frame_starts) != N_FRAMES:
        raise DimensionError(f"frame axis: a slice gives {len(frame_starts)} frames, need exactly {N_FRAMES}")
    inside = int(np.count_nonzero(frame_starts + window <= length))  # frames within the slice; the rest are its own
    tail = frame_starts[inside:, None] + np.arange(window)
    tail = np.where(tail < length, tail, 2 * (length - 1) - tail)
    first = starts // hop  # each slice's first frame of `voiced`
    shared = hi // hop + inside  # frames of `voiced` up to the last slice's last inside frame
    frames = np.concatenate(
        [
            hop * np.arange(shared)[:, None] + np.arange(window),
            (starts[:, None, None] + tail).reshape(-1, window),
        ]
    )
    spectrum = np.fft.rfft(voiced.samples[frames] * np.hamming(window), n=N_FFT, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2) / N_FFT
    energies = power @ filterbank.weights.T
    values = np.log(np.maximum(energies, LOG_FLOOR))
    own = N_FRAMES - inside
    rows = np.concatenate(
        [first[:, None] + np.arange(inside), shared + np.arange(starts.size * own).reshape(-1, own)],
        axis=1,
    )
    return values[rows]


def build_feature_cube(maps) -> np.ndarray:
    """Depth-stack feature maps of one speaker, in order, as a (depth, 80, 40, 1) network input."""
    maps = list(maps)
    if not maps:
        raise ConfigError("cannot build a feature cube from zero maps")
    speakers = {m.speaker_id for m in maps}
    if len(speakers) > 1:
        raise ProvenanceError(f"feature cube mixes speakers {sorted(speakers)}")
    return np.stack([m.values for m in maps])[..., None]


def replicate_for_eval(fmap: FeatureMap, depth: int) -> np.ndarray:
    """One test-utterance map seen `depth` times along depth: a read-only (depth, 80, 40, 1) view, no copy."""
    if depth < 1:
        raise ConfigError(f"replication depth must be >= 1, got {depth}")
    return np.broadcast_to(fmap.values[None, :, :, None], (depth, N_FRAMES, N_COEFFS, 1))
