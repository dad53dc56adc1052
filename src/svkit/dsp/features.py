"""Log mel-filterbank energy features and stacked feature cubes.

The pipeline per 0.8 s slice: 20 ms Hamming frames at a 10 ms hop (tail
reflect-padded by one hop so a slice yields exactly 80 frames), power
spectrum, 40 triangular mel filters, natural log with a floor. Each slice
becomes one 80x40 feature map; maps of one speaker stack along depth into the
network-input cubes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import (
    ConfigError,
    DimensionError,
    FileFormatError,
    ProvenanceError,
    SignalTooShortError,
    TruncatedFileError,
    VersionMismatchError,
)
from .audio import CANONICAL_RATE, AudioSignal

N_FRAMES = 80
N_COEFFS = 40  # mel filters, one log energy per filter and frame
N_FFT = 512
WINDOW_MS = 20.0
HOP_MS = 10.0
LOG_FLOOR = 1e-10
_FEATURE_MAGIC = b"MFEC"
_FEATURE_VERSION = 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True, eq=False)
class FilterBank:
    weights: np.ndarray  # (n_filters, n_fft//2 + 1), nonnegative
    center_freqs: np.ndarray  # ascending Hz
    sample_rate: int
    n_fft: int

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
    return FilterBank(weights, edges_hz[1:-1].copy(), CANONICAL_RATE, N_FFT)


def frame_signal(signal: AudioSignal) -> np.ndarray:
    """Overlapping WINDOW_MS Hamming-windowed frames at a HOP_MS hop, one row per frame.

    The signal is reflect-padded by one hop at the end, which gives one frame
    per hop for hop-aligned lengths (a 0.8 s slice at 16 kHz yields exactly
    80 frames).
    """
    window = int(round(signal.sample_rate * WINDOW_MS / 1000.0))
    hop = int(round(signal.sample_rate * HOP_MS / 1000.0))
    x = signal.samples
    if len(x) < window:
        raise SignalTooShortError(f"signal of {len(x)} samples shorter than one {window}-sample window")
    x = np.pad(x, (0, hop), mode="reflect")
    n = (len(x) - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(n)[:, None]
    return x[idx] * np.hamming(window)


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


@dataclass(frozen=True, eq=False)
class FeatureCube:
    """Feature maps of one speaker stacked along depth: shape (depth, 80, 40)."""

    values: np.ndarray
    speaker_id: str
    utterance_ids: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or v.shape[1:] != (N_FRAMES, N_COEFFS):
            raise DimensionError(f"feature cube must be depth x {N_FRAMES} x {N_COEFFS}, got {v.shape}")
        if v.shape[0] != len(self.utterance_ids):
            raise DimensionError(
                f"depth {v.shape[0]} does not match {len(self.utterance_ids)} utterance ids"
            )

    @property
    def depth(self) -> int:
        return self.values.shape[0]

    def slice_map(self, d: int) -> FeatureMap:
        return FeatureMap(self.values[d], self.speaker_id, self.utterance_ids[d])

    def as_network_input(self) -> np.ndarray:
        """Append the singleton channel axis the convolutional stack expects."""
        return self.values[..., None]


def mfec(
    frames: np.ndarray,
    filterbank: FilterBank,
    speaker_id: str = "",
    utterance_id: str = "",
) -> FeatureMap:
    """Windowed frames -> power spectrum -> filterbank energies -> natural log."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise DimensionError(f"frames must be 2-D, got {frames.ndim} axes")
    if frames.shape[0] != N_FRAMES:
        raise DimensionError(
            f"frame axis: got {frames.shape[0]} frames, need exactly {N_FRAMES} "
            "(slice the signal into 0.8 s segments first)"
        )
    if frames.shape[1] > filterbank.n_fft:
        raise DimensionError(
            f"frame length {frames.shape[1]} exceeds filterbank n_fft {filterbank.n_fft}"
        )
    spectrum = np.fft.rfft(frames, n=filterbank.n_fft, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2) / filterbank.n_fft
    energies = power @ filterbank.weights.T
    values = np.log(np.maximum(energies, LOG_FLOOR))
    return FeatureMap(values, speaker_id, utterance_id)


def signal_to_feature_map(
    signal: AudioSignal,
    filterbank: FilterBank,
    speaker_id: str = "",
    utterance_id: str = "",
) -> FeatureMap:
    """Convenience composition of frame_signal and mfec for one 0.8 s slice."""
    return mfec(frame_signal(signal), filterbank, speaker_id=speaker_id, utterance_id=utterance_id)


def build_feature_cube(maps) -> FeatureCube:
    """Depth-stack feature maps of one speaker, preserving order."""
    maps = list(maps)
    if not maps:
        raise ConfigError("cannot build a feature cube from zero maps")
    speakers = {m.speaker_id for m in maps}
    if len(speakers) > 1:
        raise ProvenanceError(f"feature cube mixes speakers {sorted(speakers)}")
    return FeatureCube(
        np.stack([m.values for m in maps]),
        maps[0].speaker_id,
        tuple(m.utterance_id for m in maps),
    )


def replicate_for_eval(fmap: FeatureMap, depth: int) -> FeatureCube:
    """Copy one test-utterance map `depth` times along the cube's depth axis."""
    if depth < 1:
        raise ConfigError(f"replication depth must be >= 1, got {depth}")
    return FeatureCube(
        np.repeat(fmap.values[None], depth, axis=0),
        fmap.speaker_id,
        (fmap.utterance_id,) * depth,
    )


def write_feature_file(fmap: FeatureMap, path) -> None:
    """Dump one map: magic, version, rows, cols, then row-major little-endian f64."""
    header = _FEATURE_MAGIC + struct.pack("<III", _FEATURE_VERSION, *fmap.values.shape)
    Path(path).write_bytes(header + fmap.values.astype("<f8").tobytes())


def read_feature_file(path) -> FeatureMap:
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise TruncatedFileError(f"{path}: too small for a feature-file header")
    if data[:4] != _FEATURE_MAGIC:
        raise FileFormatError(f"{path}: bad magic {data[:4]!r}")
    version, rows, cols = struct.unpack_from("<III", data, 4)
    if version != _FEATURE_VERSION:
        raise VersionMismatchError(f"{path}: feature-file version {version}, expected {_FEATURE_VERSION}")
    expected = 16 + rows * cols * 8
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: {len(data)} bytes, expected {expected}")
    if len(data) > expected:
        raise FileFormatError(f"{path}: {len(data) - expected} bytes after the {rows}x{cols} payload")
    values = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=16).reshape(rows, cols)
    return FeatureMap(values.copy())
