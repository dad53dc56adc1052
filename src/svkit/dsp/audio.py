"""PCM WAV reading/writing (RIFF, little-endian) without external audio deps.

Supported encodings: 16-bit integer PCM (format tag 1) and 32-bit IEEE float
(format tag 3), any channel count (downmixed to mono by averaging). The
parser walks RIFF chunks explicitly so corrupt files surface as specific
errors instead of silent garbage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import (
    ConfigError,
    EmptyAudioError,
    MalformedRiffError,
    NumericError,
    UnsupportedEncodingError,
)

CANONICAL_RATE = 16000

# int16 <-> float scaling; symmetric by 32768 so +32767 reads back as ~0.99997
_INT16_SCALE = 32768.0


@dataclass(frozen=True, eq=False)
class AudioSignal:
    samples: np.ndarray  # 1-D float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1:
            raise ConfigError(f"audio samples must be 1-D, got {s.ndim} axes")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample rate must be positive, got {self.sample_rate}")
        if not np.isfinite(s).all():
            raise NumericError("non-finite audio samples")
        if s.size and np.abs(s).max() > 1.0 + 1e-12:
            raise ConfigError("audio samples exceed [-1, 1]")

    def __len__(self) -> int:
        return self.samples.size


def require_sample_rate(signal: AudioSignal) -> AudioSignal:
    """Reject signals not at the toolkit's canonical rate (no resampling)."""
    if signal.sample_rate != CANONICAL_RATE:
        raise ConfigError(
            f"expected {CANONICAL_RATE} Hz audio, got {signal.sample_rate} Hz (resampling is unsupported)"
        )
    return signal


def _riff_chunks(data: bytes):
    """Yield (chunk_id, payload) pairs from the RIFF body."""
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload = data[pos + 8 : pos + 8 + size]
        if len(payload) < size:
            raise MalformedRiffError(
                f"chunk {cid!r} declares {size} bytes but only {len(payload)} present"
            )
        yield cid, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def load_wav(path) -> AudioSignal:
    """Read a PCM WAV file, normalize to [-1, 1], and downmix to mono."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedRiffError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    payload = None
    for cid, chunk in _riff_chunks(data):
        if cid == b"fmt " and fmt is None:
            if len(chunk) < 16:
                raise MalformedRiffError(f"{path}: fmt chunk too small ({len(chunk)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", chunk, 0)
        elif cid == b"data" and payload is None:
            payload = chunk
    if fmt is None:
        raise MalformedRiffError(f"{path}: missing fmt chunk")
    if payload is None:
        raise MalformedRiffError(f"{path}: missing data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise MalformedRiffError(f"{path}: zero channels declared")
    if sample_rate == 0:
        raise MalformedRiffError(f"{path}: sample rate 0 declared")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise UnsupportedEncodingError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit); "
            "expected 16-bit PCM or 32-bit float"
        )
    if len(payload) % (bits // 8):
        raise MalformedRiffError(
            f"{path}: data chunk of {len(payload)} bytes is not a whole number of {bits}-bit samples"
        )
    if audio_format == 1:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / _INT16_SCALE
    else:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if not np.isfinite(samples).all():
            raise NumericError(f"{path}: non-finite float samples")
        samples = np.clip(samples, -1.0, 1.0)
    if samples.size == 0:
        raise EmptyAudioError(f"{path}: empty data payload")
    if samples.size % n_channels:
        raise MalformedRiffError(
            f"{path}: payload of {samples.size} samples not divisible by {n_channels} channels"
        )
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    return AudioSignal(samples, sample_rate)


def write_wav(path, signal: AudioSignal, encoding: str = "pcm16") -> None:
    """Write mono WAV; encoding is 'pcm16' or 'float32'."""
    if encoding == "pcm16":
        ints = np.clip(np.rint(signal.samples * _INT16_SCALE), -32768, 32767).astype("<i2")
        payload = ints.tobytes()
        fmt_tag, bits = 1, 16
    elif encoding == "float32":
        payload = signal.samples.astype("<f4").tobytes()
        fmt_tag, bits = 3, 32
    else:
        raise ConfigError(f"unknown WAV encoding {encoding!r}")
    block_align = bits // 8
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, 1, signal.sample_rate, signal.sample_rate * block_align, block_align, bits
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
