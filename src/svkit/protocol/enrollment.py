"""Speaker model creation: one-shot cube enrollment and d-vector averaging.

One-shot enrollment stacks exactly `zeta` utterance maps of a speaker into a
single cube and takes one embedding of it. D-vector enrollment embeds each
utterance separately, averages, and renormalizes. Either way the speaker
model is a unit-norm vector scored against test embeddings by cosine
similarity.

Model files: magic "SVSM", u32 version, u32 record count, then per record a
length-prefixed speaker id, a kind byte, u32 zeta, u32 dimension, and the
little-endian float64 embedding; a CRC32 over all preceding bytes trails the
file. A speaker id has at most one record.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..dsp.features import FeatureMap, build_feature_cube, replicate_for_eval
from ..errors import (
    ChecksumError,
    ConfigError,
    FileFormatError,
    NumericError,
    TruncatedFileError,
    VersionMismatchError,
)
from ..models.network import Network, NetworkSpec

ONE_SHOT = "one_shot_3d"
D_VECTOR = "d_vector_avg"
_KIND_CODES = {ONE_SHOT: 0, D_VECTOR: 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_MAGIC = b"SVSM"
_VERSION = 1
_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpeakerModel:
    speaker_id: str
    embedding: np.ndarray  # unit norm
    zeta: int
    kind: str

    def __post_init__(self):
        v = np.asarray(self.embedding, dtype=np.float64)
        object.__setattr__(self, "embedding", v)
        if self.kind not in _KIND_CODES:
            raise ConfigError(f"unknown speaker-model kind {self.kind!r}")
        if self.zeta < 1:
            raise ConfigError(f"zeta must be >= 1, got {self.zeta}")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:  # written so that NaN fails
            raise ConfigError(f"speaker model for {self.speaker_id!r} is not unit-norm")


def utterance_input(spec: NetworkSpec, fmap: FeatureMap) -> np.ndarray:
    """Network input for a single test utterance.

    The cube network takes zeta-deep cubes, so a lone map is seen zeta times
    along depth, as a view of the map that copies nothing; the map-level
    baseline consumes the map directly. At valid depth (zeta >= 17)
    `Network.embed_vectors` runs a batch of such cubes collapsed to one depth
    slice, which gives the full cube's embedding.
    """
    if spec.kind == "cnn3d":
        return replicate_for_eval(fmap, spec.zeta)
    return fmap.values


def enroll_one_shot(network: Network, maps) -> SpeakerModel:
    """One forward pass over the stacked cube yields the speaker model."""
    maps = list(maps)
    if network.spec.kind != "cnn3d":
        raise ConfigError("one-shot enrollment requires the cube network")
    if len(maps) != network.spec.zeta:
        raise ConfigError(
            f"one-shot enrollment needs exactly {network.spec.zeta} maps "
            f"(the network's training stack depth), got {len(maps)}"
        )
    vec = network.embed_vectors([build_feature_cube(maps)])[0]
    return SpeakerModel(maps[0].speaker_id, vec, network.spec.zeta, ONE_SHOT)


def enroll_dvector(network: Network, maps) -> SpeakerModel:
    """Average of per-utterance embeddings, renormalized."""
    maps = list(maps)
    if not maps:
        raise ConfigError("d-vector enrollment needs at least one utterance map")
    speakers = {m.speaker_id for m in maps}
    if len(speakers) > 1:
        raise ConfigError(f"d-vector enrollment mixes speakers {sorted(speakers)}")
    vecs = network.embed_vectors([utterance_input(network.spec, m) for m in maps])
    mean = vecs.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        raise NumericError("averaged embeddings cancel to zero; cannot normalize")
    return SpeakerModel(maps[0].speaker_id, mean / norm, network.spec.zeta, D_VECTOR)


def score_trial(model: SpeakerModel, test: np.ndarray) -> float:
    """Cosine similarity of two unit-norm vectors, clipped into [-1, 1]."""
    if not abs(np.linalg.norm(test) - 1.0) <= _NORM_TOL:  # written so that NaN fails
        raise ConfigError("test embedding is not unit-normalized")
    if model.embedding.shape != test.shape:
        raise ConfigError(f"embedding shape {test.shape} does not match model shape {model.embedding.shape}")
    return float(np.clip(model.embedding @ test, -1.0, 1.0))


def save_speaker_models(models, path) -> None:
    models = list(models)
    parts = [_MAGIC, struct.pack("<II", _VERSION, len(models))]
    for m in models:
        ident = m.speaker_id.encode()
        parts.append(struct.pack("<H", len(ident)))
        parts.append(ident)
        parts.append(struct.pack("<BII", _KIND_CODES[m.kind], m.zeta, m.embedding.size))
        parts.append(m.embedding.astype("<f8").tobytes())
    body = b"".join(parts)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def load_speaker_models(path) -> list[SpeakerModel]:
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise TruncatedFileError(f"{path}: {len(data)} bytes is too small for a model file")
    if data[:4] != _MAGIC:
        raise FileFormatError(f"{path}: bad magic {data[:4]!r}")
    version, count = struct.unpack_from("<II", data, 4)
    if version != _VERSION:
        raise VersionMismatchError(f"{path}: model-file version {version}, expected {_VERSION}")
    body = data[:-4]
    (crc_stored,) = struct.unpack_from("<I", data, len(body))
    if zlib.crc32(body) != crc_stored:
        raise ChecksumError(f"{path}: CRC32 mismatch, file is corrupt")
    offset = 12
    models: dict[str, SpeakerModel] = {}
    for _ in range(count):
        try:
            (idlen,) = struct.unpack_from("<H", body, offset)
            offset += 2
            ident = body[offset : offset + idlen].decode()
            offset += idlen
            code, zeta, dim = struct.unpack_from("<BII", body, offset)
            offset += 9
            vec = np.frombuffer(body, dtype="<f8", count=dim, offset=offset).astype(np.float64)
            offset += dim * 8
        except (struct.error, ValueError) as exc:
            raise TruncatedFileError(f"{path}: record ends mid-field ({exc})") from exc
        if code not in _CODE_KINDS:
            raise FileFormatError(f"{path}: unknown model kind code {code}")
        if ident in models:
            raise FileFormatError(f"{path}: speaker {ident!r} has more than one record")
        try:
            models[ident] = SpeakerModel(ident, vec, zeta, _CODE_KINDS[code])
        except ConfigError as exc:  # a record the writer cannot have produced
            raise FileFormatError(f"{path}: record {ident!r}: {exc}") from exc
    if offset != len(body):
        raise FileFormatError(f"{path}: {len(body) - offset} bytes after the last of {count} records")
    return list(models.values())
