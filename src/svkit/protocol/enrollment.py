"""Speaker models: one-shot cube enrollment, d-vector averaging, and the file of one enrollment.

One-shot enrollment stacks a speaker's first `zeta` utterance maps into a
single cube and takes one embedding of it. D-vector enrollment embeds each
utterance separately, averages, and renormalizes. Either way a speaker's
model is a unit-norm vector scored against test embeddings by cosine
similarity. One enrollment (`SpeakerModels`) is one kind of model, stacked
as one row per speaker.

A model file (`.svsm` v3, in the `models.framing` framing) holds one
enrollment: the matrix as payload, and a header with `kind`, the speaker
ids, the shape, the CRC32 trailer of the checkpoint that enrolled the
models (it fixes zeta) and the `enrollment_crc` of the maps they were
enrolled from: the split's result, not its inputs. Versions 1 and 2 are not read.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..dsp.features import FeatureMap, build_feature_cube, replicate_for_eval
from ..errors import ConfigError, FileFormatError, NumericError
from ..models.framing import Framing, canonical_json, typed
from ..models.network import Network, NetworkSpec

ONE_SHOT = "one_shot_3d"
D_VECTOR = "d_vector_avg"
_FRAMING = Framing(b"SVSM", 3, "model file", FileFormatError)
_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpeakerModels:
    """One enrollment: a unit-norm row of `vectors` per speaker id, and what it is bound to."""

    kind: str
    speaker_ids: tuple[str, ...]
    vectors: np.ndarray  # (M, D), row i is speaker_ids[i]'s model
    checkpoint_crc: int
    enrollment_crc: int  # of the maps the models were enrolled from

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", v)
        if self.kind not in (ONE_SHOT, D_VECTOR):
            raise ConfigError(f"unknown speaker-model kind {self.kind!r}")
        ids = self.speaker_ids
        if not ids:
            raise ConfigError("no speaker models; an enrollment holds at least one speaker")
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise ConfigError(f"speaker ids {repeated} have more than one model; an enrollment holds one per speaker")
        if v.ndim != 2 or len(v) != len(ids):
            raise ConfigError(f"{len(ids)} speaker ids for a matrix of shape {v.shape}; one row per speaker")
        for speaker, norm in zip(ids, np.linalg.norm(v, axis=1)):
            if not abs(norm - 1.0) <= 1e-12:  # written so that NaN fails
                raise ConfigError(f"speaker model for {speaker!r} is not unit-norm")


def enrollment_crc(maps) -> int:
    """CRC32 of each speaker's map utterance ids, in order, speakers sorted: what binds a model file to its split."""
    return zlib.crc32(canonical_json({speaker: [m.utterance_id for m in ms] for speaker, ms in maps.items()}))


def utterance_input(spec: NetworkSpec, fmap: FeatureMap) -> np.ndarray:
    """Network input for a single test utterance: the map seen zeta times along depth, shaped to `spec.input_shape`.

    This is the one input rule, so the map-level baseline (zeta = 1) takes
    the map itself. The input is a read-only view of the map that copies
    nothing. At valid depth (zeta >= 17) `Network.embed_vectors` runs a batch
    of such cubes collapsed to one depth slice, which gives the full cube's
    embedding.
    """
    return replicate_for_eval(fmap, spec.zeta).reshape(spec.input_shape)


def enroll_one_shot(network: Network, maps) -> np.ndarray:
    """One forward pass over the cube of a speaker's first zeta maps yields the speaker's model vector."""
    if network.spec.kind != "cnn3d":
        raise ConfigError("one-shot enrollment requires the cube network")
    maps = list(maps)[: network.spec.zeta]
    if len(maps) < network.spec.zeta:
        speaker = maps[0].speaker_id if maps else ""
        raise ConfigError(
            f"one-shot enrollment stacks exactly {network.spec.zeta} maps (the network's training stack depth); "
            f"speaker {speaker!r} has {len(maps)}"
        )
    return network.embed_vectors([build_feature_cube(maps)])[0]


def enroll_dvector(network: Network, maps) -> np.ndarray:
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
    return mean / norm


def score_trial(model: np.ndarray, test: np.ndarray) -> float:
    """Cosine similarity of a model row (unit-norm in `SpeakerModels`) and a unit-norm test embedding, in [-1, 1]."""
    if not abs(np.linalg.norm(test) - 1.0) <= _NORM_TOL:  # written so that NaN fails
        raise ConfigError("test embedding is not unit-normalized")
    if model.shape != test.shape:
        raise ConfigError(f"embedding shape {test.shape} does not match model shape {model.shape}")
    return float(np.clip(model @ test, -1.0, 1.0))


# Every SpeakerModels field but the matrix is a header key, holding one of these JSON types; "shape" is the other key.
_HEADER_TYPES = {
    "kind": (str,),
    "speaker_ids": (list,),
    "checkpoint_crc": (int,),
    "enrollment_crc": (int,),
}


def save_speaker_models(models: SpeakerModels, path) -> None:
    header = {key: getattr(models, key) for key in _HEADER_TYPES}
    header.update(speaker_ids=list(models.speaker_ids), shape=list(models.vectors.shape))
    _FRAMING.write(path, header, [models.vectors])


def _parse_header(header):
    """((the header's fields, the matrix shape), the payload's byte count)."""
    fields = {key: typed(header[key], *kinds) for key, kinds in _HEADER_TYPES.items()}
    fields["speaker_ids"] = tuple(typed(i, str) for i in fields["speaker_ids"])
    rows, dim = (typed(n, int) for n in typed(header["shape"], list))
    if rows < 0 or dim < 0:
        raise ValueError(f"negative shape {[rows, dim]}")
    return (fields, (rows, dim)), rows * dim * 8


def load_speaker_models(path) -> SpeakerModels:
    (fields, shape), payload, _ = _FRAMING.read(path, _parse_header)
    vectors = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    try:
        return SpeakerModels(vectors=vectors, **fields)
    except ConfigError as exc:  # an enrollment the writer cannot have produced
        raise FileFormatError(f"{path}: {exc}") from exc
