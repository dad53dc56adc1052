"""Checkpoint serialization.

Layout (version 2): magic "SV3D", u32 version, u32 header length, a
canonical-JSON header, the little-endian float64 payloads concatenated in
field order, and a trailing CRC32 over everything before it. The header holds
the network spec (`kind`, `input_shape`, `n_classes`, `zeta`), the training
metadata (`epoch`, `seed`) and one record per layer with the same keys for
every kind: `name`, `kind`, `stride`, `pad_depth` and `arrays` (the shape of
each array present). Saving is canonical, so save -> load -> save is
byte-identical. Loading builds the Network, so a file whose layer has a kind
svkit lacks, or arrays its kind does not hold, is a CheckpointError.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ChecksumError, CheckpointError, ConfigError, TruncatedFileError, VersionMismatchError
from ..nn.layers import PARAM_FIELDS, STATE_FIELDS, LayerParams
from .network import Network, NetworkSpec

_MAGIC = b"SV3D"
_VERSION = 2
_ARRAY_FIELDS = PARAM_FIELDS + STATE_FIELDS


@dataclass
class Checkpoint:
    spec: NetworkSpec
    layers: list[LayerParams]
    epoch: int
    seed: int

    def to_network(self) -> Network:
        return Network(self.spec, self.layers)

    @classmethod
    def of(cls, network: Network, epoch: int, seed: int) -> "Checkpoint":
        return cls(network.spec, network.layers, epoch, seed)


def _layer_header(layer: LayerParams) -> dict:
    arrays = {}
    for field in _ARRAY_FIELDS:
        arr = getattr(layer, field)
        if arr is not None:
            arrays[field] = list(arr.shape)
    return {
        "name": layer.name,
        "kind": layer.kind,
        "stride": list(layer.stride),
        "pad_depth": layer.pad_depth,
        "arrays": arrays,
    }


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = {
        "kind": ckpt.spec.kind,
        "input_shape": list(ckpt.spec.input_shape),
        "n_classes": ckpt.spec.n_classes,
        "zeta": ckpt.spec.zeta,
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "layers": [_layer_header(layer) for layer in ckpt.layers],
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    parts = [_MAGIC, struct.pack("<II", _VERSION, len(hjson)), hjson]
    for layer in ckpt.layers:
        for field in _ARRAY_FIELDS:
            arr = getattr(layer, field)
            if arr is not None:
                parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    body = b"".join(parts)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _typed(value, kind: type):
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _ints(value) -> tuple[int, ...]:
    """A header list of non-negative ints (a shape or a stride) as a tuple."""
    if type(value) is not list or not all(type(v) is int and v >= 0 for v in value):
        raise ValueError(f"expected a list of non-negative ints, got {value!r}")
    return tuple(value)


def _layer_fields(lh: dict) -> tuple[dict, dict]:
    """(LayerParams keyword arguments without arrays, array shapes by field) of one layer header."""
    shapes = {field: _ints(shape) for field, shape in lh["arrays"].items()}
    unknown = shapes.keys() - set(_ARRAY_FIELDS)
    if unknown:
        raise ValueError(f"unknown arrays {sorted(unknown)}")
    fields = {
        "kind": _typed(lh["kind"], str),
        "name": _typed(lh["name"], str),
        "stride": _ints(lh["stride"]),
        "pad_depth": _typed(lh["pad_depth"], bool),
    }
    return fields, shapes


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise TruncatedFileError(f"{path}: {len(data)} bytes is too small for a checkpoint")
    if data[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    version, hlen = struct.unpack_from("<II", data, 4)
    if version != _VERSION:
        raise VersionMismatchError(f"{path}: checkpoint version {version}, expected {_VERSION}")
    if len(data) < 12 + hlen + 4:
        raise TruncatedFileError(f"{path}: header declares {hlen} bytes that are not present")
    try:
        header = json.loads(data[12 : 12 + hlen])
        spec_fields = {
            "kind": _typed(header["kind"], str),
            "input_shape": _ints(header["input_shape"]),
            "n_classes": _typed(header["n_classes"], int),
            "zeta": _typed(header["zeta"], int),
        }
        epoch = _typed(header["epoch"], int)
        seed = _typed(header["seed"], int)
        layer_fields = [_layer_fields(lh) for lh in header["layers"]]
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc!r})") from exc
    payload_len = sum(math.prod(shape) * 8 for _, shapes in layer_fields for shape in shapes.values())
    expected = 12 + hlen + payload_len + 4
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: {len(data)} bytes, expected {expected}")
    if len(data) != expected:
        raise CheckpointError(f"{path}: {len(data) - expected} trailing bytes after checksum")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc_stored:
        raise ChecksumError(f"{path}: CRC32 mismatch, file is corrupt")

    offset = 12 + hlen
    layers = []
    for fields, shapes in layer_fields:
        for field in _ARRAY_FIELDS:  # payload order
            if field in shapes:
                count = math.prod(shapes[field])
                fields[field] = (
                    np.frombuffer(data, dtype="<f8", count=count, offset=offset)
                    .reshape(shapes[field])
                    .astype(np.float64)
                )
                offset += count * 8
        layers.append(LayerParams(**fields))
    try:
        network = Network(NetworkSpec(**spec_fields), layers)
    except ConfigError as exc:  # a layer kind svkit lacks, or arrays that do not fit the kind
        raise CheckpointError(f"{path}: {exc}") from exc
    return Checkpoint.of(network, epoch=epoch, seed=seed)
