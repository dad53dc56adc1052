"""Checkpoint serialization.

Layout: magic "SV3D", u32 version, u32 header length, a canonical-JSON header
(network spec, training metadata, and the per-layer table of array shapes),
the little-endian float64 payloads concatenated in field order, and a trailing
CRC32 over everything before it. Saving is canonical, so save -> load -> save
is byte-identical.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ChecksumError, CheckpointError, TruncatedFileError, VersionMismatchError
from ..nn.layers import PARAM_FIELDS, STATE_FIELDS, LayerParams
from .network import Network, NetworkSpec

_MAGIC = b"SV3D"
_VERSION = 1
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
        "kernel_extent": list(layer.kernel_extent),
        "pad_depth": layer.pad_depth,
        "bn_initialized": layer.bn_initialized,
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
        payload_len = sum(
            int(np.prod(shape)) * 8
            for layer in header["layers"]
            for shape in layer["arrays"].values()
        )
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc!r})") from exc
    expected = 12 + hlen + payload_len + 4
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: {len(data)} bytes, expected {expected}")
    if len(data) != expected:
        raise CheckpointError(f"{path}: {len(data) - expected} trailing bytes after checksum")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc_stored:
        raise ChecksumError(f"{path}: CRC32 mismatch, file is corrupt")

    spec = NetworkSpec(
        kind=header["kind"],
        input_shape=tuple(header["input_shape"]),
        n_classes=header["n_classes"],
        zeta=header["zeta"],
    )
    offset = 12 + hlen
    layers = []
    for lh in header["layers"]:
        kwargs = {
            "kind": lh["kind"],
            "name": lh["name"],
            "stride": tuple(lh["stride"]),
            "kernel_extent": tuple(lh["kernel_extent"]),
            "pad_depth": lh["pad_depth"],
            "bn_initialized": lh["bn_initialized"],
        }
        for field in _ARRAY_FIELDS:
            if field in lh["arrays"]:
                shape = tuple(lh["arrays"][field])
                count = int(np.prod(shape))
                kwargs[field] = (
                    np.frombuffer(data, dtype="<f8", count=count, offset=offset)
                    .reshape(shape)
                    .astype(np.float64)
                )
                offset += count * 8
        layers.append(LayerParams(**kwargs))
    return Checkpoint(spec, layers, epoch=header["epoch"], seed=header["seed"])
