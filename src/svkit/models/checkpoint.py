"""Checkpoint serialization.

Layout (version 3): magic "SV3D", u32 version, u32 header length, a
canonical-JSON header, the little-endian float64 arrays of every layer in
layer order and field order, and a trailing CRC32 over everything before it.
The header holds the builder's arguments (`kind`, `zeta`, `n_classes` and
`widths`), the training metadata (`epoch`, `seed`) and `layout`, a CRC32 of
every array's (layer name, kind, field, shape) in payload order.

Loading rebuilds the network through `models.zoo` and copies the payload into
it, so a file holds only a network that svkit builds. A payload of another
length, or a layout that is not the rebuilt network's (a file from a builder
with other layers), is a CheckpointError. Saving is canonical, so save ->
load -> save is byte-identical. Versions 1 and 2, which described every layer
in the header, are not read.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ChecksumError, CheckpointError, ConfigError, TruncatedFileError, VersionMismatchError
from ..nn.layers import PARAM_FIELDS, STATE_FIELDS, LayerParams
from .network import Network, NetworkSpec
from .zoo import undrawn_network

_MAGIC = b"SV3D"
_VERSION = 3
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


def _arrays(layers: list[LayerParams]) -> list[tuple[LayerParams, str, np.ndarray]]:
    """(layer, field, array) of every array the layers hold, in payload order."""
    return [
        (layer, field, arr)
        for layer in layers
        for field in _ARRAY_FIELDS
        if (arr := getattr(layer, field)) is not None
    ]


def _layout(arrays) -> int:
    """CRC32 of every array's (layer name, kind, field, shape), in payload order."""
    rows = [[layer.name, layer.kind, field, list(arr.shape)] for layer, field, arr in arrays]
    return zlib.crc32(json.dumps(rows, separators=(",", ":")).encode())


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    arrays = _arrays(ckpt.layers)
    header = {
        "kind": ckpt.spec.kind,
        "zeta": ckpt.spec.zeta,
        "n_classes": ckpt.spec.n_classes,
        "widths": list(ckpt.spec.widths),
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "layout": _layout(arrays),
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    parts = [_MAGIC, struct.pack("<II", _VERSION, len(hjson)), hjson]
    parts += [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, _, arr in arrays]
    body = b"".join(parts)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _typed(value, kind: type):
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


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
        network = undrawn_network(
            _typed(header["kind"], str),
            _typed(header["zeta"], int),
            _typed(header["n_classes"], int),
            tuple(_typed(header["widths"], list)),
        )
        epoch = _typed(header["epoch"], int)
        seed = _typed(header["seed"], int)
        layout = _typed(header["layout"], int)
    except (ValueError, TypeError, KeyError, ConfigError, MemoryError) as exc:  # MemoryError: absurd widths
        raise CheckpointError(f"{path}: unreadable header ({exc!r})") from exc
    arrays = _arrays(network.layers)
    expected = 12 + hlen + sum(arr.nbytes for _, _, arr in arrays) + 4
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: {len(data)} bytes, expected {expected}")
    if len(data) != expected:
        raise CheckpointError(f"{path}: {len(data) - expected} trailing bytes after checksum")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(memoryview(data)[:-4]) != crc_stored:
        raise ChecksumError(f"{path}: CRC32 mismatch, file is corrupt")
    rebuilt = _layout(arrays)
    if layout != rebuilt:
        raise CheckpointError(
            f"{path}: layer layout {layout} is not {rebuilt}, the network svkit builds from this header; "
            "the file comes from a builder with other layers"
        )

    offset = 12 + hlen
    for _, _, arr in arrays:  # filled in place: the rebuilt arrays are the loaded ones
        arr[...] = np.frombuffer(data, dtype="<f8", count=arr.size, offset=offset).reshape(arr.shape)
        offset += arr.nbytes
    return Checkpoint.of(network, epoch=epoch, seed=seed)
