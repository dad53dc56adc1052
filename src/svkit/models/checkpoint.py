"""Checkpoint serialization.

Layout (version 3): the framing of `models.framing` under magic "SV3D". The
canonical-JSON header holds the builder's arguments (`kind`, `zeta`,
`n_classes` and `widths`), the training metadata (`epoch`, `seed`) and
`layout`, a CRC32 of every array's (layer name, kind, field, shape) in
payload order. The payload is the float64 arrays of every layer in layer
order and field order.

Loading rebuilds the network through `models.zoo` and copies the payload into
it, so a file holds only a network that svkit builds. A payload of another
length, or a layout that is not the rebuilt network's (a file from a builder
with other layers), is a CheckpointError; the layout is checked after the
CRC. Saving is canonical, so save -> load -> save is byte-identical. Versions
1 and 2, which described every layer in the header, are not read.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import CheckpointError
from ..nn.layers import PARAM_FIELDS, STATE_FIELDS, LayerParams
from .framing import Framing, canonical_json, typed
from .network import Network, NetworkSpec
from .zoo import undrawn_network

_FRAMING = Framing(b"SV3D", 3, "checkpoint", CheckpointError)
_ARRAY_FIELDS = PARAM_FIELDS + STATE_FIELDS


@dataclass
class Checkpoint:
    spec: NetworkSpec
    layers: list[LayerParams]
    epoch: int
    seed: int
    crc: int | None  # the CRC32 trailer of the file it was loaded from; None until saved

    def to_network(self) -> Network:
        return Network(self.spec, self.layers)

    @classmethod
    def of(cls, network: Network, epoch: int, seed: int) -> "Checkpoint":
        return cls(network.spec, network.layers, epoch, seed, None)


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
    return zlib.crc32(canonical_json(rows))


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
    _FRAMING.write(path, header, [arr for _, _, arr in arrays])


def _parse_header(header):
    """((the network rebuilt from `header`, epoch, seed, layout), the payload's byte count)."""
    network = undrawn_network(
        typed(header["kind"], str),
        typed(header["zeta"], int),
        typed(header["n_classes"], int),
        tuple(typed(header["widths"], list)),
    )
    parsed = (network, typed(header["epoch"], int), typed(header["seed"], int), typed(header["layout"], int))
    return parsed, sum(arr.nbytes for _, _, arr in _arrays(network.layers))


def load_checkpoint(path) -> Checkpoint:
    (network, epoch, seed, layout), payload, crc = _FRAMING.read(path, _parse_header)
    arrays = _arrays(network.layers)
    rebuilt = _layout(arrays)
    if layout != rebuilt:
        raise CheckpointError(
            f"{path}: layer layout {layout} is not {rebuilt}, the network svkit builds from this header; "
            "the file comes from a builder with other layers"
        )

    offset = 0
    for _, _, arr in arrays:  # filled in place: the rebuilt arrays are the loaded ones
        arr[...] = np.frombuffer(payload, dtype="<f8", count=arr.size, offset=offset).reshape(arr.shape)
        offset += arr.nbytes
    return Checkpoint(network.spec, network.layers, epoch, seed, crc)
