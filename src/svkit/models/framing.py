"""The file framing that checkpoints (`.svck`) and speaker-model files (`.svsm`) share.

A framed file is 4 magic bytes, a u32 version, a u32 header length, a
canonical-JSON header (sorted keys, no spaces), a little-endian float64
payload, and a CRC32 of every byte before it. Writing is canonical, so read
-> write keeps a file's bytes. Reading checks the header before the file
length and the length before the CRC, so a cut file is a TruncatedFileError
whatever its CRC.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ChecksumError, ConfigError, FileFormatError, TruncatedFileError, VersionMismatchError


def canonical_json(value) -> bytes:
    """`value` as JSON with sorted keys and no spaces: the header encoding, and what svkit's content CRCs hash."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def typed(value, *kinds: type):
    """`value`, if its type is exactly one of `kinds` (so a bool is not an int); else TypeError."""
    if type(value) not in kinds:
        raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


@dataclass(frozen=True)
class Framing:
    magic: bytes
    version: int
    noun: str  # names the format in messages: "checkpoint", "model file"
    error: type[FileFormatError]

    def write(self, path, header: dict, arrays) -> None:
        hjson = canonical_json(header)
        parts = [self.magic, struct.pack("<II", self.version, len(hjson)), hjson]
        parts += [np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays]
        body = b"".join(parts)
        Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def read(self, path, parse):
        """(what `parse` made of the header, the payload, the CRC32 trailer) of the file at `path`.

        `parse(header)` checks the decoded JSON header and returns (its value,
        the payload's byte count); a ValueError, TypeError, KeyError or
        ConfigError it raises makes the header unreadable.
        """
        data = Path(path).read_bytes()
        if len(data) < 12:
            raise TruncatedFileError(f"{path}: {len(data)} bytes is too small for a {self.noun}")
        if data[:4] != self.magic:
            raise self.error(f"{path}: bad magic {data[:4]!r}")
        version, hlen = struct.unpack_from("<II", data, 4)
        if version != self.version:
            raise VersionMismatchError(f"{path}: {self.noun} version {version}, expected {self.version}")
        if len(data) < 12 + hlen + 4:
            raise TruncatedFileError(f"{path}: header declares {hlen} bytes that are not present")
        try:
            value, nbytes = parse(json.loads(data[12 : 12 + hlen]))
        except (ValueError, TypeError, KeyError, ConfigError, MemoryError) as exc:  # MemoryError: absurd sizes
            raise self.error(f"{path}: unreadable header ({exc!r})") from exc
        expected = 12 + hlen + nbytes + 4
        if len(data) < expected:
            raise TruncatedFileError(f"{path}: {len(data)} bytes, expected {expected}")
        if len(data) != expected:
            raise self.error(f"{path}: {len(data) - expected} trailing bytes after checksum")
        (crc,) = struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(memoryview(data)[:-4]) != crc:
            raise ChecksumError(f"{path}: CRC32 mismatch, file is corrupt")
        return value, memoryview(data)[12 + hlen : -4], crc
