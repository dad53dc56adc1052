"""Byte-mutation property tests for the three file parsers.

A corrupt WAV, `.svck` or `.svsm` file must either load or raise a
typed `SvkitError` (CLI exit 2 or 3), never a raw exception. Files that can
tell they are damaged must raise: any flip of a CRC-protected file, any
truncation, and junk after a file whose header fixes its length. Examples are
derandomized, so every run tries the same mutations.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import tone
from svkit.dsp.audio import AudioSignal, load_wav, write_wav
from svkit.errors import SvkitError
from svkit.models.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from svkit.models.zoo import build_network
from svkit.protocol.enrollment import ONE_SHOT, SpeakerModels, load_speaker_models, save_speaker_models
from svkit.rng import Rng

LOADERS = {
    "wav_pcm16": load_wav,
    "wav_float32": load_wav,
    "svck": load_checkpoint,
    "svsm": load_speaker_models,
}
CRC_FORMATS = ("svck", "svsm")
MUTATE = settings(max_examples=100, derandomize=True, deadline=None)
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in a mutated payload


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(valid bytes per format, scratch directory for mutants)."""
    root = tmp_path_factory.mktemp("mutations")
    signal = AudioSignal(tone(440.0, 0.05, amplitude=0.5), 16000)
    write_wav(root / "wav_pcm16", signal)
    write_wav(root / "wav_float32", signal, encoding="float32")
    net = build_network("lcn_dvector", 1, 2, Rng(1), widths=(2, 6))
    save_checkpoint(Checkpoint.of(net, epoch=0, seed=1), root / "svck")
    vecs = Rng(2).normal((2, 8))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    save_speaker_models(SpeakerModels(ONE_SHOT, ("spk000", "spk001"), vecs, 1, 1), root / "svsm")
    for fmt, loader in LOADERS.items():
        loader(root / fmt)  # every seed file is valid
    return {fmt: (root / fmt).read_bytes() for fmt in LOADERS}, root


def _check(files, fmt, data, must_raise):
    """Load `data` as `fmt`: a typed error passes, any other exception fails the test."""
    path = files[1] / f"mutant_{fmt}"
    path.write_bytes(data)
    try:
        LOADERS[fmt](path)
    except SvkitError:
        return
    assert not must_raise, f"{fmt}: corrupt file loaded without error"


def _flipped(data, flips):
    out = bytearray(data)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


# half of the flips land in the first KiB, which holds every header
_FLIPS = st.lists(
    st.tuples(st.one_of(st.integers(0, 1023), st.integers(0, 2**20)), st.integers(1, 255)),
    min_size=1,
    max_size=4,
    unique_by=lambda f: f[0],
)


@pytest.mark.parametrize("fmt", LOADERS)
@MUTATE
@given(flips=_FLIPS)
def test_flipped_bytes(files, fmt, flips):
    data = files[0][fmt]
    assume(len({pos % len(data) for pos, _ in flips}) == len(flips))  # two flips of one byte may cancel
    _check(files, fmt, _flipped(data, flips), must_raise=fmt in CRC_FORMATS)


@pytest.mark.parametrize("fmt", CRC_FORMATS)
@MUTATE
@given(flips=_FLIPS)
def test_flipped_bytes_with_crc_recomputed(files, fmt, flips):
    body = _flipped(files[0][fmt], flips)[:-4]
    _check(files, fmt, body + struct.pack("<I", zlib.crc32(body)), must_raise=False)


@pytest.mark.parametrize("fmt", LOADERS)
@MUTATE
@given(keep=st.integers(0, 2**20))
def test_truncated(files, fmt, keep):
    data = files[0][fmt]
    _check(files, fmt, data[: keep % len(data)], must_raise=True)


@pytest.mark.parametrize("fmt", LOADERS)
@MUTATE
@given(junk=st.binary(min_size=1, max_size=64))
def test_appended_junk(files, fmt, junk):
    # a RIFF reader skips a tail too short to be a chunk header, so WAV may load
    _check(files, fmt, files[0][fmt] + junk, must_raise=not fmt.startswith("wav"))
