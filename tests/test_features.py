"""Audio loading, VAD, framing, filterbank, and feature-map contracts."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tone
from oracles import (
    detect_voice_loop,
    dft_power_spectrum,
    feature_maps_per_slice,
    frame_signal,
    mfec,
    slice_feature_maps,
)
from svkit.cli import _feature_maps
from svkit.corpus.slicing import slice_utterances
from svkit.corpus.synthesis import make_synthetic_corpus
from svkit.dsp.audio import AudioSignal, load_wav, require_sample_rate, write_wav
from svkit.dsp.features import (
    FeatureMap,
    build_feature_cube,
    hz_to_mel,
    mel_to_hz,
    read_feature_file,
    replicate_for_eval,
    signal_to_feature_map,
    write_feature_file,
)
from svkit.dsp.vad import detect_voice
from svkit.errors import (
    ConfigError,
    DimensionError,
    EmptyAudioError,
    FileFormatError,
    MalformedRiffError,
    NoSpeechError,
    ProvenanceError,
    SignalTooShortError,
    UnsupportedEncodingError,
)
from svkit.rng import Rng

SR = 16000


# -- WAV I/O -------------------------------------------------------------------


class TestWavIo:
    def test_positive_full_scale_int16(self, tmp_path):
        payload = struct.pack("<h", 32767)
        _write_raw_wav(tmp_path / "x.wav", payload, fmt=1, bits=16)
        sig = load_wav(tmp_path / "x.wav")
        assert sig.samples[0] == pytest.approx(32767 / 32768, abs=1e-12)

    def test_silence_reads_as_zeros(self, tmp_path):
        write_wav(tmp_path / "s.wav", AudioSignal(np.zeros(100), SR))
        assert not load_wav(tmp_path / "s.wav").samples.any()

    def test_round_trip_within_quantization_bound(self, tmp_path):
        samples = tone(440.0, 0.5, amplitude=0.8)
        write_wav(tmp_path / "t.wav", AudioSignal(samples, SR))
        back = load_wav(tmp_path / "t.wav")
        assert back.sample_rate == SR
        assert np.abs(back.samples - samples).max() < 1 / 32768

    def test_float32_supported(self, tmp_path):
        samples = tone(300.0, 0.1, amplitude=0.5)
        write_wav(tmp_path / "f.wav", AudioSignal(samples, SR), encoding="float32")
        back = load_wav(tmp_path / "f.wav")
        np.testing.assert_allclose(back.samples, samples, atol=1e-7)

    def test_stereo_downmixes_to_mean(self, tmp_path):
        left = np.array([0.5, -0.25], dtype="<f4")
        right = np.array([0.25, 0.25], dtype="<f4")
        payload = np.stack([left, right], axis=1).tobytes()
        _write_raw_wav(tmp_path / "st.wav", payload, fmt=3, bits=32, channels=2)
        got = load_wav(tmp_path / "st.wav").samples
        np.testing.assert_allclose(got, [0.375, 0.0], atol=1e-7)

    def test_malformed_riff_header(self, tmp_path):
        (tmp_path / "bad.wav").write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(MalformedRiffError):
            load_wav(tmp_path / "bad.wav")

    def test_unsupported_encoding(self, tmp_path):
        _write_raw_wav(tmp_path / "u.wav", b"\x00" * 8, fmt=1, bits=8)
        with pytest.raises(UnsupportedEncodingError):
            load_wav(tmp_path / "u.wav")

    @pytest.mark.parametrize("fmt,bits,size", [(1, 16, 5), (3, 32, 6)], ids=["pcm16", "float32"])
    def test_payload_not_whole_samples(self, tmp_path, fmt, bits, size):
        _write_raw_wav(tmp_path / "p.wav", b"\x01" * size, fmt=fmt, bits=bits)
        with pytest.raises(MalformedRiffError, match="whole number"):
            load_wav(tmp_path / "p.wav")

    def test_zero_sample_rate(self, tmp_path):
        _write_raw_wav(tmp_path / "z.wav", b"\x01\x00" * 4, fmt=1, bits=16, rate=0)
        with pytest.raises(MalformedRiffError, match="sample rate 0"):
            load_wav(tmp_path / "z.wav")

    def test_empty_payload(self, tmp_path):
        _write_raw_wav(tmp_path / "e.wav", b"", fmt=1, bits=16)
        with pytest.raises(EmptyAudioError):
            load_wav(tmp_path / "e.wav")

    def test_wrong_rate_rejected_by_pipeline(self):
        with pytest.raises(ConfigError, match="Hz"):
            require_sample_rate(AudioSignal(np.zeros(10), 8000))


def _write_raw_wav(path, payload, fmt, bits, channels=1, rate=SR):
    block = channels * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", fmt, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


# -- voice activity detection --------------------------------------------------


class TestVad:
    def test_single_burst_survives(self):
        burst = tone(500.0, 0.1, amplitude=0.7)
        x = np.concatenate([np.zeros(SR // 2), burst, np.zeros(SR // 2)])
        out = detect_voice(AudioSignal(x, SR))
        assert len(out) == pytest.approx(len(burst), abs=320)
        assert np.abs(out.samples).max() > 0.5

    def test_constant_tone_unchanged(self):
        sig = AudioSignal(tone(250.0, 0.5), SR)
        out = detect_voice(sig)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_gap_boundaries_within_one_frame(self):
        frame = int(SR * 0.02)
        speech = tone(400.0, 0.4, amplitude=0.6)
        gap = np.zeros(int(0.3 * SR))
        x = np.concatenate([speech, gap, speech])
        out = detect_voice(AudioSignal(x, SR))
        removed = len(x) - len(out)
        assert abs(removed - len(gap)) <= frame

    def test_pure_silence_raises(self):
        with pytest.raises(NoSpeechError):
            detect_voice(AudioSignal(np.zeros(SR), SR))

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShortError):
            detect_voice(AudioSignal(np.zeros(100), SR))

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_idempotent(self, seed):
        r = Rng(seed)
        pieces = []
        for i in range(8):
            if r.uniform() < 0.5:
                pieces.append(0.5 * np.sin(2 * np.pi * 300 * np.arange(1600) / SR) * float(r.uniform(0.2, 1.0)))
            else:
                pieces.append(np.zeros(int(r.integers(200, 1600))))
        pieces.append(0.6 * np.sin(2 * np.pi * 350 * np.arange(3200) / SR))  # guaranteed speech tail
        sig = AudioSignal(np.concatenate(pieces), SR)
        once = detect_voice(sig)
        twice = detect_voice(once)
        np.testing.assert_array_equal(once.samples, twice.samples)


# -- framing --------------------------------------------------------------------


class TestFraming:
    def test_point_eight_seconds_gives_80_frames(self):
        frames = frame_signal(AudioSignal(tone(440.0, 0.8), SR))
        assert frames.shape == (80, 320)

    def test_one_window_gives_two_frames(self):
        frames = frame_signal(AudioSignal(tone(440.0, 0.02), SR))
        assert frames.shape == (2, 320)  # (320 + 160 - 320)/160 + 1

    def test_one_second_gives_100_frames(self):
        frames = frame_signal(AudioSignal(tone(440.0, 1.0), SR))
        assert frames.shape == (100, 320)  # (16000 + 160 - 320)/160 + 1

    def test_hamming_window_applied(self):
        frames = frame_signal(AudioSignal(np.ones(12800) * 0.5, SR))
        np.testing.assert_allclose(frames[0], 0.5 * np.hamming(320), rtol=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShortError):
            frame_signal(AudioSignal(np.zeros(100), SR))


# -- mel filterbank ---------------------------------------------------------------


class TestMelFilterbank:
    def test_mel_of_700hz(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * math.log10(2.0), abs=1e-9)

    def test_mel_of_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_mel_hz_round_trip(self):
        freqs = np.array([10.0, 440.0, 3145.0, 7999.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-12)

    def test_bank_geometry(self, mel_bank):
        assert mel_bank.weights.shape == (40, 257)
        assert np.all(mel_bank.weights >= 0.0)
        assert np.all(np.diff(mel_bank.center_freqs) > 0)
        mels = hz_to_mel(mel_bank.center_freqs)
        np.testing.assert_allclose(np.diff(mels), np.diff(mels)[0], rtol=1e-9)
        assert all(mel_bank.weights[k].any() for k in range(40))

    def test_rows_unimodal(self, mel_bank):
        for row in mel_bank.weights:
            support = np.flatnonzero(row)
            peak = row.argmax()
            rising = row[support[0] : peak + 1]
            falling = row[peak : support[-1] + 1]
            assert np.all(np.diff(rising) >= -1e-15)
            assert np.all(np.diff(falling) <= 1e-15)

    def test_center_tone_maximizes_own_filter(self, mel_bank):
        window = np.hamming(320)
        t = np.arange(320) / SR
        for k in (0, 1, 7, 20, 39):
            frame = np.cos(2 * np.pi * mel_bank.center_freqs[k] * t) * window
            energies = mel_bank.weights @ dft_power_spectrum(frame, 512)
            assert int(np.argmax(energies)) == k


# -- MFEC maps --------------------------------------------------------------------


class TestMfec:
    def test_all_zero_frames_hit_log_floor(self, mel_bank):
        frames = frame_signal(AudioSignal(np.zeros(12800), SR))
        fmap = mfec(frames, mel_bank)
        assert np.all(fmap.values == math.log(1e-10))

    def test_amplitude_scaling_adds_log_identity(self, mel_bank):
        (quiet,) = signal_to_feature_map(AudioSignal(tone(800.0, 0.8, 0.2), SR), mel_bank, [0])
        (loud,) = signal_to_feature_map(AudioSignal(tone(800.0, 0.8, 0.4), SR), mel_bank, [0])
        floor = math.log(1e-10)
        mask = (quiet > floor + 1e-9) & (loud > floor + 1e-9)
        np.testing.assert_allclose((loud - quiet)[mask], 2.0 * math.log(2.0), atol=1e-9)

    def test_sinusoid_matches_direct_dft_oracle(self, mel_bank):
        sig = AudioSignal(tone(1000.0, 0.8, 0.5), SR)
        frames = frame_signal(sig)
        fmap = mfec(frames, mel_bank)
        want = np.log(np.maximum(mel_bank.weights @ dft_power_spectrum(frames[3], 512), 1e-10))
        np.testing.assert_allclose(fmap.values[3], want, rtol=1e-9)

    def test_wrong_frame_count_rejected(self, mel_bank):
        with pytest.raises(DimensionError, match="frame"):
            mfec(np.zeros((79, 320)), mel_bank)

    def test_hop_shift_moves_rows(self, mel_bank):
        samples = Rng(8).normal((12960,), std=0.2).clip(-1, 1)
        a = frame_signal(AudioSignal(samples[:12800], SR))
        b = frame_signal(AudioSignal(samples[160:12960], SR))
        map_a = mfec(a, mel_bank).values
        map_b = mfec(b, mel_bank).values
        # interior rows only: each map's final row comes from its own padded tail
        np.testing.assert_array_equal(map_b[:-2], map_a[1:-1])


# -- one framing per voiced file ------------------------------------------------

ONCE = settings(max_examples=60, derandomize=True, deadline=None)


def _speechlike(seed, n):
    """n samples of tone and noise bursts at similar levels, with short silent stretches between them."""
    r = Rng(seed)
    pieces, total = [], 0
    while total < n:
        length = int(r.integers(50, 4000))
        kind = int(r.integers(0, 4))
        if kind == 0:
            piece = np.zeros(length // 4)
        elif kind == 1:
            freq = float(r.uniform(100, 3000))
            piece = float(r.uniform(0.25, 0.45)) * np.sin(2 * np.pi * freq * np.arange(length) / SR)
        else:
            piece = r.normal((length,), std=float(r.uniform(0.15, 0.3))).clip(-1.0, 1.0)
        pieces.append(piece)
        total += len(piece)
    return AudioSignal(np.concatenate(pieces)[:n], SR)


def _outcome(fn, *args):
    """fn's result, or the type of the svkit error it raised."""
    try:
        return fn(*args)
    except (NoSpeechError, SignalTooShortError) as exc:
        return type(exc)


class TestOneFramingPerFile:
    @ONCE
    @given(st.integers(321, 4 * SR), st.integers(0, 10**6))
    def test_vad_matches_the_frame_loop(self, n, seed):
        """Byte-equal voiced samples, or the same error, from just over one VAD frame to 4 s."""
        sig = _speechlike(seed, n)
        got, want = _outcome(detect_voice, sig), _outcome(detect_voice_loop, sig)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("n", [0, 100, 320])
    def test_vad_too_short_for_both(self, n):
        for fn in (detect_voice, detect_voice_loop):
            with pytest.raises(SignalTooShortError):
                fn(AudioSignal(np.zeros(n), SR))

    @pytest.mark.parametrize("n", [321, SR, 3 * SR + 7])
    def test_vad_silence_is_no_speech_for_both(self, n):
        for fn in (detect_voice, detect_voice_loop):
            with pytest.raises(NoSpeechError):
                fn(AudioSignal(np.zeros(n), SR))

    @ONCE
    @given(st.integers(0, 30), st.sampled_from([-1, 0, 1]), st.integers(0, 10**6), st.data())
    def test_maps_match_slices_framed_alone(self, mel_bank, k, delta, seed, data):
        """Voiced lengths of 0.8 s + k hops (+-1 sample): offsets i * 1600, and each kept slice's map, byte for byte."""
        voiced = _speechlike(seed, 12800 + 1600 * k + delta)
        want = _outcome(slice_feature_maps, voiced, mel_bank)
        if isinstance(want, type):
            assert want is SignalTooShortError and k == 0 and delta == -1
            with pytest.raises(SignalTooShortError):
                signal_to_feature_map(voiced, mel_bank, [0])
            return
        starts = slice_utterances(voiced)
        assert list(starts) == [i * 1600 for i in range(len(want))] and len(want) == k + 1 - (delta < 0)
        first = data.draw(st.integers(0, len(want) - 1))
        kept = slice(first, data.draw(st.integers(first + 1, len(want))), data.draw(st.integers(1, 3)))
        got = signal_to_feature_map(voiced, mel_bank, starts[kept])
        assert got.shape == (len(want[kept]), 80, 40)
        assert got.tobytes() == np.stack(want[kept]).tobytes()

    @ONCE
    @given(st.integers(12800, 4 * SR), st.integers(0, 10**6))
    def test_front_end_matches_per_slice_framing(self, mel_bank, n, seed):
        """VAD, slicing and maps of one 0.8 to 4 s file against the per-slice oracle: same maps or the same error."""

        def front_end(sig):
            voiced = detect_voice(sig)
            return signal_to_feature_map(voiced, mel_bank, slice_utterances(voiced))

        sig = _speechlike(seed, n)
        got = _outcome(front_end, sig)
        want = _outcome(lambda s: slice_feature_maps(detect_voice_loop(s), mel_bank), sig)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.tobytes() == np.stack(want).tobytes()

    def test_more_slices_than_the_signal_holds(self, mel_bank):
        with pytest.raises(SignalTooShortError):
            signal_to_feature_map(AudioSignal(np.zeros(12800 + 1599), SR), mel_bank, [0, 1600])
        with pytest.raises(SignalTooShortError):
            signal_to_feature_map(AudioSignal(np.zeros(2 * SR), SR), mel_bank, [-160])

    @pytest.mark.parametrize("starts", [[80], [0, 1650]])
    def test_slice_off_the_frame_hop_rejected(self, mel_bank, starts):
        with pytest.raises(DimensionError, match="frame hop"):
            signal_to_feature_map(AudioSignal(np.zeros(2 * SR), SR), mel_bank, starts)

    @ONCE
    @given(st.integers(1, 30))
    def test_slice_cap_across_files(self, capped_corpus, mel_bank, cap):
        """`--max-slices` caps of 1 to 30, across file boundaries: the same ids and map bytes per speaker."""
        entries = capped_corpus
        got = _feature_maps(entries, cap, entries[0].path.parent)
        want = feature_maps_per_slice(entries, mel_bank, cap)
        assert got.keys() == want.keys()
        for speaker, maps in got.items():
            assert [m.utterance_id for m in maps] == [uid for uid, _ in want[speaker]]
            for m, (_, values) in zip(maps, want[speaker]):
                assert m.speaker_id == speaker
                assert m.values.tobytes() == values.tobytes()


@pytest.fixture(scope="module")
def capped_corpus(tmp_path_factory):
    """2 speakers x 3 files of 2 s: 5 to 8 slices per file, 21 and 23 per speaker, so caps cross each boundary."""
    return make_synthetic_corpus(2, 3, seed=9, out_dir=tmp_path_factory.mktemp("capped"), duration_s=2.0)


# -- cubes ------------------------------------------------------------------------


class TestFeatureCubes:
    def _maps(self, n, speaker="spk"):
        return [
            FeatureMap(Rng(i).normal((80, 40)), speaker_id=speaker, utterance_id=f"u{i}")
            for i in range(n)
        ]

    def test_stacks_in_order(self):
        cube = build_feature_cube(self._maps(20))
        assert cube.shape == (20, 80, 40, 1)

    def test_single_map_cube(self):
        assert build_feature_cube(self._maps(1)).shape == (1, 80, 40, 1)

    def test_round_trip_slice(self):
        maps = self._maps(4)
        cube = build_feature_cube(maps)
        for d in range(4):
            assert np.array_equal(cube[d, :, :, 0], maps[d].values)

    def test_mixed_speakers_rejected(self):
        maps = self._maps(2) + self._maps(1, speaker="other")
        with pytest.raises(ProvenanceError):
            build_feature_cube(maps)

    def test_replicate_for_eval(self):
        fmap = self._maps(1)[0]
        cube = replicate_for_eval(fmap, 20)
        assert cube.shape == (20, 80, 40, 1)
        for d in range(20):
            assert np.array_equal(cube[d, :, :, 0], fmap.values)
        # a read-only view of the map: no copy per depth slice
        assert np.shares_memory(cube, fmap.values) and not cube.flags.writeable

    def test_replicate_depth_one_is_identity(self):
        fmap = self._maps(1)[0]
        cube = replicate_for_eval(fmap, 1)
        assert np.array_equal(cube[0, :, :, 0], fmap.values)

    def test_network_input_has_channel_axis(self):
        assert build_feature_cube(self._maps(3)).shape == (3, 80, 40, 1)


def test_feature_file_round_trip(tmp_path, mel_bank):
    fmap = FeatureMap(signal_to_feature_map(AudioSignal(tone(600.0, 0.8, 0.4), SR), mel_bank, [0])[0])
    write_feature_file(fmap, tmp_path / "x.mfec")
    back = read_feature_file(tmp_path / "x.mfec")
    np.testing.assert_array_equal(back.values, fmap.values)
    raw = (tmp_path / "x.mfec").read_bytes()
    assert raw[:4] == b"MFEC"
    assert struct.unpack_from("<III", raw, 4) == (1, 80, 40)


def test_feature_file_trailing_bytes_rejected(tmp_path):
    write_feature_file(FeatureMap(np.zeros((80, 40))), tmp_path / "x.mfec")
    with open(tmp_path / "x.mfec", "ab") as fh:
        fh.write(b"\x00" * 4)
    with pytest.raises(FileFormatError, match="after"):
        read_feature_file(tmp_path / "x.mfec")


def test_pipeline_contract_voiced_slice(mel_bank):
    sig = AudioSignal(tone(440.0, 0.8, 0.5), SR)
    voiced = detect_voice(sig)
    maps = signal_to_feature_map(AudioSignal(voiced.samples[:12800], SR), mel_bank, [0])
    assert maps.shape == (1, 80, 40)
