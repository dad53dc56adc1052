"""Manifests, slicing, split plans, and the synthetic speaker generator."""

import numpy as np
import pytest

from svkit.corpus.manifest import HEADER, load_manifest, write_manifest
from svkit.corpus.slicing import slice_utterances, split_enroll_eval
from svkit.corpus.synthesis import make_synthetic_corpus, speaker_params, synth_utterance
from svkit.dsp.audio import AudioSignal, load_wav
from svkit.dsp.features import mel_filterbank, signal_to_feature_map
from svkit.dsp.vad import detect_voice
from svkit.errors import ConfigError, ManifestError, SignalTooShortError
from svkit.rng import Rng


class TestManifest:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        assert load_manifest(path) == []

    def test_three_line_fixture_field_for_field(self, tmp_path):
        for name in ("a.wav", "b.wav", "c.wav"):
            (tmp_path / name).write_bytes(b"RIFF")
        path = tmp_path / "m.csv"
        path.write_text(
            f"{HEADER}\n"
            "spk1,a.wav,s1,development\n"
            "spk1,b.wav,s2,enrollment\n"
            "spk2,c.wav,s1,evaluation\n"
        )
        entries = load_manifest(path)
        assert [e.speaker_id for e in entries] == ["spk1", "spk1", "spk2"]
        assert [e.session for e in entries] == ["s1", "s2", "s1"]
        assert [e.split for e in entries] == ["development", "enrollment", "evaluation"]
        assert entries[0].path == (tmp_path / "a.wav").resolve()

    def test_duplicate_entry_rejected_with_line_number(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"x")
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nspk1,a.wav,s1,enrollment\nspk1,a.wav,s2,enrollment\n")
        with pytest.raises(ManifestError, match=":3"):
            load_manifest(path)

    def test_one_file_under_two_spellings_rejected_naming_both_lines(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"x")
        (tmp_path / "b.wav").write_bytes(b"x")
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nspk1,a.wav,s1,enrollment\nspk1,b.wav,s1,enrollment\nspk1,./a.wav,s2,evaluation\n")
        with pytest.raises(ManifestError, match=r":4: .*a\.wav is already listed on line 2"):
            load_manifest(path)

    def test_header_after_comment_lines(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"x")
        path = tmp_path / "m.csv"
        path.write_text(f"# note\n\n{HEADER}\nspk1,a.wav,s1,enrollment\n")
        assert [e.speaker_id for e in load_manifest(path)] == ["spk1"]

    def test_header_after_a_data_line_rejected(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"x")
        path = tmp_path / "m.csv"
        path.write_text(f"spk1,a.wav,s1,enrollment\n{HEADER}\n")
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    def test_missing_audio_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nspk1,ghost.wav,s1,enrollment\n")
        with pytest.raises(ManifestError, match="ghost.wav"):
            load_manifest(path)

    def test_bad_field_count_includes_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\nonly,three,fields\n")
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "none.csv")

    def test_write_read_round_trip(self, tmp_path, tiny_corpus):
        _, entries = tiny_corpus
        out = tmp_path / "copy.csv"
        write_manifest(entries, out)
        # paths outside out's directory stay absolute yet must still load
        back = load_manifest(out)
        assert [e.speaker_id for e in back] == [e.speaker_id for e in entries]


class TestSlicing:
    def _signal(self, seconds):
        return AudioSignal(Rng(0).normal((int(16000 * seconds),), std=0.1).clip(-1, 1), 16000)

    def test_eight_slices_from_one_and_a_half_seconds(self):
        assert len(slice_utterances(self._signal(1.5))) == 8  # floor((1.5-0.8)/0.1)+1

    def test_exact_slice_length_gives_one(self):
        assert slice_utterances(self._signal(0.8)) == range(0, 1, 1600)

    def test_neighbors_share_samples_bit_exactly(self):
        a, b = slice_utterances(self._signal(1.2))[:2]
        assert b - a == 1600  # neighbors share the 11200 samples from b to a + 12800

    def test_too_short_rejected(self):
        with pytest.raises(SignalTooShortError):
            slice_utterances(self._signal(0.5))

    def test_non_overlapping_strides_reconstruct_prefix(self):
        starts = slice_utterances(self._signal(2.5))
        assert list(starts[::8]) == [0, 12800, 25600]  # every eighth slice: back to back, from sample 0


class TestSplitPlan:
    def test_even_split(self):
        enroll, evaluate = split_enroll_eval({"a": list(range(10))}, seed=0)
        assert len(enroll["a"]) == 5
        assert len(evaluate["a"]) == 5

    def test_odd_split_favors_enrollment(self):
        enroll, evaluate = split_enroll_eval({"a": [1, 2, 3]}, seed=0)
        assert len(enroll["a"]) == 2
        assert len(evaluate["a"]) == 1

    def test_halves_disjoint_and_cover(self):
        refs = [f"u{i}" for i in range(9)]
        enroll, evaluate = split_enroll_eval({"a": refs}, seed=3)
        assert set(enroll["a"]) | set(evaluate["a"]) == set(refs)
        assert not set(enroll["a"]) & set(evaluate["a"])

    def test_deterministic_under_seed(self):
        refs = {"a": list(range(8)), "b": list(range(5))}
        assert split_enroll_eval(refs, 7) == split_enroll_eval(refs, 7)
        assert split_enroll_eval(refs, 7) != split_enroll_eval(refs, 8)

    def test_single_utterance_speaker_rejected(self):
        with pytest.raises(ConfigError):
            split_enroll_eval({"a": [1]}, seed=0)


class TestSynthesis:
    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        make_synthetic_corpus(2, 2, seed=5, out_dir=a, dev_speakers=1, duration_s=1.0)
        make_synthetic_corpus(2, 2, seed=5, out_dir=b, dev_speakers=1, duration_s=1.0)
        for wav in sorted(p.name for p in a.glob("*.wav")):
            assert (a / wav).read_bytes() == (b / wav).read_bytes(), wav
        assert (a / "manifest.csv").read_text() == (b / "manifest.csv").read_text()

    def test_entry_count(self, tmp_path):
        entries = make_synthetic_corpus(2, 3, seed=1, out_dir=tmp_path, dev_speakers=1, duration_s=1.0)
        assert len(entries) == 6
        assert len(load_manifest(tmp_path / "manifest.csv")) == 6

    def test_speakers_have_distinct_average_features(self, tiny_corpus):
        root, entries = tiny_corpus
        bank = mel_filterbank()
        means = {}
        for e in entries:
            voiced = detect_voice(load_wav(e.path))
            maps = signal_to_feature_map(voiced, bank, slice_utterances(voiced))
            means.setdefault(e.speaker_id, []).extend(maps.mean(axis=1))
        centroids = {k: np.mean(v, axis=0) for k, v in means.items()}
        ids = sorted(centroids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                # measured ~8-11 on this seed; spec floor is 0.5
                assert np.linalg.norm(centroids[ids[i]] - centroids[ids[j]]) > 0.5

    def test_speaker_params_are_plausible_and_stable(self):
        p1 = speaker_params(42, 3)
        p2 = speaker_params(42, 3)
        assert p1 == p2
        assert p1.formant_hz[0] < p1.formant_hz[1] < p1.formant_hz[2] < 8000
        assert 70 <= p1.pitch_hz <= 300
        assert speaker_params(42, 4) != p1

    def test_utterance_is_valid_audio(self):
        sig = synth_utterance(speaker_params(0, 0), 1.0, Rng(0).child(2, 0, 0))
        assert len(sig) == 16000
        assert np.abs(sig.samples).max() <= 0.85 + 1e-9
        assert np.abs(sig.samples).max() > 0.5

    def test_single_speaker_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_synthetic_corpus(1, 2, seed=0, out_dir=tmp_path, dev_speakers=1)

    def test_dev_speaker_tagging(self, tmp_path):
        entries = make_synthetic_corpus(3, 1, seed=0, out_dir=tmp_path, dev_speakers=2, duration_s=1.0)
        splits = {e.speaker_id: e.split for e in entries}
        assert splits == {"spk000": "development", "spk001": "development", "spk002": "enrollment"}
