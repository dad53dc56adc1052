"""Enrollment, training behavior, and one-vs-all evaluation."""

import json
import struct
import zlib

import numpy as np
import pytest

from oracles import forward_logits, one_vs_all_trials
from svkit.config import RunConfig
from svkit.dsp.features import FeatureMap
from svkit.errors import ChecksumError, ConfigError, FileFormatError, MetricError, TruncatedFileError
from svkit.models.zoo import build_network
from svkit.protocol.enrollment import (
    D_VECTOR,
    ONE_SHOT,
    SpeakerModels,
    enroll_dvector,
    enroll_one_shot,
    load_speaker_models,
    save_speaker_models,
    utterance_input,
)
from svkit.protocol.evaluation import run_evaluation, score_log_lines
from svkit.protocol.training import train_development, training_examples
from svkit.rng import Rng


def fmap(seed, speaker, utt=None):
    return FeatureMap(
        Rng(seed).normal((80, 40)), speaker_id=speaker, utterance_id=utt or f"{speaker}-u{seed}"
    )


def separable_maps(n_speakers=2, maps_per_speaker=8, scale=4.0):
    """Speakers with far-apart constant offsets: linearly separable."""
    out = {}
    for s in range(n_speakers):
        speaker = f"spk{s}"
        base = Rng(1000 + s).normal((80, 40), std=0.5) + scale * s
        out[speaker] = [
            FeatureMap(base + Rng(2000 + s * 100 + u).normal((80, 40), std=0.3), speaker, f"{speaker}-u{u}")
            for u in range(maps_per_speaker)
        ]
    return out


class TestEnrollment:
    def _cube_net(self, zeta=4):
        return build_network("cnn3d", zeta, 2, Rng(0), widths=(2, 2, 2, 2, 8))

    def test_one_shot_produces_unit_model(self):
        net = self._cube_net()
        model = enroll_one_shot(net, [fmap(i, "alice") for i in range(4)])
        assert model.shape == (8,)
        assert abs(np.linalg.norm(model) - 1.0) <= 1e-12

    def test_one_shot_full_size_network_gives_128_dim_model(self):
        net = build_network("cnn3d", 20, 2, Rng(0))
        model = enroll_one_shot(net, [fmap(i, "dana") for i in range(20)])
        assert model.shape == (128,)

    def test_one_shot_wrong_count_rejected(self):
        net = self._cube_net()
        with pytest.raises(ConfigError, match="exactly 4.*'alice' has 3"):
            enroll_one_shot(net, [fmap(i, "alice") for i in range(3)])

    def test_one_shot_takes_the_first_zeta_maps(self):
        net = self._cube_net()
        maps = [fmap(i, "alice") for i in range(7)]
        model = enroll_one_shot(net, maps)
        assert model.tobytes() == enroll_one_shot(net, maps[:4]).tobytes()

    def test_one_shot_equals_cube_embedding(self):
        from svkit.dsp.features import build_feature_cube

        net = self._cube_net()
        maps = [fmap(i, "alice") for i in range(4)]
        model = enroll_one_shot(net, maps)
        direct = net.embed_vectors([build_feature_cube(maps)])[0]
        np.testing.assert_array_equal(model, direct)

    def test_one_shot_order_sensitivity_documented(self):
        # stacking order changes the cube, so models may legitimately differ;
        # both are valid unit-norm embeddings
        net = self._cube_net()
        maps = [fmap(i, "alice") for i in range(4)]
        a = enroll_one_shot(net, maps)
        b = enroll_one_shot(net, maps[::-1])
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(b) - 1.0) <= 1e-12

    def test_dvector_single_map_equals_embedding(self):
        net = build_network("lcn_dvector", 1, 2, Rng(1), widths=(2, 6))
        m = fmap(3, "bob")
        model = enroll_dvector(net, [m])
        np.testing.assert_allclose(model, net.embed_vectors([m.values])[0], atol=1e-12)

    def test_dvector_identical_maps_equal_one(self):
        net = build_network("lcn_dvector", 1, 2, Rng(1), widths=(2, 6))
        m = fmap(3, "bob")
        one = enroll_dvector(net, [m])
        many = enroll_dvector(net, [m, m, m])
        np.testing.assert_allclose(many, one, atol=1e-12)

    def test_dvector_orthogonal_average_closed_form(self):
        # average of orthogonal unit vectors renormalizes to 1/sqrt(2) each
        a = np.zeros(6)
        a[0] = 1.0
        b = np.zeros(6)
        b[1] = 1.0
        mean = (a + b) / 2.0
        expected = mean / np.linalg.norm(mean)
        assert expected[0] == pytest.approx(1 / np.sqrt(2))
        # protocol-level mirror of that arithmetic
        vecs = np.stack([a, b])
        mean2 = vecs.mean(axis=0)
        np.testing.assert_allclose(mean2 / np.linalg.norm(mean2), expected)

    def test_dvector_order_invariant(self):
        net = build_network("lcn_dvector", 1, 2, Rng(1), widths=(2, 6))
        maps = [fmap(i, "bob") for i in range(5)]
        fwd = enroll_dvector(net, maps)
        rev = enroll_dvector(net, maps[::-1])
        np.testing.assert_allclose(fwd, rev, atol=1e-12)

    def test_dvector_empty_rejected(self):
        net = build_network("lcn_dvector", 1, 2, Rng(1))
        with pytest.raises(ConfigError):
            enroll_dvector(net, [])

    def test_dvector_on_cube_network_replicates(self):
        net = self._cube_net(zeta=3)
        from svkit.dsp.features import replicate_for_eval

        m = fmap(5, "carol")
        model = enroll_dvector(net, [m])
        direct = net.embed_vectors([replicate_for_eval(m, 3)])[0]
        np.testing.assert_allclose(model, direct, atol=1e-12)

    def test_cube_test_input_is_a_view_of_the_map(self):
        m = fmap(6, "carol")
        for net in (
            build_network("cnn3d", 20, 2, Rng(0), widths=(2, 2, 2, 2, 8)),
            build_network("lcn_dvector", 1, 2, Rng(0), widths=(2, 6)),
        ):
            cube = utterance_input(net.spec, m)
            assert cube.shape == net.spec.input_shape
            assert np.shares_memory(cube, m.values)
        assert net.spec.input_shape == (80, 40)


def unit_rows(seed, rows, dim):
    v = Rng(seed).normal((rows, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def speaker_models(speakers=("alice", "bob"), kind=ONE_SHOT, dim=128):
    return SpeakerModels(kind, tuple(speakers), unit_rows(3, len(speakers), dim), 0x1234ABCD, 7)


def _reframed(path, edit):
    """`path` with its JSON header and payload passed through `edit`, written back under a fresh CRC32."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header, payload = edit(json.loads(raw[12 : 12 + hlen]), raw[12 + hlen : -4])
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:8] + struct.pack("<I", len(hjson)) + hjson + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


def _scaled_row(payload, row, dim, factor):
    v = np.frombuffer(payload, "<f8").copy()
    v[row * dim : (row + 1) * dim] *= factor
    return v.tobytes()


class TestSpeakerModelFile:
    def test_round_trip_bitwise(self, tmp_path):
        models = speaker_models(kind=D_VECTOR)
        save_speaker_models(models, tmp_path / "m.svsm")
        loaded = load_speaker_models(tmp_path / "m.svsm")
        assert loaded.speaker_ids == ("alice", "bob")
        assert loaded.kind == D_VECTOR
        assert (loaded.checkpoint_crc, loaded.enrollment_crc) == (0x1234ABCD, 7)
        assert loaded.vectors.tobytes() == models.vectors.tobytes()
        save_speaker_models(loaded, tmp_path / "m2.svsm")
        assert (tmp_path / "m.svsm").read_bytes() == (tmp_path / "m2.svsm").read_bytes()

    def test_corrupt_byte_raises_checksum(self, tmp_path):
        save_speaker_models(speaker_models(), tmp_path / "m.svsm")
        raw = bytearray((tmp_path / "m.svsm").read_bytes())
        raw[-100] ^= 0x01
        (tmp_path / "bad.svsm").write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_speaker_models(tmp_path / "bad.svsm")

    @pytest.mark.parametrize(
        "edit,error,named",
        [
            (lambda h, p: (h, p + bytes(8)), FileFormatError, "8 trailing bytes"),
            (lambda h, p: (h | {"shape": [0, 128]}, p), FileFormatError, "2048 trailing bytes"),
            (lambda h, p: (h, p[:-8]), TruncatedFileError, "bytes, expected"),
        ],
        ids=["trailing_bytes", "zero_count", "short_payload"],
    )
    def test_bytes_beyond_declared_records_rejected(self, tmp_path, edit, error, named):
        """The payload length is the header's shape, and nothing else."""
        save_speaker_models(speaker_models(), tmp_path / "m.svsm")
        path = _reframed(tmp_path / "m.svsm", edit)
        with pytest.raises(error, match=named) as caught:
            load_speaker_models(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda h, p: (h, p[:-8] + struct.pack("<d", float("nan"))), "'bob' is not unit-norm"),
            (lambda h, p: (h, _scaled_row(p, 0, 128, 2.0)), "'alice' is not unit-norm"),
            (lambda h, p: (h | {"enrollment_crc": 7.0}, p), "expected int, got 7.0"),
            (lambda h, p: (h | {"kind": "i_vector"}, p), "unknown speaker-model kind 'i_vector'"),
            (lambda h, p: (h | {"speaker_ids": ["alice", "alice"]}, p), r"\['alice'\] have more than one model"),
            (lambda h, p: (h | {"speaker_ids": ["alice"]}, p), "1 speaker ids for a matrix of shape"),
            (lambda h, p: (h | {"speaker_ids": [], "shape": [0, 128]}, b""), "at least one speaker"),
        ],
        ids=["nan", "norm_2", "crc_float", "unknown_kind", "repeated_id", "id_count", "no_speakers"],
    )
    def test_invalid_record_with_valid_crc_rejected(self, tmp_path, edit, named):
        save_speaker_models(speaker_models(), tmp_path / "m.svsm")
        path = _reframed(tmp_path / "m.svsm", edit)
        with pytest.raises(FileFormatError, match=named) as caught:
            load_speaker_models(path)
        assert str(path) in str(caught.value)

    def test_saving_a_repeated_speaker_id_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(ConfigError, match="alice"):
            save_speaker_models(speaker_models(("alice", "alice")), tmp_path / "m.svsm")
        assert not (tmp_path / "m.svsm").exists()

    def test_repeated_speaker_id_rejected(self, tmp_path):
        # a second "alice" row would give one model two columns of the score matrix
        save_speaker_models(speaker_models(), tmp_path / "m.svsm")
        path = _reframed(tmp_path / "m.svsm", lambda h, p: (h | {"speaker_ids": ["alice", "alice"]}, p))
        with pytest.raises(FileFormatError, match="'alice'.* more than one model"):
            load_speaker_models(path)


class TestTraining:
    def test_separable_corpus_reaches_high_accuracy(self):
        maps = separable_maps()
        net = build_network("lcn_dvector", 1, 2, Rng(0), widths=(4, 16))
        _, history = train_development(net, maps, RunConfig(lr=3e-4, epochs=12, seed=0))
        examples = training_examples(net, maps)
        predicted = forward_logits(net, np.stack([x for x, _ in examples])).argmax(axis=1)
        acc = np.mean(predicted == [label for _, label in examples])
        assert acc > 0.95
        assert history[-1] < history[0]

    def test_zero_epochs_returns_initialization(self, tmp_path):
        from svkit.models.checkpoint import save_checkpoint

        maps = separable_maps()
        net = build_network("lcn_dvector", 1, 2, Rng(7), widths=(2, 6))
        before = [arr.copy() for layer in net.layers for _, arr in layer.learnable()]
        ckpt, history = train_development(net, maps, RunConfig(epochs=0, seed=1))
        assert history == []
        after = [arr for layer in net.layers for _, arr in layer.learnable()]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)
        save_checkpoint(ckpt, tmp_path / "init.svck")  # still serializable

    def test_fixed_seed_reproduces_loss_history(self):
        maps = separable_maps()
        hists = []
        for _ in range(2):
            net = build_network("lcn_dvector", 1, 2, Rng(3), widths=(2, 8))
            _, h = train_development(net, maps, RunConfig(lr=3e-4, epochs=4, seed=9))
            hists.append(h)
        assert hists[0] == hists[1]

    def test_cube_examples_group_disjoint_blocks(self):
        maps = separable_maps(n_speakers=2, maps_per_speaker=7)
        net = build_network("cnn3d", 3, 2, Rng(0), widths=(2, 2, 2, 2, 4))
        examples = training_examples(net, maps)
        assert len(examples) == 4  # floor(7/3) = 2 cubes per speaker
        assert examples[0][0].shape == (3, 80, 40, 1)
        # the map-level baseline is zeta = 1: one example per map, the map itself
        examples = training_examples(build_network("lcn_dvector", 1, 2, Rng(0), widths=(2, 6)), maps)
        assert len(examples) == 14
        for (x, label), m in zip(examples, maps["spk0"] + maps["spk1"]):
            assert x.shape == (80, 40)
            assert x.tobytes() == m.values.tobytes()
            assert label == int(m.speaker_id == "spk1")

    def test_insufficient_maps_for_stack_rejected(self):
        maps = separable_maps(n_speakers=2, maps_per_speaker=2)
        net = build_network("cnn3d", 3, 2, Rng(0), widths=(2, 2, 2, 2, 4))
        with pytest.raises(ConfigError, match="fewer than the stack depth"):
            training_examples(net, maps)

    def test_single_speaker_rejected(self):
        maps = separable_maps(n_speakers=1)
        net = build_network("lcn_dvector", 1, 2, Rng(0))
        with pytest.raises(ConfigError, match="speakers"):
            training_examples(net, maps)


class TestRunEvaluation:
    def _setup(self):
        net = build_network("lcn_dvector", 1, 2, Rng(0), widths=(2, 6))
        speakers = ("alice", "bob", "carol")
        vecs = np.stack([enroll_dvector(net, [fmap(i, spk) for i in range(3)]) for spk in speakers])
        return net, SpeakerModels(D_VECTOR, speakers, vecs, 0, 0)

    def test_trial_counts_one_vs_all(self):
        net, models = self._setup()
        tests = [fmap(50 + i, "alice", f"t{i}") for i in range(4)]
        summary, score_set = run_evaluation(models, tests, net)
        assert len(score_set) == 4 * 3
        assert score_set.genuine_scores.size == 4
        assert score_set.impostor_scores.size == 8
        assert 0.0 <= summary.eer <= 1.0

    def test_single_speaker_degenerate_case_rejected(self):
        net = build_network("lcn_dvector", 1, 2, Rng(0), widths=(2, 6))
        models = SpeakerModels(D_VECTOR, ("alice",), enroll_dvector(net, [fmap(1, "alice")])[None], 0, 0)
        with pytest.raises(MetricError):
            run_evaluation(models, [fmap(9, "alice", "t0")], net)

    def test_score_log_format(self):
        net, models = self._setup()
        _, score_set = run_evaluation(models, [fmap(50, "alice", "utt-1")], net)
        lines = score_log_lines(score_set)
        assert len(lines) == 3
        first = lines[0].split(",")
        assert first[0] == "utt-1" and first[1] == "alice" and first[2] == "genuine"
        assert -1.0 <= float(first[3]) <= 1.0
        assert any(",impostor," in line for line in lines[1:])

    @pytest.mark.parametrize("kind", ["cnn3d", "lcn_dvector"])
    def test_score_log_matches_per_trial_loop(self, kind):
        if kind == "cnn3d":
            net = build_network("cnn3d", 20, 3, Rng(2), widths=(2, 2, 2, 2, 8))
            vecs = [enroll_one_shot(net, [fmap(20 * k + i, spk) for i in range(20)]) for k, spk in enumerate("abc")]
            models = SpeakerModels(ONE_SHOT, tuple("abc"), np.stack(vecs), 0, 0)
        else:
            net, models = self._setup()
        tests = [fmap(70 + i, spk, f"t{i}") for i, spk in enumerate(["b", "alice", "c", "bob", "a"])]
        _, score_set = run_evaluation(models, tests, net)
        vecs = net.embed_vectors([utterance_input(net.spec, m) for m in tests])
        want = [f"{u},{c},{label},{score!r}" for u, c, label, score in one_vs_all_trials(models, tests, vecs)]
        assert score_log_lines(score_set) == want
