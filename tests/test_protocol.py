"""Enrollment, training behavior, and one-vs-all evaluation."""

import struct
import zlib

import numpy as np
import pytest

from oracles import forward_logits, one_vs_all_trials
from svkit.config import RunConfig
from svkit.dsp.features import FeatureMap
from svkit.errors import ChecksumError, ConfigError, FileFormatError, MetricError
from svkit.models.zoo import build_3dcnn, build_lcn_baseline
from svkit.protocol.enrollment import (
    D_VECTOR,
    ONE_SHOT,
    SpeakerModel,
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
        return build_3dcnn(zeta, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=8)

    def test_one_shot_produces_unit_model(self):
        net = self._cube_net()
        model = enroll_one_shot(net, [fmap(i, "alice") for i in range(4)])
        assert model.kind == ONE_SHOT
        assert model.zeta == 4
        assert model.embedding.shape == (8,)
        assert abs(np.linalg.norm(model.embedding) - 1.0) <= 1e-12

    def test_one_shot_full_size_network_gives_128_dim_model(self):
        net = build_3dcnn(20, 2, Rng(0))
        model = enroll_one_shot(net, [fmap(i, "dana") for i in range(20)])
        assert model.embedding.shape == (128,)
        assert model.zeta == 20

    def test_one_shot_wrong_count_rejected(self):
        net = self._cube_net()
        with pytest.raises(ConfigError, match="exactly 4.*'alice' has 3"):
            enroll_one_shot(net, [fmap(i, "alice") for i in range(3)])

    def test_one_shot_takes_the_first_zeta_maps(self):
        net = self._cube_net()
        maps = [fmap(i, "alice") for i in range(7)]
        model = enroll_one_shot(net, maps)
        assert model.embedding.tobytes() == enroll_one_shot(net, maps[:4]).embedding.tobytes()

    def test_one_shot_equals_cube_embedding(self):
        from svkit.dsp.features import build_feature_cube

        net = self._cube_net()
        maps = [fmap(i, "alice") for i in range(4)]
        model = enroll_one_shot(net, maps)
        direct = net.embed_vectors([build_feature_cube(maps)])[0]
        np.testing.assert_array_equal(model.embedding, direct)

    def test_one_shot_order_sensitivity_documented(self):
        # stacking order changes the cube, so models may legitimately differ;
        # both are valid unit-norm embeddings
        net = self._cube_net()
        maps = [fmap(i, "alice") for i in range(4)]
        a = enroll_one_shot(net, maps)
        b = enroll_one_shot(net, maps[::-1])
        assert abs(np.linalg.norm(a.embedding) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(b.embedding) - 1.0) <= 1e-12

    def test_dvector_single_map_equals_embedding(self):
        net = build_lcn_baseline(2, Rng(1), units_per_patch=2, hidden_width=6)
        m = fmap(3, "bob")
        model = enroll_dvector(net, [m])
        np.testing.assert_allclose(model.embedding, net.embed_vectors([m.values])[0], atol=1e-12)
        assert model.kind == D_VECTOR

    def test_dvector_identical_maps_equal_one(self):
        net = build_lcn_baseline(2, Rng(1), units_per_patch=2, hidden_width=6)
        m = fmap(3, "bob")
        one = enroll_dvector(net, [m])
        many = enroll_dvector(net, [m, m, m])
        np.testing.assert_allclose(many.embedding, one.embedding, atol=1e-12)

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
        net = build_lcn_baseline(2, Rng(1), units_per_patch=2, hidden_width=6)
        maps = [fmap(i, "bob") for i in range(5)]
        fwd = enroll_dvector(net, maps)
        rev = enroll_dvector(net, maps[::-1])
        np.testing.assert_allclose(fwd.embedding, rev.embedding, atol=1e-12)

    def test_dvector_empty_rejected(self):
        net = build_lcn_baseline(2, Rng(1))
        with pytest.raises(ConfigError):
            enroll_dvector(net, [])

    def test_dvector_on_cube_network_replicates(self):
        net = self._cube_net(zeta=3)
        from svkit.dsp.features import replicate_for_eval

        m = fmap(5, "carol")
        model = enroll_dvector(net, [m])
        direct = net.embed_vectors([replicate_for_eval(m, 3)])[0]
        np.testing.assert_allclose(model.embedding, direct, atol=1e-12)

    def test_cube_test_input_is_a_view_of_the_map(self):
        net = build_3dcnn(20, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=8)
        m = fmap(6, "carol")
        cube = utterance_input(net.spec, m)
        assert cube.shape == (20, 80, 40, 1)
        assert np.shares_memory(cube, m.values)


def _resigned(path, edit):
    """`path`'s payload passed through `edit`, written back under a fresh CRC32, so only the edit is wrong."""
    body = edit(path.read_bytes()[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


class TestSpeakerModelFile:
    def _models(self):
        r = Rng(3)
        vecs = [r.normal((128,)), r.normal((256,))]
        return [
            SpeakerModel("alice", vecs[0] / np.linalg.norm(vecs[0]), 10, ONE_SHOT),
            SpeakerModel("bob", vecs[1] / np.linalg.norm(vecs[1]), 1, D_VECTOR),
        ]

    def test_round_trip_bitwise(self, tmp_path):
        models = self._models()
        save_speaker_models(models, tmp_path / "m.svsm")
        loaded = load_speaker_models(tmp_path / "m.svsm")
        assert [m.speaker_id for m in loaded] == ["alice", "bob"]
        assert [m.kind for m in loaded] == [ONE_SHOT, D_VECTOR]
        assert [m.zeta for m in loaded] == [10, 1]
        for a, b in zip(models, loaded):
            assert np.array_equal(a.embedding, b.embedding)
        save_speaker_models(loaded, tmp_path / "m2.svsm")
        assert (tmp_path / "m.svsm").read_bytes() == (tmp_path / "m2.svsm").read_bytes()

    def test_corrupt_byte_raises_checksum(self, tmp_path):
        save_speaker_models(self._models(), tmp_path / "m.svsm")
        raw = bytearray((tmp_path / "m.svsm").read_bytes())
        raw[20] ^= 0x01
        (tmp_path / "bad.svsm").write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_speaker_models(tmp_path / "bad.svsm")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda body: body + b"junk",  # bytes after the last record
            lambda body: body[:8] + struct.pack("<I", 0) + body[12:],  # count 0, one record present
        ],
        ids=["trailing_bytes", "zero_count"],
    )
    def test_bytes_beyond_declared_records_rejected(self, tmp_path, edit):
        save_speaker_models(self._models()[:1], tmp_path / "m.svsm")
        with pytest.raises(FileFormatError, match="after the last"):
            load_speaker_models(_resigned(tmp_path / "m.svsm", edit))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda body: body[:-8] + struct.pack("<d", float("nan")),  # last float of the embedding
            lambda body: body[:28] + (np.frombuffer(body[28:], "<f8") * 2).tobytes(),  # norm 2
            lambda body: body[:20] + struct.pack("<I", 0) + body[24:],  # zeta 0
        ],
        ids=["nan", "norm_2", "zeta_0"],
    )
    def test_invalid_record_with_valid_crc_rejected(self, tmp_path, edit):
        save_speaker_models(self._models()[:1], tmp_path / "m.svsm")  # "alice": embedding at offset 28
        with pytest.raises(FileFormatError, match="alice"):
            load_speaker_models(_resigned(tmp_path / "m.svsm", edit))

    def test_saving_a_repeated_speaker_id_raises_and_writes_nothing(self, tmp_path):
        m = self._models()[0]
        with pytest.raises(ConfigError, match="alice"):
            save_speaker_models([m, m], tmp_path / "m.svsm")
        assert not (tmp_path / "m.svsm").exists()

    def test_repeated_speaker_id_rejected(self, tmp_path):
        # a second "alice" record would give one model two columns of the score matrix
        save_speaker_models(self._models(), tmp_path / "m.svsm")
        path = _resigned(
            tmp_path / "m.svsm",
            lambda body: body.replace(struct.pack("<H", 3) + b"bob", struct.pack("<H", 5) + b"alice"),
        )
        with pytest.raises(FileFormatError, match="'alice' has more than one record"):
            load_speaker_models(path)


class TestTraining:
    def test_separable_corpus_reaches_high_accuracy(self):
        maps = separable_maps()
        net = build_lcn_baseline(2, Rng(0), units_per_patch=4, hidden_width=16)
        _, history = train_development(net, maps, RunConfig(lr=3e-4, epochs=12, seed=0))
        examples = training_examples(net, maps)
        predicted = forward_logits(net, np.stack([x for x, _ in examples])).argmax(axis=1)
        acc = np.mean(predicted == [label for _, label in examples])
        assert acc > 0.95
        assert history[-1] < history[0]

    def test_zero_epochs_returns_initialization(self, tmp_path):
        from svkit.models.checkpoint import save_checkpoint

        maps = separable_maps()
        net = build_lcn_baseline(2, Rng(7), units_per_patch=2, hidden_width=6)
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
            net = build_lcn_baseline(2, Rng(3), units_per_patch=2, hidden_width=8)
            _, h = train_development(net, maps, RunConfig(lr=3e-4, epochs=4, seed=9))
            hists.append(h)
        assert hists[0] == hists[1]

    def test_cube_examples_group_disjoint_blocks(self):
        maps = separable_maps(n_speakers=2, maps_per_speaker=7)
        net = build_3dcnn(3, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=4)
        examples = training_examples(net, maps)
        assert len(examples) == 4  # floor(7/3) = 2 cubes per speaker
        assert examples[0][0].shape == (3, 80, 40, 1)

    def test_insufficient_maps_for_stack_rejected(self):
        maps = separable_maps(n_speakers=2, maps_per_speaker=2)
        net = build_3dcnn(3, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=4)
        with pytest.raises(ConfigError, match="fewer than the stack depth"):
            training_examples(net, maps)

    def test_single_speaker_rejected(self):
        maps = separable_maps(n_speakers=1)
        net = build_lcn_baseline(2, Rng(0))
        with pytest.raises(ConfigError, match="speakers"):
            training_examples(net, maps)


class TestRunEvaluation:
    def _setup(self):
        net = build_lcn_baseline(2, Rng(0), units_per_patch=2, hidden_width=6)
        models = [
            enroll_dvector(net, [fmap(i, spk) for i in range(3)])
            for spk in ("alice", "bob", "carol")
        ]
        return net, models

    def test_trial_counts_one_vs_all(self):
        net, models = self._setup()
        tests = [fmap(50 + i, "alice", f"t{i}") for i in range(4)]
        summary, score_set = run_evaluation(models, tests, net)
        assert len(score_set) == 4 * 3
        assert score_set.genuine_scores.size == 4
        assert score_set.impostor_scores.size == 8
        assert 0.0 <= summary.eer <= 1.0

    def test_single_speaker_degenerate_case_rejected(self):
        net = build_lcn_baseline(2, Rng(0), units_per_patch=2, hidden_width=6)
        models = [enroll_dvector(net, [fmap(1, "alice")])]
        with pytest.raises(MetricError):
            run_evaluation(models, [fmap(9, "alice", "t0")], net)

    def test_stack_depth_mismatch_rejected(self):
        net = build_3dcnn(3, 2, Rng(0), channel_widths=(2, 2, 2, 2), embedding_width=4)
        model = SpeakerModel("alice", np.eye(4)[0], zeta=5, kind=ONE_SHOT)
        with pytest.raises(ConfigError, match="stack depth"):
            run_evaluation([model], [fmap(1, "alice", "t")], net)

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
            net = build_3dcnn(20, 3, Rng(2), channel_widths=(2, 2, 2, 2), embedding_width=8)
            models = [
                enroll_one_shot(net, [fmap(20 * k + i, spk) for i in range(20)]) for k, spk in enumerate("abc")
            ]
        else:
            net, models = self._setup()
        tests = [fmap(70 + i, spk, f"t{i}") for i, spk in enumerate(["b", "alice", "c", "bob", "a"])]
        _, score_set = run_evaluation(models, tests, net)
        vecs = net.embed_vectors([utterance_input(net.spec, m) for m in tests])
        want = [f"{u},{c},{label},{score!r}" for u, c, label, score in one_vs_all_trials(models, tests, vecs)]
        assert score_log_lines(score_set) == want
