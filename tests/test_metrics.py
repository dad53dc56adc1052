"""ROC/EER/AUC against the exhaustive-threshold oracle, plus scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import roc_brute_force
from svkit.errors import ConfigError, MetricError, NumericError
from svkit.protocol.enrollment import SpeakerModel, score_trial
from svkit.protocol.metrics import ScoreSet, compute_roc, roc_points
from svkit.rng import Rng


class TestComputeRoc:
    def test_perfect_separation(self):
        s = compute_roc([0.9, 0.8], [0.1, 0.2])
        assert s.eer == 0.0
        assert s.auc == 1.0

    def test_identical_score_lists_are_chance(self):
        s = compute_roc([0.3, 0.5], [0.3, 0.5])
        assert s.eer == pytest.approx(0.5, abs=1e-12)
        assert s.auc == pytest.approx(0.5, abs=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(MetricError):
            compute_roc([0.5], [])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(NumericError):
            compute_roc([np.nan], [0.1])

    def test_sweep_is_monotone_and_sentineled(self, rng):
        s = compute_roc(rng.normal((50,)), rng.normal((60,)))
        assert s.thresholds[0] == -np.inf and s.thresholds[-1] == np.inf
        assert (s.tpr[0], s.far[0]) == (1.0, 1.0)
        assert (s.tpr[-1], s.far[-1]) == (0.0, 0.0)
        assert np.all(np.diff(s.tpr) <= 0)
        assert np.all(np.diff(s.far) <= 0)

    def test_eer_between_bracketing_rates(self, rng):
        s = compute_roc(rng.normal((30,), mean=0.5), rng.normal((40,)))
        frr = 1.0 - s.tpr
        d = s.far - frr
        k = int(np.argmax(d <= 0.0))
        corners = [s.far[k - 1], s.far[k], frr[k - 1], frr[k]]
        assert min(corners) - 1e-12 <= s.eer <= max(corners) + 1e-12

    @settings(max_examples=40)
    @given(st.integers(0, 10**6), st.booleans())
    def test_matches_brute_force_oracle(self, seed, quantize):
        r = Rng(seed)
        g = r.normal((int(r.integers(1, 80)),), mean=0.3)
        i = r.normal((int(r.integers(1, 80)),))
        if quantize:  # force score ties within and across classes
            g = np.round(g, 1)
            i = np.round(i, 1)
        s = compute_roc(g, i)
        _, eer, auc = roc_brute_force(g, i)
        assert abs(s.eer - eer) < 1e-9
        assert abs(s.auc - auc) < 1e-9

    @given(st.integers(0, 10**6))
    def test_auc_invariant_under_increasing_transform(self, seed):
        r = Rng(seed)
        g = r.normal((25,), mean=0.4)
        i = r.normal((30,))
        base = compute_roc(g, i)
        warped = compute_roc(np.tanh(g) * 3 + 1, np.tanh(i) * 3 + 1)
        assert warped.auc == pytest.approx(base.auc, abs=1e-12)
        assert warped.eer == pytest.approx(base.eer, abs=1e-12)

    def test_roc_points_counts(self):
        taus, tpr, far = roc_points(np.array([0.2, 0.8]), np.array([0.5]))
        assert len(taus) == len(set([0.2, 0.8, 0.5])) + 2
        k = int(np.where(taus == 0.5)[0][0])
        assert tpr[k] == 0.5 and far[k] == 1.0


class TestScoreTrial:
    def _model(self, vec):
        v = np.asarray(vec, float)
        return SpeakerModel("spk", v / np.linalg.norm(v), zeta=5, kind="one_shot_3d")

    def _emb(self, vec):
        v = np.asarray(vec, float)
        return v / np.linalg.norm(v)

    def test_identical_vectors_score_one(self, rng):
        v = rng.normal((128,))
        assert score_trial(self._model(v), self._emb(v)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors_score_zero(self):
        a = np.zeros(8)
        a[0] = 1.0
        b = np.zeros(8)
        b[3] = 1.0
        assert score_trial(self._model(a), self._emb(b)) == pytest.approx(0.0, abs=1e-15)

    @given(st.integers(0, 10**6))
    def test_matches_dot_product_oracle(self, seed):
        r = Rng(seed)
        a, b = r.normal((64,)), r.normal((64,))
        got = score_trial(self._model(a), self._emb(b))
        want = float(np.dot(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        assert abs(got - min(1.0, max(-1.0, want))) < 1e-15
        assert -1.0 <= got <= 1.0

    @given(st.integers(0, 10**6))
    def test_symmetry(self, seed):
        r = Rng(seed)
        a, b = r.normal((16,)), r.normal((16,))
        ma, mb = self._model(a), self._model(b)
        ea, eb = self._emb(a), self._emb(b)
        assert score_trial(ma, eb) == pytest.approx(score_trial(mb, ea), abs=1e-15)

    def test_unnormalized_embedding_rejected(self):
        model = self._model(np.ones(4))
        for test in (np.ones(4) * 2.0, np.full(4, np.nan)):
            with pytest.raises(ConfigError):
                score_trial(model, test)

    @pytest.mark.parametrize("vec", [np.ones(4), np.full(4, np.nan)], ids=["norm_2", "nan"])
    def test_unnormalized_model_rejected(self, vec):
        with pytest.raises(ConfigError, match="not unit-norm"):
            SpeakerModel("spk", vec, zeta=5, kind="one_shot_3d")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            score_trial(self._model(np.ones(4)), self._emb(np.ones(6)))


class TestScoreSet:
    def _score_set(self, scores):
        # utterance u0 is spk_b's, u1 spk_a's; models in file order spk_a, spk_b
        return ScoreSet(("u0", "u1"), ("spk_a", "spk_b"), [[False, True], [True, False]], scores)

    def test_partitions_by_label(self):
        s = self._score_set([[0.1, 0.9], [0.8, 0.2]])
        np.testing.assert_array_equal(s.genuine_scores, [0.9, 0.8])
        np.testing.assert_array_equal(s.impostor_scores, [0.1, 0.2])
        assert len(s) == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            self._score_set(np.array([0.1, 0.2]))
        with pytest.raises(MetricError):
            ScoreSet(("u0",), ("spk_a", "spk_b"), [[True]], [[0.1, 0.2]])
