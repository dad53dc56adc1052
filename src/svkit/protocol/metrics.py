"""Score sets and ROC / EER / AUC computation.

Scores are cosine similarities; a trial is accepted when its score is >= the
threshold. The sweep visits every distinct score plus -inf/+inf sentinels,
so the resulting (FAR, TPR) polyline starts at (1, 1) and ends at (0, 0).
For unit-norm embeddings this accept rule ranks identically to thresholding
the Euclidean distance, since d^2 = 2 - 2*cos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MetricError, NumericError

GENUINE = "genuine"
IMPOSTOR = "impostor"


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """One-vs-all trial scores: row u scores test utterance u against every model.

    `genuine[u, m]` marks a trial whose claimed model is the utterance's own
    speaker. Trials in row-major order are the scoring order.
    """

    utterance_ids: tuple[str, ...]
    model_ids: tuple[str, ...]
    genuine: np.ndarray  # (U, M) bool
    scores: np.ndarray  # (U, M)

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        g = np.asarray(self.genuine, dtype=bool)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "genuine", g)
        shape = (len(self.utterance_ids), len(self.model_ids))
        if s.shape != shape or g.shape != shape:
            raise MetricError(f"{shape[0]} utterances x {shape[1]} models but scores {s.shape}, mask {g.shape}")

    @property
    def genuine_scores(self) -> np.ndarray:
        return self.scores[self.genuine]

    @property
    def impostor_scores(self) -> np.ndarray:
        return self.scores[~self.genuine]

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True, eq=False)
class RocSummary:
    thresholds: np.ndarray  # ascending, with -inf/+inf sentinels
    tpr: np.ndarray
    far: np.ndarray
    eer: float
    auc: float


def roc_points(genuine: np.ndarray, impostor: np.ndarray):
    """Threshold sweep over all distinct scores plus sentinels.

    Returns (thresholds, tpr, far) with tpr(t) = |genuine >= t| / |genuine|
    and far(t) = |impostor >= t| / |impostor|; both are non-increasing in t.
    """
    g = np.sort(np.asarray(genuine, dtype=np.float64))
    i = np.sort(np.asarray(impostor, dtype=np.float64))
    taus = np.concatenate(([-np.inf], np.unique(np.concatenate((g, i))), [np.inf]))
    tpr = (g.size - np.searchsorted(g, taus, side="left")) / g.size
    far = (i.size - np.searchsorted(i, taus, side="left")) / i.size
    return taus, tpr, far


def interpolate_eer(tpr: np.ndarray, far: np.ndarray) -> float:
    """Rate where FAR equals FRR, linearly interpolated between sweep points."""
    frr = 1.0 - tpr
    d = far - frr  # non-increasing from +1 to -1
    k = int(np.argmax(d <= 0.0))
    if d[k] == 0.0:
        return float(far[k])
    t = d[k - 1] / (d[k - 1] - d[k])
    return float(far[k - 1] + t * (far[k] - far[k - 1]))


def compute_roc(genuine, impostor) -> RocSummary:
    """Full sweep plus EER (interpolated) and AUC (trapezoidal) from the two score arrays."""
    g = np.asarray(genuine, dtype=np.float64)
    i = np.asarray(impostor, dtype=np.float64)
    if not (np.isfinite(g).all() and np.isfinite(i).all()):
        raise NumericError("non-finite trial scores")
    if g.size == 0 or i.size == 0:
        raise MetricError(
            f"need at least one genuine and one impostor trial, got {g.size} genuine / {i.size} impostor"
        )
    taus, tpr, far = roc_points(g, i)
    eer = interpolate_eer(tpr, far)
    # Reversing the sweep gives FAR ascending for the area integral.
    auc = float(np.trapezoid(tpr[::-1], far[::-1]))
    return RocSummary(thresholds=taus, tpr=tpr, far=far, eer=eer, auc=auc)
