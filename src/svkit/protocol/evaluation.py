"""One-vs-all evaluation: every test utterance scored against every model."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..models.network import Network
from .enrollment import SpeakerModels, score_trial, utterance_input
from .metrics import GENUINE, IMPOSTOR, RocSummary, ScoreSet, compute_roc


def run_evaluation(models: SpeakerModels, test_maps, network: Network) -> tuple[RocSummary, ScoreSet]:
    """Score all (test utterance, speaker model) pairs and compute the ROC.

    Each test map carries its true speaker id; a trial is genuine when the
    claimed model's id matches it. Single test utterances reach the cube
    network as depth-replicated views of their maps; at valid depth
    (zeta >= 17) those run collapsed to one depth slice, and every batch
    runs with each batchnorm folded into the conv before it (see
    `Network.embed_vectors`), with the same embeddings as the full, unfolded
    cube to within 1e-12. Scores fill the (utterances x models) matrix row by row,
    one `score_trial` call per trial; the genuine mask is one comparison of
    the test maps' speaker ids against the models'. The models must come
    from `network`'s own checkpoint; `svkit evaluate` checks that from the
    model file.
    """
    test_maps = list(test_maps)
    if not test_maps:
        raise ConfigError("no test utterances to evaluate")
    vecs = network.embed_vectors([utterance_input(network.spec, m) for m in test_maps])
    score_set = ScoreSet(
        tuple(m.utterance_id for m in test_maps),
        models.speaker_ids,
        np.array([m.speaker_id for m in test_maps])[:, None] == np.array(models.speaker_ids)[None, :],
        np.array([[score_trial(model, vec) for model in models.vectors] for vec in vecs]),
    )
    return compute_roc(score_set.genuine_scores, score_set.impostor_scores), score_set


def score_log_lines(score_set: ScoreSet) -> list[str]:
    """One line per trial, row by row: utterance_id,claimed_id,label,score (full precision)."""
    return [
        f"{utt},{claimed},{GENUINE if genuine else IMPOSTOR},{float(s)!r}"
        for utt, genuine_row, score_row in zip(score_set.utterance_ids, score_set.genuine, score_set.scores)
        for claimed, genuine, s in zip(score_set.model_ids, genuine_row, score_row)
    ]


def write_score_log(score_set: ScoreSet, path) -> None:
    with open(path, "w") as fh:
        fh.write("utterance_id,claimed_id,label,score\n")
        for line in score_log_lines(score_set):
            fh.write(line + "\n")
