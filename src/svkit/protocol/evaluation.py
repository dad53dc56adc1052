"""One-vs-all evaluation: every test utterance scored against every model."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..models.network import Network
from .enrollment import ONE_SHOT, SpeakerModel, score_trial, utterance_input
from .metrics import RocSummary, ScoreSet, Trial, compute_roc


def run_evaluation(models: list[SpeakerModel], test_maps, network: Network) -> tuple[RocSummary, ScoreSet]:
    """Score all (test utterance, speaker model) pairs and compute the ROC.

    Each test map carries its true speaker id; a trial is genuine when the
    claimed model's id matches it. Single test utterances reach the cube
    network as depth-replicated cubes; at valid depth (zeta >= 17) those run
    collapsed to one depth slice (see `Network.embed_vectors`), with the same
    embeddings as the full cube to within 1e-12.
    """
    test_maps = list(test_maps)
    if not models:
        raise ConfigError("no speaker models to evaluate against")
    if not test_maps:
        raise ConfigError("no test utterances to evaluate")
    for m in models:
        if m.kind == ONE_SHOT and m.zeta != network.spec.zeta:
            raise ConfigError(
                f"model for {m.speaker_id!r} was enrolled at stack depth {m.zeta}, "
                f"network runs at {network.spec.zeta}"
            )
    vecs = network.embed_vectors([utterance_input(network.spec, m) for m in test_maps])
    trials: list[Trial] = []
    scores: list[float] = []
    for fmap, vec in zip(test_maps, vecs):
        for model in models:
            trials.append(Trial(fmap.utterance_id, model.speaker_id, model.speaker_id == fmap.speaker_id))
            scores.append(score_trial(model, vec))
    score_set = ScoreSet(tuple(trials), np.array(scores))
    return compute_roc(score_set), score_set


def score_log_lines(score_set: ScoreSet) -> list[str]:
    """One line per trial: utterance_id,claimed_id,label,score (full precision)."""
    return [
        f"{t.utterance_id},{t.claimed_id},{t.label},{float(s)!r}"
        for t, s in zip(score_set.trials, score_set.scores)
    ]


def write_score_log(score_set: ScoreSet, path) -> None:
    with open(path, "w") as fh:
        fh.write("utterance_id,claimed_id,label,score\n")
        for line in score_log_lines(score_set):
            fh.write(line + "\n")
