from .enrollment import (
    D_VECTOR,
    ONE_SHOT,
    SpeakerModel,
    enroll_dvector,
    enroll_one_shot,
    load_speaker_models,
    save_speaker_models,
    score_trial,
    utterance_input,
)
from .evaluation import run_evaluation, score_log_lines, write_score_log
from .metrics import (
    GENUINE,
    IMPOSTOR,
    RocSummary,
    ScoreSet,
    compute_roc,
    interpolate_eer,
    roc_points,
)
from .training import (
    classification_accuracy,
    speaker_labels,
    train_development,
    training_examples,
)

__all__ = [
    "D_VECTOR",
    "GENUINE",
    "IMPOSTOR",
    "ONE_SHOT",
    "RocSummary",
    "ScoreSet",
    "SpeakerModel",
    "classification_accuracy",
    "compute_roc",
    "enroll_dvector",
    "enroll_one_shot",
    "interpolate_eer",
    "load_speaker_models",
    "roc_points",
    "run_evaluation",
    "save_speaker_models",
    "score_log_lines",
    "score_trial",
    "speaker_labels",
    "train_development",
    "training_examples",
    "utterance_input",
    "write_score_log",
]
