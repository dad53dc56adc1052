"""Utterance slicing and the enrollment/evaluation split.

Long voiced recordings are cut into heavily overlapped 0.8 s utterances
(0.1 s hop, so neighbors share 87.5% of their samples). Per speaker,
the utterances of the non-development phase are shuffled with a seeded
permutation and halved: enrollment takes the extra one when the count is odd.
"""

from __future__ import annotations

from ..dsp.audio import AudioSignal
from ..errors import ConfigError, SignalTooShortError
from ..rng import Rng

SLICE_SECONDS = 0.8
SLICE_HOP_SECONDS = 0.1


def slice_utterances(signal: AudioSignal) -> range:
    """Start samples of the SLICE_SECONDS windows at a SLICE_HOP_SECONDS hop; count = floor((L - D)/H) + 1."""
    window = int(round(SLICE_SECONDS * signal.sample_rate))
    hop = int(round(SLICE_HOP_SECONDS * signal.sample_rate))
    if len(signal) < window:
        raise SignalTooShortError(
            f"signal of {len(signal)} samples is shorter than one {window}-sample utterance"
        )
    return range(0, len(signal) - window + 1, hop)


def split_enroll_eval(refs_by_speaker: dict, seed: int) -> tuple[dict[str, list], dict[str, list]]:
    """Seeded shuffle then halving into (enroll, evaluate); halves are disjoint, sizes differ by <= 1."""
    enroll: dict[str, list] = {}
    evaluate: dict[str, list] = {}
    for index, speaker in enumerate(sorted(refs_by_speaker)):
        refs = list(refs_by_speaker[speaker])
        if len(refs) < 2:
            raise ConfigError(
                f"speaker {speaker!r} has {len(refs)} utterances; need >= 2 to split"
            )
        perm = Rng(seed).child(11, index).permutation(len(refs))
        n_enroll = (len(refs) + 1) // 2  # odd counts favor enrollment
        enroll_idx = sorted(perm[:n_enroll])
        eval_idx = sorted(perm[n_enroll:])
        enroll[speaker] = [refs[i] for i in enroll_idx]
        evaluate[speaker] = [refs[i] for i in eval_idx]
    return enroll, evaluate
