import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for tests/oracles.py

settings.register_profile("svkit", max_examples=30, deadline=None)
settings.load_profile("svkit")


@pytest.fixture
def rng():
    from svkit.rng import Rng

    return Rng(1234)


@pytest.fixture(scope="session")
def mel_bank():
    from svkit.dsp.features import mel_filterbank

    return mel_filterbank()


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Three-speaker seeded corpus, shared read-only across tests."""
    from svkit.corpus.synthesis import make_synthetic_corpus

    root = tmp_path_factory.mktemp("tiny_corpus")
    entries = make_synthetic_corpus(3, 2, seed=101, out_dir=root, duration_s=3.0)
    return root, entries


def tone(freq=440.0, duration=1.0, amplitude=0.5, sample_rate=16000):
    t = np.arange(int(duration * sample_rate)) / sample_rate
    return amplitude * np.sin(2 * np.pi * freq * t)
