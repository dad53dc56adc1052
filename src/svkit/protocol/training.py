"""Development-phase training: softmax speaker classification.

Every training example is one stack of `zeta` maps from a single speaker
(consecutive non-overlapping groups in corpus order), shaped to the
network's input; the map-level baseline is zeta = 1, one map per example.
Training is plain SGD with momentum over shuffled minibatches, deterministic
under a fixed seed at an equal BLAS thread count.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import RunConfig
from ..errors import ConfigError, NumericError
from ..nn.layers import assert_finite, softmax_xent_batch, softmax_xent_batch_gradient
from ..nn.optim import SgdMomentum
from ..models.checkpoint import Checkpoint
from ..models.network import Network
from ..dsp.features import build_feature_cube
from ..rng import Rng


def speaker_labels(maps_by_speaker: dict) -> dict[str, int]:
    """Stable class index per speaker (sorted id order)."""
    return {sid: i for i, sid in enumerate(sorted(maps_by_speaker))}


def training_examples(network: Network, maps_by_speaker: dict) -> list[tuple[np.ndarray, int]]:
    """(input, class label) pairs: each speaker's maps in consecutive groups of zeta, each group one input."""
    if len(maps_by_speaker) < 2:
        raise ConfigError(f"development needs >= 2 speakers, got {len(maps_by_speaker)}")
    labels = speaker_labels(maps_by_speaker)
    zeta, shape = network.spec.zeta, network.spec.input_shape
    examples: list[tuple[np.ndarray, int]] = []
    for sid in sorted(maps_by_speaker):
        maps = list(maps_by_speaker[sid])
        if len(maps) < zeta:
            raise ConfigError(f"speaker {sid!r} has {len(maps)} utterance maps, fewer than the stack depth {zeta}")
        for start in range(0, len(maps) - zeta + 1, zeta):
            examples.append((build_feature_cube(maps[start : start + zeta]).reshape(shape), labels[sid]))
    return examples


def train_development(
    network: Network, maps_by_speaker: dict, cfg: RunConfig
) -> tuple[Checkpoint, list[float]]:
    """Train the softmax classifier with cfg's lr, momentum, batch, epochs and seed.

    Returns the checkpoint and the per-epoch loss; raises NumericError when
    the loss or a trained weight is not finite.
    """
    cfg.validate()
    if len(maps_by_speaker) != network.spec.n_classes:
        raise ConfigError(
            f"network built for {network.spec.n_classes} classes but corpus has {len(maps_by_speaker)} speakers"
        )
    examples = training_examples(network, maps_by_speaker)
    rng = Rng(cfg.seed).child(7)  # substream reserved for batch shuffling
    optimizer = SgdMomentum(cfg.lr, cfg.momentum)
    history: list[float] = []
    n = len(examples)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch):
            idx = order[start : start + cfg.batch]
            xb = np.stack([examples[i][0] for i in idx])
            yb = np.array([examples[i][1] for i in idx], dtype=np.int64)
            logits, caches = network.forward_with_cache(xb)
            loss, probs = softmax_xent_batch(logits, yb)
            if not math.isfinite(loss):
                raise NumericError(f"training loss became non-finite ({loss})")
            _, grads = network.backward(caches, softmax_xent_batch_gradient(probs, yb), input_grad=False)
            optimizer.step(network.layers, grads)
            total += loss * len(idx)
        history.append(total / n)
    for layer in network.layers:
        for field, arr in layer.learnable():
            assert_finite(arr, f"trained {layer.name or layer.kind} {field}")
    return Checkpoint.of(network, epoch=cfg.epochs, seed=cfg.seed), history

