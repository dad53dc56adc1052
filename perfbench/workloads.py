"""The benchmark's workloads: the corpus each one synthesizes and the svkit
commands it times.

Every workload is a closed loop with one client: one process runs the timed
commands one after another through `svkit.cli.main(argv)`, then starts the
next iteration. The program sees only the synthesized WAVs and manifest.

This module imports nothing from numpy or svkit, so the parent process can
validate arguments without loading them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ZETA = 20  # the CLI default stack depth and the valid-depth (zeta >= 17) regime
BATCH = 8
DVECTOR_LR = "0.0003"  # the README's preferred rate for the batchnorm-free baseline


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    speakers: int
    dev_speakers: int  # the first N speakers are tagged 'development' by `svkit synth`
    utterances: int  # WAV files per speaker
    duration_s: float  # seconds per WAV file
    max_slices: int  # --max-slices: 0.8 s utterance maps kept per speaker and phase
    model: str
    epochs: int  # training epochs of the timed `svkit train` (0 = checkpoint only)
    timed: tuple[str, ...]  # timed stages, in order

    @property
    def eval_speakers(self) -> int:
        return self.speakers - self.dev_speakers


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_cnn3d",
            why="zeta=20 cube training, one SGD step of batch 8 per command: conv3d forward+backward, "
            "batchnorm, PReLU and SGD do nearly all the work; front end and scoring almost none",
            speakers=5,
            dev_speakers=4,
            utterances=3,
            duration_s=5.0,
            max_slices=40,
            model="cnn3d",
            epochs=1,
            timed=("train",),
        ),
        Workload(
            name="verify_cnn3d",
            why="one-shot enroll + evaluate on a zeta=20 checkpoint: the same conv code in infer mode only, "
            "depth-replicated test cubes in batches of 32, no backward pass",
            speakers=4,
            dev_speakers=2,
            utterances=3,
            duration_s=5.0,
            max_slices=40,
            model="cnn3d",
            epochs=0,
            timed=("enroll", "evaluate"),
        ),
        Workload(
            name="pipeline_dvector",
            why="lcn_dvector train/enroll/evaluate with 50k trials: no conv; front end, LC/FC layers, "
            "the per-trial scoring loop, the ROC and scores.csv do the work",
            speakers=60,
            dev_speakers=10,
            utterances=3,
            duration_s=5.0,
            max_slices=40,
            model="lcn_dvector",
            epochs=8,
            timed=("train", "enroll", "evaluate"),
        ),
    )
}


@dataclass(frozen=True)
class RunPaths:
    """Where one set-up's corpus lives and where the timed commands write."""

    data: Path
    out: Path

    @property
    def manifest(self) -> Path:
        return self.data / "manifest.csv"

    @property
    def checkpoint(self) -> Path:
        return self.out / "checkpoint.svck"

    @property
    def models(self) -> Path:
        return self.out / "models.svsm"

    @property
    def loss_log(self) -> Path:
        return self.checkpoint.with_suffix(".loss.log")


def synth_argv(w: Workload, seed: int, paths: RunPaths) -> list[str]:
    return [
        "synth",
        "--speakers", str(w.speakers),
        "--utterances", str(w.utterances),
        "--seed", str(seed),
        "--out", str(paths.data),
        "--duration", str(w.duration_s),
        "--dev-speakers", str(w.dev_speakers),
    ]  # fmt: skip


def stage_argv(w: Workload, stage: str, seed: int, paths: RunPaths, epochs: int | None = None) -> list[str]:
    """argv of one svkit command; `epochs` overrides the workload's for set-up checkpoints."""
    common = ["--manifest", str(paths.manifest), "--seed", str(seed), "--max-slices", str(w.max_slices)]
    if stage == "train":
        argv = ["train", *common, "--model", w.model, "--batch", str(BATCH)]
        argv += ["--epochs", str(w.epochs if epochs is None else epochs), "--out", str(paths.checkpoint)]
        if w.model == "cnn3d":
            argv += ["--zeta", str(ZETA)]
        else:
            argv += ["--lr", DVECTOR_LR]
        return argv
    if stage == "enroll":
        return ["enroll", *common, "--checkpoint", str(paths.checkpoint), "--out", str(paths.models)]
    if stage == "evaluate":
        return [
            "evaluate", *common,
            "--checkpoint", str(paths.checkpoint),
            "--models", str(paths.models),
            "--out-dir", str(paths.out),
        ]  # fmt: skip
    raise ValueError(f"unknown stage {stage!r}")
