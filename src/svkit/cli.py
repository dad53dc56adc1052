"""Command-line surface: svkit <synth|train|enroll|evaluate|zeta-sweep>.

zeta-sweep is the experiment engine: it runs train, enroll and evaluate for
each system in --models, the cube network once per zeta, each step parsed
from its own argument list by this module's parser.

Settings come from each command's flags, with RunConfig's defaults for the
rest; a speaker's phase (development, or enrollment and evaluation) comes
from its manifest rows' split tags.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O or file-format
error, 4 numeric failure (NaN/Inf). Every command is deterministic under a
fixed --seed at an equal BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import MODEL_KINDS, RunConfig
from .corpus.manifest import load_manifest
from .corpus.slicing import slice_utterances, split_enroll_eval
from .dsp.audio import load_wav, require_sample_rate
from .dsp.features import FeatureMap, mel_filterbank, signal_to_feature_map, write_feature_file
from .dsp.vad import detect_voice
from .errors import ConfigError, SvkitError
from .models.checkpoint import load_checkpoint, save_checkpoint
from .models.zoo import build_network
from .protocol.enrollment import (
    D_VECTOR,
    ONE_SHOT,
    SpeakerModels,
    enroll_dvector,
    enroll_one_shot,
    enrollment_crc,
    load_speaker_models,
    save_speaker_models,
)
from .protocol.evaluation import run_evaluation, write_score_log
from .protocol.training import train_development
from .report import write_metrics_json, write_roc_csv, write_roc_svg
from .rng import Rng


# -- shared pipeline pieces -------------------------------------------------


def _feature_maps(entries, max_slices: int | None, root: Path):
    """speaker -> utterance feature maps, in manifest order, capped per speaker.

    A map's utterance id is its file's path relative to `root`, the manifest's
    directory, without the suffix, then '#' and the slice number.
    """
    if max_slices is not None and max_slices < 1:
        raise ConfigError(f"--max-slices must be at least 1, got {max_slices}")
    bank = mel_filterbank()
    maps: dict[str, list] = {}
    for entry in entries:
        out = maps.setdefault(entry.speaker_id, [])
        if max_slices is not None and len(out) >= max_slices:
            continue
        signal = require_sample_rate(load_wav(entry.path))
        voiced = detect_voice(signal)
        starts = slice_utterances(voiced)
        if max_slices is not None:
            starts = starts[: max_slices - len(out)]
        values = signal_to_feature_map(voiced, bank, starts)
        name = Path(os.path.relpath(entry.path, root)).with_suffix("").as_posix()
        out.extend(
            FeatureMap(v, speaker_id=entry.speaker_id, utterance_id=f"{name}#{i:03d}") for i, v in enumerate(values)
        )
    return maps


def _phase_entries(entries):
    """Partition manifest entries by split tag into development and enrollment/evaluation."""
    dev = [e for e in entries if e.split == "development"]
    eval_phase = [e for e in entries if e.split in ("enrollment", "evaluation")]
    overlap = {e.speaker_id for e in dev} & {e.speaker_id for e in eval_phase}
    if overlap:
        raise ConfigError(f"speakers {sorted(overlap)} appear in both development and evaluation phases")
    return dev, eval_phase


def _evaluation_phase(args):
    """(network, checkpoint CRC, enrollment maps, evaluation maps): the one front end of `enroll` and `evaluate`."""
    cfg = _resolve_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    _, eval_entries = _phase_entries(load_manifest(args.manifest))
    if not eval_entries:
        raise ConfigError("manifest has no enrollment/evaluation entries")
    maps = _enroll_eval_maps(eval_entries, cfg.seed, args.max_slices, Path(args.manifest).parent.resolve())
    return (ckpt.to_network(), ckpt.crc, *maps)


def _enroll_eval_maps(eval_entries, seed: int, max_slices: int | None, root: Path):
    """Per-speaker (enrollment maps, evaluation maps).

    Speakers with files explicitly tagged 'evaluation' use the file-level
    assignment; otherwise each speaker's sliced utterances are shuffled with
    the seed and halved.
    """
    tagged = {e.speaker_id for e in eval_entries if e.split == "evaluation"}
    enroll, evaluate = (
        _feature_maps([e for e in eval_entries if e.speaker_id in tagged and e.split == split], max_slices, root)
        for split in ("enrollment", "evaluation")
    )
    for speaker in sorted(tagged):
        if not enroll.get(speaker) or not evaluate.get(speaker):
            raise ConfigError(f"speaker {speaker!r} lacks enrollment or evaluation audio")
    untagged = _feature_maps([e for e in eval_entries if e.speaker_id not in tagged], max_slices, root)
    if untagged:
        split_enroll, split_evaluate = split_enroll_eval(untagged, seed)
        enroll.update(split_enroll)
        evaluate.update(split_evaluate)
    return enroll, evaluate


def _resolve_config(args) -> RunConfig:
    """The validated settings: each RunConfig field a flag in `args` sets, the default for the rest."""
    return RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None}
    ).validate()


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    from .corpus.synthesis import make_synthetic_corpus  # imported here: it loads scipy.signal, which only synth needs

    entries = make_synthetic_corpus(
        n_speakers=args.speakers,
        utterances_per_speaker=args.utterances,
        seed=_resolve_config(args).seed,
        out_dir=args.out,
        dev_speakers=args.dev_speakers,
        duration_s=args.duration,
    )
    print(f"wrote {len(entries)} utterances for {args.speakers} speakers under {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    entries = load_manifest(args.manifest)
    dev_entries, _ = _phase_entries(entries)
    if not dev_entries:
        raise ConfigError("manifest has no development entries")
    root = Path(args.manifest).parent.resolve()
    if args.dump_features and not all(e.path.is_relative_to(root) for e in dev_entries):
        raise ConfigError("--dump-features mirrors the manifest's directory; a development file lies outside it")
    maps = _feature_maps(dev_entries, args.max_slices, root)
    if args.dump_features:
        for speaker in sorted(maps):
            for m in maps[speaker]:
                path = Path(args.dump_features) / f"{m.utterance_id.replace('#', '_')}.mfec"
                path.parent.mkdir(parents=True, exist_ok=True)
                write_feature_file(m, path)
    network = build_network(cfg.model, cfg.zeta, len(maps), Rng(cfg.seed).child(3))
    ckpt, history = train_development(network, maps, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, out)
    out.with_suffix(".summary.txt").write_text(network.summary() + "\n")
    out.with_suffix(".loss.log").write_text("".join(f"{i},{loss!r}\n" for i, loss in enumerate(history, start=1)))
    print(f"trained {cfg.model} on {len(maps)} speakers for {cfg.epochs} epochs -> {out}")
    if history:
        print(f"final epoch loss {history[-1]:.6f}")
    return 0


def cmd_enroll(args) -> int:
    network, checkpoint_crc, enroll_maps, _ = _evaluation_phase(args)
    mode = args.mode or ("one_shot" if network.spec.kind == "cnn3d" else "dvector")
    enroll = enroll_one_shot if mode == "one_shot" else enroll_dvector
    speakers = sorted(enroll_maps)
    models = SpeakerModels(
        ONE_SHOT if mode == "one_shot" else D_VECTOR,
        tuple(speakers),
        np.stack([enroll(network, enroll_maps[speaker]) for speaker in speakers]),
        checkpoint_crc,
        enrollment_crc(enroll_maps),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_speaker_models(models, out)
    print(f"enrolled {len(speakers)} speakers ({models.kind}) -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    models = load_speaker_models(args.models)
    network, checkpoint_crc, enroll_maps, eval_maps = _evaluation_phase(args)
    for key, enrolled, now in (
        ("checkpoint_crc", models.checkpoint_crc, checkpoint_crc),
        ("enrollment_crc", models.enrollment_crc, enrollment_crc(enroll_maps)),
    ):
        if enrolled != now:
            raise ConfigError(
                f"{args.models} was enrolled at {key} {enrolled}, this run has {now}; evaluate with the "
                "checkpoint, manifest, --seed and --max-slices that enrolled the models"
            )
    test_maps = [m for speaker in sorted(eval_maps) for m in eval_maps[speaker]]
    summary, score_set = run_evaluation(models, test_maps, network)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_json(summary, score_set, network.spec.zeta, models.kind, out_dir / "metrics.json")
    write_roc_csv(summary, out_dir / "roc.csv")
    write_roc_svg(summary, out_dir / "roc.svg")
    write_score_log(score_set, out_dir / "scores.csv")
    print(f"eer {summary.eer:.4f}  auc {summary.auc:.4f}  ({len(score_set)} trials) -> {out_dir}")
    return 0


def cmd_zeta_sweep(args) -> int:
    """Train, enroll and evaluate each of --models, the cube network once per zeta.

    Each step is one `train`, `enroll` and `evaluate` argv run through
    `build_parser()`, into <out-dir>/<model>/zeta_<zeta:03d>. `lcn_dvector`
    reads one map, so it runs once, at zeta 1, whatever --zetas holds.
    sweep.txt gets one row per step.
    """
    zetas = _parse_list("--zetas", args.zetas, int)
    if min(zetas) < 1:
        raise ConfigError(f"--zetas must be positive integers, got {args.zetas!r}")
    models = _parse_list("--models", args.models, str)
    if set(models) - set(MODEL_KINDS):
        raise ConfigError(f"--models takes {','.join(MODEL_KINDS)}, got {args.models!r}")
    common = _flags(args, ("manifest", "seed", "max_slices"))
    train = _flags(args, _TRAINING_OPTIONS)
    parser, out_dir = build_parser(), Path(args.out_dir)
    lines = [f"{'system':<12} {'zeta':>4}  {'model_kind':<12} {'eer':>8} {'auc':>8}"]
    for model in models:
        for zeta in zetas if model == "cnn3d" else [1]:
            step = out_dir / model / f"zeta_{zeta:03d}"
            ckpt, svsm = step / "checkpoint.svck", step / "models.svsm"
            for argv in (
                ["train", f"--model={model}", f"--zeta={zeta}", *train, f"--out={ckpt}"],
                ["enroll", f"--checkpoint={ckpt}", f"--out={svsm}"],
                ["evaluate", f"--checkpoint={ckpt}", f"--models={svsm}", f"--out-dir={step}"],
            ):
                parsed = parser.parse_args(argv + common)
                parsed.func(parsed)
            metrics = json.loads((step / "metrics.json").read_text())
            lines.append(
                f"{model:<12} {zeta:>4}  {metrics['model_kind']:<12} {metrics['eer']:>8.4f} {metrics['auc']:>8.4f}"
            )
    table = "\n".join(lines)
    (out_dir / "sweep.txt").write_text(table + "\n")
    print(table)
    return 0


def _parse_list(flag: str, text: str, kind) -> list:
    """A comma list's distinct items, sorted; exits 2 on an empty list or an item `kind` rejects."""
    try:
        items = sorted({kind(item.strip()) for item in text.split(",") if item.strip()})
    except ValueError as exc:
        raise ConfigError(f"bad {flag} list {text!r}: {exc}") from exc
    if not items:
        raise ConfigError(f"{flag} is empty")
    return items


def _flags(args, dests) -> list[str]:
    """`--name=value` for each of `dests` that `args` sets."""
    return [f"--{dest.replace('_', '-')}={getattr(args, dest)}" for dest in dests if getattr(args, dest) is not None]


# -- parser -------------------------------------------------------------------


# train's options, which zeta-sweep passes on to each train step
_TRAINING_OPTIONS = {"epochs": int, "lr": float, "momentum": float, "batch": int}


def _add_training(p):
    for dest, kind in _TRAINING_OPTIONS.items():
        text = "default: 0.003 for cnn3d, 0.0003 for lcn_dvector" if dest == "lr" else None
        p.add_argument(f"--{dest}", type=kind, default=None, help=text)


def _add_common(p):
    p.add_argument("--manifest", required=True, help="corpus manifest CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--max-slices",
        type=int,
        default=None,
        help="cap sliced utterances per speaker, before enroll and evaluate halve them by seed: one-shot "
        "enrollment at zeta needs a cap of at least 2*zeta-1 for a speaker with no 'evaluation'-tagged "
        "files, and at least zeta for a speaker with them",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--utterances", type=int, required=True, help="WAV files per speaker")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=3.0, help="seconds per utterance file")
    p.add_argument("--dev-speakers", type=int, required=True, help="tag the first N speakers as development")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the development-phase classifier")
    _add_common(p)
    p.add_argument("--model", choices=MODEL_KINDS, default=None)
    p.add_argument("--zeta", type=int, default=None, help="utterance maps stacked per cube")
    _add_training(p)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--dump-features", default=None, help="also dump each training feature map here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enroll", help="build one speaker model per enrollment speaker")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("one_shot", "dvector"), default=None, help="default: one_shot for cnn3d, dvector otherwise")
    p.add_argument("--out", required=True, help="speaker-model file path")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("evaluate", help="score evaluation utterances one-vs-all and report metrics")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--models", required=True, help="speaker-model file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("zeta-sweep", help="train/enroll/evaluate each system; the cube network per zeta")
    _add_common(p)
    p.add_argument("--zetas", required=True, help="comma-separated list, e.g. 5,10,20")
    p.add_argument("--models", default="cnn3d", help="comma-separated systems: cnn3d, lcn_dvector (default: cnn3d)")
    _add_training(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_zeta_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SvkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
