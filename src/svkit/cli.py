"""Command-line surface: svkit <synth|train|enroll|evaluate|zeta-sweep>.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O or file-format
error, 4 numeric failure (NaN/Inf). Every command is deterministic under a
fixed --seed at an equal BLAS thread count; the SVKIT_SEED environment
variable is the fallback when no flag or config-file value is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import RunConfig, parse_config_file
from .corpus.manifest import entries_by_speaker, load_manifest
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
    enroll_dvector,
    enroll_one_shot,
    load_speaker_models,
    save_speaker_models,
)
from .protocol.evaluation import run_evaluation, write_score_log
from .protocol.training import train_development
from .report import format_sweep_table, write_metrics_json, write_roc_csv, write_roc_svg
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


def _phase_entries(entries, n_dev: int | None):
    """Partition manifest entries into development and enrollment/evaluation."""
    dev = [e for e in entries if e.split == "development"]
    eval_phase = [e for e in entries if e.split in ("enrollment", "evaluation")]
    autos = [e for e in entries if e.split == "auto"]
    if autos:
        if dev or eval_phase:
            raise ConfigError("manifest mixes split=auto with explicit split tags")
        speakers = sorted({e.speaker_id for e in autos})
        if n_dev is None:
            raise ConfigError("manifest uses split=auto; pass --dev-speakers to partition it")
        if not 0 < n_dev < len(speakers):
            raise ConfigError(
                f"--dev-speakers {n_dev} must leave at least one of {len(speakers)} speakers for evaluation"
            )
        dev_ids = set(speakers[:n_dev])
        dev = [e for e in autos if e.speaker_id in dev_ids]
        eval_phase = [e for e in autos if e.speaker_id not in dev_ids]
    overlap = {e.speaker_id for e in dev} & {e.speaker_id for e in eval_phase}
    if overlap:
        raise ConfigError(f"speakers {sorted(overlap)} appear in both development and evaluation phases")
    return dev, eval_phase


def _enroll_eval_maps(eval_entries, seed: int, max_slices: int | None, root: Path):
    """Per-speaker (enrollment maps, evaluation maps).

    Speakers with files explicitly tagged 'evaluation' use the file-level
    assignment; otherwise each speaker's sliced utterances are shuffled with
    the seed and halved.
    """
    enroll: dict[str, list] = {}
    evaluate: dict[str, list] = {}
    by_speaker = entries_by_speaker(eval_entries)
    split_needed = {}
    for speaker, es in sorted(by_speaker.items()):
        if any(e.split == "evaluation" for e in es):
            enroll[speaker], evaluate[speaker] = (
                _feature_maps([e for e in es if e.split == split], max_slices, root).get(speaker, [])
                for split in ("enrollment", "evaluation")
            )
            if not enroll[speaker] or not evaluate[speaker]:
                raise ConfigError(f"speaker {speaker!r} lacks enrollment or evaluation audio")
        else:
            split_needed[speaker] = _feature_maps(es, max_slices, root)[speaker]
    if split_needed:
        split_enroll, split_evaluate = split_enroll_eval(split_needed, seed)
        enroll.update(split_enroll)
        evaluate.update(split_evaluate)
    return enroll, evaluate


def _resolve_config(args) -> RunConfig:
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()
    for key in ("zeta", "n_dev_speakers", "lr", "momentum", "batch", "epochs", "model"):
        flag = getattr(args, _FLAG_NAMES.get(key, key), None)
        if flag is not None:
            setattr(cfg, key, flag)
        elif key in file_values:
            setattr(cfg, key, file_values[key])
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    elif "seed" in file_values:
        cfg.seed = file_values["seed"]
    elif os.environ.get("SVKIT_SEED"):
        try:
            cfg.seed = int(os.environ["SVKIT_SEED"])
        except ValueError as exc:
            raise ConfigError(f"SVKIT_SEED must be an integer: {exc}") from exc
    return cfg.validate()


_FLAG_NAMES = {"n_dev_speakers": "dev_speakers"}


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    from .corpus.synthesis import make_synthetic_corpus  # imported here: it loads scipy.signal, which only synth needs

    entries = make_synthetic_corpus(
        n_speakers=args.speakers,
        utterances_per_speaker=args.utterances,
        seed=_resolve_config(args).seed,
        out_dir=args.out,
        duration_s=args.duration,
        n_dev_speakers=args.dev_speakers,
    )
    print(f"wrote {len(entries)} utterances for {args.speakers} speakers under {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    entries = load_manifest(args.manifest)
    dev_entries, _ = _phase_entries(entries, cfg.n_dev_speakers)
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
    log_path = Path(args.loss_log) if args.loss_log else out.with_suffix(".loss.log")
    log_path.write_text("".join(f"{i},{loss!r}\n" for i, loss in enumerate(history, start=1)))
    print(f"trained {cfg.model} on {len(maps)} speakers for {cfg.epochs} epochs -> {out}")
    if history:
        print(f"final epoch loss {history[-1]:.6f}")
    return 0


def cmd_enroll(args) -> int:
    cfg = _resolve_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    network = ckpt.to_network()
    entries = load_manifest(args.manifest)
    _, eval_entries = _phase_entries(entries, cfg.n_dev_speakers)
    if not eval_entries:
        raise ConfigError("manifest has no enrollment/evaluation entries")
    enroll_maps, _ = _enroll_eval_maps(eval_entries, cfg.seed, args.max_slices, Path(args.manifest).parent.resolve())
    mode = args.mode or ("one_shot" if network.spec.kind == "cnn3d" else "dvector")
    enroll = enroll_one_shot if mode == "one_shot" else enroll_dvector
    models = [enroll(network, enroll_maps[speaker]) for speaker in sorted(enroll_maps)]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_speaker_models(models, out)
    kinds = {m.kind for m in models}
    print(f"enrolled {len(models)} speakers ({', '.join(sorted(kinds))}) -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    network = ckpt.to_network()
    models = load_speaker_models(args.models)
    entries = load_manifest(args.manifest)
    _, eval_entries = _phase_entries(entries, cfg.n_dev_speakers)
    _, eval_maps = _enroll_eval_maps(eval_entries, cfg.seed, args.max_slices, Path(args.manifest).parent.resolve())
    test_maps = [m for speaker in sorted(eval_maps) for m in eval_maps[speaker]]
    summary, score_set = run_evaluation(models, test_maps, network)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_kind = ONE_SHOT if all(m.kind == ONE_SHOT for m in models) else D_VECTOR
    write_metrics_json(summary, score_set, network.spec.zeta, model_kind, out_dir / "metrics.json")
    write_roc_csv(summary, out_dir / "roc.csv")
    write_roc_svg(summary, out_dir / "roc.svg")
    write_score_log(score_set, out_dir / "scores.csv")
    print(f"eer {summary.eer:.4f}  auc {summary.auc:.4f}  ({len(score_set)} trials) -> {out_dir}")
    return 0


def cmd_zeta_sweep(args) -> int:
    zetas = _parse_zetas(args.zetas)
    out_dir = Path(args.out_dir)
    rows = []
    for zeta in zetas:
        step_dir = out_dir / f"zeta_{zeta:03d}"
        ns = argparse.Namespace(**vars(args))
        ns.zeta = zeta
        ns.model = "cnn3d"
        ns.out = str(step_dir / "checkpoint.svck")
        ns.loss_log = None
        ns.dump_features = None
        cmd_train(ns)
        ns.checkpoint = ns.out
        ns.mode = None
        ns.out = str(step_dir / "models.svsm")
        cmd_enroll(ns)
        ns.models = ns.out
        ns.out_dir = str(step_dir)
        cmd_evaluate(ns)
        metrics = json.loads((step_dir / "metrics.json").read_text())
        rows.append((zeta, metrics["eer"], metrics["auc"]))
    table = format_sweep_table(rows)
    (out_dir / "sweep.txt").write_text(table + "\n")
    print(table)
    return 0


def _parse_zetas(text: str) -> list[int]:
    try:
        zetas = sorted({int(z) for z in text.split(",") if z.strip()})
    except ValueError as exc:
        raise ConfigError(f"bad --zetas list {text!r}: {exc}") from exc
    if not zetas or min(zetas) < 1:
        raise ConfigError(f"--zetas must be positive integers, got {text!r}")
    return zetas


# -- parser -------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--manifest", required=True, help="corpus manifest CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dev-speakers", type=int, default=None, help="development speaker count for split=auto manifests")
    p.add_argument("--max-slices", type=int, default=None, help="cap sliced utterances per speaker")
    p.add_argument("--config", default=None, help="optional key=value config file (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--utterances", type=int, required=True, help="WAV files per speaker")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=3.0, help="seconds per utterance file")
    p.add_argument("--dev-speakers", type=int, default=None, help="tag the first N speakers as development")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the development-phase classifier")
    _add_common(p)
    p.add_argument("--model", choices=("cnn3d", "lcn_dvector"), default=None)
    p.add_argument("--zeta", type=int, default=None, help="utterance maps stacked per cube")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, help="default: 0.003 for cnn3d, 0.0003 for lcn_dvector")
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-log", default=None, help="per-epoch loss text log (default: alongside checkpoint)")
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

    p = sub.add_parser("zeta-sweep", help="train/enroll/evaluate the cube network per zeta")
    _add_common(p)
    p.add_argument("--zetas", required=True, help="comma-separated list, e.g. 5,10,20")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
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
