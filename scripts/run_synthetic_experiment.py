#!/usr/bin/env python3
"""End-to-end comparison of the cube network and the d-vector baseline.

Generates a seed-fixed synthetic corpus, trains both models on the
development speakers, enrolls the held-out speakers, evaluates one-vs-all,
and prints an EER/AUC comparison table. Everything goes through the svkit
CLI, so the artifacts under --out match what the command-line tool produces.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from svkit.cli import main as svkit


def run(cmd):
    rc = svkit(cmd)
    if rc != 0:
        sys.exit(rc)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", type=Path, default=Path("runs/synthetic"))
    p.add_argument("--speakers", type=int, default=30)
    p.add_argument("--dev-speakers", type=int, default=20)
    p.add_argument("--utterances", type=int, default=3, help="WAV files per speaker")
    p.add_argument("--duration", type=float, default=4.0)
    p.add_argument("--zeta", type=int, default=10)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--max-slices", type=int, default=40)
    return p.parse_args()


def main():
    args = parse_args()
    t0 = time.time()
    data = args.out / "data"
    run(["synth", "--speakers", str(args.speakers), "--utterances", str(args.utterances),
         "--seed", str(args.seed), "--out", str(data), "--duration", str(args.duration),
         "--dev-speakers", str(args.dev_speakers)])
    manifest = str(data / "manifest.csv")
    results = {}
    for model in ("cnn3d", "lcn_dvector"):  # each at its default learning rate
        d = args.out / model
        run(["train", "--manifest", manifest, "--model", model, "--zeta", str(args.zeta),
             "--epochs", str(args.epochs), "--batch", "8",
             "--seed", str(args.seed), "--max-slices", str(args.max_slices),
             "--out", str(d / "checkpoint.svck")])
        run(["enroll", "--manifest", manifest, "--checkpoint", str(d / "checkpoint.svck"),
             "--seed", str(args.seed), "--max-slices", str(args.max_slices),
             "--out", str(d / "models.svsm")])
        run(["evaluate", "--manifest", manifest, "--checkpoint", str(d / "checkpoint.svck"),
             "--models", str(d / "models.svsm"), "--seed", str(args.seed),
             "--max-slices", str(args.max_slices), "--out-dir", str(d)])
        results[model] = json.loads((d / "metrics.json").read_text())

    print()
    print(f"{'system':>14}  {'eer':>8}  {'auc':>8}")
    for tag, metrics in results.items():
        print(f"{tag:>14}  {metrics['eer']:>8.4f}  {metrics['auc']:>8.4f}")
    print(f"\ntotal {time.time() - t0:.0f}s; artifacts under {args.out}")


if __name__ == "__main__":
    main()
