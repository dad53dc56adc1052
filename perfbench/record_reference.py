"""Record reference outputs into reference.json, keyed by workload and seed.

    python3 perfbench/record_reference.py --seeds 0-40 [--workload train_cnn3d ...]

Run this only at a commit whose outputs are meant to be the reference: every
later run of the benchmark on a recorded seed must reproduce them (see
checks.py). Each seed is set up and run once, untraced, with the BLAS pinned
to one thread, and must pass the invariant checks before it is recorded.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402  (first: pins the BLAS threads before numpy loads)
import checks  # noqa: E402
from workloads import WORKLOADS, RunPaths  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="e.g. 0-40 or 1,2,7")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="default: all")
    args = ap.parse_args()
    refs = checks.load_references() if checks.REFERENCE_FILE.exists() else {}
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory(prefix="perfbench-ref-", dir=build_dir) as tmp:
                paths = RunPaths(Path(tmp) / "data", Path(tmp) / "out")
                worker.setup(w, seed, paths)
                _, codes = worker.iterate(w, seed, paths, None)
                if any(codes.values()):
                    raise SystemExit(f"{name} seed {seed}: exit codes {codes}")
                obs = checks.observe(w, paths)
                problems = checks.invariants(w, obs, worker.plan(w, paths)["test_utterances"])
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                refs.setdefault(name, {})[str(seed)] = checks.summary(obs)
            # write after every seed so an interrupted recording keeps what it has
            checks.REFERENCE_FILE.write_text(checks.dump_references(refs))
            print(f"recorded {name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
