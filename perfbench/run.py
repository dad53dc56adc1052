"""svkit benchmark: one command, three workloads.

    python3 perfbench/run.py --workload train_cnn3d --seed 1 --seconds 50 --trace 0

Runs the workload in a child process (worker.py) with the BLAS pinned to one
thread, checks its outputs, and prints the run record followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mib); with
--trace 1 they are the per-layer ones from a traced iteration.

svkit is built from the checkout's own `src/`; every file the run writes goes
to a temporary directory under `.bench_build/`, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 170  # a run must end within 180 s
DEFAULT_SEED = 1  # reference.json also holds seed 2, the alternate for re-checking claims


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="corpus and training seed")
    ap.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "svkit" / "cli.py").is_file():
        print(f"error: no svkit sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))),
        PYTHONDONTWRITEBYTECODE="1",  # every run compiles svkit alike, and leaves no files behind
    )
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="perfbench-", dir=build_dir)
    try:
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py"))]
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--tmp", tmp]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: {args.workload} worker exited {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = result.pop("report")
    report["env"]["git_revision"] = git_revision()
    for key in ("workload", "seed", "check", "iterations", "sizes", "stage_s", "env"):
        print(f"# {key}: {json.dumps(report[key])}")
    for err in report["errors"]:
        print(f"# FAILED CHECK: {err}")
    for name, m in report["end_to_end"].items():
        print(f"# end_to_end {name} = {m['value']!r} {m['unit']}")
    if "trace_coverage" in report:
        print(f"# trace coverage: {json.dumps(report['trace_coverage'])}")
        for name, m in result["metrics"].items():
            print(f"# per_layer {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
