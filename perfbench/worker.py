"""One benchmark workload, run in a process of its own so that its peak RSS
is the workload's alone. Started by run.py; prints one JSON line.

The BLAS thread count is pinned to 1 before numpy is imported: at 1 and 2
threads the same training step gives different bytes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import svkit.cli  # noqa: E402
from svkit.corpus.manifest import entries_by_speaker, load_manifest  # noqa: E402
from svkit.corpus.slicing import slice_utterances  # noqa: E402
from svkit.dsp.audio import load_wav, require_sample_rate  # noqa: E402
from svkit.dsp.vad import detect_voice  # noqa: E402

import checks  # noqa: E402
from tracing import EXACT, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, ZETA, RunPaths, Workload, stage_argv, synth_argv  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

SETUP_REPEATS = 3  # setup_s is the median of these (plus the one-off import time)
MIN_ROUNDS = 3  # timed untraced iterations at least (after the warm-up), whatever --seconds says
MIN_TRACED_ROUNDS = 2  # (untraced, traced) pairs at least in a traced run
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "train_examples_per_s": "1/s",
    "enroll_speakers_per_s": "1/s",
    "eval_trials_per_s": "1/s",
    "eer": "fraction",
    "auc": "fraction",
    "failed_frac": "fraction",
}
GATED = ("wall_s", "setup_s", "peak_rss_mib")  # the end_to_end metrics of BENCHMARK.json


def call_cli(argv: list[str]) -> int:
    """svkit.cli.main(argv) with its console output discarded; any crash is a non-zero exit."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return svkit.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def setup(w: Workload, seed: int, paths: RunPaths) -> None:
    """Synthesize the corpus and, when nothing timed trains, a zeta=20 checkpoint."""
    paths.out.mkdir(parents=True, exist_ok=True)
    argvs = [synth_argv(w, seed, paths)]
    if "train" not in w.timed:
        argvs.append(stage_argv(w, "train", seed, paths, epochs=0))
    for argv in argvs:
        rc = call_cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {rc}")


def plan(w: Workload, paths: RunPaths) -> dict:
    """Work sizes implied by the corpus: training examples and test utterances."""
    maps = {}
    for speaker, entries in entries_by_speaker(load_manifest(paths.manifest)).items():
        slices = sum(len(slice_utterances(detect_voice(require_sample_rate(load_wav(e.path))))) for e in entries)
        maps[speaker] = (min(w.max_slices, slices), entries[0].split == "development")
    dev = [n for n, is_dev in maps.values() if is_dev]
    return {
        "train_examples": sum(n // ZETA for n in dev) if w.model == "cnn3d" else sum(dev),
        "test_utterances": sum(n // 2 for n, is_dev in maps.values() if not is_dev),
    }


def iterate(w: Workload, seed: int, paths: RunPaths, tracer: Tracer | None) -> tuple[dict, dict]:
    # Remove the previous iteration's artifacts, so a command that writes nothing cannot pass the checks.
    for name in checks.ARTIFACTS:
        if name != "checkpoint.svck" or "train" in w.timed:
            (paths.out / name).unlink(missing_ok=True)
    walls, codes = {}, {}
    for stage in w.timed:
        argv = stage_argv(w, stage, seed, paths)
        t0 = time.perf_counter()
        codes[stage] = tracer.span((f"cli.{stage}",), call_cli, argv) if tracer else call_cli(argv)
        walls[stage] = time.perf_counter() - t0
    return walls, codes


def traced_iteration(w: Workload, seed: int, paths: RunPaths) -> tuple[dict, dict, dict]:
    tracer = Tracer()
    tracer.install()
    try:
        walls, codes = iterate(w, seed, paths, tracer)
    finally:
        tracer.uninstall()
    tracer.check_active(w.name)
    return walls, codes, tracer.metrics()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    setup_times = []
    for k in range(SETUP_REPEATS):
        paths = RunPaths(tmp / f"setup{k}" / "data", tmp / f"setup{k}" / "out")
        t0 = time.perf_counter()
        setup(w, seed, paths)
        setup_times.append(time.perf_counter() - t0)
    sizes = plan(w, paths)
    ref = checks.load_references().get(w.name, {}).get(str(seed))

    attempted = failed = 0
    errors: list[str] = []
    first = None

    def checked_iteration(tracing: bool) -> tuple[dict, dict | None]:
        nonlocal attempted, failed, first
        if tracing:
            walls, codes, layer = traced_iteration(w, seed, paths)
        else:
            (walls, codes), layer = iterate(w, seed, paths, None), None
        attempted += len(codes)
        bad = {stage for stage, rc in codes.items() if rc != 0}
        errors.extend(f"svkit {stage} exited {codes[stage]}" for stage in sorted(bad))
        try:
            obs = checks.observe(w, paths)
            if first is None:
                first = obs
                problems = checks.invariants(w, obs, sizes["test_utterances"])
                problems += checks.compare_reference(obs, ref) if ref else []
            elif obs["digests"] != first["digests"]:
                problems = ["artifacts differ from the first iteration's"]
            else:
                problems = []
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        errors.extend(problems)
        # a failed output check counts against the iteration's last command, unless it already failed
        failed += len(bad) + (1 if problems and w.timed[-1] not in bad else 0)
        return walls, layer

    # The first iteration in a process pays one-off costs (first-touch memory) and
    # is often slower; it is checked but left out of the medians.
    start = time.perf_counter()
    warmup, _ = checked_iteration(False)
    untraced, traced = [], []  # per iteration: walls; (walls, layer metrics)
    while True:
        round_start = time.perf_counter()
        untraced.append(checked_iteration(False)[0])
        if trace:
            traced.append(checked_iteration(True))
        now = time.perf_counter()
        if len(untraced) >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS) and now - start + (now - round_start) > seconds:
            break

    stage_s = {s: statistics.median(walls[s] for walls in untraced) for s in w.timed}
    wall_s = statistics.median(sum(walls.values()) for walls in untraced)
    report = {
        "workload": w.name,
        "seed": seed,
        "check": "reference+invariants+determinism" if ref else "invariants+determinism (seed not in reference.json)",
        "errors": errors[:20],
        "iterations": {
            "warmup_wall_s": sum(warmup.values()),
            "untraced_wall_s": [sum(walls.values()) for walls in untraced],
            "traced_wall_s": [sum(walls.values()) for walls, _ in traced],
        },
        "sizes": sizes,
        "stage_s": stage_s,
        "env": environment(),
    }
    values = {
        "wall_s": wall_s,
        "setup_s": IMPORT_S + statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
    }
    if "train" in w.timed:
        values["train_examples_per_s"] = sizes["train_examples"] * w.epochs / stage_s["train"]
    if "enroll" in w.timed:
        values["enroll_speakers_per_s"] = w.eval_speakers / stage_s["enroll"]
    if "evaluate" in w.timed:
        values["eval_trials_per_s"] = first["trials"] / stage_s["evaluate"] if first else float("nan")
        if w.epochs > 0 and first:
            values["eer"] = first["metrics"]["eer"]
            values["auc"] = first["metrics"]["auc"]
    report["end_to_end"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    if trace:
        # Per-layer values come from one traced iteration, the one with the median
        # total, so its self times add up to its stage walls.
        totals = [sum(walls.values()) for walls, _ in traced]
        walls, layer = traced[totals.index(statistics.median_low(totals))]
        for name in EXACT:
            if len({lay[name] for _, lay in traced}) != 1:
                raise RuntimeError(f"{name} differs between traced iterations of one run")
        # the same estimator on both sides, so an even count does not bias the difference
        untraced_wall_s = statistics.median_low(sum(u.values()) for u in untraced)
        layer["trace.overhead_s"] = sum(walls.values()) - untraced_wall_s
        report["trace_coverage"] = {
            "sum_cli_stage_s": sum(layer[f"cli.{s}_s"] for s in w.timed),
            "untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": layer["trace.overhead_s"],
        }
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {k: report["end_to_end"][k] for k in GATED}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True, help="directory for the corpus and every artifact")
    args = ap.parse_args()
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(args.tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
