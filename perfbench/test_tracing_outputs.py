"""Benchmark-local tests: tracing must not change what svkit writes, and the
trace guard must fail loudly.

    python3 -m pytest perfbench/test_tracing_outputs.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402  (first: pins the BLAS threads before numpy loads)
import pytest  # noqa: E402
import svkit.cli  # noqa: E402
from tracing import PER_LAYER, Tracer, TraceGuardError  # noqa: E402
from workloads import WORKLOADS, RunPaths  # noqa: E402

ARTIFACTS = ("checkpoint.svck", "models.svsm", "scores.csv", "metrics.json", "roc.csv")
SEED = 5

# Smaller corpora than the benchmark's, with the same commands and code paths.
SMALL = {
    "pipeline_dvector": dataclasses.replace(WORKLOADS["pipeline_dvector"], speakers=8, dev_speakers=3, epochs=2),
    "cnn3d": dataclasses.replace(
        WORKLOADS["train_cnn3d"], speakers=4, dev_speakers=2, epochs=1, timed=("train", "enroll", "evaluate")
    ),
}


def _run(w, tmp: Path, traced: bool) -> dict[str, bytes]:
    paths = RunPaths(tmp / "data", tmp / "out")
    worker.setup(w, SEED, paths)
    if traced:
        _, codes, layer = worker.traced_iteration(w, SEED, paths)
        assert layer["cli.evaluate_s"] > 0 and layer["protocol.score_trial_calls"] > 0
    else:
        _, codes = worker.iterate(w, SEED, paths, None)
    assert set(codes.values()) == {0}
    return {name: (paths.out / name).read_bytes() for name in ARTIFACTS}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_run_writes_identical_artifacts(kind, tmp_path):
    w = SMALL[kind]
    plain = _run(w, tmp_path / "plain", traced=False)
    traced = _run(w, tmp_path / "traced", traced=True)
    for name in ARTIFACTS:
        assert traced[name] == plain[name], f"{name} changed under tracing"


def test_missing_site_fails_install(monkeypatch):
    monkeypatch.delattr(svkit.cli, "detect_voice")
    tracer = Tracer()
    with pytest.raises(TraceGuardError, match="svkit.cli.detect_voice"):
        tracer.install()
    # a failed install leaves every other site unwrapped
    assert not tracer._saved


def test_idle_layer_fails_active_check():
    tracer = Tracer()
    tracer.calls["cli.train"] = 1
    with pytest.raises(TraceGuardError, match="nn.conv3d.fwd"):
        tracer.check_active("train_cnn3d")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # pipeline_dvector is runnable by hand but not gated (README: "Steadiness")
    assert [w["name"] for w in spec["workloads"]] == ["train_cnn3d", "verify_cnn3d"]
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, worker.E2E_UNITS[name]) for name in worker.GATED
    ]
