"""Output checks for one iteration of a workload.

Each iteration's outputs are summarized (`observe`) and checked three ways:

- reference: for seeds recorded in reference.json (taken from the commit that
  added the benchmark), the training losses and a digest of the trained
  weights, the verify scores, or the pipeline's EER/AUC and score digest
  must match to 1e-9 relative, which admits floating-point reordering and
  rejects a change in behaviour;
- determinism: every iteration of a run, traced or not, must write
  byte-identical artifacts;
- invariants, on every seed: row counts, one genuine trial per test
  utterance, scores within [-1, 1], roc.csv agreeing with metrics.json, and
  AUC and EER agreeing with an independent computation from scores.csv.

A failed check is counted, never skipped.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from svkit.models.checkpoint import load_checkpoint
from svkit.nn.layers import PARAM_FIELDS, STATE_FIELDS

from workloads import RunPaths, Workload

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Fixed score indices sampled by the pipeline digest (wrapped into range).
SAMPLE_INDICES = (0, 1, 17, 4999, 12345, 24999, 33333, 49999)
ARTIFACTS = ("checkpoint.svck", "checkpoint.loss.log", "models.svsm", "scores.csv", "metrics.json", "roc.csv")


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def dump_references(refs: dict) -> str:
    """reference.json text: one line per (workload, seed), seeds in numeric order."""
    blocks = []
    for name in sorted(refs):
        rows = sorted(refs[name].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(rec, sort_keys=True)}" for seed, rec in rows)
        blocks.append(f"{json.dumps(name)}: {{\n{lines}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _read_scores(path: Path):
    rows = path.read_text().splitlines()
    if rows[0] != "utterance_id,claimed_id,label,score":
        raise ValueError(f"unexpected scores.csv header {rows[0]!r}")
    ids, scores = [], []
    for row in rows[1:]:
        utt, claimed, label, score = row.split(",")
        ids.append((utt, claimed, label))
        scores.append(float(score))
    return ids, np.array(scores)


def observe(w: Workload, paths: RunPaths) -> dict:
    """Everything the checks compare, read back from the iteration's artifacts."""
    obs = {
        "digests": {
            name: hashlib.sha256((paths.out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS
            if (paths.out / name).exists()
        }
    }
    if "train" in w.timed:
        obs["losses"] = [float(line.split(",")[1]) for line in paths.loss_log.read_text().splitlines()]
        # the losses are taken before each update, so only the weights show the last step
        obs["params"] = [
            [float(arr.sum()), float((arr * arr).sum())]
            for layer in load_checkpoint(paths.checkpoint).layers
            for arr in (getattr(layer, f) for f in PARAM_FIELDS + STATE_FIELDS)
            if arr is not None
        ]
    if "evaluate" in w.timed:
        ids, scores = _read_scores(paths.out / "scores.csv")
        metrics = json.loads((paths.out / "metrics.json").read_text())
        roc_tail = (paths.out / "roc.csv").read_text().splitlines()[-1].split(",")
        obs.update(
            ids=ids,
            scores=scores,
            metrics=metrics,
            roc_tail=[float(v) for v in roc_tail],
            trials=len(scores),
            models=len({claimed for _, claimed, _ in ids}),
            tests=len({utt for utt, _, _ in ids}),
        )
    return obs


def summary(obs: dict) -> dict:
    """The reference record of one seed: what `compare_reference` checks."""
    rec = {key: obs[key] for key in ("losses", "params") if key in obs}
    if "scores" not in obs:
        return rec
    s = obs["scores"]
    if s.size <= 256:
        rec["scores"] = s.tolist()
    else:
        rec.update(
            score_sum=float(s.sum()),
            score_sumsq=float((s * s).sum()),
            score_samples=[float(s[i % s.size]) for i in SAMPLE_INDICES],
            eer=obs["metrics"]["eer"],
            auc=obs["metrics"]["auc"],
        )
    rec["trials"] = obs["trials"]
    rec["ids_sha256"] = hashlib.sha256(repr(obs["ids"]).encode()).hexdigest()
    return rec


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL * scale)


def compare_reference(obs: dict, ref: dict) -> list[str]:
    got = summary(obs)
    if set(got) != set(ref):
        return [f"reference keys {sorted(ref)} but observed {sorted(got)}"]
    errors = []
    n = max(got.get("trials", 1), 1)
    for key, want in ref.items():
        have = got[key]
        if key == "params":
            # [sum, sum of squares] per array; a sum may cancel to near zero, so its
            # tolerance scales with the array's L2 norm instead
            if len(have) != len(want) or not all(
                _close(h[1], r[1]) and math.isclose(h[0], r[0], rel_tol=REL_TOL, abs_tol=REL_TOL * math.sqrt(r[1]))
                for h, r in zip(have, want)
            ):
                errors.append("trained weights differ from the reference")
        elif isinstance(want, list):
            if len(have) != len(want) or not all(_close(a, b) for a, b in zip(have, want)):
                errors.append(f"{key} differs from the reference")
        elif isinstance(want, float):
            # sums over n trials carry n roundings
            if not _close(have, want, scale=n if key.startswith("score_sum") else 1.0):
                errors.append(f"{key} {have!r} differs from the reference {want!r}")
        elif have != want:
            errors.append(f"{key} {have!r} differs from the reference {want!r}")
    return errors


def _auc_eer_bounds(genuine: np.ndarray, impostor: np.ndarray):
    """Mann-Whitney AUC (ties count half) and the interval any EER must lie in.

    Over all thresholds t, FAR(t) falls and FRR(t) rises, so the crossing lies
    between max_t min(FAR, FRR) and min_t max(FAR, FRR).
    """
    g = np.sort(genuine)
    i = np.sort(impostor)
    below = np.searchsorted(i, g, side="left")
    ties = np.searchsorted(i, g, side="right") - below
    auc = float((below.sum() + 0.5 * ties.sum()) / (g.size * i.size))
    taus = np.concatenate(([-np.inf], np.unique(np.concatenate((g, i))), [np.inf]))
    far = (i.size - np.searchsorted(i, taus, side="left")) / i.size
    frr = np.searchsorted(g, taus, side="left") / g.size
    return auc, float(np.max(np.minimum(far, frr))), float(np.min(np.maximum(far, frr)))


def invariants(w: Workload, obs: dict, n_test_expected: int | None) -> list[str]:
    errors = []
    if "train" in w.timed:
        losses = obs["losses"]
        if len(losses) != w.epochs or not all(math.isfinite(v) and v > 0 for v in losses):
            errors.append(f"loss log {losses} is not {w.epochs} finite positive values")
    if "evaluate" not in w.timed:
        return errors
    s, metrics = obs["scores"], obs["metrics"]
    if obs["models"] != w.eval_speakers:
        errors.append(f"{obs['models']} claimed models, expected {w.eval_speakers}")
    if n_test_expected is not None and obs["tests"] != n_test_expected:
        errors.append(f"{obs['tests']} test utterances, expected {n_test_expected}")
    if obs["trials"] != obs["tests"] * obs["models"]:
        errors.append(f"{obs['trials']} trials is not tests x models")
    labels = np.array([label == "genuine" for _, _, label in obs["ids"]])
    genuine_ids = {(utt, claimed) for utt, claimed, label in obs["ids"] if label == "genuine"}
    if labels.sum() != obs["tests"] or any(utt.split("_u")[0] != claimed for utt, claimed in genuine_ids):
        errors.append("genuine trials are not exactly one per test utterance, against its own speaker")
    if metrics["n_genuine"] != labels.sum() or metrics["n_impostor"] != (~labels).sum():
        errors.append("metrics.json trial counts disagree with scores.csv")
    if not np.all(np.abs(s) <= 1.0):
        errors.append("scores outside [-1, 1]")
    if obs["roc_tail"] != [metrics["eer"], metrics["auc"]]:
        errors.append("roc.csv eer,auc record disagrees with metrics.json")
    auc, eer_lo, eer_hi = _auc_eer_bounds(s[labels], s[~labels])
    if not _close(auc, metrics["auc"]):
        errors.append(f"auc {metrics['auc']!r} but scores.csv gives {auc!r}")
    if not eer_lo - ABS_TOL <= metrics["eer"] <= eer_hi + ABS_TOL:
        errors.append(f"eer {metrics['eer']!r} outside [{eer_lo!r}, {eer_hi!r}] implied by scores.csv")
    if w.epochs > 0 and metrics["eer"] >= 0.25:
        errors.append(f"trained network's eer {metrics['eer']} is not below 0.25")
    return errors
