"""Evaluation artifacts: metrics.json, roc.csv, and a static SVG ROC plot."""

from __future__ import annotations

import json
from pathlib import Path

from .protocol.metrics import RocSummary, ScoreSet

_SVG_SIZE = 480
_SVG_MARGIN = 50


def write_metrics_json(
    summary: RocSummary, score_set: ScoreSet, zeta: int, model_kind: str, path
) -> None:
    payload = {
        "eer": summary.eer,
        "auc": summary.auc,
        "n_genuine": int(score_set.genuine_scores.size),
        "n_impostor": int(score_set.impostor_scores.size),
        "zeta": zeta,
        "model_kind": model_kind,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_roc_csv(summary: RocSummary, path) -> None:
    """Sweep rows `tau,tpr,far` followed by the summary record `eer,auc`."""
    lines = ["tau,tpr,far"]
    for tau, tpr, far in zip(summary.thresholds, summary.tpr, summary.far):
        lines.append(f"{float(tau)!r},{float(tpr)!r},{float(far)!r}")
    lines.append("eer,auc")
    lines.append(f"{float(summary.eer)!r},{float(summary.auc)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _to_px(far: float, tpr: float) -> tuple[float, float]:
    span = _SVG_SIZE - 2 * _SVG_MARGIN
    x = _SVG_MARGIN + far * span
    y = _SVG_SIZE - _SVG_MARGIN - tpr * span
    return x, y


def write_roc_svg(summary: RocSummary, path) -> None:
    """Minimal static polyline plot of TPR vs FAR with the EER point marked."""
    points = sorted(zip(summary.far, summary.tpr))
    poly = " ".join(f"{_to_px(f, t)[0]:.2f},{_to_px(f, t)[1]:.2f}" for f, t in points)
    eer_x, eer_y = _to_px(summary.eer, 1.0 - summary.eer)
    x0, y0 = _to_px(0.0, 0.0)
    x1, y1 = _to_px(1.0, 1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="white" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#bbbbbb" stroke-dasharray="4 4"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
        f'<circle cx="{eer_x:.2f}" cy="{eer_y:.2f}" r="4" fill="#d62728"/>',
        f'<text x="{eer_x + 8:.2f}" y="{eer_y - 8:.2f}" font-size="12">EER={summary.eer:.4f}</text>',
        f'<text x="{_SVG_SIZE / 2 - 60}" y="{_SVG_SIZE - 12}" font-size="13">false acceptance rate</text>',
        f'<text x="14" y="{_SVG_SIZE / 2}" font-size="13" transform="rotate(-90 14 {_SVG_SIZE / 2})">'
        "true positive rate</text>",
        f'<text x="{_SVG_MARGIN}" y="{_SVG_SIZE - _SVG_MARGIN + 16}" font-size="11">0</text>',
        f'<text x="{_SVG_SIZE - _SVG_MARGIN}" y="{_SVG_SIZE - _SVG_MARGIN + 16}" font-size="11">1</text>',
        f'<text x="{_SVG_MARGIN - 14}" y="{_SVG_MARGIN + 4}" font-size="11">1</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")

