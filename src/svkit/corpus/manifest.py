"""Corpus manifests: a hand-editable CSV of (speaker_id, path, session, split).

Paths are stored relative to the manifest file so a corpus directory can be
moved wholesale; they are resolved (and required to exist) at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import ManifestError

HEADER = "speaker_id,path,session,split"
SPLITS = ("development", "enrollment", "evaluation")


@dataclass(frozen=True)
class ManifestEntry:
    speaker_id: str
    path: Path
    session: str
    split: str


def load_manifest(path) -> list[ManifestEntry]:
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest {path} does not exist")
    entries: list[ManifestEntry] = []
    seen: dict[Path, int] = {}  # resolved audio path -> the line that listed it
    first = True  # no line but blanks and comments read yet: the header may come here
    lines = path.read_text().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if first and line == HEADER:
            first = False
            continue
        first = False
        fields = line.split(",")
        if len(fields) != 4:
            raise ManifestError(f"{path}:{lineno}: expected 4 comma-separated fields, got {len(fields)}")
        speaker_id, rel, session, split = (f.strip() for f in fields)
        if not speaker_id:
            raise ManifestError(f"{path}:{lineno}: empty speaker_id")
        if split not in SPLITS:
            raise ManifestError(f"{path}:{lineno}: split {split!r} not one of {SPLITS}")
        audio = (path.parent / rel).resolve()
        if not audio.is_file():
            raise ManifestError(f"{path}:{lineno}: audio file {audio} does not exist")
        if audio in seen:
            raise ManifestError(f"{path}:{lineno}: audio file {audio} is already listed on line {seen[audio]}")
        seen[audio] = lineno
        entries.append(ManifestEntry(speaker_id, audio, session, split))
    return entries


def write_manifest(entries, path) -> None:
    path = Path(path)
    lines = [HEADER]
    for e in entries:
        rel = Path(e.path)
        try:
            rel = rel.relative_to(path.parent.resolve())
        except ValueError:
            pass  # outside the manifest directory; keep absolute
        lines.append(f"{e.speaker_id},{rel.as_posix()},{e.session},{e.split}")
    path.write_text("\n".join(lines) + "\n")


def entries_by_speaker(entries) -> dict[str, list[ManifestEntry]]:
    out: dict[str, list[ManifestEntry]] = {}
    for e in entries:
        out.setdefault(e.speaker_id, []).append(e)
    return out
