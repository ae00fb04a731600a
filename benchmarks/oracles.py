"""Reference computations the benchmark checks the package against.

They are written from the documented definitions with plain per-frame and
per-cell loops and share no code with the package, so a change that alters
results (rather than speed) shows up as failed operations.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Scores:
    """One-pass summary scalars of one sequence (or a mean of several)."""

    p5: float
    p20: float
    np05: float
    success_auc: float


def score_sequence(pred, gt) -> Scores:
    """Brute-force one-pass scores of (N, 4) center-format boxes.

    Precision counts center errors <= 5 and <= 20 px, normalized precision
    counts size-normalized center errors <= 0.5, and the success AUC is the
    mean over IoU thresholds 0, 0.05, ..., 1 of the share of frames whose
    IoU exceeds the threshold.
    """
    errors, normalized, overlaps = [], [], []
    for (pcx, pcy, pw, ph), (gcx, gcy, gw, gh) in zip(np.asarray(pred).tolist(), np.asarray(gt).tolist()):
        dx, dy = pcx - gcx, pcy - gcy
        errors.append(math.sqrt(dx * dx + dy * dy))
        normalized.append(math.sqrt((dx / gw) ** 2 + (dy / gh) ** 2))
        iw = min(pcx + pw / 2, gcx + gw / 2) - max(pcx - pw / 2, gcx - gw / 2)
        ih = min(pcy + ph / 2, gcy + gh / 2) - max(pcy - ph / 2, gcy - gh / 2)
        if iw > 0 and ih > 0:
            inter = iw * ih
            overlaps.append(inter / (pw * ph + gw * gh - inter))
        else:
            overlaps.append(0.0)
    n = len(errors)
    if n == 0:
        raise ValueError("cannot score an empty sequence")
    overlaps.sort()
    success = [(n - bisect.bisect_right(overlaps, k / 20)) / n for k in range(21)]
    return Scores(
        p5=sum(e <= 5.0 for e in errors) / n,
        p20=sum(e <= 20.0 for e in errors) / n,
        np05=sum(e <= 0.5 for e in normalized) / n,
        success_auc=sum(success) / len(success),
    )


def mean_scores(scores: list[Scores]) -> Scores:
    """Equal-weight mean over sequences."""
    n = len(scores)
    return Scores(
        p5=sum(s.p5 for s in scores) / n,
        p20=sum(s.p20 for s in scores) / n,
        np05=sum(s.np05 for s in scores) / n,
        success_auc=sum(s.success_auc for s in scores) / n,
    )


def scores_match(reported: dict, expected: Scores, tol: float = 1e-9) -> bool:
    """Summary-JSON scalars against the reference; a single misjudged frame
    moves a scalar by at least 1/frames, far above ``tol``."""
    return all(
        math.isclose(reported[key], getattr(expected, key), rel_tol=0.0, abs_tol=tol)
        for key in ("p5", "p20", "np05", "success_auc")
    )


def xcorr_loop(template: np.ndarray, search: np.ndarray) -> np.ndarray:
    """Valid-mode per-channel cross correlation, one window at a time."""
    channels, th, tw = template.shape
    out = np.empty((channels, search.shape[1] - th + 1, search.shape[2] - tw + 1))
    for c in range(channels):
        kernel = template[c].ravel()
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                out[c, i, j] = float(search[c, i : i + th, j : j + tw].ravel() @ kernel)
    return out


def read_center_csv(path: Path) -> list[tuple[int, list[float]]]:
    """Rows of a headered ``frame,cx,cy,w,h`` file as (frame, [cx, cy, w, h])."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "frame,cx,cy,w,h":
        raise ValueError(f"{path}: missing trajectory header")
    rows = []
    for line in lines[1:]:
        frame, *values = line.split(",")
        rows.append((int(frame), [float(v) for v in values]))
    return rows


def digest_files(paths) -> str:
    """One digest over the name and bytes of every file, in the given order."""
    h = hashlib.blake2b(digest_size=16)
    for path in map(Path, paths):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
