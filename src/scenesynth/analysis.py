"""Dataset analysis: speed/direction distributions, divergence, metrics.

Histogram tables are `bin_lo,bin_hi,count` rows and endpoint clouds are
`x,y` rows, both plain CSV so any plotting tool can consume them. The
optional SVG rendering is self-contained vector output with no plotting
dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import rotate
from .maps import write_text_atomic
from .synthesis import SCENE_DT, Scene

SPEED_BIN_WIDTH = 0.5
SPEED_RANGE = (0.0, 30.0)
HEADING_BIN_WIDTH = math.pi / 36  # 5 degrees
DEFAULT_MISS_THRESHOLD = 2.0
FORECAST_MODES = 6


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-trajectory summaries in the rotation-normalized frame."""

    speeds: np.ndarray
    headings: np.ndarray
    endpoint: np.ndarray


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def same_binning(self, other: "Histogram") -> bool:
        return self.edges.shape == other.edges.shape and bool(
            np.array_equal(self.edges, other.edges)
        )


@dataclass(frozen=True)
class DivergenceReport:
    overlap: float
    jsd: float


def heading_normalize(traj: np.ndarray) -> np.ndarray:
    """Rotate about the first point so the initial displacement points +x.

    A zero first displacement falls back to the first nonzero one; an
    all-stationary trajectory is an error. Distances are preserved.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.ndim != 2 or traj.shape[1] != 2 or traj.shape[0] < 2:
        raise ValueError("trajectory must be (n >= 2, 2)")
    deltas = np.diff(traj, axis=0)
    norms = np.hypot(deltas[:, 0], deltas[:, 1])
    moving = np.flatnonzero(norms > 1e-12)
    if moving.size == 0:
        raise ValidationError("all-stationary trajectory has no heading")
    dx, dy = deltas[moving[0]]
    ang = math.atan2(dy, dx)
    return rotate(traj - traj[0], -ang) + traj[0]


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    out = np.mod(-a + math.pi, 2.0 * math.pi)
    return -(out - math.pi)


def trajectory_stats(traj: np.ndarray) -> TrajectoryStats:
    rotated = heading_normalize(traj)
    deltas = np.diff(rotated, axis=0)
    norms = np.hypot(deltas[:, 0], deltas[:, 1])
    speeds = norms / SCENE_DT
    moving = norms > 1e-12
    headings = _wrap_angle(np.arctan2(deltas[moving, 1], deltas[moving, 0]))
    return TrajectoryStats(speeds, headings, rotated[-1].copy())


def speed_histogram_edges() -> np.ndarray:
    n = int(round((SPEED_RANGE[1] - SPEED_RANGE[0]) / SPEED_BIN_WIDTH))
    return SPEED_RANGE[0] + np.arange(n + 1) * SPEED_BIN_WIDTH


def speed_distribution(scenes: list[Scene]) -> Histogram:
    """Histogram of finite-difference speeds pooled over scenes; samples
    outside `SPEED_RANGE` are dropped."""
    if not scenes:
        raise ValueError("need at least one scene")
    edges = speed_histogram_edges()
    speeds = np.concatenate(
        [
            np.hypot(*np.diff(sc.trajectory, axis=0).T) / SCENE_DT
            for sc in scenes
        ]
    )
    counts, _ = np.histogram(speeds, bins=edges)
    return Histogram(edges, counts)


def heading_distribution(scenes: list[Scene]) -> Histogram:
    """Histogram of step headings after rotation normalization."""
    if not scenes:
        raise ValueError("need at least one scene")
    n = int(round(2.0 * math.pi / HEADING_BIN_WIDTH))
    edges = -math.pi + np.arange(n + 1) * (2.0 * math.pi / n)
    headings = np.concatenate(
        [trajectory_stats(sc.trajectory).headings for sc in scenes]
    )
    counts, _ = np.histogram(headings, bins=edges)
    return Histogram(edges, counts)


def compare_distributions(h1: Histogram, h2: Histogram) -> DivergenceReport:
    """Overlap coefficient and Jensen-Shannon divergence (log base 2, so
    both land in [0, 1]; identical histograms give (1, 0))."""
    if not h1.same_binning(h2):
        raise ValidationError("histograms use different binnings")
    if h1.total == 0 or h2.total == 0:
        raise ValidationError("cannot compare an empty histogram")
    p = h1.counts / h1.total
    q = h2.counts / h2.total
    overlap = float(np.minimum(p, q).sum())
    m = 0.5 * (p + q)
    pm = p > 0
    qm = q > 0
    jsd = 0.5 * float(np.sum(p[pm] * np.log2(p[pm] / m[pm]))) + 0.5 * float(
        np.sum(q[qm] * np.log2(q[qm] / m[qm]))
    )
    return DivergenceReport(overlap, jsd)


@dataclass(frozen=True)
class ForecastMetrics:
    min_ade: float
    min_fde: float
    missed: bool


def forecast_metrics(
    preds, truth: np.ndarray, miss_threshold: float = DEFAULT_MISS_THRESHOLD
) -> ForecastMetrics:
    """Best-of-6 displacement metrics.

    min_ade minimizes the mean point-wise Euclidean error over modes,
    min_fde the final-point error, and the miss flag is set when the
    fde-minimizing mode's final error strictly exceeds the threshold
    (a final error exactly at the threshold is a hit).
    """
    preds = [np.asarray(p, float) for p in preds]
    if len(preds) != FORECAST_MODES:
        raise ValueError(f"need exactly {FORECAST_MODES} modes, got {len(preds)}")
    truth = np.asarray(truth, float)
    for p in preds:
        if p.shape != truth.shape:
            raise ValueError(f"mode shape {p.shape} != truth shape {truth.shape}")
    err = np.array([np.hypot(*(p - truth).T) for p in preds])  # (modes, n)
    ade = err.mean(axis=1)
    fde = err[:, -1]
    best_fde = int(np.argmin(fde))
    return ForecastMetrics(
        float(ade.min()), float(fde.min()), bool(fde[best_fde] > miss_threshold)
    )


def write_histogram_table(h: Histogram, path) -> None:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(h.edges[:-1], h.edges[1:], h.counts):
        lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_endpoint_cloud(points: np.ndarray, path) -> None:
    lines = ["x,y"]
    for x, y in np.asarray(points, float).reshape(-1, 2):
        lines.append(f"{float(x)!r},{float(y)!r}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def render_histogram_svg(h: Histogram, path, title: str = "") -> None:
    """Minimal standalone SVG bar chart of a histogram."""
    width, height, pad = 640, 360, 40
    n = len(h.counts)
    peak = max(1, int(h.counts.max())) if n else 1
    bars = []
    if n:
        bar_w = (width - 2 * pad) / n
        for i, c in enumerate(h.counts):
            bh = (height - 2 * pad) * (int(c) / peak)
            x = pad + i * bar_w
            y = height - pad - bh
            bars.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{bh:.2f}" fill="#4477aa"/>'
            )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{pad}" y="{pad * 0.6:.1f}" font-family="sans-serif" '
        f'font-size="14">{title}</text>\n'
        + "\n".join(bars)
        + f'\n<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>\n</svg>\n'
    )
    write_text_atomic(path, svg)
