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
from .geometry import MOVING_STEP
from .maps import write_text_atomic
from .refine import FINE_DT

SPEED_BIN_WIDTH = 0.5
SPEED_RANGE = (0.0, 30.0)
HEADING_BIN_WIDTH = math.pi / 36  # 5 degrees
DEFAULT_MISS_THRESHOLD = 2.0
FORECAST_MODES = 6


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


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    out = np.mod(-a + math.pi, 2.0 * math.pi)
    return -(out - math.pi)


def normalize_headings(trajectories: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each (m, 2) trajectory of an (n, m, 2) array about its first
    point so that its first step longer than `MOVING_STEP` points +x. Returns
    the wrapped headings of the moving steps, in trajectory order, and the
    (n, 2) endpoints. Distances are preserved.

    An all-stationary trajectory has no heading: ValidationError naming
    its index. Each angle comes from scalar `math.atan2`, `math.cos` and
    `math.sin`, and the rotation keeps `geometry.rotate`'s products, so
    every value has the bits of rotating one trajectory at a time.
    """
    x, y = trajectories[..., 0], trajectories[..., 1]
    dx, dy = np.diff(x, axis=1), np.diff(y, axis=1)
    moving = np.hypot(dx, dy) > MOVING_STEP
    still = ~moving.any(axis=1)
    if still.any():
        raise ValidationError(
            f"trajectory {still.argmax()}: all-stationary trajectory has no heading"
        )
    first = (np.arange(len(trajectories)), moving.argmax(axis=1))
    angles = [-math.atan2(b, a) for a, b in zip(dx[first].tolist(), dy[first].tolist())]
    c = np.array([math.cos(a) for a in angles])[:, None]
    s = np.array([math.sin(a) for a in angles])[:, None]
    x0, y0 = x[:, :1], y[:, :1]
    rx, ry = x - x0, y - y0
    x, y = c * rx - s * ry + x0, s * rx + c * ry + y0
    dx, dy = np.diff(x, axis=1), np.diff(y, axis=1)
    moving = np.hypot(dx, dy) > MOVING_STEP
    headings = _wrap_angle(np.arctan2(dy[moving], dx[moving]))
    return headings, np.column_stack([x[:, -1], y[:, -1]])


def speed_histogram_edges() -> np.ndarray:
    n = int(round((SPEED_RANGE[1] - SPEED_RANGE[0]) / SPEED_BIN_WIDTH))
    return SPEED_RANGE[0] + np.arange(n + 1) * SPEED_BIN_WIDTH


def speed_distribution(trajectories: np.ndarray) -> Histogram:
    """Histogram of the finite-difference speeds of an (n, 50, 2)
    trajectory array; samples outside `SPEED_RANGE` are dropped."""
    if len(trajectories) == 0:
        raise ValueError("need at least one trajectory")
    edges = speed_histogram_edges()
    steps = np.diff(trajectories, axis=1)
    counts, _ = np.histogram(np.hypot(steps[..., 0], steps[..., 1]) / FINE_DT, bins=edges)
    return Histogram(edges, counts)


def heading_distribution(headings: np.ndarray) -> Histogram:
    """Histogram of the step headings that `normalize_headings` returns."""
    if len(headings) == 0:
        raise ValueError("need at least one heading")
    n = int(round(2.0 * math.pi / HEADING_BIN_WIDTH))
    edges = -math.pi + np.arange(n + 1) * (2.0 * math.pi / n)
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
