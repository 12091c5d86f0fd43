"""Planar primitives: points, polylines, arc-length resampling, curvature.

Everything here is immutable after construction and safe to share across
worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Consecutive polyline points closer than this are considered coincident.
COINCIDENT_TOL = 1e-9

# The step length (m) that counts as moving: a scene's trajectory needs one
# (`synthesis.validate_scene`), and `analysis.normalize_headings` takes
# headings from such steps only.
MOVING_STEP = 1e-12

# The largest coordinate magnitude (m) of a polyline: about the square root
# of the float range, so squared coordinate differences and arc-lengths stay
# finite.
COORDINATE_LIMIT = 1e150

# The longest polyline (m). A reference path resamples its whole chain of
# lanes every 1 m, so this bounds the samples of one lane; real lane
# segments are metres to kilometres long.
LENGTH_LIMIT = 1e5


@dataclass(frozen=True)
class Point2:
    """A finite 2-D point in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


class Polyline:
    """Ordered 2-D points with strictly increasing arc-length.

    `xy` is an (n, 2) read-only array, `cum_s` the chord-length cumulative
    arc-length per point (cum_s[0] == 0). Coordinates must be finite and
    at most `COORDINATE_LIMIT` in magnitude, and the length at most
    `LENGTH_LIMIT`.
    """

    __slots__ = ("xy", "cum_s", "_pt_lines")

    def __init__(self, xy):
        arr = np.array(xy, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("polyline needs at least two 2-D points")
        peak = np.abs(arr).max()  # nan if any coordinate is nan
        if not peak <= COORDINATE_LIMIT:
            if not math.isfinite(peak):
                raise ValueError("polyline has non-finite coordinates")
            raise ValueError(
                f"polyline coordinate magnitude {float(peak)!r} exceeds {COORDINATE_LIMIT!r} m"
            )
        seg = np.hypot(*(arr[1:] - arr[:-1]).T)
        if (seg <= COINCIDENT_TOL).any():
            i = int(np.flatnonzero(seg <= COINCIDENT_TOL)[0])
            raise ValueError(f"coincident polyline points at indices {i}, {i + 1}")
        arr.setflags(write=False)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        if not cum[-1] <= LENGTH_LIMIT:
            raise ValueError(
                f"polyline length {float(cum[-1])!r} m exceeds {LENGTH_LIMIT!r} m"
            )
        cum.setflags(write=False)
        self.xy = arr
        self.cum_s = cum
        self._pt_lines = None

    @property
    def length(self) -> float:
        return float(self.cum_s[-1])

    @property
    def n_points(self) -> int:
        return int(self.xy.shape[0])

    def pt_lines(self) -> tuple[str, ...]:
        """One map-file `pt x y` line per point, 9 decimals each (the
        strings of `f"{v:.9f}"`), from one `%` template; formatted on first
        use and kept, since the points never change."""
        if self._pt_lines is None:
            text = ("pt %.9f %.9f\n" * len(self.xy)) % tuple(self.xy.ravel().tolist())
            self._pt_lines = tuple(text.split("\n")[:-1])
        return self._pt_lines

    def point_at(self, s) -> np.ndarray:
        """Linear interpolation along the polyline at chord arc-length s."""
        s = np.asarray(s, dtype=float)
        x = np.interp(s, self.cum_s, self.xy[:, 0])
        y = np.interp(s, self.cum_s, self.xy[:, 1])
        return np.stack([x, y], axis=-1)

    def __eq__(self, other):
        return isinstance(other, Polyline) and np.array_equal(self.xy, other.xy)

    def __repr__(self):
        return f"Polyline({self.n_points} pts, {self.length:.2f} m)"


def resample_polyline(p: Polyline, spacing: float) -> Polyline:
    """Resample at fixed arc-length spacing, keeping both endpoints.

    Sample positions are 0, spacing, 2*spacing, ... plus the final endpoint,
    so every gap equals `spacing` except possibly the last. A polyline
    shorter than `spacing` degenerates to its two endpoints.
    """
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    total = p.length
    if total < spacing:
        return Polyline([p.xy[0], p.xy[-1]])
    n_full = int(math.floor(total / spacing + 1e-12))
    s = np.arange(n_full + 1) * spacing
    if total - s[-1] > COINCIDENT_TOL:
        s = np.append(s, total)
    xy = p.point_at(s)
    # pin endpoints exactly so round-trips cannot drift
    xy[0] = p.xy[0]
    xy[-1] = p.xy[-1]
    return Polyline(xy)


def curvature_profile(p: Polyline) -> np.ndarray:
    """Signed curvature (1/m) per point from the circumscribed circle of
    each consecutive point triple; endpoints copy their neighbor.

    Positive curvature bends left. Collinear triples give exactly 0.
    Intended for polylines already resampled to uniform spacing.
    """
    xy = p.xy
    if xy.shape[0] < 3:
        raise ValueError("curvature needs at least 3 points")
    a, b, c = xy[:-2], xy[1:-1], xy[2:]
    ab = b - a
    ca = c - a
    cross = ab[:, 0] * ca[:, 1] - ab[:, 1] * ca[:, 0]
    den = (
        np.hypot(*ab.T)
        * np.hypot(*(c - b).T)
        * np.hypot(*ca.T)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(den > COINCIDENT_TOL, 2.0 * cross / den, 0.0)
    return np.concatenate(([kappa[0]], kappa, [kappa[-1]]))


def rotate(xy: np.ndarray, angle: float) -> np.ndarray:
    """Rotate points (n, 2) about the origin by `angle` radians."""
    c, s = math.cos(angle), math.sin(angle)
    out = np.empty_like(xy, dtype=float)
    out[..., 0] = c * xy[..., 0] - s * xy[..., 1]
    out[..., 1] = s * xy[..., 0] + c * xy[..., 1]
    return out
