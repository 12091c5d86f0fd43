"""Geometric lane warps: bend straight roads into one or two smooth turns.

A warp displaces scene points laterally inside an anchor frame. With the
point expressed in frame coordinates (s_x, s_y), the warped point is
(s_x, s_y + f(s_x - b)): everything before the onset threshold b is left
untouched, and the displacement profile f ramps in smoothly from there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point2, Polyline, rotate
from .maps import LanePoints, LaneSegment, ReferencePath, SceneMap

ALPHA1_RANGE = (1.0, 10.0)
DEFAULT_ALPHA2 = 20.0
DEFAULT_TURN_LENGTH = 10.0  # s_t
DEFAULT_TURN_GAP = 20.0  # beta
DEFAULT_ONSET = 10.0  # b
# the smallest max_slope that leaves an alpha1 to draw
MIN_WARP_SLOPE = ALPHA1_RANGE[0] * DEFAULT_ALPHA2 / DEFAULT_TURN_LENGTH


class TurnKind(enum.Enum):
    SINGLE = "single_turn"
    DOUBLE = "double_turn"


@dataclass(frozen=True)
class WarpFrame:
    """Anchor pose: warp coordinates are relative to origin and heading."""

    origin: Point2
    heading: float

    def __post_init__(self):
        if not math.isfinite(self.heading):
            raise ValueError("frame heading must be finite")


@dataclass(frozen=True)
class TurnTransformParams:
    kind: TurnKind
    b: float
    alpha1: float
    alpha2: float
    s_t: float
    beta: float | None
    frame: WarpFrame

    def __post_init__(self):
        if not ALPHA1_RANGE[0] <= self.alpha1 <= ALPHA1_RANGE[1]:
            raise ValueError(f"alpha1 {self.alpha1} outside {ALPHA1_RANGE}")
        if self.alpha2 <= 1:
            raise ValueError(f"alpha2 must exceed 1, got {self.alpha2}")
        if self.s_t <= 0:
            raise ValueError(f"s_t must be positive, got {self.s_t}")
        if self.kind is TurnKind.DOUBLE and (self.beta is None or self.beta <= 0):
            raise ValueError("double turn needs beta > 0")

    @property
    def end_slope(self) -> float:
        """Displacement slope past the turn: alpha1 * alpha2 / s_t."""
        return self.alpha1 * self.alpha2 / self.s_t

    def metadata(self) -> dict[str, str]:
        md = {
            "transform_kind": self.kind.value,
            "transform_b": repr(self.b),
            "transform_alpha1": repr(self.alpha1),
            "transform_alpha2": repr(self.alpha2),
            "transform_s_t": repr(self.s_t),
            "transform_frame_x": repr(self.frame.origin.x),
            "transform_frame_y": repr(self.frame.origin.y),
            "transform_frame_heading": repr(self.frame.heading),
        }
        if self.kind is TurnKind.DOUBLE:
            md["transform_beta"] = repr(self.beta)
        return md


def params_from_metadata(md: dict[str, str]) -> TurnTransformParams:
    kind = TurnKind(md["transform_kind"])
    return TurnTransformParams(
        kind=kind,
        b=float(md["transform_b"]),
        alpha1=float(md["transform_alpha1"]),
        alpha2=float(md["transform_alpha2"]),
        s_t=float(md["transform_s_t"]),
        beta=float(md["transform_beta"]) if kind is TurnKind.DOUBLE else None,
        frame=WarpFrame(
            Point2(float(md["transform_frame_x"]), float(md["transform_frame_y"])),
            float(md["transform_frame_heading"]),
        ),
    )


def q_alpha(s_x: float, alpha1: float, alpha2: float, s_t: float) -> float:
    """Turn-shape profile alpha1 * (s_x / s_t) ** alpha2 on [0, s_t].

    Written in ratio form so q_alpha(s_t) equals alpha1 exactly.
    """
    if not 0.0 <= s_x <= s_t:
        raise ValueError(f"s_x {s_x} outside [0, {s_t}]")
    return alpha1 * (s_x / s_t) ** alpha2


def _single_turn_array(x, alpha1, alpha2, s_t):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mid = (x >= 0.0) & (x <= s_t)
    out[mid] = alpha1 * (x[mid] / s_t) ** alpha2
    high = x > s_t
    out[high] = (x[high] - s_t) * (alpha1 * alpha2 / s_t) + alpha1
    return out


def f_single_turn(s_x: float, p: TurnTransformParams) -> float:
    """Single-turn lateral displacement: zero before the turn, the shape
    profile across it, and its tangent line afterwards (C1 everywhere)."""
    if s_x < 0.0:
        return 0.0
    if s_x <= p.s_t:
        return p.alpha1 * (s_x / p.s_t) ** p.alpha2
    return (s_x - p.s_t) * p.end_slope + p.alpha1


def f_double_turn(s_x: float, p: TurnTransformParams) -> float:
    """Two opposite turns `beta` apart; flattens to alpha1*alpha2*beta/s_t."""
    if p.kind is not TurnKind.DOUBLE:
        raise ValueError("f_double_turn requires DoubleTurn params")
    return f_single_turn(s_x, p) - f_single_turn(s_x - p.beta, p)


def f_single_turn_slope(s_x: float, p: TurnTransformParams) -> float:
    """Analytic derivative of the single-turn profile."""
    if s_x < 0.0:
        return 0.0
    if s_x <= p.s_t:
        return p.alpha1 * p.alpha2 / p.s_t * (s_x / p.s_t) ** (p.alpha2 - 1.0)
    return p.end_slope


def warp_displacement(x, p: TurnTransformParams):
    """Vectorized displacement for either turn kind."""
    if p.kind is TurnKind.SINGLE:
        return _single_turn_array(x, p.alpha1, p.alpha2, p.s_t)
    single = _single_turn_array(x, p.alpha1, p.alpha2, p.s_t)
    return single - _single_turn_array(
        np.asarray(x, dtype=float) - p.beta, p.alpha1, p.alpha2, p.s_t
    )


def apply_transform(m: SceneMap, p: TurnTransformParams) -> SceneMap:
    """Warp every lane of the map in the shared anchor frame.

    Works on the map's points as one array (`m.points`, lanes in sorted-id
    order): one rotation into the frame, one `warp_displacement` call on
    the points whose frame-local x reaches the onset b, one rotation back
    of those points. Every other point is copied bit-identically, and a
    lane with no point past b is kept as the same LaneSegment object;
    connectivity and point counts never change. The warped map's `points`
    is the warped array.
    """
    ids, xy, offsets = m.points
    origin = np.array([p.frame.origin.x, p.frame.origin.y])
    local = rotate(xy - origin, -p.frame.heading)
    touched = local[:, 0] >= p.b
    warped = local[touched]
    warped[:, 1] += warp_displacement(warped[:, 0] - p.b, p)
    new_xy = xy.copy()
    new_xy[touched] = rotate(warped, p.frame.heading) + origin
    new_xy.setflags(write=False)
    lanes = {}
    hit = np.logical_or.reduceat(touched, offsets[:-1])
    for k, lane_id in enumerate(ids):
        lane = m.lanes[lane_id]
        if hit[k]:
            lane = LaneSegment(
                lane_id,
                Polyline(new_xy[offsets[k] : offsets[k + 1]]),
                lane.predecessors,
                lane.successors,
            )
        lanes[lane_id] = lane
    out = SceneMap(city=m.city, lanes=lanes)
    out.validate()
    out.__dict__["points"] = LanePoints(ids, new_xy, offsets)  # the cached_property's slot
    return out


def sample_transform_params(
    rng: np.random.Generator,
    paths: list[ReferencePath],
    max_slope: float | None = None,
) -> TurnTransformParams:
    """Draw warp parameters and anchor the frame on a reference path.

    The kind is a fair coin, alpha1 uniform over its range, and the frame
    sits at a uniformly chosen sample over every path, headed along the
    local tangent. `max_slope` optionally caps the post-turn displacement
    slope alpha1*alpha2/s_t by shrinking the alpha1 range (uncapped by
    default).
    """
    if not paths:
        raise ValueError("need at least one reference path to anchor the warp")
    kind = TurnKind.SINGLE if int(rng.integers(2)) == 0 else TurnKind.DOUBLE
    lo, hi = ALPHA1_RANGE
    if max_slope is not None:
        hi = min(hi, max_slope * DEFAULT_TURN_LENGTH / DEFAULT_ALPHA2)
        if hi < lo:
            raise ValueError(f"max_slope {max_slope} leaves no valid alpha1")
    alpha1 = float(rng.uniform(lo, hi))
    counts = [path.samples.n_points for path in paths]
    flat = int(rng.integers(sum(counts)))
    for path, count in zip(paths, counts):
        if flat < count:
            break
        flat -= count
    origin = Point2(float(path.samples.xy[flat, 0]), float(path.samples.xy[flat, 1]))
    frame = WarpFrame(origin, path.tangent_at_index(flat))
    return TurnTransformParams(
        kind=kind,
        b=DEFAULT_ONSET,
        alpha1=alpha1,
        alpha2=DEFAULT_ALPHA2,
        s_t=DEFAULT_TURN_LENGTH,
        beta=DEFAULT_TURN_GAP if kind is TurnKind.DOUBLE else None,
        frame=frame,
    )
