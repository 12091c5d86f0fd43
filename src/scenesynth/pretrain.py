"""Masked-reconstruction sample preparation.

Scenes are flattened into consecutive-point vectors grouped by polyline.
A sample then splits polylines into visible vectors and masked
placeholders that keep only each masked polyline's first point, with the
full polylines kept aside as reconstruction targets. The format carries
the visible/masked partition explicitly (no in-band mask tokens), so a
trainer can choose whether placeholders ever reach its encoder.

Sample file format::

    # task: map_recon
    # masked: 2;5
    # columns: kind,polyline_id,x0,y0,x1,y1,attr0,attr1
    lane,0,0.0,0.0,2.0,0.0,0.0,1.0
    ...
    # targets
    target,2,0.0,4.0
    target,2,2.0,4.0

Floats are written with repr and reload bit-exactly. Lane vectors carry
(pred count, succ count) attributes; trajectory vectors carry their
(start, end) timestamps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import MapFormatError, MaskingError
from .geometry import Point2
from .maps import write_text_atomic
from .synthesis import Scene

TRAJ_MODES = 6
DEFAULT_MASK_RATIO = 0.5
DEFAULT_MAP_FRACTION = 0.7
DEFAULT_REG_WEIGHT = 0.05


class ElementKind(enum.Enum):
    LANE = "lane"
    TRAJECTORY = "trajectory"


class ReconTask(enum.Enum):
    MAP = "map_recon"
    TRAJECTORY = "traj_recon"


@dataclass(frozen=True)
class VectorFeature:
    start: Point2
    end: Point2
    polyline_id: int
    element_kind: ElementKind
    attributes: tuple[float, float]


@dataclass(frozen=True)
class MaskedPlaceholder:
    polyline_id: int
    first_point: Point2


@dataclass(frozen=True)
class TargetPolyline:
    polyline_id: int
    points: np.ndarray  # (n, 2)


@dataclass(frozen=True)
class PretrainSample:
    visible: tuple[VectorFeature, ...]
    masked_placeholders: tuple[MaskedPlaceholder, ...]
    targets: tuple[TargetPolyline, ...]
    task: ReconTask


def vectorize_scene(scene: Scene) -> list[VectorFeature]:
    """Flatten lanes (sorted by id) then the trajectory into vectors.

    Lane polylines take ids 0..n_lanes-1 and the trajectory the next id,
    so concatenating each group's starts plus the final end reassembles
    the original polylines exactly.
    """
    vectors: list[VectorFeature] = []
    for pid, lane_id in enumerate(scene.map_crop.sorted_ids()):
        lane = scene.map_crop.lanes[lane_id]
        xy = lane.centerline.xy
        attrs = (float(len(lane.predecessors)), float(len(lane.successors)))
        for i in range(xy.shape[0] - 1):
            vectors.append(
                VectorFeature(
                    Point2(float(xy[i, 0]), float(xy[i, 1])),
                    Point2(float(xy[i + 1, 0]), float(xy[i + 1, 1])),
                    pid,
                    ElementKind.LANE,
                    attrs,
                )
            )
    traj_id = len(scene.map_crop.lanes)
    xy = scene.trajectory
    t = scene.timestamps
    for i in range(xy.shape[0] - 1):
        vectors.append(
            VectorFeature(
                Point2(float(xy[i, 0]), float(xy[i, 1])),
                Point2(float(xy[i + 1, 0]), float(xy[i + 1, 1])),
                traj_id,
                ElementKind.TRAJECTORY,
                (float(t[i]), float(t[i + 1])),
            )
        )
    return vectors


def _polyline_points(vectors: list[VectorFeature], pid: int) -> np.ndarray:
    seq = [v for v in vectors if v.polyline_id == pid]
    pts = [(v.start.x, v.start.y) for v in seq]
    pts.append((seq[-1].end.x, seq[-1].end.y))
    return np.array(pts)


def _split(vectors, masked_ids, task) -> PretrainSample:
    masked = sorted(masked_ids)
    visible = tuple(v for v in vectors if v.polyline_id not in masked_ids)
    placeholders = []
    targets = []
    for pid in masked:
        pts = _polyline_points(vectors, pid)
        placeholders.append(
            MaskedPlaceholder(pid, Point2(float(pts[0, 0]), float(pts[0, 1])))
        )
        targets.append(TargetPolyline(pid, pts))
    return PretrainSample(visible, tuple(placeholders), tuple(targets), task)


def _lane_ids(vectors: list[VectorFeature]) -> list[int]:
    return sorted(
        {v.polyline_id for v in vectors if v.element_kind is ElementKind.LANE}
    )


def mask_map(
    vectors: list[VectorFeature],
    ratio: float = DEFAULT_MASK_RATIO,
    rng: np.random.Generator | None = None,
) -> PretrainSample:
    """Mask round(ratio * n_lanes) lane polylines uniformly at random
    (half rounds up); the trajectory stays visible."""
    if rng is None:
        rng = np.random.default_rng()
    lane_ids = _lane_ids(vectors)
    if len(lane_ids) < 2:
        raise MaskingError(f"map masking needs >= 2 lanes, got {len(lane_ids)}")
    n_mask = int(math.floor(ratio * len(lane_ids) + 0.5))
    chosen = set(
        int(i) for i in rng.choice(lane_ids, size=n_mask, replace=False)
    )
    return _split(vectors, chosen, ReconTask.MAP)


def mask_trajectory(vectors: list[VectorFeature]) -> PretrainSample:
    """Mask the single trajectory, retaining its start point."""
    traj_ids = sorted(
        {v.polyline_id for v in vectors if v.element_kind is ElementKind.TRAJECTORY}
    )
    if len(traj_ids) != 1:
        raise MaskingError(
            f"trajectory masking needs exactly 1 trajectory, got {len(traj_ids)}"
        )
    return _split(vectors, set(traj_ids), ReconTask.TRAJECTORY)


def assign_tasks(
    scenes: list[Scene],
    map_fraction: float = DEFAULT_MAP_FRACTION,
    rng: np.random.Generator | None = None,
    mask_ratio: float = DEFAULT_MASK_RATIO,
) -> list[PretrainSample]:
    """Draw one task per scene with `draw_sample`, all from one `rng`.
    Fresh generators give the same scene different tasks across epochs."""
    if not 0.0 <= map_fraction <= 1.0:
        raise ValueError(f"map_fraction must lie in [0, 1], got {map_fraction}")
    if rng is None:
        rng = np.random.default_rng()
    return [
        draw_sample(vectorize_scene(scene), map_fraction, mask_ratio, rng)
        for scene in scenes
    ]


def draw_sample(
    vectors: list[VectorFeature],
    map_fraction: float,
    mask_ratio: float,
    rng: np.random.Generator,
) -> PretrainSample:
    """Map reconstruction with probability `map_fraction`, trajectory
    reconstruction otherwise. A scene with fewer than two lanes cannot be
    map-masked and falls back to trajectory reconstruction."""
    if rng.random() < map_fraction and len(_lane_ids(vectors)) >= 2:
        return mask_map(vectors, mask_ratio, rng)
    return mask_trajectory(vectors)


def _pointwise_l1(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    d = np.abs(pred - target)
    return float(np.mean(d[:, 0] + d[:, 1]))


def map_recon_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Point-wise L1: mean over points of |dx| + |dy|."""
    return _pointwise_l1(np.asarray(pred, float), np.asarray(target, float))


def traj_recon_loss(
    preds, target: np.ndarray, reg_weight: float = DEFAULT_REG_WEIGHT
) -> tuple[float, int]:
    """Best-of-6 point-wise L1 plus `reg_weight` times the mean L1 of the
    remaining modes. Returns (loss, best mode index; ties take the lowest)."""
    preds = [np.asarray(p, float) for p in preds]
    if len(preds) != TRAJ_MODES:
        raise ValueError(f"need exactly {TRAJ_MODES} candidate modes, got {len(preds)}")
    target = np.asarray(target, float)
    losses = np.array([_pointwise_l1(p, target) for p in preds])
    best = int(np.argmin(losses))
    rest = np.delete(losses, best)
    return float(losses[best] + reg_weight * rest.mean()), best


def sample_to_text(sample: PretrainSample) -> str:
    lines = [
        "# format: scenesynth-sample v1",
        f"# task: {sample.task.value}",
        "# masked: " + ";".join(str(p.polyline_id) for p in sample.masked_placeholders),
        "# columns: kind,polyline_id,x0,y0,x1,y1,attr0,attr1",
    ]
    for v in sample.visible:
        lines.append(
            f"{v.element_kind.value},{v.polyline_id},{v.start.x!r},{v.start.y!r},"
            f"{v.end.x!r},{v.end.y!r},{v.attributes[0]!r},{v.attributes[1]!r}"
        )
    lines.append("# targets")
    for tgt in sample.targets:
        for x, y in tgt.points:
            lines.append(f"target,{tgt.polyline_id},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def write_sample(sample: PretrainSample, path) -> None:
    write_text_atomic(path, sample_to_text(sample))


def read_sample(path) -> PretrainSample:
    task = None
    visible: list[VectorFeature] = []
    target_pts: dict[int, list[tuple[float, float]]] = {}
    target_order: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("task:"):
                    name = body.partition(":")[2].strip()
                    try:
                        task = ReconTask(name)
                    except ValueError as exc:
                        raise MapFormatError(
                            f"unknown task {name!r}", path, lineno
                        ) from exc
                continue
            fields = line.split(",")
            try:
                if fields[0] == "target":
                    if len(fields) != 4:
                        raise ValueError("target row needs 4 columns")
                    pid = int(fields[1])
                    if pid not in target_pts:
                        target_pts[pid] = []
                        target_order.append(pid)
                    target_pts[pid].append((float(fields[2]), float(fields[3])))
                else:
                    if len(fields) != 8:
                        raise ValueError("vector row needs 8 columns")
                    visible.append(
                        VectorFeature(
                            Point2(float(fields[2]), float(fields[3])),
                            Point2(float(fields[4]), float(fields[5])),
                            int(fields[1]),
                            ElementKind(fields[0]),
                            (float(fields[6]), float(fields[7])),
                        )
                    )
            except ValueError as exc:
                raise MapFormatError(str(exc), path, lineno) from exc
    if task is None:
        raise MapFormatError("missing task header", path)
    if not target_pts:
        raise MapFormatError("sample has no targets", path)
    targets = tuple(
        TargetPolyline(pid, np.array(target_pts[pid])) for pid in target_order
    )
    placeholders = tuple(
        MaskedPlaceholder(t.polyline_id, Point2(float(t.points[0, 0]), float(t.points[0, 1])))
        for t in targets
    )
    return PretrainSample(tuple(visible), placeholders, targets, task)


def sample_filename(scene_id: str) -> str:
    return f"sample_{scene_id}.txt"
