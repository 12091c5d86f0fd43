"""Masked-reconstruction sample preparation.

A scene is flattened into one (n, 8) float array of consecutive-point
vectors, one row per segment, with columns::

    kind, polyline_id, x0, y0, x1, y1, attr0, attr1

`kind` is `LANE` (0) or `TRAJECTORY` (1). Lane polylines come first,
taking ids 0..n_lanes-1 in sorted lane-id order, then the trajectory
with the next id. Lane rows carry (pred count, succ count) attributes;
trajectory rows carry their (start, end) timestamps. A polyline's rows
are contiguous, so their starts plus the last end reassemble it exactly.

A sample splits the rows by polyline id into visible rows and masked
polylines, whose full points are kept aside as reconstruction targets; a
masked polyline's placeholder is its target's first point. The format
carries the visible/masked partition explicitly (no in-band mask tokens),
so a trainer can choose whether placeholders ever reach its encoder.

Sample file format::

    # format: scenesynth-sample v1
    # task: map_recon
    # masked: 2;5
    # columns: kind,polyline_id,x0,y0,x1,y1,attr0,attr1
    lane,0,0.0,0.0,2.0,0.0,0.0,1.0
    ...
    # targets
    target,2,0.0,4.0
    target,2,2.0,4.0

`kind` is written by name (`lane` or `trajectory`). Floats are written
with repr and reload bit-exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MapFormatError, MaskingError
from .maps import write_text_atomic
from .synthesis import Scene

TRAJ_MODES = 6
DEFAULT_MASK_RATIO = 0.5
DEFAULT_MAP_FRACTION = 0.7
DEFAULT_REG_WEIGHT = 0.05

# values of the `kind` column, and their names in sample files
LANE, TRAJECTORY = 0, 1
KIND_NAMES = ("lane", "trajectory")


class ReconTask(enum.Enum):
    MAP = "map_recon"
    TRAJECTORY = "traj_recon"


@dataclass(frozen=True)
class PretrainSample:
    visible: np.ndarray  # (m, 8) rows of the unmasked polylines
    masked: tuple[int, ...]  # sorted ids of the masked polylines
    targets: tuple[np.ndarray, ...]  # (k, 2) points of each, in `masked` order
    task: ReconTask


def vectorize_scene(scene: Scene) -> np.ndarray:
    """Flatten lanes (sorted by id) then the trajectory into (n, 8) rows."""
    crop = scene.map_crop
    lanes = [crop.lanes[lane_id] for lane_id in crop.sorted_ids()]
    points = [lane.centerline.xy for lane in lanes] + [scene.trajectory]
    n_segments = np.array([len(xy) - 1 for xy in points])
    xy = np.concatenate(points)
    # segment i runs from point i to point i + 1 unless i ends a polyline
    joined = np.ones(len(xy) - 1, dtype=bool)
    joined[np.cumsum(n_segments + 1)[:-1] - 1] = False
    n_lane_rows = int(n_segments[:-1].sum())
    out = np.empty((int(n_segments.sum()), 8))
    out[:n_lane_rows, 0] = LANE
    out[n_lane_rows:, 0] = TRAJECTORY
    # the trajectory's id is the crop's lane count
    out[:, 1] = np.repeat(np.arange(len(points)), n_segments)
    out[:, 2:4] = xy[:-1][joined]
    out[:, 4:6] = xy[1:][joined]
    links = np.array(
        [(len(lane.predecessors), len(lane.successors)) for lane in lanes], float
    ).reshape(-1, 2)
    out[:n_lane_rows, 6:8] = np.repeat(links, n_segments[:-1], axis=0)
    t = scene.timestamps
    out[n_lane_rows:, 6] = t[:-1]
    out[n_lane_rows:, 7] = t[1:]
    return out


def _polyline_ids(vectors: np.ndarray, kind: int) -> list[int]:
    return [int(p) for p in np.unique(vectors[vectors[:, 0] == kind, 1])]


def _split(vectors: np.ndarray, masked_ids, task: ReconTask) -> PretrainSample:
    masked = tuple(sorted(masked_ids))
    pid = vectors[:, 1]
    targets = []
    for p in masked:
        rows = vectors[pid == p]
        targets.append(np.concatenate([rows[:, 2:4], rows[-1:, 4:6]]))
    visible = vectors[~np.isin(pid, masked)]
    return PretrainSample(visible, masked, tuple(targets), task)


def mask_map(
    vectors: np.ndarray,
    ratio: float = DEFAULT_MASK_RATIO,
    rng: np.random.Generator | None = None,
) -> PretrainSample:
    """Mask round(ratio * n_lanes) lane polylines uniformly at random
    (half rounds up); the trajectory stays visible."""
    if rng is None:
        rng = np.random.default_rng()
    lane_ids = _polyline_ids(vectors, LANE)
    if len(lane_ids) < 2:
        raise MaskingError(f"map masking needs >= 2 lanes, got {len(lane_ids)}")
    n_mask = int(math.floor(ratio * len(lane_ids) + 0.5))
    chosen = rng.choice(lane_ids, size=n_mask, replace=False)
    return _split(vectors, chosen.tolist(), ReconTask.MAP)


def mask_trajectory(vectors: np.ndarray) -> PretrainSample:
    """Mask the single trajectory, retaining its start point."""
    traj_ids = _polyline_ids(vectors, TRAJECTORY)
    if len(traj_ids) != 1:
        raise MaskingError(
            f"trajectory masking needs exactly 1 trajectory, got {len(traj_ids)}"
        )
    return _split(vectors, traj_ids, ReconTask.TRAJECTORY)


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
    vectors: np.ndarray,
    map_fraction: float,
    mask_ratio: float,
    rng: np.random.Generator,
) -> PretrainSample:
    """Map reconstruction with probability `map_fraction`, trajectory
    reconstruction otherwise. A scene with fewer than two lanes cannot be
    map-masked and falls back to trajectory reconstruction."""
    if rng.random() < map_fraction and len(_polyline_ids(vectors, LANE)) >= 2:
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
        "# masked: " + ";".join(str(p) for p in sample.masked),
        "# columns: kind,polyline_id,x0,y0,x1,y1,attr0,attr1",
    ]
    # a row whose start is the previous row's end reuses that text; compared
    # as bits, since 0.0 == -0.0 but their reprs differ
    coords = np.ascontiguousarray(sample.visible[:, 2:6]).view(np.int64)
    chained = np.zeros(len(coords), dtype=bool)
    chained[1:] = (coords[1:, 0:2] == coords[:-1, 2:4]).all(axis=1)
    end = ""
    for (kind, pid, x0, y0, x1, y1, a0, a1), same in zip(
        sample.visible.tolist(), chained.tolist()
    ):
        start = end if same else f"{x0!r},{y0!r}"
        end = f"{x1!r},{y1!r}"
        lines.append(f"{KIND_NAMES[int(kind)]},{int(pid)},{start},{end},{a0!r},{a1!r}")
    lines.append("# targets")
    for pid, points in zip(sample.masked, sample.targets):
        lines.extend(f"target,{pid},{x!r},{y!r}" for x, y in points.tolist())
    return "\n".join(lines) + "\n"


def write_sample(sample: PretrainSample, path) -> None:
    write_text_atomic(path, sample_to_text(sample))


def read_sample(path) -> PretrainSample:
    """Parse a sample file; raises MapFormatError, with the offending line
    number where there is one, on malformed input."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MapFormatError(f"not UTF-8 text: {exc}", path) from exc
    task = None
    header_ids = None
    rows: list[list[float]] = []
    target_pts: dict[int, list[tuple[float, float]]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                if key.strip() == "task":
                    name = value.strip()
                    if name not in {t.value for t in ReconTask}:
                        raise ValueError(f"unknown task {name!r}")
                    task = ReconTask(name)
                elif key.strip() == "masked":
                    header_ids = tuple(int(p) for p in value.split(";") if p.strip())
                continue
            fields = line.split(",")
            if fields[0] == "target":
                if len(fields) != 4:
                    raise ValueError("target row needs 4 columns")
                point = (float(fields[2]), float(fields[3]))
                target_pts.setdefault(int(fields[1]), []).append(point)
            else:
                if len(fields) != 8:
                    raise ValueError("vector row needs 8 columns")
                if fields[0] not in KIND_NAMES:
                    raise ValueError(f"unknown kind {fields[0]!r}")
                rows.append(
                    [float(KIND_NAMES.index(fields[0])), float(int(fields[1]))]
                    + [float(f) for f in fields[2:]]
                )
        except (ValueError, OverflowError) as exc:
            raise MapFormatError(str(exc), path, lineno) from exc
    if task is None:
        raise MapFormatError("missing task header", path)
    if not target_pts:
        raise MapFormatError("sample has no targets", path)
    masked = tuple(target_pts)
    if header_ids is not None and header_ids != masked:
        raise MapFormatError(
            f"masked header lists {header_ids}, targets are {masked}", path
        )
    visible = np.array(rows, dtype=float).reshape(-1, 8)
    targets = tuple(np.array(pts) for pts in target_pts.values())
    return PretrainSample(visible, masked, targets, task)


def sample_filename(scene_id: str) -> str:
    return f"sample_{scene_id}.txt"
