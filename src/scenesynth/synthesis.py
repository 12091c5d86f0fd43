"""Scene synthesis: warp, plan, refine, crop, and serialize driving scenes.

A scene is a 5 second, 10 Hz single-agent record (20 history + 30 future
samples) plus the local map crop. Scene files are self-contained::

    # scene_id: 000012
    # city: MIA
    # augmented: true
    # ...metadata `# key: value` lines...
    # map: lane H0_0
    # map: pt -160.000000000 0.000000000
    # ...map crop in the map schema, one line per `# map: ` prefix...
    TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME
    0.0,000012,AGENT,-12.345678901,0.000000000,MIA

Trajectory coordinates carry 9 decimal places; metadata floats use repr
and reload exactly. Every byte of a scene file is a deterministic function
of (seed, config, maps), which keeps datasets reproducible across worker
counts.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .augment import apply_transform, sample_transform_params
from .errors import (
    ConfigError,
    MapFormatError,
    PlanningError,
    PlanningFailureError,
    RefinementError,
    ValidationError,
)
from .geometry import Point2
from .maps import SceneMap, crop_map, map_to_lines, parse_map_lines, write_text_atomic
from .planner import PlannerNode, PlannerParams, astar_plan, sample_speed_targets
from .refine import RefinementParams, refine_trajectory
from . import maps as maps_mod
from . import planner as planner_mod

SCENE_SAMPLES = 50
SCENE_DT = 0.1
HISTORY_SAMPLES = 20
FUTURE_SAMPLES = 30

# kinematic sanity bounds for emitted trajectories
MAX_SPEED = 25.0
ACCEL_BOUNDS = (-5.0, 3.0)

CSV_HEADER = "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME"


@dataclass(frozen=True)
class GenerationConfig:
    seed: int
    n_scenes: int
    output_dir: str = "out/scenes"
    augmented_fraction: float = 165.0 / 370.0
    crop_radius: float = 100.0
    v_d_range: tuple[float, float] = (6.0, 15.0)
    planner: PlannerParams = PlannerParams()
    refinement: RefinementParams = RefinementParams()
    path_min_length: float = 150.0
    path_spacing: float = 1.0
    retry_budget: int = 5
    max_warp_slope: float | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_scenes < 1:
            raise ConfigError(f"n_scenes must be >= 1, got {self.n_scenes}")
        if not 0.0 <= self.augmented_fraction <= 1.0:
            raise ConfigError(
                f"augmented_fraction must lie in [0, 1], got {self.augmented_fraction}"
            )
        if self.crop_radius <= 0:
            raise ConfigError("crop_radius must be positive")
        lo, hi = self.v_d_range
        if not 0 < lo <= hi:
            raise ConfigError(f"invalid v_d_range {self.v_d_range}")
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be nonnegative")
        if abs(self.refinement.dt_fine - SCENE_DT) > 1e-12:
            raise ConfigError(
                f"refinement dt_fine must be {SCENE_DT} to emit 10 Hz scenes"
            )
        n_knots = int(math.floor(self.planner.t_g / self.planner.dt + 1e-9))
        if n_knots * self.refinement.k + 1 < SCENE_SAMPLES:
            raise ConfigError(
                "planner horizon too short for a full 50-sample scene"
            )

    def echo(self) -> list[tuple[str, str]]:
        """Flat (key, value) view of every field, for manifest echoing."""
        out = [
            ("seed", str(self.seed)),
            ("n_scenes", str(self.n_scenes)),
            ("output_dir", str(self.output_dir)),
            ("augmented_fraction", repr(self.augmented_fraction)),
            ("crop_radius", repr(self.crop_radius)),
            ("v_d_range", f"{self.v_d_range[0]!r},{self.v_d_range[1]!r}"),
            ("action_set", ",".join(repr(a) for a in self.planner.action_set)),
            ("dt", repr(self.planner.dt)),
            ("t_g", repr(self.planner.t_g)),
            ("w1", repr(self.planner.w1)),
            ("w2", repr(self.planner.w2)),
            ("w3", repr(self.planner.w3)),
            ("abs_curvature", str(self.planner.abs_curvature).lower()),
            ("omega1", repr(self.refinement.omega1)),
            ("omega2", repr(self.refinement.omega2)),
            ("omega3", repr(self.refinement.omega3)),
            ("dt_fine", repr(self.refinement.dt_fine)),
            ("k", str(self.refinement.k)),
            ("path_min_length", repr(self.path_min_length)),
            ("path_spacing", repr(self.path_spacing)),
            ("retry_budget", str(self.retry_budget)),
            ("max_warp_slope", repr(self.max_warp_slope)),
        ]
        return out


@dataclass(frozen=True)
class Scene:
    scene_id: str
    city: str
    map_crop: SceneMap
    timestamps: np.ndarray  # (50,)
    trajectory: np.ndarray  # (50, 2)
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def history(self) -> np.ndarray:
        return self.trajectory[:HISTORY_SAMPLES]

    @property
    def future(self) -> np.ndarray:
        return self.trajectory[HISTORY_SAMPLES:]


def validate_scene(scene: Scene) -> None:
    """Check every scene invariant; raises ValidationError."""
    sid = scene.scene_id
    if scene.timestamps.shape != (SCENE_SAMPLES,):
        raise ValidationError(
            f"scene {sid}: {scene.timestamps.shape[0]} samples, expected {SCENE_SAMPLES}"
        )
    if scene.trajectory.shape != (SCENE_SAMPLES, 2):
        raise ValidationError(f"scene {sid}: trajectory shape {scene.trajectory.shape}")
    gaps = np.diff(scene.timestamps)
    if np.abs(gaps - SCENE_DT).max() > 1e-9:
        raise ValidationError(f"scene {sid}: timestamps not {SCENE_DT} s apart")
    if not np.isfinite(scene.trajectory).all():
        raise ValidationError(f"scene {sid}: non-finite trajectory")
    speeds = np.hypot(*np.diff(scene.trajectory, axis=0).T) / SCENE_DT
    if speeds.max() > MAX_SPEED + 1e-9 or speeds.min() < -1e-9:
        raise ValidationError(
            f"scene {sid}: speed {speeds.max():.2f} outside [0, {MAX_SPEED}]"
        )
    accels = np.diff(speeds) / SCENE_DT
    if accels.min() < ACCEL_BOUNDS[0] - 1e-9 or accels.max() > ACCEL_BOUNDS[1] + 1e-9:
        raise ValidationError(
            f"scene {sid}: acceleration outside {ACCEL_BOUNDS}"
        )
    scene.map_crop.validate()
    if scene.map_crop.city != scene.city:
        raise ValidationError(f"scene {sid}: map city {scene.map_crop.city!r} mismatch")
    cx = float(scene.metadata["crop_center_x"])
    cy = float(scene.metadata["crop_center_y"])
    radius = float(scene.metadata["crop_radius"])
    d = np.hypot(scene.trajectory[:, 0] - cx, scene.trajectory[:, 1] - cy)
    if d.max() > radius + 1e-6:
        raise ValidationError(f"scene {sid}: trajectory leaves the crop radius")


def generate_scene(
    base_map: SceneMap,
    rng: np.random.Generator,
    cfg: GenerationConfig,
    scene_id: str = "000000",
    rng_key: str = "",
    force_augmented: bool | None = None,
) -> Scene:
    """Synthesize one scene on `base_map`.

    Draw order from `rng`: augmentation coin (skipped when
    `force_augmented` pins it, as the dataset layer does to keep the
    original/augmented mix unbiased across retries), then (if augmenting)
    the anchor lane, anchor walk, and warp parameters, then the driven
    lane and its walk, the speed targets, and the start position.
    Identical inputs always yield an identical scene.
    """
    if force_augmented is None:
        augmented = bool(rng.random() < cfg.augmented_fraction)
    else:
        augmented = force_augmented
    metadata: dict[str, str] = {
        "scene_id": scene_id,
        "city": base_map.city,
        "augmented": "true" if augmented else "false",
        "rng_key": rng_key or "unseeded",
    }
    work_map = base_map
    if augmented:
        lane_ids = base_map.sorted_ids()
        anchor_lane = lane_ids[int(rng.integers(len(lane_ids)))]
        anchor_path = maps_mod.build_reference_path(
            base_map, anchor_lane, cfg.path_min_length, rng, cfg.path_spacing
        )
        params = sample_transform_params(rng, [anchor_path], cfg.max_warp_slope)
        work_map = apply_transform(base_map, params)
        metadata.update(params.metadata())

    lane_ids = work_map.sorted_ids()
    drive_lane = lane_ids[int(rng.integers(len(lane_ids)))]
    path = maps_mod.build_reference_path(
        work_map, drive_lane, cfg.path_min_length, rng, cfg.path_spacing
    )
    v_d, v0 = sample_speed_targets(rng, cfg.v_d_range)

    n_steps = planner_mod._n_steps(0.0, cfg.planner)
    t_end = n_steps * cfg.planner.dt
    max_accel = max(0.0, max(cfg.planner.action_set))
    # head margin keeps smoothing undershoot on the path; tail margin
    # covers the farthest kinematically reachable arc-length
    reach = v0 * t_end + 0.5 * max_accel * t_end * t_end + 1.0
    ok = (path.cum_s >= 2.0) & (path.cum_s <= path.length - reach)
    candidates = path.cum_s[ok]
    if candidates.size == 0:
        raise PlanningFailureError(
            f"path of {path.length:.0f} m too short for v0={v0:.1f} m/s"
        )
    s0 = float(candidates[int(rng.integers(candidates.size))])

    plan = astar_plan(
        path, PlannerNode(s0, v0, 0.0), replace(cfg.planner, v_d=v_d)
    )
    refined = refine_trajectory(plan, cfg.refinement, v0=v0, s0=s0)
    s_fine = refined.s_values[:SCENE_SAMPLES]
    timestamps = np.arange(SCENE_SAMPLES) * SCENE_DT
    xy = path.xy_at(s_fine)

    center = Point2(float(xy[SCENE_SAMPLES // 2, 0]), float(xy[SCENE_SAMPLES // 2, 1]))
    crop = crop_map(work_map, center, cfg.crop_radius)
    metadata.update(
        {
            "v_d": repr(v_d),
            "v0": repr(v0),
            "s0": repr(s0),
            "plan_cost": repr(plan.total_cost),
            "drive_lanes": ";".join(path.lane_ids),
            "crop_center_x": repr(center.x),
            "crop_center_y": repr(center.y),
            "crop_radius": repr(cfg.crop_radius),
        }
    )
    scene = Scene(scene_id, base_map.city, crop, timestamps, xy, metadata)
    validate_scene(scene)
    return scene


def scene_to_text(scene: Scene) -> str:
    lines = [f"# {k}: {v}" for k, v in scene.metadata.items()]
    lines.extend(f"# map: {ln}" for ln in map_to_lines(scene.map_crop))
    lines.append(CSV_HEADER)
    for t, (x, y) in zip(scene.timestamps, scene.trajectory):
        lines.append(
            f"{t:.1f},{scene.scene_id},AGENT,{x:.9f},{y:.9f},{scene.city}"
        )
    return "\n".join(lines) + "\n"


def write_scene(scene: Scene, path) -> None:
    write_text_atomic(path, scene_to_text(scene))


def read_scene(path) -> Scene:
    """Parse and validate a scene file; raises MapFormatError with the
    offending line number on malformed input."""
    metadata: dict[str, str] = {}
    map_lines: list[str] = []
    rows: list[tuple[float, float, float]] = []
    header_seen = False
    track_id = None
    city_col = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# map: "):
                map_lines.append(line[len("# map: "):])
            elif line.startswith("#"):
                body = line[1:].strip()
                key, sep, value = body.partition(":")
                if not sep:
                    raise MapFormatError("metadata line without ':'", path, lineno)
                metadata[key.strip()] = value.strip()
            elif line == CSV_HEADER:
                header_seen = True
            else:
                if not header_seen:
                    raise MapFormatError("data row before column header", path, lineno)
                fields = line.split(",")
                if len(fields) != 6:
                    raise MapFormatError(
                        f"expected 6 columns, got {len(fields)}", path, lineno
                    )
                if fields[2] != "AGENT":
                    raise MapFormatError(
                        f"OBJECT_TYPE must be AGENT, got {fields[2]!r}", path, lineno
                    )
                try:
                    rows.append((float(fields[0]), float(fields[3]), float(fields[4])))
                except ValueError as exc:
                    raise MapFormatError(f"bad numeric field: {line}", path, lineno) from exc
                track_id = fields[1]
                city_col = fields[5]
    if "scene_id" not in metadata or "city" not in metadata:
        raise MapFormatError("missing scene_id/city metadata", path)
    if len(rows) != SCENE_SAMPLES:
        raise ValidationError(
            f"{path}: {len(rows)} trajectory rows, expected {SCENE_SAMPLES}"
        )
    if track_id != metadata["scene_id"] or city_col != metadata["city"]:
        raise ValidationError(f"{path}: row identity differs from metadata")
    arr = np.array(rows)
    scene = Scene(
        scene_id=metadata["scene_id"],
        city=metadata["city"],
        map_crop=parse_map_lines(map_lines, path=path),
        timestamps=arr[:, 0],
        trajectory=arr[:, 1:3],
        metadata=metadata,
    )
    validate_scene(scene)
    return scene


def scene_filename(index: int) -> str:
    return f"scene_{index:06d}.csv"


@dataclass
class SceneRecord:
    index: int
    filename: str
    status: str  # original | augmented | skipped
    city: str
    cost: str
    attempts: int
    wall_ms: float
    text: str | None = None
    reason: str = ""


@dataclass
class DatasetManifest:
    path: Path
    records: list[SceneRecord]
    counts: dict[str, int]
    per_city: dict[str, int]
    elapsed_s: float

    @property
    def scenes_per_s(self) -> float:
        return len(self.records) / self.elapsed_s if self.elapsed_s > 0 else math.inf


def _build_scene_record(maps: list[SceneMap], cfg: GenerationConfig, index: int) -> SceneRecord:
    """Generate one scene with bounded retries; pure in (maps, cfg, index).

    The map choice and augmentation coin come from a per-scene stream that
    retries do not consume, so failed attempts cannot bias the
    original/augmented mix; each attempt re-randomizes everything else.
    """
    t0 = time.perf_counter()
    reason = ""
    scene_rng = np.random.default_rng([cfg.seed, index])
    map_idx = int(scene_rng.integers(len(maps)))
    augmented = bool(scene_rng.random() < cfg.augmented_fraction)
    for attempt in range(cfg.retry_budget + 1):
        rng = np.random.default_rng([cfg.seed, index, attempt])
        try:
            scene = generate_scene(
                maps[map_idx],
                rng,
                cfg,
                scene_id=f"{index:06d}",
                rng_key=f"{cfg.seed}/{index}/{attempt}",
                force_augmented=augmented,
            )
        except (PlanningError, RefinementError, ValidationError) as exc:
            reason = str(exc).replace(",", ";").replace("\n", " ")
            continue
        wall = (time.perf_counter() - t0) * 1e3
        status = "augmented" if scene.metadata["augmented"] == "true" else "original"
        return SceneRecord(
            index,
            scene_filename(index),
            status,
            scene.city,
            scene.metadata["plan_cost"],
            attempt + 1,
            wall,
            text=scene_to_text(scene),
        )
    wall = (time.perf_counter() - t0) * 1e3
    return SceneRecord(
        index, scene_filename(index), "skipped", "-", "-",
        cfg.retry_budget + 1, wall, text=None, reason=reason,
    )


_POOL_STATE: tuple[list[SceneMap], GenerationConfig] | None = None


def _pool_init(maps, cfg):
    global _POOL_STATE
    _POOL_STATE = (maps, cfg)


def _pool_build(index):
    maps, cfg = _POOL_STATE
    return _build_scene_record(maps, cfg, index)


def _peek_record(out_dir: Path, index: int) -> SceneRecord | None:
    """Recover manifest data from an already-written scene file."""
    path = out_dir / scene_filename(index)
    if not path.exists():
        return None
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#") or line.startswith("# map: "):
                break
            body = line[1:].strip()
            key, _, value = body.partition(":")
            meta[key.strip()] = value.strip()
    status = "augmented" if meta.get("augmented") == "true" else "original"
    return SceneRecord(
        index, path.name, status, meta.get("city", "-"),
        meta.get("plan_cost", "-"), 0, 0.0,
    )


def manifest_text(
    cfg: GenerationConfig,
    maps: list[SceneMap],
    records: list[SceneRecord],
    extra_config: list[tuple[str, str]] | None = None,
) -> str:
    counts = {"original": 0, "augmented": 0, "skipped": 0}
    per_city: dict[str, int] = {}
    for rec in records:
        counts[rec.status] += 1
        if rec.status != "skipped":
            per_city[rec.city] = per_city.get(rec.city, 0) + 1
    lines = ["# scenesynth dataset manifest"]
    for key, value in cfg.echo():
        lines.append(f"# config {key}: {value}")
    for key, value in extra_config or []:
        lines.append(f"# config {key}: {value}")
    lines.append(
        "# maps: " + ";".join(f"{m.city}={len(m.lanes)}" for m in maps)
    )
    lines.append(f"# count total: {len(records)}")
    for key in ("original", "augmented", "skipped"):
        lines.append(f"# count {key}: {counts[key]}")
    for city in sorted(per_city):
        lines.append(f"# count city {city}: {per_city[city]}")
    for rec in records:
        if rec.status == "skipped":
            lines.append(f"{rec.filename},skipped,-,-,{rec.reason}")
        else:
            lines.append(f"{rec.filename},{rec.status},{rec.city},{rec.cost},")
    return "\n".join(lines) + "\n"


def generate_dataset(
    maps: list[SceneMap],
    cfg: GenerationConfig,
    workers: int = 1,
    log=None,
    extra_config: list[tuple[str, str]] | None = None,
) -> DatasetManifest:
    """Write `cfg.n_scenes` scene files plus a manifest into the output dir.

    Already-written scene ids are skipped, so interrupted runs resume; a
    rerun over a complete dataset rewrites nothing. Output bytes do not
    depend on `workers`.
    """
    if not maps:
        raise ConfigError("need at least one map")
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output dir {out_dir} not writable: {exc}") from exc

    t0 = time.perf_counter()
    records: dict[int, SceneRecord] = {}
    todo: list[int] = []
    for index in range(cfg.n_scenes):
        cached = _peek_record(out_dir, index)
        if cached is not None:
            records[index] = cached
        else:
            todo.append(index)

    if workers <= 1 or len(todo) <= 1:
        built = (_build_scene_record(maps, cfg, i) for i in todo)
        for rec in built:
            records[rec.index] = rec
            _finish_record(rec, out_dir, log)
    else:
        with multiprocessing.Pool(
            processes=workers, initializer=_pool_init, initargs=(maps, cfg)
        ) as pool:
            for rec in pool.imap(_pool_build, todo, chunksize=8):
                records[rec.index] = rec
                _finish_record(rec, out_dir, log)

    ordered = [records[i] for i in range(cfg.n_scenes)]
    elapsed = time.perf_counter() - t0
    manifest_path = out_dir / "manifest.txt"
    write_text_atomic(manifest_path, manifest_text(cfg, maps, ordered, extra_config))
    counts = {"original": 0, "augmented": 0, "skipped": 0}
    per_city: dict[str, int] = {}
    for rec in ordered:
        counts[rec.status] += 1
        if rec.status != "skipped":
            per_city[rec.city] = per_city.get(rec.city, 0) + 1
    return DatasetManifest(manifest_path, ordered, counts, per_city, elapsed)


def _finish_record(rec: SceneRecord, out_dir: Path, log) -> None:
    if rec.text is not None:
        write_text_atomic(out_dir / rec.filename, rec.text)
        rec.text = None
    if log is not None:
        log(
            f"scene={rec.filename} status={rec.status} cost={rec.cost} "
            f"attempts={rec.attempts} wall_ms={rec.wall_ms:.1f}"
        )
