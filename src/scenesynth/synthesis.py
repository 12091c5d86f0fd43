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

An attempt at a scene has three phases: `draw_scene` makes every random
draw (warp, reference path, speeds, start), `plan_and_refine` plans
(`astar_plan`) and smooths the plan (`refine_trajectory`), and
`generate_scene` finishes (place, crop, validate) or raises the attempt's
error. `generate_dataset` keeps the scenes still to make in one queue per
worker task (the whole to-do list with one worker, the chunks of
`chunk_indices` with more) and runs each queue in rounds: a round takes
up to `CHUNK_SCENES` attempts, the retries of the round before first and
then the next scenes of the queue, draws each, plans and refines all of
them in one call each, and finishes each; a failed attempt is retried in
the next round. Each attempt draws from its own `[seed, index, attempt]`
stream, and neither a plan nor its refinement depends on its batch, so
the bytes do not depend on the round size or the worker count.
`make_scene` runs the three phases for one scene.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .augment import MIN_WARP_SLOPE, apply_transform, sample_transform_params
from .errors import (
    ConfigError,
    MapFormatError,
    PlanningError,
    PlanningFailureError,
    RefinementError,
    SceneSynthError,
    ValidationError,
)
from .geometry import Point2
from .maps import (
    ReferencePath,
    SceneMap,
    crop_map,
    map_to_lines,
    parse_map_lines,
    write_text_atomic,
)
from .planner import CoarsePlan, PlannerNode, PlannerParams, astar_plan, sample_speed_targets
from .refine import RefinedTrajectory, RefinementParams, refine_trajectory
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

# the most attempts that one round plans and refines together, and the
# most scene indices per pool task; output bytes do not depend on it
CHUNK_SCENES = 16


class ValueType(NamedTuple):
    """How one config value reads from and writes back to config syntax."""

    noun: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


INT = ValueType("an integer", int, str)
FLOAT = ValueType("a number", float, repr)
TEXT = ValueType("text", str, str)
BOOL = ValueType("true or false", _parse_bool, lambda v: str(v).lower())
FLOATS = ValueType(
    "comma-separated numbers",
    lambda text: tuple(float(a) for a in _parse_list(text)),
    lambda v: ",".join(map(repr, v)),
)
PATHS = ValueType("comma-separated paths", lambda text: tuple(_parse_list(text)), ",".join)
FLOAT_OR_NONE = ValueType(
    "a number or none",
    lambda text: None if text.lower() == "none" else float(text),
    lambda v: "none" if v is None else repr(v),
)

# One row per config key, in manifest order: the key, the GenerationConfig
# field it sets (dotted into `planner`, `refinement` and the `v_d_range`
# pair) and its value type. Defaults are the dataclass field defaults.
# `map_files` names the map files, which no GenerationConfig holds.
CONFIG_KEYS: tuple[tuple[str, str | None, ValueType], ...] = (
    ("seed", "seed", INT),
    ("n_scenes", "n_scenes", INT),
    ("output_dir", "output_dir", TEXT),
    ("augmented_fraction", "augmented_fraction", FLOAT),
    ("crop_radius", "crop_radius", FLOAT),
    ("v_d_min", "v_d_range.0", FLOAT),
    ("v_d_max", "v_d_range.1", FLOAT),
    ("action_set", "planner.action_set", FLOATS),
    ("dt", "planner.dt", FLOAT),
    ("t_g", "planner.t_g", FLOAT),
    ("w1", "planner.w1", FLOAT),
    ("w2", "planner.w2", FLOAT),
    ("w3", "planner.w3", FLOAT),
    ("abs_curvature", "planner.abs_curvature", BOOL),
    ("omega1", "refinement.omega1", FLOAT),
    ("omega2", "refinement.omega2", FLOAT),
    ("omega3", "refinement.omega3", FLOAT),
    ("dt_fine", "refinement.dt_fine", FLOAT),
    ("k", "refinement.k", INT),
    ("path_min_length", "path_min_length", FLOAT),
    ("path_spacing", "path_spacing", FLOAT),
    ("retry_budget", "retry_budget", INT),
    ("max_warp_slope", "max_warp_slope", FLOAT_OR_NONE),
    ("map_files", None, PATHS),
)


def config_field(cfg: GenerationConfig, path: str):
    """The value at a dotted CONFIG_KEYS field path."""
    value = cfg
    for part in path.split("."):
        value = value[int(part)] if part.isdigit() else getattr(value, part)
    return value


@dataclass(frozen=True)
class GenerationConfig:
    seed: int = 0
    n_scenes: int = 10
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
        if self.max_warp_slope is not None and not self.max_warp_slope >= MIN_WARP_SLOPE:
            raise ConfigError(
                f"max_warp_slope must be >= {MIN_WARP_SLOPE} or none, "
                f"got {self.max_warp_slope}"
            )
        if abs(self.refinement.dt_fine - SCENE_DT) > 1e-12:
            raise ConfigError(
                f"refinement dt_fine must be {SCENE_DT} to emit 10 Hz scenes"
            )
        n_knots = int(math.floor(self.planner.t_g / self.planner.dt + 1e-9))
        if n_knots * self.refinement.k + 1 < SCENE_SAMPLES:
            raise ConfigError(
                "planner horizon too short for a full 50-sample scene"
            )

    @classmethod
    def from_keys(cls, values: dict[str, object]) -> GenerationConfig:
        """The config that sets each CONFIG_KEYS key in `values` to its
        parsed value; every other field keeps its default."""
        default = cls()
        groups: dict[str, dict[str, object]] = {}
        for key, path, _ in CONFIG_KEYS:
            if path:
                owner, _, name = path.rpartition(".")
                value = values.get(key, config_field(default, path))
                groups.setdefault(owner, {})[name] = value
        try:
            planner = PlannerParams(**groups["planner"])
            refinement = RefinementParams(**groups["refinement"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        v_d = groups["v_d_range"]
        return cls(
            **groups[""], v_d_range=(v_d["0"], v_d["1"]), planner=planner,
            refinement=refinement,
        )

    def echo(self) -> list[tuple[str, str]]:
        """(key, value) in config syntax for each CONFIG_KEYS field, for the
        manifest; the lines read back through `cli.parse_run_config`."""
        return [
            (key, vtype.format(config_field(self, path)))
            for key, path, vtype in CONFIG_KEYS
            if path
        ]


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
    try:
        cx, cy, radius = (
            float(scene.metadata[key])
            for key in ("crop_center_x", "crop_center_y", "crop_radius")
        )
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"scene {sid}: missing or bad crop metadata {exc}") from exc
    d = np.hypot(scene.trajectory[:, 0] - cx, scene.trajectory[:, 1] - cy)
    if d.max() > radius + 1e-6:
        raise ValidationError(f"scene {sid}: trajectory leaves the crop radius")


@dataclass(frozen=True)
class Draft:
    """What one attempt at a scene draws before planning: the metadata so
    far, the (possibly warped) map, the reference path and the planner's
    start state and parameters (with this scene's `v_d`)."""

    scene_id: str
    city: str
    metadata: dict[str, str]
    work_map: SceneMap
    path: ReferencePath
    start: PlannerNode
    planner: PlannerParams

    @property
    def problem(self) -> tuple[ReferencePath, PlannerNode, PlannerParams]:
        """The `astar_plan` problem of this draft."""
        return self.path, self.start, self.planner


def draw_scene(
    base_map: SceneMap,
    rng: np.random.Generator,
    cfg: GenerationConfig,
    scene_id: str = "000000",
    rng_key: str = "",
    force_augmented: bool | None = None,
) -> Draft:
    """Make every draw of one attempt at a scene on `base_map`.

    Draw order from `rng`: augmentation coin (skipped when
    `force_augmented` pins it, as the dataset layer does to keep the
    original/augmented mix unbiased across retries), then (if augmenting)
    the anchor lane, anchor walk, and warp parameters, then the driven
    lane and its walk, the speed targets, and the start position.
    Identical inputs always yield an identical draft.
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
    metadata.update({"v_d": repr(v_d), "v0": repr(v0), "s0": repr(s0)})
    return Draft(
        scene_id, base_map.city, metadata, work_map, path,
        PlannerNode(s0, v0, 0.0), replace(cfg.planner, v_d=v_d),
    )


Outcome = tuple[CoarsePlan, RefinedTrajectory] | SceneSynthError


def plan_and_refine(drafts: list[Draft], cfg: GenerationConfig) -> list[Outcome]:
    """Plan the drafts in one `astar_plan` call and refine their plans in
    one `refine_trajectory` call: per draft, its (plan, trajectory), or
    the error that its planning or refinement ended in."""
    outcomes: list[Outcome] = astar_plan([draft.problem for draft in drafts])
    planned = [k for k, plan in enumerate(outcomes) if isinstance(plan, CoarsePlan)]
    if planned:
        refined = refine_trajectory(
            [(outcomes[k], drafts[k].start.v, drafts[k].start.s) for k in planned],
            cfg.refinement,
        )
        for k, traj in zip(planned, refined):
            outcomes[k] = traj if isinstance(traj, RefinementError) else (outcomes[k], traj)
    return outcomes


def generate_scene(draft: Draft | None, outcome: Outcome, cfg: GenerationConfig) -> Scene:
    """Finish one attempt: raise the error that its draw, plan or
    refinement ended in (`outcome`, with no draft after a failed draw), or
    place the refined plan on the path, crop the map around it and
    validate the scene."""
    if isinstance(outcome, SceneSynthError):
        raise outcome
    (plan, refined), path = outcome, draft.path
    s_fine = refined.s_values[:SCENE_SAMPLES]
    timestamps = np.arange(SCENE_SAMPLES) * SCENE_DT
    xy = path.xy_at(s_fine)

    center = Point2(float(xy[SCENE_SAMPLES // 2, 0]), float(xy[SCENE_SAMPLES // 2, 1]))
    crop = crop_map(draft.work_map, center, cfg.crop_radius)
    metadata = {
        **draft.metadata,
        "plan_cost": repr(plan.total_cost),
        "drive_lanes": ";".join(path.lane_ids),
        "crop_center_x": repr(center.x),
        "crop_center_y": repr(center.y),
        "crop_radius": repr(cfg.crop_radius),
    }
    scene = Scene(draft.scene_id, draft.city, crop, timestamps, xy, metadata)
    validate_scene(scene)
    return scene


def make_scene(
    base_map: SceneMap,
    rng: np.random.Generator,
    cfg: GenerationConfig,
    scene_id: str = "000000",
    rng_key: str = "",
    force_augmented: bool | None = None,
) -> Scene:
    """One attempt at one scene: draw, plan and refine alone, finish.
    Raises the attempt's error; a dataset makes the same scene from the
    same draws."""
    draft = draw_scene(base_map, rng, cfg, scene_id, rng_key, force_augmented)
    return generate_scene(draft, plan_and_refine([draft], cfg)[0], cfg)


def scene_to_text(scene: Scene) -> str:
    lines = [f"# {k}: {v}" for k, v in scene.metadata.items()]
    lines.append("# map: " + "\n# map: ".join(map_to_lines(scene.map_crop)))
    lines.append(CSV_HEADER)
    sid, city = scene.scene_id, scene.city
    lines.extend(
        f"{t:.1f},{sid},AGENT,{x:.9f},{y:.9f},{city}"
        for t, (x, y) in zip(scene.timestamps.tolist(), scene.trajectory.tolist())
    )
    return "\n".join(lines) + "\n"


def write_scene(scene: Scene, path) -> None:
    write_text_atomic(path, scene_to_text(scene))


def _trajectory_table(rows: list[str], tokens: list[str], row_lines: list[int], path) -> np.ndarray:
    """The (n, 3) TIMESTAMP, X, Y values of CSV rows, whose comma-split
    `tokens` run on across rows, converted in one call; MapFormatError
    names the first row at fault."""
    n = len(rows)
    if [row.count(",") for row in rows] == [5] * n and tokens[2::6] == ["AGENT"] * n:
        try:
            return np.array([tokens[0::6], tokens[3::6], tokens[4::6]], float).T.copy()
        except ValueError:
            pass
    for row, lineno in zip(rows, row_lines):
        fields = row.split(",")
        if len(fields) != 6:
            raise MapFormatError(f"expected 6 columns, got {len(fields)}", path, lineno)
        if fields[2] != "AGENT":
            raise MapFormatError(
                f"OBJECT_TYPE must be AGENT, got {fields[2]!r}", path, lineno
            )
        try:
            float(fields[0]), float(fields[3]), float(fields[4])
        except ValueError as exc:
            raise MapFormatError(f"bad numeric field: {row}", path, lineno) from exc
    raise AssertionError("rows that pass every per-row check did not convert")


def read_scene(path) -> Scene:
    """Parse and validate a scene file. Malformed input raises
    MapFormatError naming the file line at fault, or ValidationError.

    One pass sorts the lines by prefix into metadata, map lines and
    trajectory rows, keeping each line's number; the map block and the
    rows then convert their numbers in one call each. Faults are raised
    in the order a line-by-line reader meets them, map faults after the
    metadata and row checks. Every row's track id and city must be the
    metadata's; the ValidationError names the first row that differs.
    """
    metadata: dict[str, str] = {}
    map_lines: list[str] = []
    map_at: list[int] = []  # file line of each map line
    rows: list[str] = []
    row_at: list[int] = []  # file line of each row
    header_seen = False
    fault = None  # (file line, message) of the first malformed line
    for lineno, line in enumerate(maps_mod.read_lines(path), start=1):
        if line.startswith("# map: "):
            map_lines.append(line[7:])
            map_at.append(lineno)
        elif line.startswith("#"):
            key, sep, value = line[1:].strip().partition(":")
            if not sep:
                fault = (lineno, "metadata line without ':'")
                break
            metadata[key.strip()] = value.strip()
        elif line == CSV_HEADER:
            header_seen = True
        elif not line.strip():
            continue
        elif header_seen:
            rows.append(line)
            row_at.append(lineno)
        else:
            fault = (lineno, "data row before column header")
            break
    # every row read lies before the fault, so a bad row is met first
    tokens = ",".join(rows).split(",") if rows else []
    table = _trajectory_table(rows, tokens, row_at, path)
    if fault is not None:
        raise MapFormatError(fault[1], path, fault[0])
    if "scene_id" not in metadata or "city" not in metadata:
        raise MapFormatError("missing scene_id/city metadata", path)
    if len(rows) != SCENE_SAMPLES:
        raise ValidationError(
            f"{path}: {len(rows)} trajectory rows, expected {SCENE_SAMPLES}"
        )
    sid, city = metadata["scene_id"], metadata["city"]
    if tokens[1::6] != [sid] * SCENE_SAMPLES or tokens[5::6] != [city] * SCENE_SAMPLES:
        k = next(
            k for k in range(SCENE_SAMPLES)
            if tokens[6 * k + 1] != sid or tokens[6 * k + 5] != city
        )
        raise ValidationError("row identity differs from metadata", path, row_at[k])
    scene = Scene(
        scene_id=metadata["scene_id"],
        city=metadata["city"],
        map_crop=parse_map_lines(map_lines, path=path, line_numbers=map_at),
        timestamps=table[:, 0],
        trajectory=table[:, 1:3],
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
    wall_ms: float  # own draw and finish time, plus a round share of planning and refinement
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


def _build_scene_records(
    maps: list[SceneMap], cfg: GenerationConfig, indices: list[int]
) -> Iterator[SceneRecord]:
    """Generate the scenes `indices` with bounded retries, in rounds, and
    yield their records in index order; each scene is pure in (maps, cfg,
    index), whatever else shares its rounds.

    The map choice and augmentation coin come from a per-scene stream that
    retries do not consume, so failed attempts cannot bias the
    original/augmented mix. Each round takes up to `CHUNK_SCENES`
    attempts: the retries of the round before, then the next scenes of
    `indices`. Attempt r of a scene draws from its own `[seed, index, r]`
    stream; the round plans and refines all of its drafts through one
    `plan_and_refine` call, then finishes each attempt through one
    `generate_scene` call, and a failed attempt with budget left joins the
    next round. A round's retries are at most its size, so they all fit in
    the next round: a scene is done `retry_budget` rounds after its first
    attempt at the latest, and a record waits at most `retry_budget + 1`
    rounds for the scenes before it. A scene's `wall_ms` is its own draw
    and finish time plus, for each round it was planned in, the planning
    and refinement time over the number of drafts planned.
    """
    queue = deque(indices)
    retries: list[tuple[int, int]] = []  # (index, attempt) for the next round
    picks: dict[int, tuple[SceneMap, bool]] = {}  # map and augmentation coin
    wall: dict[int, float] = {}  # ms
    done: dict[int, SceneRecord] = {}
    emitted = 0
    while retries or queue:
        fresh = min(CHUNK_SCENES - len(retries), len(queue))
        attempts = retries + [(queue.popleft(), 0) for _ in range(fresh)]
        retries = []
        drafts: dict[int, Draft] = {}
        outcomes: dict[int, Outcome] = {}
        for index, attempt in attempts:
            t0 = time.perf_counter()
            if attempt == 0:
                scene_rng = np.random.default_rng([cfg.seed, index])
                map_idx = int(scene_rng.integers(len(maps)))
                picks[index] = (maps[map_idx], bool(scene_rng.random() < cfg.augmented_fraction))
                wall[index] = 0.0
            base_map, augmented = picks[index]
            rng = np.random.default_rng([cfg.seed, index, attempt])
            try:
                drafts[index] = draw_scene(
                    base_map, rng, cfg, scene_id=f"{index:06d}",
                    rng_key=f"{cfg.seed}/{index}/{attempt}", force_augmented=augmented,
                )
            except (PlanningError, RefinementError, ValidationError) as exc:
                outcomes[index] = exc
            wall[index] += (time.perf_counter() - t0) * 1e3
        if drafts:
            t0 = time.perf_counter()
            outcomes.update(zip(drafts, plan_and_refine(list(drafts.values()), cfg)))
            share = (time.perf_counter() - t0) * 1e3 / len(drafts)
            for index in drafts:
                wall[index] += share
        for index, attempt in attempts:
            t0 = time.perf_counter()
            try:
                scene = generate_scene(drafts.get(index), outcomes[index], cfg)
            except (PlanningError, RefinementError, ValidationError) as exc:
                scene, reason = None, str(exc).replace(",", ";").replace("\n", " ")
            wall[index] += (time.perf_counter() - t0) * 1e3
            if scene is None and attempt < cfg.retry_budget:
                retries.append((index, attempt + 1))
                continue
            del picks[index]
            if scene is None:
                done[index] = SceneRecord(
                    index, scene_filename(index), "skipped", "-", "-",
                    attempt + 1, wall.pop(index), text=None, reason=reason,
                )
            else:
                status = "augmented" if scene.metadata["augmented"] == "true" else "original"
                done[index] = SceneRecord(
                    index, scene_filename(index), status, scene.city,
                    scene.metadata["plan_cost"], attempt + 1, wall.pop(index),
                    text=scene_to_text(scene),
                )
        while emitted < len(indices) and indices[emitted] in done:
            yield done.pop(indices[emitted])
            emitted += 1


_POOL_STATE: tuple[list[SceneMap], GenerationConfig] | None = None


def _pool_init(maps, cfg):
    global _POOL_STATE
    _POOL_STATE = (maps, cfg)


def _pool_build(indices):
    maps, cfg = _POOL_STATE
    return list(_build_scene_records(maps, cfg, indices))


def _peek_record(out_dir: Path, index: int, seed: int) -> SceneRecord | None:
    """Recover manifest data from an already-written scene file; a file made
    with another seed raises ConfigError instead of joining this dataset."""
    path = out_dir / scene_filename(index)
    if not path.exists():
        return None
    meta: dict[str, str] = {}
    for line in maps_mod.read_lines(path):
        if not line.startswith("#") or line.startswith("# map: "):
            break
        key, _, value = line[1:].partition(":")
        meta[key.strip()] = value.strip()
    rng_key = meta.get("rng_key", "")
    if rng_key.partition("/")[0] != str(seed):
        raise ConfigError(
            f"{path} has rng_key {rng_key!r}, not from seed {seed}; "
            "use another output_dir or delete the old scenes"
        )
    status = "augmented" if meta.get("augmented") == "true" else "original"
    return SceneRecord(
        index, path.name, status, meta.get("city", "-"),
        meta.get("plan_cost", "-"), 0, 0.0,
    )


def manifest_text(
    cfg: GenerationConfig,
    maps: list[SceneMap],
    manifest: DatasetManifest,
    extra_config: list[tuple[str, str]] | None = None,
) -> str:
    lines = ["# scenesynth dataset manifest"]
    for key, value in cfg.echo():
        lines.append(f"# config {key}: {value}")
    for key, value in extra_config or []:
        lines.append(f"# config {key}: {value}")
    lines.append(
        "# maps: " + ";".join(f"{m.city}={len(m.lanes)}" for m in maps)
    )
    lines.append(f"# count total: {len(manifest.records)}")
    for key in ("original", "augmented", "skipped"):
        lines.append(f"# count {key}: {manifest.counts[key]}")
    for city in sorted(manifest.per_city):
        lines.append(f"# count city {city}: {manifest.per_city[city]}")
    for rec in manifest.records:
        if rec.status == "skipped":
            lines.append(f"{rec.filename},skipped,-,-,{rec.reason}")
        else:
            lines.append(f"{rec.filename},{rec.status},{rec.city},{rec.cost},")
    return "\n".join(lines) + "\n"


def chunk_indices(todo: list[int], workers: int) -> list[list[int]]:
    """Cut the scene indices still to make into pool tasks, in order: a
    multiple of `workers` near-equal chunks (sizes differ by at most one,
    none above `CHUNK_SCENES`, none empty), so that no worker idles while
    another runs the last chunk: 200 scenes on 2 workers make 14 chunks
    of 14 or 15.
    """
    if not todo:
        return []
    n = -(-len(todo) // CHUNK_SCENES)
    n = min(-(-n // workers) * workers, len(todo))
    size, extra = divmod(len(todo), n)
    bounds = [k * size + min(k, extra) for k in range(n + 1)]
    return [todo[a:b] for a, b in zip(bounds, bounds[1:])]


def generate_dataset(
    maps: list[SceneMap],
    cfg: GenerationConfig,
    workers: int = 1,
    log=None,
    extra_config: list[tuple[str, str]] | None = None,
) -> DatasetManifest:
    """Write `cfg.n_scenes` scene files plus a manifest into the output dir.

    Already-written scene ids are skipped, so interrupted runs resume; a
    rerun over a complete dataset rewrites nothing. One worker makes the
    scenes still to make as one queue, writing each record as soon as the
    ones before it are done; more workers make the chunks of
    `chunk_indices`, one queue and one pool task each. Records are written
    and logged in index order. Output bytes do not depend on `workers` or
    on `CHUNK_SCENES`.
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
        cached = _peek_record(out_dir, index, cfg.seed)
        if cached is not None:
            records[index] = cached
        else:
            todo.append(index)

    chunks = chunk_indices(todo, workers) if workers > 1 else [todo]
    if len(chunks) <= 1:
        for rec in _build_scene_records(maps, cfg, todo):
            records[rec.index] = rec
            _finish_record(rec, out_dir, log)
    else:
        with multiprocessing.Pool(
            processes=workers, initializer=_pool_init, initargs=(maps, cfg)
        ) as pool:
            for built in pool.imap(_pool_build, chunks):
                for rec in built:
                    records[rec.index] = rec
                    _finish_record(rec, out_dir, log)

    ordered = [records[i] for i in range(cfg.n_scenes)]
    elapsed = time.perf_counter() - t0
    counts = {"original": 0, "augmented": 0, "skipped": 0}
    per_city: dict[str, int] = {}
    for rec in ordered:
        counts[rec.status] += 1
        if rec.status != "skipped":
            per_city[rec.city] = per_city.get(rec.city, 0) + 1
    manifest = DatasetManifest(out_dir / "manifest.txt", ordered, counts, per_city, elapsed)
    write_text_atomic(manifest.path, manifest_text(cfg, maps, manifest, extra_config))
    return manifest


def _finish_record(rec: SceneRecord, out_dir: Path, log) -> None:
    if rec.text is not None:
        write_text_atomic(out_dir / rec.filename, rec.text)
        rec.text = None
    if log is not None:
        log(
            f"scene={rec.filename} status={rec.status} cost={rec.cost} "
            f"attempts={rec.attempts} wall_ms={rec.wall_ms:.1f}"
        )
