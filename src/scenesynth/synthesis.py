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
counts. The config, its syntax and its checks live in module `config`;
the worker count is a run detail that no output file records.

An attempt at a scene has three phases: `draw_scene` makes every random
draw (warp, reference path, speeds, start), `plan_and_refine` plans
(`astar_plan`) and smooths the plan (`refine_trajectory`), each under
the config's one set of parameters, and `generate_scene` finishes
(place, crop, validate) or raises the attempt's error.
`generate_dataset` keeps the scenes still to make in one queue per
worker task (the whole to-do list with one worker, the chunks of
`chunk_indices` with more, each of at most `ROUND_SCENES`) and runs each
queue in rounds: a round takes up to `ROUND_SCENES` attempts, the
retries of the round before first and then the next scenes of the
queue, draws each, plans and refines all of them in one call each, and
finishes each; a failed attempt is retried in the next round. Each
attempt draws from its own `[seed, index, attempt]` stream, and neither
a plan nor its refinement depends on its batch, so the bytes do not
depend on the round size or the worker count. The queue's own loop (the
worker's, with more than one) writes each scene file as it emits the
scene's record, in index order; the parent holds only indices and
records without text, logs them and writes the manifest in index order,
and on a resume reads each kept scene file through `read_scene`.
Every plan of a round has the config's `dt` and `n_steps + 1` states, so
one smoothing system, which `GenerationConfig` checks, refines the round.
The refined trajectory is already on the scene grid of `SCENE_SAMPLES`
(module `refine`): the fine step of refinement is `FINE_DT`, and the
planner step `dt` is a whole number of it.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .augment import TurnTransformParams, apply_transform, sample_transform_params
from .config import GenerationConfig
from .errors import (
    ConfigError,
    MapFormatError,
    PlanningError,
    PlanningFailureError,
    RefinementError,
    SceneSynthError,
    ValidationError,
)
from .geometry import MOVING_STEP
from .manifest import MANIFEST_FILE, manifest_fields, manifest_text, scene_filename
from .maps import (
    ReferencePath,
    SceneMap,
    crop_map,
    map_to_lines,
    parse_map_lines,
    write_text_atomic,
)
from .planner import CoarsePlan, astar_plan, sample_speed_targets
from .refine import FINE_DT, SCENE_SAMPLES, refine_trajectory
from . import maps as maps_mod

# kinematic sanity bounds for emitted trajectories
MAX_SPEED = 25.0
ACCEL_BOUNDS = (-5.0, 3.0)

CSV_HEADER = "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME"

# the scene grid, a constant of the format: the TIMESTAMP text of each row,
# and its floats as parsed from that text (0.3, not 3 * 0.1)
TIMESTAMP_TEXT = tuple(f"{k * FINE_DT:.1f}" for k in range(SCENE_SAMPLES))
SCENE_TIMES = np.array(TIMESTAMP_TEXT, float)
SCENE_TIMES.setflags(write=False)

# the most attempts that one round plans and refines together, and the most
# scene indices per pool task: each planner call has a fixed cost, which a
# larger round shares among more scenes. Output bytes do not depend on it
ROUND_SCENES = 64

# the half-extent (m) of each scene's map crop around its trajectory's
# middle sample, and the retries of a scene before it is skipped
CROP_RADIUS = 100.0
RETRY_BUDGET = 5


@dataclass(frozen=True)
class Scene:
    scene_id: str
    city: str
    map_crop: SceneMap
    trajectory: np.ndarray  # (50, 2), at SCENE_TIMES
    metadata: dict[str, str] = field(default_factory=dict)


def validate_scene(scene: Scene) -> None:
    """Check every scene invariant; raises ValidationError. The crop's lane
    graph is not checked: a crop of a valid map is valid (`crop_map`), and
    a read crop is checked as it is parsed (`maps.make_map`)."""
    sid = scene.scene_id
    if scene.trajectory.shape != (SCENE_SAMPLES, 2):
        raise ValidationError(f"scene {sid}: trajectory shape {scene.trajectory.shape}")
    if not np.isfinite(scene.trajectory).all():
        raise ValidationError(f"scene {sid}: non-finite trajectory")
    steps = np.hypot(*np.diff(scene.trajectory, axis=0).T)
    if not (steps > MOVING_STEP).any():
        raise ValidationError(
            f"scene {sid}: all-stationary trajectory, no step longer than {MOVING_STEP} m"
        )
    speeds = steps / FINE_DT
    if speeds.max() > MAX_SPEED + 1e-9 or speeds.min() < -1e-9:
        raise ValidationError(
            f"scene {sid}: speed {speeds.max():.2f} outside [0, {MAX_SPEED}]"
        )
    accels = np.diff(speeds) / FINE_DT
    if accels.min() < ACCEL_BOUNDS[0] - 1e-9 or accels.max() > ACCEL_BOUNDS[1] + 1e-9:
        raise ValidationError(
            f"scene {sid}: acceleration outside {ACCEL_BOUNDS}"
        )
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


def draw_warp(base_map: SceneMap, rng, cfg: GenerationConfig) -> TurnTransformParams:
    """The warp of `base_map` drawn from `rng`: the anchor lane, its
    reference path, then the warp parameters on that path."""
    lane_ids = base_map.sorted_ids()
    anchor_lane = lane_ids[int(rng.integers(len(lane_ids)))]
    anchor_path = maps_mod.build_reference_path(base_map, anchor_lane, cfg.path_min_length, rng)
    return sample_transform_params(rng, anchor_path)


@dataclass(frozen=True)
class Draft:
    """What one attempt at a scene draws before planning: the metadata so
    far, the (possibly warped) map, the reference path, and the start
    arc-length, start velocity and desired velocity that the planner takes
    with the path."""

    scene_id: str
    city: str
    metadata: dict[str, str]
    work_map: SceneMap
    path: ReferencePath
    s0: float
    v0: float
    v_d: float


def draw_scene(
    base_map: SceneMap,
    rng: np.random.Generator,
    cfg: GenerationConfig,
    scene_id: str,
    rng_key: str,
    augmented: bool,
) -> Draft:
    """Make every draw of one attempt at a scene on `base_map`, warped when
    `augmented` (a coin the dataset layer draws once per scene, so that
    retries cannot bias the original/augmented mix).

    Draw order from `rng`: (if augmenting) the anchor lane, anchor walk,
    and warp parameters, then the driven lane and its walk, the speed
    targets, and the start position. Identical inputs always yield an
    identical draft.
    """
    metadata: dict[str, str] = {
        "scene_id": scene_id,
        "city": base_map.city,
        "augmented": "true" if augmented else "false",
        "rng_key": rng_key,
    }
    work_map = base_map
    if augmented:
        params = draw_warp(base_map, rng, cfg)
        work_map = apply_transform(base_map, params)
        metadata.update(params.metadata())

    lane_ids = work_map.sorted_ids()
    drive_lane = lane_ids[int(rng.integers(len(lane_ids)))]
    path = maps_mod.build_reference_path(work_map, drive_lane, cfg.path_min_length, rng)
    v_d, v0 = sample_speed_targets(rng)

    t_end = cfg.planner.n_steps * cfg.dt
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
    return Draft(scene_id, base_map.city, metadata, work_map, path, s0, v0, v_d)


# a plan and its refined arc-lengths on the scene grid, or the attempt's error
Outcome = tuple[CoarsePlan, np.ndarray] | SceneSynthError


def plan_and_refine(drafts: list[Draft], cfg: GenerationConfig) -> list[Outcome]:
    """Plan the drafts in one `astar_plan` call and refine their plans in
    one `refine_trajectory` call, each under the config's one set of
    parameters: per draft, its plan and refined arc-lengths, or the error
    that its planning or refinement ended in."""
    outcomes: list[Outcome] = astar_plan(
        [(d.path, d.s0, d.v0, d.v_d) for d in drafts], cfg.planner
    )
    planned = [k for k, plan in enumerate(outcomes) if isinstance(plan, CoarsePlan)]
    if planned:
        refined = refine_trajectory(
            [(outcomes[k], drafts[k].v0, drafts[k].s0) for k in planned], cfg.refinement
        )
        for k, s_fine in zip(planned, refined):
            outcomes[k] = s_fine if isinstance(s_fine, RefinementError) else (outcomes[k], s_fine)
    return outcomes


def generate_scene(draft: Draft | None, outcome: Outcome) -> Scene:
    """Finish one attempt: raise the error that its draw, plan or
    refinement ended in (`outcome`, with no draft after a failed draw), or
    place the refined plan on the path, crop the map to `CROP_RADIUS`
    around its middle sample and validate the scene."""
    if isinstance(outcome, SceneSynthError):
        raise outcome
    (plan, s_fine), path = outcome, draft.path
    xy = path.xy_at(s_fine[:SCENE_SAMPLES])

    cx, cy = xy[SCENE_SAMPLES // 2].tolist()
    crop = crop_map(draft.work_map, (cx, cy), CROP_RADIUS)
    metadata = {
        **draft.metadata,
        "plan_cost": repr(plan.total_cost),
        "drive_lanes": ";".join(path.lane_ids),
        "crop_center_x": repr(cx),
        "crop_center_y": repr(cy),
        "crop_radius": repr(CROP_RADIUS),
    }
    scene = Scene(draft.scene_id, draft.city, crop, xy, metadata)
    validate_scene(scene)
    return scene


def scene_to_text(scene: Scene) -> str:
    """The scene file's text. The trajectory rows are one `%` template of
    `TIMESTAMP_TEXT`, the escaped scene id and city, and `X`, `Y` `%.9f`
    (the strings of `f"{v:.9f}"`)."""
    lines = [f"# {k}: {v}" for k, v in scene.metadata.items()]
    lines.append("# map: " + "\n# map: ".join(map_to_lines(scene.map_crop)))
    lines.append(CSV_HEADER)
    sid, city = (text.replace("%", "%%") for text in (scene.scene_id, scene.city))
    template = "".join(f"{t},{sid},AGENT,%.9f,%.9f,{city}\n" for t in TIMESTAMP_TEXT)
    rows = template % tuple(scene.trajectory.ravel().tolist())
    return "\n".join(lines) + "\n" + rows


def _trajectory_table(rows: list[str], tokens: list[str], row_lines: list[int], path) -> np.ndarray:
    """The (n, 2) X, Y values of CSV rows (`tokens`: the rows comma-split as
    one), converted in one call; MapFormatError names the first row at fault."""
    if [row.count(",") for row in rows] == [5] * len(rows):
        try:
            return np.array([tokens[3::6], tokens[4::6]], float).T.copy()
        except ValueError:
            pass
    for row, lineno in zip(rows, row_lines):
        fields = row.split(",")
        if len(fields) != 6:
            raise MapFormatError(f"expected 6 columns, got {len(fields)}", path, lineno)
        try:
            float(fields[3]), float(fields[4])
        except ValueError as exc:
            raise MapFormatError(f"bad numeric field: {row}", path, lineno) from exc
    raise AssertionError("rows that pass every per-row check did not convert")


def _layout_fault(text: str, path) -> MapFormatError:
    """The MapFormatError of the first line of `text` that departs from
    `scene_to_text`'s layout, met line by line: before the map block, a
    line that is not a `#` metadata line with a ':'; inside it, a line
    without the `# map: ` prefix that is not the header. A text that ends
    before the block or the header names no line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    in_block = False
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("# map: "):
            in_block = True
        elif in_block and line == CSV_HEADER:
            raise AssertionError("a scene file in the layout was not cut")
        elif in_block:
            return MapFormatError(
                f"expected a '# map: ' line or the column header, got {line!r}", path, lineno
            )
        elif line[:1] != "#" or ":" not in line:
            return MapFormatError(
                f"expected a '# key: value' line or the map block, got {line!r}", path, lineno
            )
    return MapFormatError(
        "missing column header after the map block" if in_block else "missing map block", path
    )


def _layout_parts(text: str, path):
    """The parts of a scene file cut at the block boundaries of
    `scene_to_text`'s layout (`#` metadata lines with a ':', one
    contiguous `# map: ` block, the header, then the rows): metadata, map
    lines, their file lines, rows and their file lines. Raises the
    `_layout_fault` of a text that departs from the layout."""
    opens = text.startswith("# map: ")
    start = -1 if opens else text.find("\n# map: ")  # the newline before the block
    end = text.find(f"\n{CSV_HEADER}\n", max(start, 0))
    if end < 0 and text.endswith(f"\n{CSV_HEADER}"):  # no row after the header
        end = len(text) - len(CSV_HEADER) - 1
    if (start < 0 and not opens) or end < 0:
        raise _layout_fault(text, path)
    head = text[:start].split("\n") if start >= 0 else []
    metadata: dict[str, str] = {}
    for line in head:
        key, sep, value = line[1:].strip().partition(":")
        if line[:1] != "#" or not sep:
            raise _layout_fault(text, path)
        metadata[key.strip()] = value.strip()
    block = text[start + 8 : end]
    map_lines = block.split("\n# map: ")
    if block.count("\n") != len(map_lines) - 1:
        raise _layout_fault(text, path)
    rows = text[end + len(CSV_HEADER) + 2 :].split("\n")
    if rows[-1] == "":
        rows.pop()
    first = len(head) + 1  # file line of the first map line
    header = first + len(map_lines)
    row_at = range(header + 1, header + 1 + len(rows))
    return metadata, map_lines, range(first, header), rows, row_at


def read_scene_text(path) -> str:
    """The text of a scene file as `read_scene` parses it: read once,
    without newline translation, so it encodes back to the file's bytes."""
    return maps_mod.read_text(path, newline="")


def read_scene(path, text: str | None = None) -> Scene:
    """Parse and validate a scene file in `scene_to_text`'s layout. Every
    fault is a MapFormatError or a ValidationError that names `path`, and
    the file line at fault where there is one.

    The layout is the read contract: `#` metadata lines with a ':', then
    one contiguous block of `# map: ` lines, then the `CSV_HEADER` line;
    every line after the header is a trajectory row. The text is read
    once, without newline translation (a `\\r` before a line's `\\n` is
    part of the line, so a CRLF file departs from the layout at its
    header), and cut at its block boundaries (`_layout_parts`: a few
    `str.find`s and one split of the map block); the first line that
    departs from the layout (a blank or comment line, a metadata line
    after the block, a row before the header) is a MapFormatError naming
    it. Faults then come in file order: missing `scene_id`/`city`
    metadata; the map block, in the order of `maps.parse_map_lines`; the
    rows (a row's column count or X/Y number, then the row count, then
    the first row whose TIMESTAMP, TRACK_ID, OBJECT_TYPE or CITY_NAME is
    not `TIMESTAMP_TEXT`'s, the metadata's scene id, `AGENT` or the city);
    last `validate_scene`. The rows and the map block convert their
    numbers in one call each.

    Files that share a lane record share its LaneSegment, through the
    lane cache of `maps.parse_map_lines`; `validate_scene` still checks
    every scene. `text`, when given, is the file's `read_scene_text`,
    which the caller read once to use it besides the parse; the file is
    then not read again.
    """
    if text is None:
        text = read_scene_text(path)
    metadata, map_lines, map_at, rows, row_at = _layout_parts(text, path)
    if "scene_id" not in metadata or "city" not in metadata:
        raise MapFormatError("missing scene_id/city metadata", path)
    map_crop = parse_map_lines(map_lines, path=path, line_numbers=map_at)
    tokens = ",".join(rows).split(",") if rows else []
    table = _trajectory_table(rows, tokens, row_at, path)
    if len(rows) != SCENE_SAMPLES:
        raise ValidationError(f"{len(rows)} trajectory rows, expected {SCENE_SAMPLES}", path)
    sid, city, n = metadata["scene_id"], metadata["city"], SCENE_SAMPLES
    # the text of each fixed column in each row, by column index
    fixed = {0: TIMESTAMP_TEXT, 1: (sid,) * n, 2: ("AGENT",) * n, 5: (city,) * n}
    faults = [(k, c) for c, texts in fixed.items() if tuple(tokens[c::6]) != texts
              for k in range(n) if tokens[6 * k + c] != texts[k]]
    if faults:
        k, c = min(faults)  # the first row at fault, and its first column
        got, name = tokens[6 * k + c], CSV_HEADER.split(",")[c]
        raise ValidationError(f"{name} {got!r}, expected {fixed[c][k]!r}", path, row_at[k])
    scene = Scene(sid, city, map_crop, table, metadata)
    try:
        validate_scene(scene)
    except ValidationError as exc:  # a scene invariant names only the scene id
        raise ValidationError(str(exc), path) from None
    return scene


@dataclass
class SceneRecord:
    index: int
    filename: str
    status: str  # original | augmented | skipped
    city: str
    cost: str
    attempts: int
    wall_ms: float  # own draw and finish time, plus a round share of planning and refinement
    reason: str = ""


def _build_scene_records(
    maps: list[SceneMap], cfg: GenerationConfig, indices: list[int]
) -> Iterator[SceneRecord]:
    """Generate the scenes `indices` with bounded retries, in rounds, and
    yield their records in index order, writing each made scene's file into
    `cfg.output_dir` just before its record is yielded; each scene is pure
    in (maps, cfg, index), whatever else shares its rounds.

    Every attempt takes the map choice and augmentation coin from the first
    two draws of the scene's own `[seed, index]` stream, the same values
    each time, so failed attempts cannot bias the original/augmented mix.
    A made scene's text waits beside its record until the record is
    emitted. Each round takes up to `ROUND_SCENES` attempts: the retries
    of the round before, then the next scenes of `indices`. Attempt r of
    a scene draws from its own `[seed, index, r]` stream; the round plans
    and refines all of its drafts through one `plan_and_refine` call, then
    finishes each attempt through one `generate_scene` call, and a failed
    attempt with budget left joins the next round. A round's retries are
    at most its size, so they all fit in the next round: a scene is done
    `RETRY_BUDGET` rounds after its first attempt at the latest, and a
    record waits at most `RETRY_BUDGET + 1` rounds for the scenes before
    it. A scene's `wall_ms` is its own draw and finish time plus, for each
    round it was planned in, the planning and refinement time over the
    number of drafts planned; serializing and writing the scene are not
    part of it.
    """
    queue = deque(indices)
    retries: list[tuple[int, int]] = []  # (index, attempt) for the next round
    wall: dict[int, float] = {}  # ms
    done: dict[int, tuple[SceneRecord, str | None]] = {}  # record and scene text
    emitted = 0
    while retries or queue:
        fresh = min(ROUND_SCENES - len(retries), len(queue))
        attempts = retries + [(queue.popleft(), 0) for _ in range(fresh)]
        retries = []
        drafts: dict[int, Draft] = {}
        outcomes: dict[int, Outcome] = {}
        for index, attempt in attempts:
            t0 = time.perf_counter()
            scene_rng = np.random.default_rng([cfg.seed, index])
            base_map = maps[int(scene_rng.integers(len(maps)))]
            augmented = bool(scene_rng.random() < cfg.augmented_fraction)
            rng = np.random.default_rng([cfg.seed, index, attempt])
            try:
                drafts[index] = draw_scene(
                    base_map, rng, cfg, f"{index:06d}", f"{cfg.seed}/{index}/{attempt}", augmented
                )
            except (PlanningError, RefinementError, ValidationError) as exc:
                outcomes[index] = exc
            wall[index] = wall.get(index, 0.0) + (time.perf_counter() - t0) * 1e3
        if drafts:
            t0 = time.perf_counter()
            outcomes.update(zip(drafts, plan_and_refine(list(drafts.values()), cfg)))
            share = (time.perf_counter() - t0) * 1e3 / len(drafts)
            for index in drafts:
                wall[index] += share
        for index, attempt in attempts:
            t0 = time.perf_counter()
            try:
                scene = generate_scene(drafts.get(index), outcomes[index])
            except (PlanningError, RefinementError, ValidationError) as exc:
                scene, reason = None, str(exc).replace(",", ";").replace("\n", " ")
            wall[index] += (time.perf_counter() - t0) * 1e3
            if scene is None and attempt < RETRY_BUDGET:
                retries.append((index, attempt + 1))
            elif scene is None:
                done[index] = SceneRecord(
                    index, scene_filename(index), "skipped", "-", "-",
                    attempt + 1, wall.pop(index), reason,
                ), None
            else:
                done[index] = SceneRecord(
                    index, scene_filename(index), *manifest_fields(scene.metadata),
                    attempt + 1, wall.pop(index),
                ), scene_to_text(scene)
        while emitted < len(indices) and indices[emitted] in done:
            rec, text = done.pop(indices[emitted])
            if text is not None:
                write_text_atomic(Path(cfg.output_dir) / rec.filename, text)
            yield rec
            emitted += 1


_POOL_STATE: tuple[list[SceneMap], GenerationConfig] | None = None


def _pool_init(maps, cfg):
    global _POOL_STATE
    _POOL_STATE = (maps, cfg)


def _pool_build(indices):
    maps, cfg = _POOL_STATE
    return list(_build_scene_records(maps, cfg, indices))


def chunk_indices(todo: list[int], workers: int) -> list[list[int]]:
    """Cut the scene indices still to make into pool tasks, in order: a
    multiple of `workers` near-equal chunks (sizes differ by at most one,
    none above `ROUND_SCENES`, none empty), so that no worker idles while
    another runs the last chunk, and each chunk plans in rounds as full as
    one worker's: 200 scenes on 2 workers make 4 chunks of 50.
    """
    if not todo:
        return []
    n = -(-len(todo) // ROUND_SCENES)
    n = min(-(-n // workers) * workers, len(todo))
    size, extra = divmod(len(todo), n)
    bounds = [k * size + min(k, extra) for k in range(n + 1)]
    return [todo[a:b] for a, b in zip(bounds, bounds[1:])]


def generate_dataset(
    maps: list[SceneMap],
    cfg: GenerationConfig,
    workers: int = 1,
    log=None,
) -> list[SceneRecord]:
    """Write `cfg.n_scenes` scene files plus a manifest into the output dir,
    and return the record of each scene in index order.

    Each map's lane graph is checked first (`SceneMap.validate`), once per
    run: a fault is a ValidationError, raised before anything is written.
    Already-written scene ids are kept, so interrupted runs resume; a
    rerun over a complete dataset rewrites nothing. Each kept file is read
    and validated in full (`read_scene`), and then its seed is checked: a
    file that no longer reads stops the run with its read error, and a
    file made with another seed with a ConfigError, before anything is
    written.

    One worker makes the scenes still to make as one queue; more workers
    make the chunks of `chunk_indices`, one queue and one pool task each,
    on at most one process per chunk.
    The queue's loop (`_build_scene_records`) writes each scene file in
    index order as it emits the record; this loop stores and logs the
    records in index order, and writes the manifest. Output bytes do not
    depend on `workers` or `ROUND_SCENES`.
    """
    if not maps:
        raise ConfigError("need at least one map")
    for m in maps:
        m.validate()
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output dir {out_dir} not writable: {exc}") from exc

    records: dict[int, SceneRecord] = {}
    todo: list[int] = []
    for index in range(cfg.n_scenes):
        path = out_dir / scene_filename(index)
        if not path.exists():
            todo.append(index)
            continue
        meta = read_scene(path).metadata
        rng_key = meta.get("rng_key", "")
        if rng_key.partition("/")[0] != str(cfg.seed):
            raise ConfigError(
                f"{path} has rng_key {rng_key!r}, not from seed {cfg.seed}; "
                "use another output_dir or delete the old scenes"
            )
        records[index] = SceneRecord(index, path.name, *manifest_fields(meta), 0, 0.0)

    chunks = chunk_indices(todo, workers) if workers > 1 else [todo]
    pooled = len(chunks) > 1
    pool = (
        multiprocessing.Pool(min(workers, len(chunks)), _pool_init, (maps, cfg))
        if pooled else nullcontext()
    )
    with pool:
        built = (
            (rec for recs in pool.imap(_pool_build, chunks) for rec in recs)
            if pooled else _build_scene_records(maps, cfg, todo)
        )
        for rec in built:
            records[rec.index] = rec
            if log is not None:
                log(
                    f"scene={rec.filename} status={rec.status} cost={rec.cost} "
                    f"attempts={rec.attempts} wall_ms={rec.wall_ms:.1f}"
                )

    ordered = [records[i] for i in range(cfg.n_scenes)]
    maps_text = ";".join(f"{m.city}={len(m.lanes)}" for m in maps)
    rows = [(rec.filename, rec.status, rec.city, rec.cost, rec.reason) for rec in ordered]
    write_text_atomic(out_dir / MANIFEST_FILE, manifest_text(cfg, maps_text, rows))
    return ordered
