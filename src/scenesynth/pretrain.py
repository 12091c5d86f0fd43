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
masked polyline's placeholder is its target's first point. The sample
carries the visible/masked partition explicitly (no in-band mask tokens),
so a trainer can choose whether placeholders ever reach its encoder.

A sample is a pure function of its scene and the `mask` settings, so its
file holds no floats: it names the scene and the settings, and the task
and masked ids drawn from them (`draw_masked`)::

    # format: scenesynth-sample v2
    # scene: scene_000002.csv
    # scene_sha256: 9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08
    # seed: 7
    # mask_task: combined
    # map_fraction: 0.7
    # mask_ratio: 0.5
    # task: map_recon
    # masked: 2;5

Values are in config syntax (module `config`), floats written with repr;
`scene_sha256` is the hash of the scene file's bytes. The scene is found
through the samples manifest, `manifest.txt` beside the samples, whose
`# scenes: ` line names the scenes directory relative to the samples
directory. `read_sample` remakes the sample from the scene, bit for bit.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path, PurePath

import numpy as np

from .analysis import FORECAST_MODES
from .config import FLOAT, INT
from .errors import MapFormatError, MaskingError, ValidationError
from .maps import read_lines, write_text_atomic
from .synthesis import SCENE_TIMES, Scene, read_scene, read_scene_text

DEFAULT_MASK_RATIO = 0.5
DEFAULT_MAP_FRACTION = 0.7
DEFAULT_REG_WEIGHT = 0.05

# values of the `kind` column
LANE, TRAJECTORY = 0, 1

MASK_TASKS = ("map", "traj", "combined")
SAMPLE_FORMAT = "scenesynth-sample v2"
SAMPLES_MANIFEST = "manifest.txt"
SAMPLES_MANIFEST_FORMAT = "scenesynth-samples v1"


class ReconTask(enum.Enum):
    MAP = "map_recon"
    TRAJECTORY = "traj_recon"


@dataclass(frozen=True)
class PretrainSample:
    visible: np.ndarray  # (m, 8) rows of the unmasked polylines
    masked: tuple[int, ...]  # sorted ids of the masked polylines
    targets: tuple[np.ndarray, ...]  # (k, 2) points of each, in `masked` order
    task: ReconTask


@dataclass(frozen=True)
class MaskSettings:
    """The settings of one `mask` run; with a scene they fix its sample."""

    seed: int
    mask_task: str  # one of MASK_TASKS
    map_fraction: float
    mask_ratio: float


@dataclass(frozen=True)
class SampleRef:
    """What a sample file holds: its scene's file name and the sha256 of
    its bytes, the settings, and the task and sorted masked ids drawn."""

    scene: str
    scene_sha256: str
    settings: MaskSettings
    task: ReconTask
    masked: tuple[int, ...]


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
    out[n_lane_rows:, 6], out[n_lane_rows:, 7] = SCENE_TIMES[:-1], SCENE_TIMES[1:]
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


def _map_draw(n_lanes: int, ratio: float, rng: np.random.Generator) -> list[int]:
    """The indices of round(ratio * n_lanes) of `n_lanes` lanes, drawn
    uniformly at random (half rounds up), and at least one, so that every
    sample has a target."""
    if not 0.0 <= ratio <= 1.0:
        raise MaskingError(f"mask ratio must lie in [0, 1], got {ratio}")
    if n_lanes < 2:
        raise MaskingError(f"map masking needs >= 2 lanes, got {n_lanes}")
    n_mask = max(1, int(math.floor(ratio * n_lanes + 0.5)))
    return rng.choice(n_lanes, size=n_mask, replace=False).tolist()


def mask_map(vectors: np.ndarray, ratio: float, rng: np.random.Generator) -> PretrainSample:
    """Mask round(ratio * n_lanes) lane polylines (`_map_draw`); the
    trajectory stays visible."""
    lane_ids = _polyline_ids(vectors, LANE)
    chosen = [lane_ids[i] for i in _map_draw(len(lane_ids), ratio, rng)]
    return _split(vectors, chosen, ReconTask.MAP)


def mask_trajectory(vectors: np.ndarray) -> PretrainSample:
    """Mask the single trajectory, retaining its start point."""
    traj_ids = _polyline_ids(vectors, TRAJECTORY)
    if len(traj_ids) != 1:
        raise MaskingError(
            f"trajectory masking needs exactly 1 trajectory, got {len(traj_ids)}"
        )
    return _split(vectors, traj_ids, ReconTask.TRAJECTORY)


def _draw_task(settings: MaskSettings, scene: Scene, path) -> tuple[bool, np.random.Generator]:
    """Whether `scene`'s sample masks the map, and the rng after that draw.

    The rng is keyed on `[seed, scene id]`, so a sample does not depend
    on which other scene files sit beside its scene; a scene id that is
    not a number is a MapFormatError naming `path`. `combined` draws the
    map task with probability `map_fraction`; a crop of fewer than two
    lanes cannot be map-masked, so under every task it gets the
    trajectory sample.
    """
    sid = scene.scene_id
    if not (sid.isascii() and sid.isdigit()):
        raise MapFormatError(f"scene id {sid!r} is not a number", path)
    rng = np.random.default_rng([settings.seed, int(sid)])
    n_lanes = len(scene.map_crop.lanes)
    if settings.mask_task == "combined":
        return rng.random() < settings.map_fraction and n_lanes >= 2, rng
    return settings.mask_task == "map" and n_lanes >= 2, rng


def draw_masked(
    settings: MaskSettings, scene: Scene, path=None
) -> tuple[ReconTask, tuple[int, ...]]:
    """The task and sorted masked polyline ids of `scene`'s sample, drawn
    from its lane count (`_draw_task`, then `_map_draw` as in `mask_map`);
    the trajectory's id is the crop's lane count."""
    use_map, rng = _draw_task(settings, scene, path)
    n_lanes = len(scene.map_crop.lanes)
    if use_map:
        return ReconTask.MAP, tuple(sorted(_map_draw(n_lanes, settings.mask_ratio, rng)))
    return ReconTask.TRAJECTORY, (n_lanes,)


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
    if len(preds) != FORECAST_MODES:
        raise ValueError(f"need exactly {FORECAST_MODES} candidate modes, got {len(preds)}")
    target = np.asarray(target, float)
    losses = np.array([_pointwise_l1(p, target) for p in preds])
    best = int(np.argmin(losses))
    rest = np.delete(losses, best)
    return float(losses[best] + reg_weight * rest.mean()), best


def scene_sha256(text: str) -> str:
    """The sha256 of a scene file's bytes, from the text that `read_scene`
    parsed (`read_scene_text`), which encodes back to those bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _format(text: str) -> str:
    if text != SAMPLE_FORMAT:
        raise ValueError(f"{text!r} is not {SAMPLE_FORMAT!r}; re-run `scenesynth mask`")
    return text


def _scene_name(text: str) -> str:
    if not (text.startswith("scene_") and text.endswith(".csv")) or "/" in text or "\0" in text:
        raise ValueError(f"{text!r} is not a scene file name")
    return text


def parse_seed(text: str) -> int:
    """A seed: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return value


def _mask_task(text: str) -> str:
    if text not in MASK_TASKS:
        raise ValueError(f"{text!r} is not one of {', '.join(MASK_TASKS)}")
    return text


def parse_fraction(text: str) -> float:
    """A map fraction or mask ratio: a number in [0, 1] (not nan)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {text}")
    return value


def _ids(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(";"))


# the key of each line of a sample file, in file order, and its value's parser
_HEADER = (
    ("format", _format),
    ("scene", _scene_name),
    ("scene_sha256", str),  # any other hash fails the comparison in `read_sample`
    ("seed", parse_seed),
    ("mask_task", _mask_task),
    ("map_fraction", parse_fraction),
    ("mask_ratio", parse_fraction),
    ("task", ReconTask),
    ("masked", _ids),
)
_LINE = {key: lineno for lineno, (key, _) in enumerate(_HEADER, start=1)}


def sample_to_text(ref: SampleRef) -> str:
    """The sample file text of `ref`: one `# key: value` line per field."""
    s = ref.settings
    values = (
        SAMPLE_FORMAT, ref.scene, ref.scene_sha256, INT.format(s.seed), s.mask_task,
        FLOAT.format(s.map_fraction), FLOAT.format(s.mask_ratio), ref.task.value,
        ";".join(map(str, ref.masked)),
    )
    return "".join(f"# {key}: {value}\n" for (key, _), value in zip(_HEADER, values))


def write_sample(ref: SampleRef, path) -> None:
    write_text_atomic(path, sample_to_text(ref))


def write_samples_manifest(samples_dir, scenes_dir) -> None:
    """Write the samples manifest of `samples_dir`, which names `scenes_dir`
    relative to it, both resolved, in POSIX form."""
    rel = os.path.relpath(Path(scenes_dir).resolve(), Path(samples_dir).resolve())
    write_text_atomic(
        Path(samples_dir) / SAMPLES_MANIFEST,
        f"# format: {SAMPLES_MANIFEST_FORMAT}\n# scenes: {PurePath(rel).as_posix()}\n",
    )


def _scenes_dir(sample_path) -> Path:
    """The scenes directory that the samples manifest beside `sample_path`
    names; raises MapFormatError when it cannot be read or is malformed."""
    samples_dir = Path(sample_path).resolve().parent
    manifest = samples_dir / SAMPLES_MANIFEST
    try:
        lines = read_lines(manifest)
    except OSError as exc:
        raise MapFormatError(f"samples manifest {manifest}: {exc.strerror}", sample_path) from None
    if lines[:1] != [f"# format: {SAMPLES_MANIFEST_FORMAT}"]:
        raise MapFormatError(f"format line is not '{SAMPLES_MANIFEST_FORMAT}'", manifest, 1)
    if len(lines) != 2 or not lines[1].startswith("# scenes: ") or lines[1] == "# scenes: ":
        raise MapFormatError("expected one '# scenes: <directory>' line", manifest, 2)
    return (samples_dir / lines[1][len("# scenes: "):]).resolve()


def _read_ref(path) -> SampleRef:
    """The header of a sample file. Each fault is a MapFormatError naming
    its line: a missing, misnamed or extra line, a value that does not
    parse, or a line that is not as `sample_to_text` writes it."""
    lines = read_lines(path)
    values = []
    for lineno, (key, parse) in enumerate(_HEADER, start=1):
        if lineno > len(lines):
            raise MapFormatError(f"missing '# {key}:' line", path, lineno)
        name, colon, text = lines[lineno - 1].partition(":")
        if name != f"# {key}" or not colon:
            raise MapFormatError(f"expected a '# {key}:' line", path, lineno)
        try:
            values.append(parse(text.strip()))
        except ValueError as exc:
            raise MapFormatError(f"bad {key}: {exc}", path, lineno) from None
    if len(lines) > len(_HEADER):
        raise MapFormatError("line after the sample header", path, len(_HEADER) + 1)
    _, scene, sha, seed, mask_task, map_fraction, mask_ratio, task, masked = values
    ref = SampleRef(scene, sha, MaskSettings(seed, mask_task, map_fraction, mask_ratio),
                    task, masked)
    for lineno, (line, want) in enumerate(zip(lines, sample_to_text(ref).splitlines()), 1):
        if line != want:
            raise MapFormatError(f"not as written: expected {want!r}", path, lineno)
    return ref


def read_sample(path) -> PretrainSample:
    """Remake the sample of a sample file from its scene, bit for bit.

    Checks, in order: the header (`_read_ref`); that the samples manifest
    and the scene file can be read; the scene bytes' sha256; the scene
    (`read_scene`); that the task and masked ids drawn on it (`_draw_task`,
    then `mask_map` or `mask_trajectory`) are the header's. Each fault is
    a SceneSynthError naming the sample file."""
    ref = _read_ref(path)
    scene_path = _scenes_dir(path) / ref.scene
    try:
        text = read_scene_text(scene_path)
    except OSError as exc:
        raise MapFormatError(f"scene file {scene_path}: {exc.strerror}", path) from None
    except MapFormatError as exc:  # not UTF-8: it names the scene alone
        raise MapFormatError(f"scene file {exc}", path) from None
    if scene_sha256(text) != ref.scene_sha256:
        raise ValidationError(f"scene {scene_path} is not the scene that was masked", path,
                              _LINE["scene_sha256"])
    scene = read_scene(scene_path, text)
    use_map, rng = _draw_task(ref.settings, scene, scene_path)
    vectors = vectorize_scene(scene)
    sample = (mask_map(vectors, ref.settings.mask_ratio, rng) if use_map
              else mask_trajectory(vectors))
    if (sample.task, sample.masked) != (ref.task, ref.masked):
        raise ValidationError(
            f"task and masked ids differ from those drawn on scene {scene_path}: "
            f"{sample.task.value} {';'.join(map(str, sample.masked))}",
            path,
            _LINE["task" if sample.task is not ref.task else "masked"],
        )
    return sample


def sample_filename(scene_id: str) -> str:
    return f"sample_{scene_id}.txt"
