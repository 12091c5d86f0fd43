"""Lane-graph maps: ingestion, validation, and reference-path construction.

Map file schema (line oriented, one record per lane)::

    city MIA
    lane L1
    pt 0.000000 0.000000
    pt 10.000000 0.000000
    succ L2
    pred L0

`city` is optional and defaults to "UNKNOWN". Its label may not hold
`,`, `;` or `=` (`CITY_FORBIDDEN`): the label is a CSV column of every
scene row and manifest row, and the manifest's `# maps:` line joins
`CITY=N` entries with `;`. Coordinates are meters and are written back
with 9 decimal places. Blank lines and lines starting with `#` are
ignored.

Argoverse-style HD maps translate onto this schema one lane segment at a
time (the converter itself is out of scope)::

    our schema            Argoverse-style source
    ----------            ----------------------
    city <tag>            city name, e.g. MIA / PIT
    lane <id>             lane segment id (stringified)
    pt <x> <y>            lane centerline vertices, city frame, meters
    succ <id>             each successor lane id
    pred <id>             each predecessor lane id

One `lane` record per lane segment; vertex order follows travel
direction; write coordinates with at least 6 significant digits (9
decimals are written). Successor endpoints must touch their
predecessor's last vertex to within 0.5 m (`CONNECTIVITY_TOL`) or
validation rejects the file. A lane is at most 1e5 m long
(`geometry.LENGTH_LIMIT`).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MapFormatError, PathOverrunError, ValidationError
from .geometry import (
    COINCIDENT_TOL,
    Point2,
    Polyline,
    curvature_profile,
    resample_polyline,
)

# Characters that a `city` label may not hold, as the files that name it
# use them as separators.
CITY_FORBIDDEN = frozenset(",;=")

# Digitization noise allowed between a lane's last point and its
# successor's first point.
CONNECTIVITY_TOL = 0.5

# Arc-length spacing of reference-path samples: a path's `cum_s` is the
# integer grid 0, 1, 2, ..., which the planner's curvature lookup
# (`planner._segment`) assumes.
REFERENCE_SPACING = 1.0

# Reference paths that `build_reference_path` keeps for reuse, the least
# recently used dropped first.
PATH_CACHE_SIZE = 64

# Parsed lane records that `parse_map_lines` keeps for reuse (`_LANE_CACHE`),
# the least recently used dropped first.
LANE_CACHE_SIZE = 256


@dataclass(frozen=True)
class LaneSegment:
    """One lane centerline plus graph connectivity."""

    lane_id: str
    centerline: Polyline
    predecessors: tuple[str, ...] = ()
    successors: tuple[str, ...] = ()


class LanePoints(NamedTuple):
    """The centerline points of a map's lanes as one array: lane `ids[k]`
    owns rows `offsets[k]:offsets[k + 1]` of the read-only `(N, 2)` `xy`."""

    ids: tuple[str, ...]
    xy: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True)
class SceneMap:
    """A lane graph for one city. Treat as immutable after construction."""

    city: str
    lanes: dict[str, LaneSegment] = field(default_factory=dict)

    @cached_property
    def points(self) -> LanePoints:
        """Every centerline point, lanes in sorted-id order; built on first
        use and kept with the map object (not a field, so not compared)."""
        ids = tuple(self.sorted_ids())
        polys = [self.lanes[lane_id].centerline.xy for lane_id in ids]
        xy = np.concatenate(polys) if polys else np.empty((0, 2))
        xy.setflags(write=False)
        offsets = np.cumsum([0] + [len(poly) for poly in polys])
        offsets.setflags(write=False)
        return LanePoints(ids, xy, offsets)

    def validate(self, path=None, lane_lines: dict[str, int] | None = None) -> None:
        """Check the graph; a fault names the map's file `path` and the
        `lane` line (`lane_lines[lane_id]`) of the lane at fault."""
        lane_lines = lane_lines or {}
        for lane in self.lanes.values():
            line = lane_lines.get(lane.lane_id)
            for ref in lane.successors + lane.predecessors:
                if ref not in self.lanes:
                    raise ValidationError(
                        f"lane {lane.lane_id!r} references missing lane {ref!r}", path, line
                    )
            for succ_id in lane.successors:
                end, start = lane.centerline.xy[-1], self.lanes[succ_id].centerline.xy[0]
                gap = math.hypot(end[0] - start[0], end[1] - start[1])
                if gap > CONNECTIVITY_TOL:
                    raise ValidationError(
                        f"lane {lane.lane_id!r} -> {succ_id!r} endpoint gap "
                        f"{gap:.3f} m exceeds {CONNECTIVITY_TOL} m",
                        path,
                        line,
                    )

    def sorted_ids(self) -> list[str]:
        return sorted(self.lanes)


def make_map(city: str, lanes: list[LaneSegment], path=None, lane_lines=None) -> SceneMap:
    """Build and validate a SceneMap from lane segments. A graph fault
    names the map's file `path` and the `lane` line of the lane at fault,
    `lane_lines[k]` for `lanes[k]`, when they are given."""
    by_id: dict[str, LaneSegment] = {}
    at: dict[str, int] = {}
    for k, lane in enumerate(lanes):
        line = lane_lines[k] if lane_lines is not None else None
        if lane.lane_id in by_id:
            raise ValidationError(f"duplicate lane id {lane.lane_id!r}", path, line)
        by_id[lane.lane_id] = lane
        at[lane.lane_id] = line
    m = SceneMap(city=city, lanes=by_id)
    m.validate(path, at)
    return m


def _line_fault(fields: list[str], in_lane: bool) -> str:
    """Why a non-blank, non-comment map line is malformed."""
    tag = fields[0]
    if tag == "city":
        if len(fields) == 2:
            bad = next(c for c in fields[1] if c in CITY_FORBIDDEN)
            return f"city label {fields[1]!r} holds {bad!r}, a scene and manifest separator"
        return "city line needs one label"
    if tag == "lane":
        return "lane line needs one id"
    if tag in ("pt", "succ", "pred"):
        if not in_lane:
            return f"{tag} before any lane header"
        return "pt line needs two coordinates" if tag == "pt" else f"{tag} line needs one id"
    return f"unknown directive {tag!r}"


def _parse_lanes(lines, path, line_numbers):
    """The label of each `city` line, and each lane with the file line of
    its `lane` line, in order; raises the faults of `parse_map_lines` but
    for the graph checks.

    One pass splits each line once; the `pt` coordinates of every lane
    then convert in one call and the lanes are cut out by row.
    """
    cities: list[str] = []
    heads: list[tuple[str, int, int]] = []  # lane id, index in lines, first pt row
    links: list[tuple[list[str], list[str]]] = []  # (pred, succ) ids per lane
    coords: list[str] = []  # "pt", x, y of every pt line
    pt_at: list[int] = []  # index in lines of every pt line
    fault = None  # (index in lines, message) of the first malformed line
    for i, line in enumerate(lines):
        fields = line.split()
        n = len(fields)
        if n == 3 and fields[0] == "pt" and heads:
            coords += fields
            pt_at.append(i)
            continue
        if not fields:
            continue
        tag = fields[0]
        if tag[0] == "#":
            continue
        if tag == "lane" and n == 2:
            heads.append((fields[1], i, len(pt_at)))
            links.append(([], []))
        elif (tag == "succ" or tag == "pred") and n == 2 and heads:
            links[-1][tag == "succ"].append(fields[1])
        elif tag == "city" and n == 2 and CITY_FORBIDDEN.isdisjoint(fields[1]):
            cities.append(fields[1])
        else:
            fault = (i, _line_fault(fields, bool(heads)))
            break
    del coords[::3]
    try:
        xy = np.array(coords, float).reshape(-1, 2)
    except ValueError:
        for k, token in enumerate(coords):
            try:
                float(token)
            except ValueError:
                break
        i = pt_at[k // 2]
        fault = (i, f"bad coordinate: {lines[i].strip()}")
        xy = np.array(coords[: k - k % 2], float).reshape(-1, 2)

    # a lane is closed by the next lane line before the fault, or by the end
    stop = len(lines) if fault is None else fault[0]
    ends = [first for _, i, first in heads[1:] if i < stop]
    if fault is None and heads:
        ends.append(len(pt_at))
    lanes: list[tuple[LaneSegment, int]] = []
    for (lane_id, i, first), end, (pred, succ) in zip(heads, ends, links):
        if end - first < 2:
            raise MapFormatError(
                f"lane {lane_id!r} has {end - first} points, need at least 2",
                path,
                line_numbers[i],
            )
        try:
            poly = Polyline(xy[first:end])
        except ValueError as exc:
            raise MapFormatError(f"lane {lane_id!r}: {exc}", path, line_numbers[i]) from exc
        lanes.append((LaneSegment(lane_id, poly, tuple(pred), tuple(succ)), line_numbers[i]))
    if fault is not None:
        raise MapFormatError(fault[1], path, line_numbers[fault[0]])
    return cities, lanes


# a lane record's lines as a tuple -> its LaneSegment, least recently used first
_LANE_CACHE: dict[tuple[str, ...], LaneSegment] = {}


def parse_map_lines(lines, path=None, line_numbers=None) -> SceneMap:
    """Parse the map schema from a list of text lines.

    `line_numbers[i]` is the file line of `lines[i]` (default `i + 1`).
    A MapFormatError names the line at fault; a lane with too few,
    coincident or non-finite points, or longer than
    `geometry.LENGTH_LIMIT`, names its `lane` line, and so does the
    ValidationError of a graph fault (a duplicate lane id, a missing or
    disconnected successor or predecessor). Faults are
    raised in the order a line-by-line reader meets them: a lane is
    checked once the next `lane` line (or the end) closes it.

    The lines parse one record at a time, in file order: the lines
    before the first record, then each record, from a line that starts
    with `lane ` and splits into two fields to the line before the next
    such line. A record closes the lane of the one before it, as a
    line-by-line reader does; a malformed `lane` line cuts nothing, so it
    faults before the lane above it is checked. Lines that hold a newline
    form one record.

    Parsed lane records are kept in `_LANE_CACHE`, keyed by a record's
    lines as a tuple, so that the lanes that many files share are parsed
    once and those files share each such LaneSegment (and its Polyline).
    A record found there is reused, its lane named by the record's first
    line; any other is parsed on its own (`_parse_lanes`) and kept if it
    defines exactly one lane, sets no city and begins with its header.
    Each record found or kept moves to the back of the cache, which keeps
    the last `LANE_CACHE_SIZE` of them. A parse depends only on the
    lines (the path and line numbers only label faults) and the graph
    checks run on every call, so what the cache holds cannot change a
    result or a fault.
    """
    if line_numbers is None:
        line_numbers = range(1, len(lines) + 1)
    text = "\n".join(lines)
    cuts = [0]  # the index in `lines` where each record begins
    if text.count("\n") == len(lines) - 1:  # no line holds a newline
        row, seen = 0, 0
        at_char = text.find("\nlane ")
        while at_char >= 0:
            row += text.count("\n", seen, at_char + 1)
            seen = at_char + 1
            if len(lines[row].split()) == 2:
                cuts.append(row)
            at_char = text.find("\nlane ", seen)
    cuts.append(len(lines))
    cities: list[str] = []
    found: list[tuple[LaneSegment, int]] = []
    for a, b in zip(cuts, cuts[1:]):
        record = lines[a:b]
        key = tuple(record)
        lane = _LANE_CACHE.pop(key, None)
        if lane is not None:
            found.append((lane, line_numbers[a]))
        else:
            labels, parsed = _parse_lanes(record, path, line_numbers[a:b])
            cities += labels
            found += parsed
            if labels or len(parsed) != 1 or not lines[a].startswith("lane "):
                continue
            lane = parsed[0][0]
        if len(_LANE_CACHE) >= LANE_CACHE_SIZE:
            del _LANE_CACHE[next(iter(_LANE_CACHE))]
        _LANE_CACHE[key] = lane
    city = cities[-1] if cities else "UNKNOWN"
    return make_map(city, [lane for lane, _ in found], path, [line for _, line in found])


def load_map(path) -> SceneMap:
    """Read a map file; raises MapFormatError / ValidationError."""
    return parse_map_lines(read_lines(path), path=path)


def map_to_lines(m: SceneMap) -> list[str]:
    """Serialize a map into schema lines (lanes sorted by id)."""
    out = [f"city {m.city}"]
    for lane_id in m.sorted_ids():
        lane = m.lanes[lane_id]
        out.append(f"lane {lane_id}")
        out.extend(lane.centerline.pt_lines())
        for p in sorted(lane.predecessors):
            out.append(f"pred {p}")
        for s in sorted(lane.successors):
            out.append(f"succ {s}")
    return out


def save_map(m: SceneMap, path) -> None:
    write_text_atomic(path, "\n".join(map_to_lines(m)) + "\n")


def read_text(path, error=MapFormatError, newline=None) -> str:
    """The text of a UTF-8 file, each line ending in "\\n" as iterating
    the open file gives it, or with `newline=""` each line end as the
    bytes have it. Bytes that are not UTF-8 raise `error`, the caller's
    SceneSynthError subclass, not UnicodeDecodeError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: {exc}", path) from exc


def read_lines(path, error=MapFormatError) -> list[str]:
    """The lines of a UTF-8 text file (`read_text`) without their newlines."""
    lines = read_text(path, error).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def write_text_atomic(path, text: str) -> None:
    """Write via temp file + rename; skip the replace when bytes match. An
    OSError names `path`, not the temp file."""
    path = os.fspath(path)
    data = text.encode("utf-8")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class ReferencePath:
    """A drivable path resampled every `REFERENCE_SPACING` (1 m).

    `cum_s` is the sampling grid `0, 1, 2, ...` (float), which
    parameterizes planning; `samples` holds the matching points and
    `kappa` the signed curvature per sample.
    """

    samples: Polyline
    cum_s: np.ndarray
    kappa: np.ndarray
    lane_ids: tuple[str, ...]

    @property
    def length(self) -> float:
        return float(self.cum_s[-1])

    def xy_at(self, s) -> np.ndarray:
        """Map arc-length(s) to plane coordinates; raises on overrun."""
        s_arr = np.asarray(s, dtype=float)
        if (s_arr < -1e-9).any() or (s_arr > self.length + 1e-9).any():
            bad = s_arr[(s_arr < -1e-9) | (s_arr > self.length + 1e-9)]
            raise PathOverrunError(
                f"arc-length {float(np.atleast_1d(bad)[0]):.3f} outside "
                f"[0, {self.length:.3f}]"
            )
        x = np.interp(s_arr, self.cum_s, self.samples.xy[:, 0])
        y = np.interp(s_arr, self.cum_s, self.samples.xy[:, 1])
        return np.stack([x, y], axis=-1)

    def tangent_at_index(self, i: int) -> float:
        """Heading (radians) of the sample at index i."""
        xy = self.samples.xy
        j = min(i, xy.shape[0] - 2)
        dx, dy = xy[j + 1] - xy[j]
        return math.atan2(dy, dx)


def _concat_centerlines(polys: list[Polyline]) -> Polyline:
    pieces = [polys[0].xy]
    for poly in polys[1:]:
        xy = poly.xy
        if float(np.hypot(*(xy[0] - pieces[-1][-1]))) <= COINCIDENT_TOL:
            xy = xy[1:]
        pieces.append(xy)
    return Polyline(np.concatenate(pieces, axis=0))


def _path_from_polyline(poly: Polyline, lane_ids) -> ReferencePath:
    resampled = resample_polyline(poly, REFERENCE_SPACING)
    # drop a trailing partial segment so the grid is exactly uniform
    if resampled.n_points > 2:
        last_gap = resampled.cum_s[-1] - resampled.cum_s[-2]
        if last_gap < REFERENCE_SPACING - 1e-9:
            resampled = Polyline(resampled.xy[:-1])
    n = resampled.n_points
    cum_s = np.arange(n, dtype=float)  # the grid of REFERENCE_SPACING
    cum_s.setflags(write=False)
    kappa = curvature_profile(resampled) if n >= 3 else np.zeros(n)
    kappa.setflags(write=False)
    return ReferencePath(resampled, cum_s, kappa, tuple(lane_ids))


# id of each chain lane -> (the chain's lanes, its path); holding the lanes
# keeps their ids from being reused while the entry is cached
_PATH_CACHE: dict[tuple, tuple[tuple[LaneSegment, ...], ReferencePath]] = {}


def build_reference_path(
    m: SceneMap,
    seed_lane: str,
    min_length: float,
    rng: np.random.Generator,
) -> ReferencePath:
    """Walk successor edges from one lane until `min_length` is reached,
    and sample the chain's centerline every `REFERENCE_SPACING` (1 m).

    The walk picks a uniformly random unvisited successor at each fork and
    stops when the graph is exhausted, so the result can be shorter than
    `min_length` on small maps. A chain longer than `geometry.LENGTH_LIMIT`
    raises ValidationError.

    A path is a function of its chain of lanes, so the last
    `PATH_CACHE_SIZE` paths are kept by the identity of their
    `LaneSegment` objects: a chain of the very same objects returns the
    path already built (immutable, with read-only arrays), whatever map
    holds them. A warped lane is a new object, so a chain through it is
    never served from its unwarped twin. The walk and its rng draws are
    the same on a hit.
    """
    if min_length <= 0:
        raise ValueError("min_length must be positive")
    lane = m.lanes[seed_lane]
    chain = [lane]
    visited = {seed_lane}
    total = lane.centerline.length
    while total < min_length:
        options = sorted(s for s in chain[-1].successors if s not in visited)
        if not options:
            break
        nxt = options[int(rng.integers(len(options)))]
        visited.add(nxt)
        lane = m.lanes[nxt]
        chain.append(lane)
        total += lane.centerline.length
    key = tuple(map(id, chain))
    hit = _PATH_CACHE.pop(key, None)
    if hit is None:
        try:
            poly = _concat_centerlines([ln.centerline for ln in chain])
        except ValueError as exc:  # a chain longer than `geometry.LENGTH_LIMIT`
            lanes = ", ".join(ln.lane_id for ln in chain)
            raise ValidationError(f"reference path through lanes {lanes}: {exc}") from None
        hit = (tuple(chain), _path_from_polyline(poly, [ln.lane_id for ln in chain]))
        if len(_PATH_CACHE) >= PATH_CACHE_SIZE:
            del _PATH_CACHE[next(iter(_PATH_CACHE))]
    _PATH_CACHE[key] = hit
    return hit[1]


def crop_map(m: SceneMap, center: Point2, radius: float) -> SceneMap:
    """Keep lanes with any centerline point within `radius` of `center`,
    pruning connectivity references that leave the crop.

    The squared distances of all of the map's points (`m.points`) come
    from one array pass, and `np.logical_or.reduceat` turns them into one
    keep flag per lane. A kept lane whose links all stay in the crop is
    kept as it is. The crop is not validated here: its graph is part of
    the source map's, and `validate_scene` checks the crop of every
    emitted scene."""
    ids, xy, offsets = m.points
    d2 = (xy - np.array([center.x, center.y])) ** 2
    near = d2[:, 0] + d2[:, 1] <= radius * radius
    kept = {ids[k] for k in np.flatnonzero(np.logical_or.reduceat(near, offsets[:-1]))}
    lanes: dict[str, LaneSegment] = {}
    for lane_id, lane in m.lanes.items():
        if lane_id not in kept:
            continue
        if not (kept.issuperset(lane.predecessors) and kept.issuperset(lane.successors)):
            lane = LaneSegment(
                lane_id,
                lane.centerline,
                tuple(p for p in lane.predecessors if p in kept),
                tuple(s for s in lane.successors if s in kept),
            )
        lanes[lane_id] = lane
    return SceneMap(m.city, lanes)
