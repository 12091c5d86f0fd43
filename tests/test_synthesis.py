import hashlib
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_same_outcome,
    assert_same_scene,
    lane_records,
    make_scene,
    reference_read_scene,
    reference_scene_text,
    with_lane_cache,
)
from scenesynth.errors import ConfigError, MapFormatError, SceneSynthError, ValidationError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.geometry import COORDINATE_LIMIT, Polyline
from scenesynth.maps import LaneSegment, SceneMap, crop_map
from scenesynth.planner import PlannerParams
from scenesynth.refine import RefinementParams
from scenesynth import manifest, maps, synthesis
from scenesynth.synthesis import (
    CSV_HEADER,
    GenerationConfig,
    SCENE_SAMPLES,
    SCENE_TIMES,
    TIMESTAMP_TEXT,
    Scene,
    generate_dataset,
    read_scene,
    scene_to_text,
    validate_scene,
)


def small_cfg(tmp_path, n=6, seed=3, **kw):
    return GenerationConfig(
        seed=seed, n_scenes=n, output_dir=str(tmp_path / "scenes"), **kw
    )


def warm_read_scene(scene, directory):
    """`read_scene` through a lane cache that has read the unedited file
    of `scene`, so that each of its lane records is a hit."""
    clean = directory / "clean.csv"
    clean.write_text(scene_to_text(scene), encoding="utf-8")
    read = with_lane_cache(read_scene, {})
    read(clean)
    return read


def assert_reads_as_reference(f, scene):
    """`read_scene` reads `f` as `reference_read_scene` does: with the lane
    cache as earlier reads left it, with a cold one, with one that has
    read `f` itself, and with one that has read the unedited file of
    `scene`, whose lane records are those of `f` but for the edited ones
    (which must fault as they do afresh)."""
    assert_same_outcome(read_scene, reference_read_scene, f)
    assert_same_outcome(with_lane_cache(read_scene, {}), reference_read_scene, f)
    warm = with_lane_cache(read_scene, {})
    try:
        warm(f)
    except SceneSynthError:
        pass
    assert_same_outcome(warm, reference_read_scene, f)
    assert_same_outcome(warm_read_scene(scene, f.parent), reference_read_scene, f)


def test_config_validation():
    with pytest.raises(ConfigError):
        GenerationConfig(seed=1, n_scenes=0)
    with pytest.raises(ConfigError):
        GenerationConfig(seed=1, n_scenes=1, augmented_fraction=1.5)
    with pytest.raises(ConfigError):
        GenerationConfig(seed=1, n_scenes=1, crop_radius=0.0)
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigError, match="path_min_length must be positive"):
            GenerationConfig(seed=1, n_scenes=1, path_min_length=bad)
    with pytest.raises(ConfigError):
        # horizon too short for 50 samples at 10 Hz
        GenerationConfig(seed=1, n_scenes=1, t_g=2.0)
    for dt in (0.45, 0.05, 0.25):
        with pytest.raises(ConfigError, match=f"dt={dt} is not a whole number of 0.1 s steps"):
            GenerationConfig(seed=1, n_scenes=1, dt=dt)
    with pytest.raises(ConfigError, match="horizon too short"):
        # 12 knots of 4 fine steps: 49 samples
        GenerationConfig(seed=1, n_scenes=1, dt=0.4)
    # 25 knots of 2 fine steps, and 50 of one
    GenerationConfig(seed=1, n_scenes=1, dt=0.2)
    GenerationConfig(seed=1, n_scenes=1, dt=0.1)


def test_replaced_config_rebuilds_its_planner_and_refinement():
    cfg = replace(GenerationConfig(), dt=1.0, t_g=7.0, omega3=4.0)
    assert (cfg.planner.dt, cfg.planner.t_g) == (1.0, 7.0)
    assert cfg.planner == PlannerParams(dt=1.0, t_g=7.0)
    assert cfg.refinement == RefinementParams(omega3=4.0)
    assert GenerationConfig().planner == PlannerParams()


def test_config_survives_a_pickle_round_trip():
    # as the pool's workers receive it
    cfg = GenerationConfig(seed=4, dt=1.0, t_g=7.0, omega1=0.5, map_files=("a.map",))
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert back.planner == cfg.planner and back.refinement == cfg.refinement
    assert back.echo() == cfg.echo()


def test_config_takes_no_planner_or_refinement_argument():
    with pytest.raises(TypeError):
        GenerationConfig(planner=PlannerParams())
    with pytest.raises(TypeError):
        GenerationConfig(refinement=RefinementParams())
    with pytest.raises(TypeError):
        GenerationConfig(v_d_range=(6.0, 15.0))


def test_scene_deterministic_bytes(corridors_map):
    cfg = GenerationConfig(seed=9, n_scenes=1, output_dir="unused")
    a = make_scene(corridors_map, np.random.default_rng([9, 0, 0]), cfg, "000000")
    b = make_scene(corridors_map, np.random.default_rng([9, 0, 0]), cfg, "000000")
    assert scene_to_text(a) == scene_to_text(b)


def test_scene_shape_and_split(demo_scene):
    assert SCENE_TIMES.shape == (SCENE_SAMPLES,) and not SCENE_TIMES.flags.writeable
    assert demo_scene.trajectory.shape == (SCENE_SAMPLES, 2)
    # the floats of the grid's text, as a scene file reads
    assert SCENE_TIMES[0] == 0.0
    assert SCENE_TIMES[3] == 0.3
    assert SCENE_TIMES[19] == 1.9  # last history sample
    assert SCENE_TIMES[-1] == 4.9


def test_scene_text_writes_the_grid_text_as_its_first_column(demo_scene):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    rows = lines[lines.index(CSV_HEADER) + 1:]
    assert tuple(row.partition(",")[0] for row in rows) == TIMESTAMP_TEXT
    assert TIMESTAMP_TEXT == tuple(f"{k / 10:.1f}" for k in range(SCENE_SAMPLES))


def test_unaugmented_scene_follows_straight_lane():
    m = generate_map_fixture("straight_pair")
    cfg = GenerationConfig(
        seed=2, n_scenes=1, output_dir="unused", augmented_fraction=0.0,
        path_min_length=120.0,
    )
    for i in range(5):
        scene = make_scene(m, np.random.default_rng([2, i, 0]), cfg, f"{i:06d}")
        # both lanes lie on y = 0
        assert np.abs(scene.trajectory[:, 1]).max() < 0.1


def test_scene_velocities_within_sampled_range(demo_scene):
    speeds = np.hypot(*np.diff(demo_scene.trajectory, axis=0).T) / 0.1
    v_d = float(demo_scene.metadata["v_d"])
    assert 6.0 <= v_d <= 15.0
    assert speeds.max() <= 25.0
    assert speeds.min() >= 0.0


def test_scene_file_roundtrip(demo_scene, tmp_path):
    f = tmp_path / "scene_000000.csv"
    f.write_text(scene_to_text(demo_scene))
    back = read_scene(f)
    assert back.scene_id == demo_scene.scene_id
    assert back.city == demo_scene.city
    assert back.metadata == demo_scene.metadata
    assert np.abs(back.trajectory - demo_scene.trajectory).max() < 1e-9
    assert sorted(back.map_crop.lanes) == sorted(demo_scene.map_crop.lanes)
    for lane_id, lane in demo_scene.map_crop.lanes.items():
        assert (
            np.abs(back.map_crop.lanes[lane_id].centerline.xy - lane.centerline.xy).max()
            < 1e-9
        )
    # a second serialization is byte-identical
    assert scene_to_text(back) == f.read_text()


def test_scene_with_49_rows_rejected(demo_scene, tmp_path):
    f = tmp_path / "scene_bad.csv"
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    f.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValidationError, match="49"):
        read_scene(f)


def test_scene_with_bad_spacing_rejected(demo_scene, tmp_path):
    f = tmp_path / "scene_bad.csv"
    text = scene_to_text(demo_scene).replace("\n4.9,", "\n5.1,")
    f.write_text(text)
    with pytest.raises(ValidationError, match="TIMESTAMP '5.1', expected '4.9'") as exc:
        read_scene(f)
    assert exc.value.line == len(text.split("\n")) - 1  # the last row


def test_scene_malformed_row_names_line(demo_scene, tmp_path):
    f = tmp_path / "scene_bad.csv"
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    hdr = lines.index("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME")
    lines[hdr + 3] = "0.2,000000,AGENT,not_a_number,0.0,MIA"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(MapFormatError, match=str(hdr + 4)):
        read_scene(f)


def test_scene_wrong_object_type_rejected(demo_scene, tmp_path):
    f = tmp_path / "scene_bad.csv"
    text = scene_to_text(demo_scene)
    f.write_text(text.replace("AGENT", "CYCLIST"))
    with pytest.raises(ValidationError, match="OBJECT_TYPE 'CYCLIST', expected 'AGENT'") as exc:
        read_scene(f)
    assert exc.value.line == text.split("\n").index(CSV_HEADER) + 2  # the first row


def test_validate_scene_catches_crop_violation(demo_scene):
    meta = dict(demo_scene.metadata)
    meta["crop_radius"] = "1.0"
    bad = type(demo_scene)(
        demo_scene.scene_id,
        demo_scene.city,
        demo_scene.map_crop,
        demo_scene.trajectory,
        meta,
    )
    with pytest.raises(ValidationError, match="crop"):
        validate_scene(bad)


@pytest.mark.parametrize("step", [0.0, 5e-13, 2e-12])
def test_validate_scene_refuses_what_normalize_headings_cannot_turn(demo_scene, step):
    """A trajectory at the crop center whose only move is `step` along x
    is a valid scene exactly when it has a heading."""
    from scenesynth.analysis import normalize_headings

    center = [float(demo_scene.metadata[k]) for k in ("crop_center_x", "crop_center_y")]
    trajectory = np.tile(center, (50, 1))
    trajectory[25:, 0] += step
    scene = replace(demo_scene, trajectory=trajectory)
    try:
        normalize_headings(trajectory[None])
    except ValidationError:
        with pytest.raises(ValidationError, match="all-stationary trajectory"):
            validate_scene(scene)
        assert step < 1e-12
    else:
        validate_scene(scene)
        assert step > 1e-12


@pytest.mark.parametrize("key", ["crop_center_x", "crop_center_y", "crop_radius"])
@pytest.mark.parametrize("value", [None, "far"])
def test_validate_scene_bad_crop_metadata_is_validation_error(demo_scene, key, value):
    meta = dict(demo_scene.metadata)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    with pytest.raises(ValidationError, match=key if value is None else "far"):
        validate_scene(replace(demo_scene, metadata=meta))


@given(
    line=st.integers(0, 10_000),
    cut=st.integers(0, 80),
    junk=st.one_of(st.text(max_size=40), st.floats().map(repr)),
)
@settings(max_examples=200, deadline=None)
def test_read_scene_fuzz_any_line_raises_only_scenesynth_errors(
    demo_scene, line, cut, junk, tmp_path_factory
):
    """Any one line cut short and followed by arbitrary text."""
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    i = line % len(lines)
    lines[i] = lines[i][:cut] + junk
    f = tmp_path_factory.mktemp("fuzz") / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_reads_as_reference(f, demo_scene)
    try:
        scene = read_scene(f)
    except SceneSynthError:
        return
    assert scene.trajectory.shape == (SCENE_SAMPLES, 2)


# well- and ill-formed lines of each block of a scene file
SCENE_LINES = [
    "", " ", "# no colon", "# key: value", "# map: lane", "# map: lane Z9", "# map: pt 0.0 nan",
    "# map: pt x 0", "# map: bogus", "# map: succ Z9", "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME",
    "0.0,000000,AGENT,1.0,2.0,MIA", "0.0,000000,AGENT,x,2.0,MIA", "0.0,000000,CAR,1.0,2.0,MIA",
    "0.0,000000,AGENT,1.0,2.0", "0.0,000000,AGENT,1.0,2.0,MIA,7", "0.0,000001,AGENT,1.0,2.0,PIT",
]


@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans(), st.sampled_from(SCENE_LINES)),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=200, deadline=None)
def test_read_scene_matches_reference_on_several_edited_lines(
    demo_scene, edits, tmp_path_factory
):
    """Several lines replaced or inserted: the first fault of the strict
    line-by-line reader is the one raised."""
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    for line, insert, text in edits:
        if insert:
            lines.insert(line % (len(lines) + 1), text)
        else:
            lines[line % len(lines)] = text
    f = tmp_path_factory.mktemp("edits") / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_reads_as_reference(f, demo_scene)


def _scene_line(lines, where):
    """Index of a line of a scene file: ("meta", k), ("pt", k) or ("row", k)
    is the k-th metadata line, `# map: pt` line or trajectory row."""
    kind, k = where
    if kind == "row":
        return lines.index("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME") + 1 + k
    prefix = "# map: pt " if kind == "pt" else "# "
    return [i for i, line in enumerate(lines) if line.startswith(prefix)][k]


@pytest.mark.parametrize(
    "edits, fault",
    [
        # a bad row before a '#' line among the rows
        ([(("row", 3), "0.3,000000,AGENT,x,0.0,MIA"), (("row", 40), "# no colon")], ("row", 3)),
        # a metadata line without ':' before a bad row
        ([(("meta", 2), "# no colon"), (("row", 3), "0.3,000000,AGENT,x,0.0,MIA")], ("meta", 2)),
        # a bad map coordinate is met before any row
        ([(("pt", 0), "# map: pt x 0"), (("row", 3), "0.3,000000,CAR,1,0,MIA")], ("pt", 0)),
        # a row's last field moved onto the next row: both have 6 fields joined
        ([(("row", 3), "0.3,000000,AGENT,1.0,2.0"), (("row", 4), "MIA,0.4,000000,AGENT,1.0,2.0,MIA")],
         ("row", 3)),
    ],
)
def test_read_scene_raises_the_first_fault(demo_scene, tmp_path, edits, fault):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    want = _scene_line(lines, fault) + 1
    for where, text in edits:
        lines[_scene_line(lines, where)] = text
    f = tmp_path / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_reads_as_reference(f, demo_scene)
    with pytest.raises(MapFormatError) as exc:
        read_scene(f)
    assert exc.value.line == want


def _move_last_lane_after_rows(lines):
    """The last lane record of the map block moved to the end of the file."""
    last = max(i for i, line in enumerate(lines) if line.startswith("# map: lane "))
    end = lines.index("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME")
    return lines[:last] + lines[end:] + lines[last:end]


def _insert_in_block(text):
    """An edit that puts `text` on the second point line of the first lane."""

    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("# map: lane ")) + 2
        return lines[:i] + [text] + lines[i:]

    return edit


@pytest.mark.parametrize(
    "edit, departs",
    [
        (_insert_in_block(""), ""),
        (_insert_in_block("   "), "   "),
        (_insert_in_block("# note: inside the map block"), "# note: inside the map block"),
        (_insert_in_block("# no colon"), "# no colon"),
        # a point line cut in two: its second half departs
        (_insert_in_block("# map: pt 1.0\n2.0"), "2.0"),
        # a metadata line without its '#'
        (lambda lines: lines[:2] + ["note: no hash"] + lines[2:], "note: no hash"),
        # the moved lines are rows, but the block, read before the rows,
        # still names the moved lane
        (_move_last_lane_after_rows, None),
        # the map's city line moved before the metadata: the block opens the
        # file, and the first metadata line departs from it
        (lambda lines: sorted(lines, key=lambda line: not line.startswith("# map: city ")),
         "# scene_id: 000000"),
        # a blank line and a metadata line after the rows: each is a row
        (lambda lines: lines + ["", "# note: after the rows"], ""),
        (lambda lines: lines + ["# map: lane Z9"], "# map: lane Z9"),
    ],
    ids=["blank", "spaces", "comment", "no-colon", "split-point", "no-hash", "lane-after-rows",
         "map-line-first", "metadata-after-rows", "lane-line-after-rows"],
)
def test_read_scene_off_the_layout_reads_as_the_reference(demo_scene, tmp_path, edit, departs):
    """A file that departs from `scene_to_text`'s layout does not read: it
    fails as the strict line-by-line reader fails it, with a MapFormatError
    naming the line `departs`, the first line off the layout or the first
    bad row; or (None) with the map block's graph fault."""
    text = "\n".join(edit(scene_to_text(demo_scene).rstrip("\n").split("\n")))
    lines = text.split("\n")
    f = tmp_path / "scene_000000.csv"
    f.write_text(text + "\n", encoding="utf-8")
    assert_reads_as_reference(f, demo_scene)
    if departs is None:
        with pytest.raises(ValidationError, match="references missing lane"):
            read_scene(f)
    else:
        with pytest.raises(MapFormatError) as exc:
            read_scene(f)
        assert exc.value.line == lines.index(departs) + 1


@pytest.mark.parametrize("fraction", [165.0 / 370.0, 1.0])
def test_read_scene_matches_reference(corridors_map, fraction, tmp_path):
    cfg = GenerationConfig(output_dir="unused", augmented_fraction=fraction)
    f = tmp_path / "scene_000000.csv"
    warm = with_lane_cache(read_scene, {})
    read = 0
    index = 0
    while read < 200:
        index += 1
        try:
            scene = make_scene(corridors_map, np.random.default_rng([9, index]), cfg)
        except SceneSynthError:
            continue
        f.write_text(scene_to_text(scene), encoding="utf-8")
        assert_same_outcome(read_scene, reference_read_scene, f)
        assert_same_outcome(with_lane_cache(read_scene, {}), reference_read_scene, f)
        warm(f)  # the next read of f is a hit
        assert_same_outcome(warm, reference_read_scene, f)
        read += 1


@pytest.mark.parametrize(
    "prefix, broken",
    [
        ("# v0:", "# v0 11.3"),
        ("# map: lane ", "# map: lane"),
        ("# map: pt ", "# map: pt 1.0 one"),
        ("# map: succ ", "# map: succ"),
        ("# map: pred ", "# map: pred H0_0 H0_1"),
        ("1.2,", "1.2,000000,AGENT,east,0.0,MIA"),
    ],
)
def test_read_scene_fault_names_its_file_line(demo_scene, tmp_path, prefix, broken):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = broken
    f = tmp_path / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MapFormatError, match=f":{i + 1}: ") as exc:
        read_scene(f)
    assert exc.value.line == i + 1


def test_read_scene_lane_fault_names_its_lane_line(demo_scene, tmp_path):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    lanes = [i for i, line in enumerate(lines) if line.startswith("# map: lane ")]
    i = lanes[1]
    lines[i + 2] = lines[i + 1]  # the lane's second point repeats its first
    f = tmp_path / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MapFormatError, match="coincident") as exc:
        read_scene(f)
    assert exc.value.line == i + 1


def test_read_scene_lane_of_overflowing_length_names_its_lane_line(demo_scene, tmp_path):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    lanes = [i for i, line in enumerate(lines) if line.startswith("# map: lane ")]
    i = lanes[1]
    # finite points whose differences and arc-length would overflow
    lines[i + 1 : i + 3] = ["# map: pt 1e308 0", "# map: pt -1e308 0"]
    f = tmp_path / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MapFormatError, match="exceeds 1e\\+150 m") as exc:
        read_scene(f)
    assert exc.value.line == i + 1


def test_read_scene_lane_longer_than_the_length_limit_names_its_lane_line(demo_scene, tmp_path):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    lanes = [i for i, line in enumerate(lines) if line.startswith("# map: lane ")]
    i = lanes[1]
    # within the coordinate bound, but too long to resample
    lines[i + 1 : i + 3] = ["# map: pt 0 0", "# map: pt 1e150 0"]
    f = tmp_path / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MapFormatError, match="polyline length .* exceeds 100000.0 m") as exc:
        read_scene(f)
    assert exc.value.line == i + 1


@pytest.mark.parametrize("column, value", [(1, "000999"), (5, "PIT")])
def test_read_scene_row_identity_names_first_row_at_fault(
    demo_scene, tmp_path, column, value
):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    header = lines.index("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME")
    want = (demo_scene.scene_id, demo_scene.city)[column == 5]
    message = f"{CSV_HEADER.split(',')[column]} {value!r}, expected {want!r}"
    for i in (header + 11, header + 30):
        fields = lines[i].split(",")
        fields[column] = value
        lines[i] = ",".join(fields)
    f = tmp_path / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f":{header + 12}: {message}$") as exc:
        read_scene(f)
    assert exc.value.line == header + 12
    assert_reads_as_reference(f, demo_scene)


@pytest.mark.parametrize("fraction", [165.0 / 370.0, 1.0])
def test_scene_text_matches_reference(corridors_map, fraction):
    cfg = GenerationConfig(output_dir="unused", augmented_fraction=fraction)
    texts = 0
    index = 0
    while texts < 200:
        index += 1
        try:
            scene = make_scene(corridors_map, np.random.default_rng([8, index]), cfg)
        except SceneSynthError:
            continue
        # twice: the second pass reads the pt lines kept on each Polyline
        assert scene_to_text(scene) == reference_scene_text(scene)
        assert scene_to_text(scene) == reference_scene_text(scene)
        texts += 1


# -0.0 and tiny negatives print as -0.000000000, rounding halves, and
# magnitudes near the coordinate limit print every digit
EDGE_VALUES = (
    0.0, -0.0, -1e-12, 1e-12, -4.9e-10, -5e-10, 5e-10, -5.000000001e-10, 0.1 + 0.2,
    -123.4567891235, -0.04, 0.05, 0.15, -0.25, 2.5e-300, -2.5e-300,
    9.999999999999999e149, -COORDINATE_LIMIT, COORDINATE_LIMIT,
)


def test_scene_text_templates_match_reference_on_edge_values():
    lanes = {}
    for k, v in enumerate(EDGE_VALUES):
        # a short lane along each axis at the value, with tiny negative points
        for lane_id, xy in ((f"X%{k}", [(v, -1e-12), (v, 1.0), (v, -0.0)]),
                            (f"Y%{k}", [(-1e-12, v), (1.0, v), (-0.0, v)])):
            lanes[lane_id] = LaneSegment(lane_id, Polyline(xy))
    values = np.array(EDGE_VALUES)
    grid = np.stack(np.meshgrid(values, values), axis=-1).reshape(-1, 2)
    # every pair of values in some scene's trajectory, 50 rows each
    for start in range(0, len(grid), SCENE_SAMPLES):
        trajectory = np.resize(grid[start:start + SCENE_SAMPLES], (SCENE_SAMPLES, 2))
        for city, sid in (("M%sA%", "0%d%%1"), ("%", "%(x)s"), ("MIA", "000001")):
            scene = Scene(
                sid, city, SceneMap(city, lanes), trajectory,
                {"scene_id": sid, "city": city, "note": "50% %s"},
            )
            # twice: the second pass reads the pt lines kept on each Polyline
            assert scene_to_text(scene) == reference_scene_text(scene)
            assert scene_to_text(scene) == reference_scene_text(scene)


def test_warm_lanes_read_the_scenes_of_a_mixed_dataset_unchanged(tmp_path, corridors_map):
    """Every scene read through a warm lane cache is the scene read through
    a cold one, and the files of one lane record share one LaneSegment."""
    generate_dataset([corridors_map], small_cfg(tmp_path, n=60, seed=11))
    files = sorted((tmp_path / "scenes").glob("scene_*.csv"))
    records = [lane_records(f) for f in files]
    assert len({r for rs in records for r in rs}) < maps.LANE_CACHE_SIZE  # none is dropped
    lanes = {}
    read = with_lane_cache(read_scene, lanes)
    for f in files:
        read(f)
    shared = {}  # lane record -> the LaneSegment of its first file
    for f, file_records in zip(files, records):
        got = read(f)
        assert_same_scene(got, with_lane_cache(read_scene, {})(f))
        assert len(file_records) == len(got.map_crop.lanes)
        for record, lane in zip(file_records, got.map_crop.lanes.values()):
            assert shared.setdefault(record, lane) is lane
    assert len(lanes) == len(shared) < sum(map(len, records))


def test_read_scene_calls_share_the_lane_of_a_shared_record(tmp_path, demo_scene):
    """Two scene files with one map crop: each lane of the second read is
    the LaneSegment object of the first read, with no cache passed in, and
    the module's lane cache holds it."""
    sid = "000001"
    twin = replace(demo_scene, scene_id=sid, metadata={**demo_scene.metadata, "scene_id": sid})
    first, second = tmp_path / "scene_000000.csv", tmp_path / "scene_000001.csv"
    first.write_text(scene_to_text(demo_scene), encoding="utf-8")
    second.write_text(scene_to_text(twin), encoding="utf-8")
    a, b = read_scene(first).map_crop.lanes, read_scene(second).map_crop.lanes
    assert list(a) == list(b) and len(a) >= 2
    for lane_id, lane in a.items():
        assert b[lane_id] is lane
    assert set(map(id, a.values())) <= set(map(id, maps._LANE_CACHE.values()))


def test_lanes_keep_the_last_records_up_to_their_bound(tmp_path, demo_scene, corridors_map,
                                                      monkeypatch):
    monkeypatch.setattr(maps, "LANE_CACHE_SIZE", 3)
    files = []  # scene files of one lane record each
    for lane_id in corridors_map.sorted_ids()[:4]:
        lone = replace(corridors_map.lanes[lane_id], predecessors=(), successors=())
        f = tmp_path / f"scene_{lane_id}.csv"
        crop = SceneMap(demo_scene.city, {lane_id: lone})
        f.write_text(scene_to_text(replace(demo_scene, map_crop=crop)), encoding="utf-8")
        files.append(f)
    a, b, c, d = files
    lanes = {}
    monkeypatch.setattr(maps, "_LANE_CACHE", lanes)
    recent = []  # the distinct lanes read, least recently read first
    for f in (a, b, a, c, d, b):  # the hit on a keeps it past the read of d
        (lane,) = read_scene(f).map_crop.lanes.values()
        recent = [m for m in recent if m is not lane] + [lane]
        assert list(lanes.values()) == recent[-3:]


def test_crop_keeps_nearby_lanes_and_prunes_links(corridors_map):
    crop = crop_map(corridors_map, (-100.0, 0.0), 30.0)
    assert "H0_0" in crop.lanes
    assert "H2_0" not in crop.lanes  # 120 m away
    crop.validate()


def test_generate_dataset_counts_and_manifest(tmp_path, corridors_map):
    cfg = small_cfg(tmp_path, n=10)
    records = generate_dataset([corridors_map], cfg)
    assert [rec.index for rec in records] == list(range(10))
    counts = manifest.manifest_counts((rec.status, rec.city) for rec in records)
    assert counts["total"] == 10
    assert sum(counts[k] for k in ("original", "augmented", "skipped")) == 10
    text = (tmp_path / "scenes" / "manifest.txt").read_text()
    assert "# count total: 10" in text
    assert "# config seed: 3" in text
    files = sorted((tmp_path / "scenes").glob("scene_*.csv"))
    assert len(files) == 10 - counts["skipped"]


def test_generate_dataset_idempotent_rerun(tmp_path, corridors_map):
    cfg = small_cfg(tmp_path, n=5)
    generate_dataset([corridors_map], cfg)
    out = tmp_path / "scenes"
    before = {f.name: (f.stat().st_mtime_ns, f.stat().st_ino) for f in out.iterdir()}
    generate_dataset([corridors_map], cfg)
    after = {f.name: (f.stat().st_mtime_ns, f.stat().st_ino) for f in out.iterdir()}
    assert before == after


def test_generate_dataset_resumes_missing_files(tmp_path, corridors_map):
    cfg = small_cfg(tmp_path, n=5)
    records = generate_dataset([corridors_map], cfg)
    victim = tmp_path / "scenes" / records[2].filename
    original = victim.read_bytes()
    victim.unlink()
    generate_dataset([corridors_map], cfg)
    assert victim.read_bytes() == original


def test_generate_dataset_worker_count_invariant_bytes(tmp_path, corridors_map):
    cfg1 = GenerationConfig(seed=14, n_scenes=12, output_dir=str(tmp_path / "a"))
    cfg2 = GenerationConfig(seed=14, n_scenes=12, output_dir=str(tmp_path / "b"))
    generate_dataset([corridors_map], cfg1, workers=1)
    generate_dataset([corridors_map], cfg2, workers=4)
    for f1 in sorted((tmp_path / "a").glob("scene_*.csv")):
        f2 = tmp_path / "b" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_chunk_indices_gives_each_worker_the_same_number_of_near_equal_chunks():
    size = synthesis.ROUND_SCENES
    assert [len(c) for c in synthesis.chunk_indices(list(range(200)), 2)] == [50] * 4
    for n in (0, 1, 3, 16, 17, 64, 65, 199, 200, 1000):
        todo = list(range(5, 5 + 2 * n, 2))  # gaps, as when resuming
        least = -(-n // size)  # chunks needed with none above `size`
        for workers in (2, 3, 4, 7):
            chunks = synthesis.chunk_indices(todo, workers)
            sizes = [len(c) for c in chunks]
            assert [i for c in chunks for i in c] == todo
            assert all(0 < k <= size for k in sizes)
            assert max(sizes, default=0) - min(sizes, default=0) <= 1
            # the fewest chunks that are a multiple of the workers, or one per scene
            rounds = -(-least // workers)
            assert len(chunks) == min(rounds * workers, n)


@pytest.mark.parametrize("n, workers, processes", [(3, 8, [3]), (5, 2, [2]), (1, 4, [])])
def test_generate_dataset_starts_one_process_per_pool_task_at_most(
    tmp_path, corridors_map, monkeypatch, n, workers, processes
):
    started = []  # the size of each pool

    class InlinePool:
        """A pool that runs its tasks in this process, in order."""

        def __init__(self, size, initializer, initargs):
            started.append(size)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(synthesis, "_POOL_STATE", None)
    monkeypatch.setattr(synthesis.multiprocessing, "Pool", InlinePool)
    records = generate_dataset([corridors_map], small_cfg(tmp_path, n=n), workers=workers)
    assert started == processes
    assert [rec.index for rec in records] == list(range(n))


def test_generate_dataset_checks_each_map_before_writing(tmp_path, corridors_map):
    lane = corridors_map.lanes["H0_0"]
    broken = SceneMap(
        corridors_map.city,
        {**corridors_map.lanes, "H0_0": replace(lane, successors=lane.successors + ("gone",))},
    )
    with pytest.raises(ValidationError, match="references missing lane 'gone'"):
        generate_dataset([corridors_map, broken], small_cfg(tmp_path, n=3))
    assert not (tmp_path / "scenes").exists()


def test_generate_dataset_requires_maps(tmp_path):
    with pytest.raises(ConfigError, match="map"):
        generate_dataset([], small_cfg(tmp_path))


def test_generate_dataset_unwritable_output(corridors_map, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")  # a file where the directory should go
    cfg = GenerationConfig(seed=1, n_scenes=1, output_dir=str(blocker / "x"))
    with pytest.raises(ConfigError, match="writable|exist"):
        generate_dataset([corridors_map], cfg)


def test_augmented_scene_records_transform(corridors_map):
    cfg = GenerationConfig(
        seed=4, n_scenes=1, output_dir="unused", augmented_fraction=1.0
    )
    scene = make_scene(
        corridors_map, np.random.default_rng([4, 0, 0]), cfg, "000000"
    )
    assert scene.metadata["augmented"] == "true"
    assert scene.metadata["transform_kind"] in ("single_turn", "double_turn")
    assert float(scene.metadata["transform_alpha1"]) >= 1.0


def test_manifest_counts_tally_rows_in_manifest_order():
    rows = [("original", "PIT", "1.0"), ("augmented", "MIA"), ("skipped", "-"),
            ("unknown", "MIA"), ("original",)]
    counts = manifest.manifest_counts(rows)
    # an unknown status counts in the total and for its city; a row
    # without a city field for no city
    assert list(counts.items()) == [
        ("total", 5), ("original", 2), ("augmented", 1), ("skipped", 1),
        ("city MIA", 2), ("city PIT", 1),
    ]


def test_multi_city_datasets_track_cities(tmp_path):
    maps = [
        generate_map_fixture("corridors", "MIA"),
        generate_map_fixture("corridors", "PIT"),
    ]
    cfg = small_cfg(tmp_path, n=12, seed=8)
    counts = manifest.manifest_counts(
        (rec.status, rec.city) for rec in generate_dataset(maps, cfg)
    )
    per_city = {k: n for k, n in counts.items() if k.startswith("city ")}
    assert list(per_city) == ["city MIA", "city PIT"]
    assert sum(per_city.values()) == 12 - counts["skipped"]


def scene_files_digest(directory) -> str:
    """sha256 over the name and bytes of every scene file, in name order.
    The manifest is left out: it echoes `output_dir`."""
    h = hashlib.sha256()
    for f in sorted(directory.glob("scene_*.csv")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


# recorded when refinement moved to its precomputed, BLAS-free gain; a
# change that alters output bytes on purpose updates them and says so in
# CHANGES.md. The third case refines at a second shape: k = 10 fine steps
# per coarse step, n = 70 fine steps. `planner` holds the planner keys
# that differ from their defaults
@pytest.mark.parametrize(
    "seed, fraction, digest, planner",
    [
        (3, 165.0 / 370.0,
         "7f59eb848a970ec4df608f8e363229a6044ec345680bc768ea9b812b347843d9",
         {}),
        (5, 1.0,
         "5a992ca37392b7919e3a4c633c8327657e57b698ae6226aa45cca2e5662e0a65",
         {}),
        (7, 165.0 / 370.0,
         "62c5c1063dad8cc99665961b871fd4489456b0e09a594ff53c23cdc758702e62",
         {"dt": 1.0, "t_g": 7.0}),
    ],
)
def test_dataset_bytes_pinned(tmp_path, corridors_map, seed, fraction, digest, planner):
    cfg = small_cfg(tmp_path, n=40, seed=seed, augmented_fraction=fraction, **planner)
    generate_dataset([corridors_map], cfg)
    assert scene_files_digest(tmp_path / "scenes") == digest


def found_simd_features() -> str:
    """The SIMD features numpy dispatches to on this CPU, as
    `NPY_DISABLE_CPU_FEATURES` takes them; the baseline cannot be
    disabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return ",".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))


@pytest.mark.parametrize(
    "setting",
    [
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"NPY_DISABLE_CPU_FEATURES": found_simd_features()},
    ],
    ids=["openblas-prescott", "openblas-haswell", "numpy-no-simd"],
)
def test_dataset_bytes_pinned_on_other_kernels(setting):
    # the pinned digests in a fresh process that picks another BLAS kernel,
    # or numpy's baseline code paths: a seed and a config give one dataset
    src = str(Path(synthesis.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_dataset_bytes_pinned"],
        capture_output=True, text=True, timeout=300, cwd=Path(__file__).parent,
        env={**os.environ, **setting, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "3 passed" in proc.stdout


def test_chunk_with_forced_retries_writes_the_bytes_of_chunks_of_one(
    tmp_path, corridors_map, monkeypatch
):
    # one worker in rounds of one attempt and of ROUND_SCENES: every third
    # scene fails its first two attempts and scene 7 every one, so retries
    # join later rounds and one scene ends skipped
    real_validate = synthesis.validate_scene

    def flaky(scene):
        index, attempt = map(int, scene.metadata["rng_key"].split("/")[1:])
        if index == 7 or (index % 3 == 0 and attempt < 2):
            raise ValidationError(f"forced failure {index}/{attempt}")
        real_validate(scene)

    calls = {"generate_scene": [], "astar_plan": []}  # first argument's size per call

    def counted(name):
        real = getattr(synthesis, name)

        def call(*args):
            calls[name].append(len(args[0]) if isinstance(args[0], list) else 1)
            return real(*args)

        return call

    monkeypatch.setattr(synthesis, "validate_scene", flaky)
    runs = {}
    full = synthesis.ROUND_SCENES
    n = 150  # more than two full rounds
    for size in (1, full):
        monkeypatch.setattr(synthesis, "ROUND_SCENES", size)
        with monkeypatch.context() as mp:
            for name in calls:
                calls[name] = []
                mp.setattr(synthesis, name, counted(name))
            log = []
            cfg = small_cfg(
                tmp_path / str(size), n=n, seed=6, augmented_fraction=1.0, retry_budget=3
            )
            built = generate_dataset([corridors_map], cfg, log=log.append)
        records = [(r.filename, r.status, r.cost, r.attempts, r.reason) for r in built]
        # one finishing call per attempt, as the traced benchmark counts them
        assert len(calls["generate_scene"]) == sum(r.attempts for r in built)
        runs[size] = (
            scene_files_digest(tmp_path / str(size) / "scenes"),
            records,
            [line.partition(" wall_ms=")[0] for line in log],
            calls["astar_plan"],
        )
    one, rolled = runs[1], runs[full]
    assert rolled[:3] == one[:3]
    assert set(one[3]) == {1}
    # one worker runs one queue, and retries join the next round, so only
    # the last round that takes new scenes and the rounds of retries after
    # it plan fewer than ROUND_SCENES problems
    assert rolled[3][:2] == [full, full]
    short = [size for size in rolled[3] if size != full]
    assert len(short) <= cfg.retry_budget + 1
    assert sum(rolled[3]) == sum(one[3])
    records = one[1]
    assert records[7][1:4] == ("skipped", "-", 4) and "forced failure 7/3" in records[7][4]
    assert all(records[i][3] >= 3 for i in range(0, n, 3) if i != 7)
    assert [line.partition(" ")[0] for line in one[2]] == [
        f"scene={r[0]}" for r in records
    ]
    # scene 3 was made by its third attempt, from that attempt's own stream
    cfg = small_cfg(tmp_path, seed=6, augmented_fraction=1.0)
    rng = np.random.default_rng([6, 3, 2])
    scene = make_scene(corridors_map, rng, cfg, "000003", "6/3/2", force_augmented=True)
    kept = tmp_path / str(full) / "scenes" / "scene_000003.csv"
    assert kept.read_text() == scene_to_text(scene)
