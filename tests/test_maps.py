import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_same_outcome, reference_parse_map_lines
from scenesynth.errors import (
    MapFormatError,
    PathOverrunError,
    SceneSynthError,
    ValidationError,
)
from scenesynth.fixtures import generate_map_fixture
from scenesynth.geometry import Point2, Polyline
from scenesynth.maps import (
    LaneSegment,
    build_reference_path,
    build_reference_paths,
    load_map,
    make_map,
    map_to_lines,
    parse_map_lines,
    project_to_path,
    save_map,
)

TWO_LANE = """\
city MIA
lane L1
pt 0.0 0.0
pt 50.0 0.0
pt 100.0 0.0
succ L2
lane L2
pt 100.0 0.0
pt 200.0 0.0
pred L1
"""


def test_load_two_lane_map(tmp_path):
    f = tmp_path / "two.map"
    f.write_text(TWO_LANE)
    m = load_map(f)
    assert m.city == "MIA"
    assert len(m.lanes) == 2
    assert m.n_edges() == 1
    assert m.lanes["L1"].successors == ("L2",)


def test_dangling_successor_is_validation_error(tmp_path):
    f = tmp_path / "bad.map"
    f.write_text("lane L1\npt 0 0\npt 1 0\nsucc L9\n")
    with pytest.raises(ValidationError, match="L9"):
        load_map(f)


def test_unknown_directive_names_line(tmp_path):
    f = tmp_path / "bad.map"
    f.write_text("lane L1\npt 0 0\nwat 3\n")
    with pytest.raises(MapFormatError, match="bad.map:3"):
        load_map(f)


def test_bad_coordinate_reports_line(tmp_path):
    f = tmp_path / "bad.map"
    f.write_text("lane L1\npt 0 zero\npt 1 0\n")
    with pytest.raises(MapFormatError, match="bad.map:2"):
        load_map(f)


def test_single_point_lane_rejected(tmp_path):
    f = tmp_path / "bad.map"
    f.write_text("lane L1\npt 0 0\n")
    with pytest.raises(MapFormatError, match="L1"):
        load_map(f)


def test_successor_gap_rejected():
    lanes = [
        LaneSegment("A", Polyline([(0, 0), (10, 0)]), (), ("B",)),
        LaneSegment("B", Polyline([(11.0, 0), (20, 0)]), ("A",), ()),
    ]
    with pytest.raises(ValidationError, match="gap"):
        make_map("MIA", lanes)


def test_duplicate_lane_id_rejected():
    lanes = [
        LaneSegment("A", Polyline([(0, 0), (10, 0)])),
        LaneSegment("A", Polyline([(20, 0), (30, 0)])),
    ]
    with pytest.raises(ValidationError, match="duplicate"):
        make_map("MIA", lanes)


@pytest.mark.parametrize("name", ["straight_pair", "chain3", "fork", "corridors"])
def test_fixture_roundtrip_through_file(tmp_path, name):
    m = generate_map_fixture(name)
    f = tmp_path / f"{name}.map"
    save_map(m, f)
    back = load_map(f)
    assert back.city == m.city
    assert sorted(back.lanes) == sorted(m.lanes)
    for lane_id, lane in m.lanes.items():
        other = back.lanes[lane_id]
        assert other.successors == tuple(sorted(lane.successors))
        assert other.predecessors == tuple(sorted(lane.predecessors))
        assert np.abs(other.centerline.xy - lane.centerline.xy).max() < 1e-9


def test_reference_path_single_long_lane():
    m = generate_map_fixture("straight_pair")
    rng = np.random.default_rng(0)
    path = build_reference_path(m, "L1", 100.0, rng)
    # L1 alone is 100 m, meeting the minimum without the successor
    assert path.length == pytest.approx(100.0)
    assert path.lane_ids == ("L1",)


def test_reference_path_chain_concatenates():
    m = generate_map_fixture("chain3")
    rng = np.random.default_rng(0)
    path = build_reference_path(m, "L1", 100.0, rng)
    assert path.lane_ids == ("L1", "L2", "L3")
    assert path.length == pytest.approx(120.0)
    # uniform grid with the configured spacing
    assert np.allclose(np.diff(path.cum_s), 1.0)


def test_reference_path_fork_deterministic():
    m = generate_map_fixture("fork")
    picks = {
        build_reference_path(m, "L1", 100.0, np.random.default_rng(42)).lane_ids
        for _ in range(5)
    }
    assert len(picks) == 1
    other = build_reference_path(m, "L1", 100.0, np.random.default_rng(43)).lane_ids
    assert other[0] == "L1" and other[1] in ("L2", "L3")


def test_build_reference_paths_one_per_lane():
    m = generate_map_fixture("chain3")
    paths = build_reference_paths(m, 60.0, np.random.default_rng(1))
    assert len(paths) == 3
    assert paths[0].lane_ids[0] == "L1"


def test_build_reference_paths_empty_map():
    empty = make_map("MIA", [])
    assert build_reference_paths(empty, 50.0, np.random.default_rng(0)) == []


def test_reference_path_requires_positive_min_length():
    m = generate_map_fixture("chain3")
    with pytest.raises(ValueError):
        build_reference_path(m, "L1", 0.0, np.random.default_rng(0))


def test_project_on_sample_is_exact():
    m = generate_map_fixture("straight_pair")
    path = build_reference_path(m, "L1", 100.0, np.random.default_rng(0))
    pos = Point2(*path.samples.xy[2])
    s, lateral = project_to_path(pos, path)
    assert s == path.cum_s[2]
    assert lateral == 0.0


def test_project_left_offset_positive():
    m = generate_map_fixture("straight_pair")
    path = build_reference_path(m, "L1", 100.0, np.random.default_rng(0))
    s, lateral = project_to_path(Point2(5.0, 2.0), path)
    assert s == pytest.approx(5.0)
    assert lateral == pytest.approx(2.0)


def test_project_matches_densified_search():
    m = generate_map_fixture("corridors")
    path = build_reference_path(m, "A0_0", 150.0, np.random.default_rng(3))
    dense_s = np.linspace(0, path.length, 10_000)
    dense_xy = path.xy_at(dense_s)
    rng = np.random.default_rng(9)
    for _ in range(25):
        pos = Point2(
            float(rng.uniform(-170, 170)), float(rng.uniform(150, 260))
        )
        s, _ = project_to_path(pos, path)
        d = np.hypot(dense_xy[:, 0] - pos.x, dense_xy[:, 1] - pos.y)
        s_oracle = dense_s[int(np.argmin(d))]
        assert abs(s - s_oracle) <= path.spacing


def test_xy_at_overrun_raises():
    m = generate_map_fixture("chain3")
    path = build_reference_path(m, "L1", 100.0, np.random.default_rng(0))
    with pytest.raises(PathOverrunError):
        path.xy_at(path.length + 1.0)


def test_parse_map_lines_accepts_comments_and_blanks():
    m = parse_map_lines(["# hello", "", "lane L1", "pt 0 0", "pt 5 0"])
    assert list(m.lanes) == ["L1"]


@given(
    line=st.integers(0, 10_000),
    cut=st.integers(0, 30),
    junk=st.one_of(st.text(max_size=40), st.floats().map(repr)),
)
@settings(max_examples=200, deadline=None)
def test_parse_map_lines_fuzz_any_line_raises_only_scenesynth_errors(line, cut, junk):
    """Any one line cut short and followed by arbitrary text."""
    lines = map_to_lines(generate_map_fixture("chain3"))
    i = line % len(lines)
    lines[i] = lines[i][:cut] + junk
    assert_same_outcome(parse_map_lines, reference_parse_map_lines, lines)
    try:
        m = parse_map_lines(lines)
    except SceneSynthError:
        return
    m.validate()


# well- and ill-formed lines; several of them in one map make faults meet
MAP_LINES = [
    "", "# note", "city PIT", "city", "lane L9", "lane", "lane L1 L2", "pt 0.0 0.0",
    "pt 40.0 nan", "pt 1_0 \uff12", "pt x 0", "pt 0", "succ L2", "succ", "pred L9",
    "pred", "bogus", "\x1c",
]


@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans(), st.sampled_from(MAP_LINES)),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=300, deadline=None)
def test_parse_map_lines_matches_reference_on_several_edited_lines(edits):
    """Several lines replaced or inserted: the first fault a line-by-line
    reader meets is the one raised."""
    lines = map_to_lines(generate_map_fixture("chain3"))
    for line, insert, text in edits:
        if insert:
            lines.insert(line % (len(lines) + 1), text)
        else:
            lines[line % len(lines)] = text
    assert_same_outcome(parse_map_lines, reference_parse_map_lines, lines)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("pt 50.0 0.0\npt 100.0 0.0\n", "", "has 1 points"),
        ("pt 50.0 0.0\n", "pt 0.0 0.0\n", "coincident"),
        ("pt 50.0 0.0\n", "pt 50.0 nan\n", "non-finite"),
    ],
)
def test_lane_fault_names_its_lane_line(tmp_path, old, new, message):
    f = tmp_path / "m.map"
    f.write_text(TWO_LANE.replace(old, new))
    with pytest.raises(MapFormatError, match=message) as exc:
        load_map(f)
    assert exc.value.line == 2  # `lane L1`, not the `lane L2` line that closes it
