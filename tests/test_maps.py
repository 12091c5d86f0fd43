import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_same_map,
    assert_same_outcome,
    reference_crop_map,
    reference_parse_map_lines,
    with_lane_cache,
)
from scenesynth import maps
from scenesynth.augment import TurnKind, TurnTransformParams, apply_transform
from scenesynth.errors import (
    MapFormatError,
    PathOverrunError,
    SceneSynthError,
    ValidationError,
)
from scenesynth.fixtures import generate_map_fixture
from scenesynth.geometry import Polyline
from scenesynth.maps import (
    PATH_CACHE_SIZE,
    LaneSegment,
    build_reference_path,
    crop_map,
    load_map,
    make_map,
    map_to_lines,
    parse_map_lines,
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
    assert sum(len(lane.successors) for lane in m.lanes.values()) == 1
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
    # the 1 m grid of REFERENCE_SPACING, exactly
    assert np.allclose(np.diff(path.cum_s), 1.0)
    assert path.cum_s.tobytes() == np.arange(len(path.cum_s), dtype=float).tobytes()


def test_reference_path_fork_deterministic():
    m = generate_map_fixture("fork")
    picks = {
        build_reference_path(m, "L1", 100.0, np.random.default_rng(42)).lane_ids
        for _ in range(5)
    }
    assert len(picks) == 1
    other = build_reference_path(m, "L1", 100.0, np.random.default_rng(43)).lane_ids
    assert other[0] == "L1" and other[1] in ("L2", "L3")




def test_reference_path_requires_positive_min_length():
    m = generate_map_fixture("chain3")
    with pytest.raises(ValueError):
        build_reference_path(m, "L1", 0.0, np.random.default_rng(0))





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
    assert_parses_as_reference(lines)
    try:
        m = parse_map_lines(lines)
    except SceneSynthError:
        return
    m.validate()


# well- and ill-formed lines; several of them in one map make faults meet.
# An indented lane line, a city line or a newline inside a lane record
# makes a record that a lane cache must not keep
MAP_LINES = [
    "", "# note", "city PIT", "city", "lane L9", "lane", "lane L1 L2", "pt 0.0 0.0",
    "pt 40.0 nan", "pt 1_0 \uff12", "pt x 0", "pt 0", "succ L2", "succ", "pred L9",
    "pred", "bogus", "\x1c", " lane L8", "pt 60.0 1.0\npt 70.0 1.0", "lane L7\npt 0 9",
]


def assert_parses_as_reference(lines):
    """`parse_map_lines` parses `lines` as the reference does: with the
    lane cache as earlier parses left it, with a cold one, with one that
    has parsed the unedited `chain3` map, and with one that has parsed
    `lines` themselves."""
    assert_same_outcome(parse_map_lines, reference_parse_map_lines, lines)
    cold, clean, warm = {}, {}, {}
    with_lane_cache(parse_map_lines, clean)(map_to_lines(generate_map_fixture("chain3")))
    try:
        with_lane_cache(parse_map_lines, warm)(lines)
    except SceneSynthError:
        pass
    for lanes in (cold, clean, warm):
        parse = with_lane_cache(parse_map_lines, lanes)
        assert_same_outcome(parse, reference_parse_map_lines, lines)


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
    assert_parses_as_reference(lines)


def _inside_second_lane(*inserted):
    """An edit that puts `inserted` after the second point of the second
    lane record of a map."""

    def edit(lines):
        i = [k for k, line in enumerate(lines) if line.startswith("lane ")][1] + 3
        return lines[:i] + list(inserted) + lines[i:]

    return edit


def _join_two_points(lines):
    """The first two point lines of the second lane as one line that holds
    a newline: joined, the map's text is unchanged."""
    i = [k for k, line in enumerate(lines) if line.startswith("lane ")][1] + 1
    return lines[:i] + [lines[i] + "\n" + lines[i + 1]] + lines[i + 2 :]


def _one_point_lane_before_a_bad_header(lines):
    """The first lane cut to one point and followed by the second lane's
    `lane` line with a second id: a line-by-line reader faults on that
    line before it closes the first lane."""
    heads = [k for k, line in enumerate(lines) if line.startswith("lane ")]
    return lines[: heads[0] + 2] + [lines[heads[1]] + " X"] + lines[heads[1] + 1 :]


@pytest.mark.parametrize(
    "edit",
    [_inside_second_lane("city PIT"), _inside_second_lane(" lane L8", "pt 500 0", "pt 501 0"),
     _inside_second_lane("lane\tL8", "pt 500 0", "pt 501 0"), _join_two_points,
     _one_point_lane_before_a_bad_header],
    ids=["city", "indented-lane", "tab-lane", "newline", "bad-lane-closes-nothing"],
)
def test_parse_map_lines_keeps_no_record_that_a_reuse_would_change(edit):
    """A record that sets the city, defines a second lane, or holds a
    newline inside a line is parsed afresh each time, and a malformed
    `lane` line does not close the lane before it."""
    lines = edit(map_to_lines(generate_map_fixture("chain3")))
    assert_parses_as_reference(lines)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("pt 50.0 0.0\npt 100.0 0.0\n", "", "has 1 points"),
        ("pt 50.0 0.0\n", "pt 0.0 0.0\n", "coincident"),
        ("pt 50.0 0.0\n", "pt 50.0 nan\n", "non-finite"),
        # finite, but its arc-length would overflow
        ("pt 50.0 0.0\npt 100.0 0.0\n", "pt 1e308 0\npt -1e308 0\n", "exceeds 1e\\+150 m"),
        # within the coordinate bound, but too long to resample
        ("pt 50.0 0.0\npt 100.0 0.0\n", "pt 1e150 0\n", "length 1e\\+150 m exceeds 100000.0 m"),
        ("pt 50.0 0.0\npt 100.0 0.0\n", "pt 100000.5 0\n", "length 100000.5 m exceeds"),
    ],
)
def test_lane_fault_names_its_lane_line(tmp_path, old, new, message):
    f = tmp_path / "m.map"
    f.write_text(TWO_LANE.replace(old, new))
    with pytest.raises(MapFormatError, match=message) as exc:
        load_map(f)
    assert exc.value.line == 2  # `lane L1`, not the `lane L2` line that closes it


def test_reference_path_longer_than_the_length_limit_is_a_validation_error():
    m = make_map("MIA", [
        LaneSegment("A", Polyline([(0.0, 0.0), (60000.0, 0.0)]), (), ("B",)),
        LaneSegment("B", Polyline([(60000.0, 0.0), (120000.0, 0.0)]), ("A",), ()),
    ])
    with pytest.raises(ValidationError, match="reference path through lanes A, B: polyline "
                       "length 120000.0 m exceeds"):
        build_reference_path(m, "A", 70000.0, np.random.default_rng(0))
    assert build_reference_path(m, "A", 150.0, np.random.default_rng(0)).length == 60000.0


def test_map_points_are_one_read_only_array_kept_with_the_map():
    m = generate_map_fixture("fork")
    twin = generate_map_fixture("fork")
    ids, xy, offsets = m.points
    assert m.points is m.points
    assert ids == ("L1", "L2", "L3") and list(offsets) == [0, *np.cumsum(
        [m.lanes[k].centerline.n_points for k in ids]
    )]
    assert xy.tobytes() == np.concatenate([m.lanes[k].centerline.xy for k in ids]).tobytes()
    assert not xy.flags.writeable and not offsets.flags.writeable
    assert m == twin and twin == m  # not a field: equality ignores it


@pytest.mark.parametrize("name", ["corridors", "fork", "chain3"])
def test_crop_map_matches_reference(name):
    """Random centers and radii on the fixture and on a warped copy (whose
    `points` the warp built), a radius of 0 on a centerline point, and a
    crop that keeps no lane."""
    base = generate_map_fixture(name)
    x, y = base.points.xy[3].tolist()
    warped = apply_transform(
        base, TurnTransformParams(TurnKind.SINGLE, 5.0, 3.0, 20.0, 10.0, None, x, y, 0.4)
    )
    rng = np.random.default_rng([9, len(name)])
    lo, hi = base.points.xy.min(axis=0) - 150.0, base.points.xy.max(axis=0) + 150.0
    kept = set()
    for m in (base, warped):
        cases = [(m.points.xy[7].tolist(), 0.0), ((hi + 500.0).tolist(), 100.0)]
        cases += [
            (rng.uniform(lo, hi).tolist(), float(rng.uniform(0.5, 200.0)))
            for _ in range(200)
        ]
        for center, radius in cases:
            got = crop_map(m, center, radius)
            assert_same_map(got, reference_crop_map(m, center, radius))
            for lane_id, lane in got.lanes.items():
                assert lane.centerline is m.lanes[lane_id].centerline
            kept.add(len(got.lanes))
        assert len(crop_map(m, *cases[0]).lanes) >= 1
        assert crop_map(m, *cases[1]).lanes == {}
    assert {0, len(base.lanes)} < kept
    assert crop_map(make_map("MIA", []), (0.0, 0.0), 10.0).lanes == {}


@pytest.mark.parametrize("name", ["corridors", "fork", "chain3"])
def test_crop_map_equals_make_map_of_its_lanes(name):
    """A crop is the map that `make_map` builds, and validates, from the
    same lanes, so a crop of a valid map passes `SceneMap.validate` (which
    `validate_scene` relies on); a lane whose links all stay in the crop
    is the source's own `LaneSegment`."""
    base = generate_map_fixture(name)
    rng = np.random.default_rng([10, len(name)])
    lo, hi = base.points.xy.min(axis=0) - 50.0, base.points.xy.max(axis=0) + 50.0
    pruned = whole = 0
    for _ in range(200):
        center = rng.uniform(lo, hi).tolist()
        crop = crop_map(base, center, float(rng.uniform(0.5, 200.0)))
        assert crop == make_map(base.city, list(crop.lanes.values()))
        for lane_id, lane in crop.lanes.items():
            source = base.lanes[lane_id]
            links = (lane.predecessors, lane.successors)
            if links == (source.predecessors, source.successors):
                assert lane is source
                whole += 1
            else:
                pruned += 1
    assert pruned and whole


@pytest.fixture
def path_cache(monkeypatch):
    """An empty reference-path cache for one test."""
    cache = {}
    monkeypatch.setattr(maps, "_PATH_CACHE", cache)
    return cache


def uncached_path(m, lane_id, min_length, seed, monkeypatch):
    """The path built with an empty cache, and the rng state after it."""
    rng = np.random.default_rng(seed)
    with monkeypatch.context() as mp:
        mp.setattr(maps, "_PATH_CACHE", {})
        path = build_reference_path(m, lane_id, min_length, rng)
    return path, rng.bit_generator.state


def assert_same_path(got, want):
    assert got.lane_ids == want.lane_ids
    for a, b in ((got.samples.xy, want.samples.xy), (got.cum_s, want.cum_s),
                 (got.kappa, want.kappa)):
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
        assert not a.flags.writeable


def test_repeated_chain_returns_the_cached_path_with_uncached_bits(path_cache, monkeypatch):
    m = generate_map_fixture("corridors")
    for seed, lane_id in enumerate(m.sorted_ids() * 3):
        want, want_state = uncached_path(m, lane_id, 150.0, seed, monkeypatch)
        rng = np.random.default_rng(seed)
        first = build_reference_path(m, lane_id, 150.0, rng)
        assert rng.bit_generator.state == want_state
        rng = np.random.default_rng(seed)
        again = build_reference_path(m, lane_id, 150.0, rng)
        assert again is first and rng.bit_generator.state == want_state
        assert_same_path(again, want)
    # an equal map made of other objects is another key
    twin = generate_map_fixture("corridors")
    first = build_reference_path(m, "A0_0", 150.0, np.random.default_rng(0))
    assert build_reference_path(twin, "A0_0", 150.0, np.random.default_rng(0)) is not first


def test_warped_chain_is_not_served_from_its_unwarped_twin(path_cache, monkeypatch):
    m = generate_map_fixture("chain3")  # L1 -> L2 -> L3, 40 m each from x = 0
    base = build_reference_path(m, "L1", 100.0, np.random.default_rng(0))
    short = build_reference_path(m, "L1", 30.0, np.random.default_rng(0))
    assert base.lane_ids == ("L1", "L2", "L3") and short.lane_ids == ("L1",)
    # an onset at x = 85 bends L3 only
    warped = apply_transform(
        m, TurnTransformParams(TurnKind.SINGLE, 85.0, 2.0, 20.0, 10.0, None, 0.0, 0.0, 0.0)
    )
    assert warped.lanes["L1"] is m.lanes["L1"] and warped.lanes["L3"] is not m.lanes["L3"]
    got = build_reference_path(warped, "L1", 100.0, np.random.default_rng(0))
    want, _ = uncached_path(warped, "L1", 100.0, 0, monkeypatch)
    assert got is not base
    assert_same_path(got, want)
    assert got.samples.xy.tobytes() != base.samples.xy.tobytes()
    # a chain of untouched lanes is the same chain in both maps
    assert build_reference_path(warped, "L1", 30.0, np.random.default_rng(0)) is short


def test_path_cache_never_exceeds_its_bound(path_cache, monkeypatch):
    """Distinct chains (every lane of every warp is a new object, and each
    warped map is dropped at once) fill the cache to its bound and no
    further, each with the bits of an uncached build; the least recently
    used entry goes first, and each entry holds the very lanes its key
    names."""
    m = generate_map_fixture("chain3")
    kept = build_reference_path(m, "L1", 100.0, np.random.default_rng(0))
    for k in range(2 * PATH_CACHE_SIZE):
        p = TurnTransformParams(TurnKind.SINGLE, 0.0, 1.0, 20.0, 10.0, None, -5.0 - k, 0.0, 0.0)
        warped = apply_transform(m, p)
        got = build_reference_path(warped, "L1", 100.0, np.random.default_rng(0))
        assert_same_path(got, uncached_path(warped, "L1", 100.0, 0, monkeypatch)[0])
        assert len(path_cache) == min(k + 2, PATH_CACHE_SIZE)
        if k < PATH_CACHE_SIZE - 2:
            # a hit makes the entry the most recently used
            assert build_reference_path(m, "L1", 100.0, np.random.default_rng(0)) is kept
        cached = [path for _, path in path_cache.values()]
        assert (kept in cached) == (k < 2 * PATH_CACHE_SIZE - 3)
    for key, (lanes, path) in path_cache.items():
        assert key == tuple(map(id, lanes))
        assert path.lane_ids == tuple(lane.lane_id for lane in lanes)
