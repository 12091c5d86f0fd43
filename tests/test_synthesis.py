import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_same_outcome, reference_read_scene, reference_scene_text
from scenesynth.errors import ConfigError, MapFormatError, SceneSynthError, ValidationError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.geometry import Point2
from scenesynth.maps import crop_map
from scenesynth import synthesis
from scenesynth.planner import PlannerParams
from scenesynth.refine import RefinementParams
from scenesynth.synthesis import (
    GenerationConfig,
    SCENE_SAMPLES,
    generate_dataset,
    make_scene,
    read_scene,
    scene_to_text,
    validate_scene,
    write_scene,
)


def small_cfg(tmp_path, n=6, seed=3, **kw):
    return GenerationConfig(
        seed=seed, n_scenes=n, output_dir=str(tmp_path / "scenes"), **kw
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        GenerationConfig(seed=1, n_scenes=0)
    with pytest.raises(ConfigError):
        GenerationConfig(seed=1, n_scenes=1, augmented_fraction=1.5)
    with pytest.raises(ConfigError):
        GenerationConfig(seed=1, n_scenes=1, crop_radius=0.0)
    with pytest.raises(ConfigError):
        GenerationConfig(
            seed=1, n_scenes=1, refinement=RefinementParams(dt_fine=0.2, k=5),
            planner=PlannerParams(dt=1.0),
        )
    with pytest.raises(ConfigError):
        # horizon too short for 50 samples at 10 Hz
        GenerationConfig(seed=1, n_scenes=1, planner=PlannerParams(t_g=2.0))


def test_scene_deterministic_bytes(corridors_map):
    cfg = GenerationConfig(seed=9, n_scenes=1, output_dir="unused")
    a = make_scene(corridors_map, np.random.default_rng([9, 0, 0]), cfg, "000000")
    b = make_scene(corridors_map, np.random.default_rng([9, 0, 0]), cfg, "000000")
    assert scene_to_text(a) == scene_to_text(b)


def test_scene_shape_and_split(demo_scene):
    assert demo_scene.timestamps.shape == (SCENE_SAMPLES,)
    assert demo_scene.trajectory.shape == (SCENE_SAMPLES, 2)
    assert demo_scene.timestamps[0] == 0.0
    assert demo_scene.timestamps[19] == pytest.approx(1.9)  # last history sample
    assert demo_scene.timestamps[-1] == pytest.approx(4.9)
    assert demo_scene.history.shape == (20, 2)
    assert demo_scene.future.shape == (30, 2)
    assert np.array_equal(
        np.vstack([demo_scene.history, demo_scene.future]), demo_scene.trajectory
    )


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
    write_scene(demo_scene, f)
    back = read_scene(f)
    assert back.scene_id == demo_scene.scene_id
    assert back.city == demo_scene.city
    assert back.metadata == demo_scene.metadata
    assert np.abs(back.trajectory - demo_scene.trajectory).max() < 1e-9
    assert np.abs(back.timestamps - demo_scene.timestamps).max() < 1e-9
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
    with pytest.raises(ValidationError, match="0.1"):
        read_scene(f)


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
    f.write_text(scene_to_text(demo_scene).replace("AGENT", "CYCLIST"))
    with pytest.raises(MapFormatError, match="AGENT"):
        read_scene(f)


def test_validate_scene_catches_crop_violation(demo_scene):
    meta = dict(demo_scene.metadata)
    meta["crop_radius"] = "1.0"
    bad = type(demo_scene)(
        demo_scene.scene_id,
        demo_scene.city,
        demo_scene.map_crop,
        demo_scene.timestamps,
        demo_scene.trajectory,
        meta,
    )
    with pytest.raises(ValidationError, match="crop"):
        validate_scene(bad)


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
    assert_same_outcome(read_scene, reference_read_scene, f)
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
    """Several lines replaced or inserted: the first fault a line-by-line
    reader meets is the one raised."""
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    for line, insert, text in edits:
        if insert:
            lines.insert(line % (len(lines) + 1), text)
        else:
            lines[line % len(lines)] = text
    f = tmp_path_factory.mktemp("edits") / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_same_outcome(read_scene, reference_read_scene, f)


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
        # a bad row before a metadata line without ':'
        ([(("row", 3), "0.3,000000,AGENT,x,0.0,MIA"), (("row", 40), "# no colon")], ("row", 3)),
        # a metadata line without ':' before a bad row
        ([(("meta", 2), "# no colon"), (("row", 3), "0.3,000000,AGENT,x,0.0,MIA")], ("meta", 2)),
        # a bad map coordinate is met after every row
        ([(("pt", 0), "# map: pt x 0"), (("row", 3), "0.3,000000,CAR,1,0,MIA")], ("row", 3)),
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
    assert_same_outcome(read_scene, reference_read_scene, f)
    with pytest.raises(MapFormatError) as exc:
        read_scene(f)
    assert exc.value.line == want


@pytest.mark.parametrize("fraction", [165.0 / 370.0, 1.0])
def test_read_scene_matches_reference(corridors_map, fraction, tmp_path):
    cfg = GenerationConfig(output_dir="unused", augmented_fraction=fraction)
    f = tmp_path / "scene_000000.csv"
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


@pytest.mark.parametrize("column, value", [(1, "000999"), (5, "PIT")])
def test_read_scene_row_identity_names_first_row_at_fault(
    demo_scene, tmp_path, column, value
):
    lines = scene_to_text(demo_scene).rstrip("\n").split("\n")
    header = lines.index("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME")
    for i in (header + 11, header + 30):
        fields = lines[i].split(",")
        fields[column] = value
        lines[i] = ",".join(fields)
    f = tmp_path / "scene_000000.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f":{header + 12}: row identity") as exc:
        read_scene(f)
    assert exc.value.line == header + 12
    assert_same_outcome(read_scene, reference_read_scene, f)


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


def test_crop_keeps_nearby_lanes_and_prunes_links(corridors_map):
    crop = crop_map(corridors_map, Point2(-100.0, 0.0), 30.0)
    assert "H0_0" in crop.lanes
    assert "H2_0" not in crop.lanes  # 120 m away
    crop.validate()


def test_generate_dataset_counts_and_manifest(tmp_path, corridors_map):
    cfg = small_cfg(tmp_path, n=10)
    manifest = generate_dataset([corridors_map], cfg)
    assert len(manifest.records) == 10
    assert sum(manifest.counts.values()) == 10
    text = manifest.path.read_text()
    assert "# count total: 10" in text
    assert "# config seed: 3" in text
    files = sorted((tmp_path / "scenes").glob("scene_*.csv"))
    assert len(files) == 10 - manifest.counts["skipped"]


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
    manifest = generate_dataset([corridors_map], cfg)
    victim = tmp_path / "scenes" / manifest.records[2].filename
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
    size = synthesis.CHUNK_SCENES
    assert [len(c) for c in synthesis.chunk_indices(list(range(200)), 2)] == [15] * 4 + [14] * 10
    for n in (0, 1, 3, 16, 17, 33, 40, 199, 200, 1000):
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


def test_multi_city_datasets_track_cities(tmp_path):
    maps = [
        generate_map_fixture("corridors", "MIA"),
        generate_map_fixture("corridors", "PIT"),
    ]
    cfg = small_cfg(tmp_path, n=12, seed=8)
    manifest = generate_dataset(maps, cfg)
    assert set(manifest.per_city) == {"MIA", "PIT"}
    assert sum(manifest.per_city.values()) == 12 - manifest.counts["skipped"]


def scene_files_digest(directory) -> str:
    """sha256 over the name and bytes of every scene file, in name order.
    The manifest is left out: it echoes `output_dir`."""
    h = hashlib.sha256()
    for f in sorted(directory.glob("scene_*.csv")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


# recorded before the planner gained its beam bound; a change that alters
# output bytes on purpose updates them and says so in CHANGES.md
@pytest.mark.parametrize(
    "seed, fraction, digest",
    [
        (3, 165.0 / 370.0,
         "b28ada983d5bb705d6ff7aaa067e3df0bf7e77b3485555c8b88d4342d1d5dd98"),
        (5, 1.0,
         "4922c9fc118649b559e31b90bd75bc1f55f8bfb618bfab7d42b60eaeb7ad5853"),
    ],
)
def test_dataset_bytes_pinned(tmp_path, corridors_map, seed, fraction, digest):
    cfg = small_cfg(tmp_path, n=40, seed=seed, augmented_fraction=fraction)
    generate_dataset([corridors_map], cfg)
    assert scene_files_digest(tmp_path / "scenes") == digest


def test_chunk_with_forced_retries_writes_the_bytes_of_chunks_of_one(
    tmp_path, corridors_map, monkeypatch
):
    # every third scene fails its first two attempts and scene 7 every one,
    # so retries join later rounds and one scene ends skipped
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
    for chunk in (1, synthesis.CHUNK_SCENES):
        monkeypatch.setattr(synthesis, "CHUNK_SCENES", chunk)
        with monkeypatch.context() as mp:
            for name in calls:
                calls[name] = []
                mp.setattr(synthesis, name, counted(name))
            log = []
            cfg = small_cfg(
                tmp_path / str(chunk), n=40, seed=6, augmented_fraction=1.0, retry_budget=3
            )
            manifest = generate_dataset([corridors_map], cfg, log=log.append)
        records = [
            (r.filename, r.status, r.cost, r.attempts, r.reason) for r in manifest.records
        ]
        # one finishing call per attempt, as the traced benchmark counts them
        assert len(calls["generate_scene"]) == sum(r.attempts for r in manifest.records)
        runs[chunk] = (
            scene_files_digest(tmp_path / str(chunk) / "scenes"),
            records,
            [line.partition(" wall_ms=")[0] for line in log],
            calls["astar_plan"],
        )
    one, rolled = runs[1], runs[synthesis.CHUNK_SCENES]
    assert rolled[:3] == one[:3]
    # one worker runs one queue, and retries join the next round, so only
    # the last round that takes new scenes and the rounds of retries after
    # it plan fewer than CHUNK_SCENES problems
    short = [size for size in rolled[3] if size != synthesis.CHUNK_SCENES]
    assert len(short) <= cfg.retry_budget + 1
    assert sum(rolled[3]) == sum(one[3])
    records = one[1]
    assert records[7][1:4] == ("skipped", "-", 4) and "forced failure 7/3" in records[7][4]
    assert all(records[i][3] >= 3 for i in range(0, 40, 3) if i != 7)
    assert [line.partition(" ")[0] for line in one[2]] == [
        f"scene={r[0]}" for r in records
    ]
    # scene 3 was made by its third attempt, from that attempt's own stream
    cfg = small_cfg(tmp_path, seed=6, augmented_fraction=1.0)
    rng = np.random.default_rng([6, 3, 2])
    scene = make_scene(corridors_map, rng, cfg, "000003", "6/3/2", force_augmented=True)
    kept = tmp_path / str(synthesis.CHUNK_SCENES) / "scenes" / "scene_000003.csv"
    assert kept.read_text() == scene_to_text(scene)
