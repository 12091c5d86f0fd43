import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_same_sample,
    binomial_band,
    make_scene,
    pointwise_l1_loop,
    read_sample_v1,
    reference_sample_text,
    sample_to_text_v1,
)
from scenesynth.cli import main
from scenesynth.errors import MapFormatError, MaskingError, SceneSynthError, ValidationError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.pretrain import (
    LANE,
    TRAJECTORY,
    MaskSettings,
    ReconTask,
    SampleRef,
    draw_masked,
    map_recon_loss,
    mask_map,
    mask_trajectory,
    read_sample,
    sample_to_text,
    scene_sha256,
    traj_recon_loss,
    vectorize_scene,
    write_sample,
    write_samples_manifest,
)
from scenesynth.synthesis import (
    GenerationConfig,
    Scene,
    generate_dataset,
    read_scene,
    scene_to_text,
)


def toy_scene(n_lanes=4, city="MIA"):
    """A hand-built scene with `n_lanes` short lanes and a 50-point path."""
    from scenesynth.geometry import Polyline
    from scenesynth.maps import LaneSegment, make_map

    lanes = [
        LaneSegment(
            f"L{i}",
            Polyline([(0.0, 4.0 * i), (5.0, 4.0 * i), (10.0, 4.0 * i)]),
        )
        for i in range(n_lanes)
    ]
    t = np.arange(50) * 0.1
    traj = np.column_stack([t * 8.0, np.zeros(50)])
    meta = {
        "scene_id": "toy000",
        "city": city,
        "crop_center_x": "20.0",
        "crop_center_y": "0.0",
        "crop_radius": "100.0",
    }
    return Scene("toy000", city, make_map(city, lanes), traj, meta)


def rows_of(vectors, kind):
    return vectors[vectors[:, 0] == kind]


def polyline_points(vectors, pid):
    rows = vectors[vectors[:, 1] == pid]
    return np.vstack([rows[:, 2:4], rows[-1, 4:6]])


def test_vectorize_fencepost_counts():
    scene = toy_scene(n_lanes=3)
    vectors = vectorize_scene(scene)
    lane_vecs = rows_of(vectors, LANE)
    traj_vecs = rows_of(vectors, TRAJECTORY)
    assert len(lane_vecs) == 3 * 2  # 3-point lanes give 2 vectors each
    assert len(traj_vecs) == 49
    assert set(lane_vecs[:, 1]) == {0, 1, 2}
    assert set(traj_vecs[:, 1]) == {3}


def test_vectorize_array_layout():
    vectors = vectorize_scene(toy_scene(n_lanes=3))
    assert vectors.shape == (3 * 2 + 49, 8)
    assert vectors.dtype == np.float64
    # lanes first, sorted by id, then the trajectory
    assert list(vectors[:, 0]) == [LANE] * 6 + [TRAJECTORY] * 49
    assert list(vectors[:, 1]) == [0, 0, 1, 1, 2, 2] + [3] * 49
    # toy lanes have no links: (pred count, succ count) = (0, 0)
    assert (vectors[:6, 6:8] == 0.0).all()


def test_vectorize_eleven_point_lane_gives_ten_vectors():
    from scenesynth.geometry import Polyline
    from scenesynth.maps import LaneSegment, make_map

    lane = LaneSegment("L0", Polyline([(float(i), 0.0) for i in range(11)]))
    scene = toy_scene(2)
    scene = Scene(
        scene.scene_id,
        scene.city,
        make_map("MIA", [lane]),
        scene.trajectory,
        scene.metadata,
    )
    vectors = vectorize_scene(scene)
    lane_vecs = rows_of(vectors, LANE)
    assert len(lane_vecs) == 10
    assert (lane_vecs[:, 1] == 0).all()


def test_vectorize_trajectory_attributes_are_timestamps():
    vectors = vectorize_scene(toy_scene())
    traj_vecs = rows_of(vectors, TRAJECTORY)
    assert tuple(traj_vecs[0, 6:8]) == (0.0, pytest.approx(0.1))
    assert traj_vecs[-1, 7] == pytest.approx(4.9)
    # the grid as a scene file's text reads, whatever the in-memory scene
    assert traj_vecs[3, 6] == 0.3 and traj_vecs[2, 7] == 0.3


def test_vectorize_reassembles_polylines_exactly(demo_scene):
    vectors = vectorize_scene(demo_scene)
    for pid, lane_id in enumerate(demo_scene.map_crop.sorted_ids()):
        lane = demo_scene.map_crop.lanes[lane_id]
        assert np.array_equal(polyline_points(vectors, pid), lane.centerline.xy)
        rows = vectors[vectors[:, 1] == pid]
        assert (rows[:, 6] == len(lane.predecessors)).all()
        assert (rows[:, 7] == len(lane.successors)).all()
    traj_id = len(demo_scene.map_crop.lanes)
    assert np.array_equal(polyline_points(vectors, traj_id), demo_scene.trajectory)


def test_mask_map_masks_half_of_ten():
    sample = mask_map(
        vectorize_scene(toy_scene(10)), 0.5, np.random.default_rng(0)
    )
    assert len(sample.masked) == 5
    assert len(sample.targets) == 5
    assert sample.task is ReconTask.MAP


def test_mask_map_rounds_half_up_on_three():
    sample = mask_map(vectorize_scene(toy_scene(3)), 0.5, np.random.default_rng(0))
    assert len(sample.masked) == 2


def test_mask_map_partition_is_clean():
    vectors = vectorize_scene(toy_scene(7))
    sample = mask_map(vectors, 0.5, np.random.default_rng(1))
    masked = set(sample.masked)
    visible = set(sample.visible[:, 1])
    assert list(sample.masked) == sorted(masked)
    assert masked.isdisjoint(visible)
    lane_ids = set(rows_of(vectors, LANE)[:, 1])
    assert (masked | visible) >= lane_ids
    # trajectory always stays visible under the map task
    assert 7 in visible
    # visible rows keep their order and are exactly the unmasked rows
    keep = [row for row in vectors.tolist() if row[1] not in masked]
    assert sample.visible.tolist() == keep


def test_mask_map_needs_two_lanes():
    with pytest.raises(MaskingError):
        mask_map(vectorize_scene(toy_scene(1)), 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("ratio", [1.5, -1.0, float("nan")])
def test_mask_map_refuses_ratio_outside_unit_interval(ratio):
    with pytest.raises(MaskingError, match="mask ratio"):
        mask_map(vectorize_scene(toy_scene(4)), ratio, np.random.default_rng(0))


def test_mask_map_placeholder_first_points_bit_exact():
    scene = toy_scene(6)
    sample = mask_map(vectorize_scene(scene), 0.5, np.random.default_rng(3))
    assert len(sample.targets) == len(sample.masked) == 3
    for pid, tgt in zip(sample.masked, sample.targets):
        # a masked polyline's placeholder is its target's first point
        lane = scene.map_crop.lanes[f"L{pid}"]
        assert tuple(tgt[0]) == tuple(lane.centerline.xy[0])
        assert np.array_equal(tgt, lane.centerline.xy)


def test_mask_trajectory_masks_only_trajectory(demo_scene):
    vectors = vectorize_scene(demo_scene)
    sample = mask_trajectory(vectors)
    traj_id = len(demo_scene.map_crop.lanes)
    assert sample.masked == (traj_id,)
    assert sample.task is ReconTask.TRAJECTORY
    start = sample.targets[0][0]
    assert tuple(start) == tuple(demo_scene.trajectory[0])
    assert np.array_equal(sample.targets[0], demo_scene.trajectory)
    lane_count = len(rows_of(sample.visible, LANE))
    assert lane_count == len(rows_of(vectors, LANE))


def test_mask_trajectory_requires_exactly_one():
    vectors = vectorize_scene(toy_scene())
    no_traj = rows_of(vectors, LANE)
    with pytest.raises(MaskingError):
        mask_trajectory(no_traj)


def draw_tasks(scenes, map_fraction, seed):
    """The (task, masked ids) of each scene as `mask --task combined
    --seed <seed>` draws them, the i-th scene taking the id i."""
    settings = MaskSettings(seed, "combined", map_fraction, 0.5)
    return [
        draw_masked(settings, dataclasses.replace(s, scene_id=str(i)))
        for i, s in enumerate(scenes)
    ]


def test_assign_tasks_extremes_and_determinism():
    scenes = [toy_scene(4)] * 20
    all_map = draw_tasks(scenes, 1.0, 0)
    assert all(task is ReconTask.MAP for task, _ in all_map)
    # one lane cannot be map-masked: the scene falls back to its trajectory
    assert draw_tasks([toy_scene(1)], 1.0, 0) == [(ReconTask.TRAJECTORY, (1,))]
    a = draw_tasks(scenes, 0.7, 5)
    assert a == draw_tasks(scenes, 0.7, 5)
    assert {task for task, _ in a} == set(ReconTask)
    assert all(masked == tuple(sorted(masked)) for _, masked in a)


def test_assign_tasks_frequency_in_binomial_band():
    scenes = [toy_scene(4)] * 10_000
    n_map = sum(task is ReconTask.MAP for task, _ in draw_tasks(scenes, 0.7, 11))
    lo, hi = binomial_band(len(scenes), 0.7)
    assert lo <= n_map <= hi


def test_map_recon_loss_identity_zero():
    pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert map_recon_loss(pts, pts) == 0.0


def test_map_recon_loss_uniform_offset():
    target = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    pred = target + np.array([0.5, 0.0])
    assert map_recon_loss(pred, target) == pytest.approx(0.5)


def test_map_recon_loss_shape_mismatch():
    with pytest.raises(ValueError):
        map_recon_loss(np.zeros((3, 2)), np.zeros((4, 2)))


def test_map_recon_loss_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        pred = rng.normal(size=(n, 2))
        target = rng.normal(size=(n, 2))
        assert map_recon_loss(pred, target) == pytest.approx(
            pointwise_l1_loop(pred, target), abs=1e-12
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_map_recon_loss_nonnegative_and_discerning(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    pred = rng.normal(size=(n, 2))
    target = rng.normal(size=(n, 2))
    loss = map_recon_loss(pred, target)
    assert loss >= 0.0
    if (pred != target).any():
        assert loss > 0.0


def test_traj_recon_loss_all_equal_zero():
    target = np.arange(20.0).reshape(10, 2)
    loss, best = traj_recon_loss([target] * 6, target)
    assert loss == 0.0
    assert best == 0


def test_traj_recon_loss_hand_value():
    target = np.zeros((4, 2))
    exact = target.copy()
    off = target + np.array([0.5, 0.5])  # L1 of 1.0 per mode
    loss, best = traj_recon_loss([exact, off, off, off, off, off], target)
    assert best == 0
    assert loss == pytest.approx(0.05)


def test_traj_recon_loss_tie_takes_lowest_index():
    target = np.zeros((4, 2))
    off = target + np.array([1.0, 0.0])
    _, best = traj_recon_loss([off, off, off, off, off, off], target)
    assert best == 0


def test_traj_recon_loss_needs_six_modes():
    target = np.zeros((4, 2))
    with pytest.raises(ValueError):
        traj_recon_loss([target] * 5, target)


def test_traj_recon_loss_bounded_by_modes():
    rng = np.random.default_rng(3)
    target = rng.normal(size=(8, 2))
    preds = [rng.normal(size=(8, 2)) for _ in range(6)]
    loss, best = traj_recon_loss(preds, target)
    per_mode = [pointwise_l1_loop(p, target) for p in preds]
    assert per_mode[best] == min(per_mode)
    assert loss >= per_mode[best]
    assert loss <= min(per_mode) + 0.05 * max(per_mode)


def test_demo_scene_has_enough_lanes_for_masking(demo_scene):
    # generation-scale crops comfortably exceed the two-lane minimum
    assert len(demo_scene.map_crop.lanes) >= 2


def mask_one(directory, scene, settings, name="sample.txt"):
    """Write `scene` to `directory/scenes` and its sample to
    `directory/samples/<name>`, beside the samples manifest, as `mask`
    writes them; returns the sample's path and the scene read back from
    its file, whose coordinates are those of the file's text."""
    scenes, samples = directory / "scenes", directory / "samples"
    scenes.mkdir(parents=True, exist_ok=True)
    samples.mkdir(exist_ok=True)
    text = scene_to_text(scene)
    scene_file = scenes / f"scene_{scene.scene_id}.csv"
    scene_file.write_bytes(text.encode("utf-8"))
    write_samples_manifest(samples, scenes)
    task, masked = draw_masked(settings, scene)
    write_sample(SampleRef(scene_file.name, scene_sha256(text), settings, task, masked),
                 samples / name)
    return samples / name, read_scene(scene_file)


def one_lane_crop(scene):
    from scenesynth.maps import LaneSegment, make_map

    lane = scene.map_crop.lanes[scene.map_crop.sorted_ids()[0]]
    return dataclasses.replace(
        scene, map_crop=make_map(scene.city, [LaneSegment(lane.lane_id, lane.centerline)])
    )


def test_sample_file_roundtrip_lossless(demo_scene, tmp_path):
    for task in ("map", "traj"):
        f, scene = mask_one(tmp_path / task, demo_scene, MaskSettings(1, task, 0.7, 0.5))
        vectors = vectorize_scene(scene)
        if task == "map":
            want = mask_map(vectors, 0.5, np.random.default_rng([1, 0]))
        else:
            want = mask_trajectory(vectors)
        assert_same_sample(read_sample(f), want)
        # the file names the scene and the draw, and holds no float row
        lines = f.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# format: scenesynth-sample v2"
        assert lines[-2:] == [f"# task: {want.task.value}",
                              "# masked: " + ";".join(map(str, want.masked))]
        assert len(lines) == 9


def test_sample_unknown_task_names_line(demo_scene, tmp_path):
    f, _ = mask_one(tmp_path, demo_scene, MaskSettings(1, "traj", 0.7, 0.5))
    f.write_text(f.read_text().replace("# task: traj_recon", "# task: lane_recon"))
    fault = r"sample\.txt:8: bad task: 'lane_recon' is not a valid ReconTask"
    with pytest.raises(MapFormatError, match=fault):
        read_sample(f)


# the `mask` runs of scripts/compare_outputs.py: --task, --map-fraction, --mask-ratio
COMPARE_OUTPUTS_MASKS = (("combined", 0.7, 0.5), ("map", 0.7, 0.3), ("traj", 0.2, 0.5))


@pytest.mark.parametrize("fraction", [165.0 / 370.0, 1.0], ids=["mixed", "warped"])
def test_sample_matches_reference_on_generated_scenes(tmp_path, fraction):
    """At each `mask` task and setting that compare_outputs.py runs, every
    sample of a dataset is a v2 header that reloads bit-identical to the
    v1 oracle's text read back."""
    seed = 1000
    scenes = tmp_path / "scenes"
    maps = [generate_map_fixture("corridors", city) for city in ("MIA", "PIT")]
    cfg = GenerationConfig(
        seed=seed, n_scenes=60, output_dir=str(scenes), augmented_fraction=fraction
    )
    generate_dataset(maps, cfg)
    files = sorted(scenes.glob("scene_*.csv"))
    for task, map_fraction, mask_ratio in COMPARE_OUTPUTS_MASKS:
        out = tmp_path / f"samples_{task}"
        assert main(
            ["mask", "--scenes", str(scenes), "--task", task, "--seed", str(seed),
             "--out", str(out), "--map-fraction", repr(map_fraction),
             "--mask-ratio", repr(mask_ratio)]
        ) == 0
        tasks = set()
        for path in files:
            scene = read_scene(path)
            f = out / f"sample_{scene.scene_id}.txt"
            lines = f.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "# format: scenesynth-sample v2" and len(lines) == 9
            # a crop of one lane gets its trajectory sample under every task
            want_task = "traj" if task == "map" and len(scene.map_crop.lanes) < 2 else task
            rng = np.random.default_rng([seed, int(scene.scene_id)])
            want = reference_sample_text(scene, want_task, rng, map_fraction, mask_ratio)
            got = read_sample(f)
            assert_same_sample(got, read_sample_v1(want))
            tasks.add(got.task)
        assert tasks == set(ReconTask) if task == "combined" else len(tasks) >= 1


def test_sample_matches_reference_on_one_lane_crop(demo_scene, tmp_path):
    for seed in range(5):
        # a map draw on a one-lane crop falls back to trajectory masking
        f, one_lane = mask_one(
            tmp_path / str(seed), one_lane_crop(demo_scene),
            MaskSettings(seed, "combined", 1.0, 0.5),
        )
        want = read_sample_v1(reference_sample_text(
            one_lane, "combined", np.random.default_rng([seed, 0]), map_fraction=1.0
        ))
        assert_same_sample(read_sample(f), want)
        assert want.task is ReconTask.TRAJECTORY
    # the map task falls back alike
    f, _ = mask_one(tmp_path / "map", one_lane, MaskSettings(0, "map", 0.7, 0.5))
    want = read_sample_v1(reference_sample_text(one_lane, "traj", None))
    assert_same_sample(read_sample(f), want)
    with pytest.raises(MaskingError, match="needs >= 2 lanes, got 1"):
        reference_sample_text(one_lane, "map", np.random.default_rng(0))
    with pytest.raises(MaskingError, match="needs >= 2 lanes, got 1"):
        mask_map(vectorize_scene(one_lane), 0.5, np.random.default_rng(0))


def test_sample_masked_header_must_match_targets(demo_scene, tmp_path):
    """A hand-edited `# masked:` line differs from the ids drawn on the
    scene: the error names the sample, its line, and the scene."""
    f, _ = mask_one(tmp_path, demo_scene, MaskSettings(1, "map", 0.7, 0.5))
    lines = f.read_text().splitlines()
    ids = [int(p) for p in lines[8].partition(": ")[2].split(";")]
    spare = next(i for i in range(len(demo_scene.map_crop.lanes)) if i not in ids)
    lines[8] = "# masked: " + ";".join(map(str, sorted(ids[1:] + [spare])))
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as exc:
        read_sample(f)
    assert str(exc.value).startswith(f"{f}:9: task and masked ids differ")
    assert str((tmp_path / "scenes" / "scene_000000.csv").resolve()) in str(exc.value)


def test_read_sample_fails_on_a_scene_edited_after_masking(demo_scene, tmp_path):
    f, _ = mask_one(tmp_path, demo_scene, MaskSettings(1, "combined", 0.7, 0.5))
    scene_file = tmp_path / "scenes" / "scene_000000.csv"
    # still a valid scene file, but not the one masked
    scene_file.write_text(scene_to_text(one_lane_crop(demo_scene)), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        read_sample(f)
    assert str(exc.value) == (
        f"{f}:3: scene {scene_file.resolve()} is not the scene that was masked"
    )
    # a scene that is not UTF-8 fails before its hash, naming the sample too
    scene_file.write_bytes(b"\xff")
    with pytest.raises(MapFormatError) as exc:
        read_sample(f)
    assert str(exc.value).startswith(f"{f}: scene file {scene_file.resolve()}: not UTF-8")


def test_read_sample_names_the_missing_scene_of_a_moved_samples_directory(
    demo_scene, tmp_path
):
    mask_one(tmp_path / "a", demo_scene, MaskSettings(1, "traj", 0.7, 0.5))
    moved = tmp_path / "b" / "samples"
    moved.parent.mkdir()
    (tmp_path / "a" / "samples").rename(moved)
    missing = (tmp_path / "b" / "scenes" / "scene_000000.csv").resolve()
    with pytest.raises(MapFormatError, match=f"scene file {missing}: No such file"):
        read_sample(moved / "sample.txt")
    # a sample without its samples manifest names the manifest it looked for
    (moved / "manifest.txt").unlink()
    manifest = (moved / "manifest.txt").resolve()
    with pytest.raises(MapFormatError, match=f"samples manifest {manifest}: No such file"):
        read_sample(moved / "sample.txt")


def test_read_sample_refuses_a_v1_file_at_its_format_line(demo_scene, tmp_path):
    f, _ = mask_one(tmp_path, demo_scene, MaskSettings(1, "traj", 0.7, 0.5))
    f.write_text(sample_to_text_v1(mask_trajectory(vectorize_scene(demo_scene))))
    with pytest.raises(MapFormatError) as exc:
        read_sample(f)
    assert str(exc.value) == (
        f"{f}:1: bad format: 'scenesynth-sample v1' is not 'scenesynth-sample v2'; "
        "re-run `scenesynth mask`"
    )


def test_sample_to_text_is_the_header_in_config_syntax():
    ref = SampleRef("scene_000012.csv", "ab" * 32, MaskSettings(7, "combined", 0.1, 1.0),
                    ReconTask.MAP, (2, 5))
    assert sample_to_text(ref) == (
        "# format: scenesynth-sample v2\n"
        "# scene: scene_000012.csv\n"
        f"# scene_sha256: {'ab' * 32}\n"
        "# seed: 7\n"
        "# mask_task: combined\n"
        "# map_fraction: 0.1\n"
        "# mask_ratio: 1.0\n"
        "# task: map_recon\n"
        "# masked: 2;5\n"
    )


# one header fault of each kind the reader must name; `line` picks the
# header line and `junk` is text that no value parses from
READER_FAULTS = (
    "v1 format",
    "misnamed key",
    "missing line",
    "extra line",
    "bad value",
    "not as written",
    "not UTF-8",
)


@given(
    fault=st.sampled_from(READER_FAULTS),
    line=st.integers(0, 10_000),
    junk=st.text(alphabet="abcxyz_!?/ ", min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_read_sample_fuzz_faults_raise_map_format_error(
    fault, line, junk, demo_scene, tmp_path_factory
):
    f, _ = mask_one(tmp_path_factory.mktemp("fuzz"), demo_scene,
                    MaskSettings(3, "combined", 0.7, 0.5))
    lines = f.read_text(encoding="utf-8").splitlines()
    i = line % len(lines)
    want = i + 1  # the file line the fault must name
    if fault == "v1 format":
        lines[0], want = "# format: scenesynth-sample v1", 1
    elif fault == "misnamed key":
        lines[i] = "# " + junk + lines[i][lines[i].index(":"):]
    elif fault == "missing line":
        del lines[i]
    elif fault == "extra line":
        lines.append(junk)
        want = len(lines)
    elif fault == "bad value":
        lines[i] = lines[i].partition(":")[0] + ": " + junk
    elif fault == "not as written":
        lines[i] += " "
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "not UTF-8":
        data = data.replace(b"\n", b"\n\xff", 1 + line % 3)
    f.write_bytes(data)
    error = MapFormatError
    if fault == "bad value" and i == 2:
        # any hash is read as written, and one that is not the scene's fails on it
        error = (MapFormatError, ValidationError)
    with pytest.raises(error) as exc:
        read_sample(f)
    if fault != "not UTF-8":
        assert exc.value.line == want


@given(line=st.integers(0, 10_000), junk=st.text(max_size=40))
@settings(max_examples=150, deadline=None)
def test_read_sample_fuzz_any_line_raises_only_scenesynth_errors(
    line, junk, demo_scene, tmp_path_factory
):
    f, _ = mask_one(tmp_path_factory.mktemp("fuzz"), demo_scene,
                    MaskSettings(3, "map", 0.7, 0.5))
    lines = f.read_text(encoding="utf-8").splitlines()
    lines[line % len(lines)] = junk
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        sample = read_sample(f)
    except SceneSynthError:
        return
    assert sample.visible.shape[1] == 8
    assert len(sample.masked) == len(sample.targets) >= 1
