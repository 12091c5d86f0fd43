import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binomial_band, pointwise_l1_loop, reference_sample_text
from scenesynth.errors import MapFormatError, MaskingError, SceneSynthError
from scenesynth.pretrain import (
    LANE,
    TRAJECTORY,
    ReconTask,
    assign_tasks,
    draw_sample,
    map_recon_loss,
    mask_map,
    mask_trajectory,
    read_sample,
    sample_to_text,
    traj_recon_loss,
    vectorize_scene,
    write_sample,
)
from scenesynth.synthesis import GenerationConfig, Scene, generate_scene


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
    return Scene("toy000", city, make_map(city, lanes), t, traj, meta)


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
        scene.timestamps,
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


def test_assign_tasks_extremes_and_determinism():
    scenes = [toy_scene(4)] * 20
    all_map = assign_tasks(scenes, 1.0, np.random.default_rng(0))
    assert all(s.task is ReconTask.MAP for s in all_map)
    # one lane cannot be map-masked: the scene falls back to its trajectory
    one_lane = assign_tasks([toy_scene(1)], 1.0, np.random.default_rng(0))
    assert one_lane[0].task is ReconTask.TRAJECTORY
    a = assign_tasks(scenes, 0.7, np.random.default_rng(5))
    b = assign_tasks(scenes, 0.7, np.random.default_rng(5))
    assert [s.task for s in a] == [s.task for s in b]
    assert [sorted(s.masked) for s in a] == [sorted(s.masked) for s in b]


def test_assign_tasks_frequency_in_binomial_band():
    scenes = [toy_scene(4)] * 10_000
    samples = assign_tasks(scenes, 0.7, np.random.default_rng(11))
    n_map = sum(s.task is ReconTask.MAP for s in samples)
    lo, hi = binomial_band(len(scenes), 0.7)
    assert lo <= n_map <= hi


def test_assign_tasks_rejects_bad_fraction():
    with pytest.raises(ValueError):
        assign_tasks([toy_scene()], 1.2, np.random.default_rng(0))


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


def test_sample_file_roundtrip_lossless(demo_scene, tmp_path):
    vectors = vectorize_scene(demo_scene)
    for sample in (
        mask_map(vectors, 0.5, np.random.default_rng(1)),
        mask_trajectory(vectors),
    ):
        f = tmp_path / f"sample_{sample.task.value}.txt"
        write_sample(sample, f)
        back = read_sample(f)
        assert back.task is sample.task
        assert back.visible.tobytes() == sample.visible.tobytes()
        assert back.masked == sample.masked
        assert len(back.targets) == len(sample.targets)
        for t1, t2 in zip(back.targets, sample.targets):
            assert t1.tobytes() == t2.tobytes()
        assert sample_to_text(back) == f.read_text()


def test_sample_unknown_task_names_line(demo_scene, tmp_path):
    f = tmp_path / "sample.txt"
    write_sample(mask_trajectory(vectorize_scene(demo_scene)), f)
    f.write_text(f.read_text().replace("# task: traj_recon", "# task: lane_recon"))
    with pytest.raises(MapFormatError, match=r"sample\.txt:2: unknown task"):
        read_sample(f)


def test_demo_scene_has_enough_lanes_for_masking(demo_scene):
    # generation-scale crops comfortably exceed the two-lane minimum
    assert len(demo_scene.map_crop.lanes) >= 2


def array_sample_text(scene, task, rng, map_fraction=0.7, mask_ratio=0.5):
    """Sample text the way `scenesynth mask --task <task>` makes it."""
    vectors = vectorize_scene(scene)
    if task == "map":
        sample = mask_map(vectors, mask_ratio, rng)
    elif task == "traj":
        sample = mask_trajectory(vectors)
    else:
        sample = draw_sample(vectors, map_fraction, mask_ratio, rng)
    return sample_to_text(sample)


def generated_scenes(corridors_map, fraction, n, seed=44):
    cfg = GenerationConfig(
        seed=seed, n_scenes=1, output_dir="unused", augmented_fraction=fraction
    )
    scenes = []
    index = 0
    while len(scenes) < n:
        try:
            scenes.append(
                generate_scene(
                    corridors_map, np.random.default_rng([seed, index]), cfg,
                    f"{index:06d}",
                )
            )
        except SceneSynthError:
            pass
        index += 1
    return scenes


@pytest.mark.parametrize("fraction", [165.0 / 370.0, 1.0], ids=["mixed", "warped"])
def test_sample_matches_reference_on_generated_scenes(corridors_map, fraction):
    scenes = generated_scenes(corridors_map, fraction, 100)
    n_map = 0
    for i, scene in enumerate(scenes):
        for task in ("map", "traj", "combined"):
            try:
                want = reference_sample_text(scene, task, np.random.default_rng([9, i]))
            except MaskingError:
                # a crop of one lane: map masking must refuse it too
                with pytest.raises(MaskingError):
                    array_sample_text(scene, task, np.random.default_rng([9, i]))
                continue
            got = array_sample_text(scene, task, np.random.default_rng([9, i]))
            assert got == want, (i, task)
            n_map += task == "combined" and "# task: map_recon" in got
    # the combined draws took both branches
    assert 0 < n_map < len(scenes)


def test_sample_matches_reference_on_one_lane_crop(demo_scene):
    from scenesynth.maps import LaneSegment, make_map

    lane = demo_scene.map_crop.lanes[demo_scene.map_crop.sorted_ids()[0]]
    one_lane = dataclasses.replace(
        demo_scene,
        map_crop=make_map(demo_scene.city, [LaneSegment(lane.lane_id, lane.centerline)]),
    )
    for seed in range(5):
        # a map draw on a one-lane crop falls back to trajectory masking
        want = reference_sample_text(
            one_lane, "combined", np.random.default_rng(seed), map_fraction=1.0
        )
        got = array_sample_text(
            one_lane, "combined", np.random.default_rng(seed), map_fraction=1.0
        )
        assert got == want
        assert "# task: traj_recon" in got
    assert array_sample_text(one_lane, "traj", None) == reference_sample_text(
        one_lane, "traj", None
    )
    for text in (reference_sample_text, array_sample_text):
        with pytest.raises(MaskingError, match="needs >= 2 lanes, got 1"):
            text(one_lane, "map", np.random.default_rng(0))


def test_sample_masked_header_must_match_targets(demo_scene, tmp_path):
    f = tmp_path / "sample.txt"
    write_sample(mask_trajectory(vectorize_scene(demo_scene)), f)
    traj_id = len(demo_scene.map_crop.lanes)
    f.write_text(
        f.read_text().replace(f"# masked: {traj_id}", f"# masked: {traj_id + 1}")
    )
    with pytest.raises(MapFormatError, match="masked header"):
        read_sample(f)


# one bad line of each kind the reader must name; `line` picks a row of the
# sample below and `junk` is text that no number parses from
READER_FAULTS = (
    "unknown kind",
    "column count",
    "non-numeric field",
    "missing task header",
    "no targets",
    "unknown task",
    "not UTF-8",
    "id too large for a float",
)


@given(
    fault=st.sampled_from(READER_FAULTS),
    line=st.integers(0, 10_000),
    junk=st.text(alphabet="abcxyz_!?/ ", min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_read_sample_fuzz_faults_raise_map_format_error(
    fault, line, junk, tmp_path_factory
):
    text = sample_to_text(
        mask_map(vectorize_scene(toy_scene(3)), 0.5, np.random.default_rng(0))
    )
    lines = text.rstrip("\n").split("\n")
    vector_rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    i = vector_rows[line % len(vector_rows)]
    fields = lines[i].split(",")
    if fault == "unknown kind":
        fields[0] = "x" + junk
    elif fault == "column count":
        fields = fields[:-1] if line % 2 else fields + ["0.0"]
    elif fault == "non-numeric field":
        fields[1 + line % (len(fields) - 1)] = junk
    elif fault == "id too large for a float":
        fields[1] = "9" * 400
    lines[i] = ",".join(fields)
    if fault == "missing task header":
        lines = [ln for ln in lines if not ln.startswith("# task:")]
    elif fault == "no targets":
        lines = [ln for ln in lines if not ln.startswith("target,")]
    elif fault == "unknown task":
        lines = [f"# task: {junk}" if ln.startswith("# task:") else ln for ln in lines]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "not UTF-8":
        data = data.replace(b"\n", b"\n\xff", 1 + line % 3)
    f = tmp_path_factory.mktemp("fuzz") / "sample.txt"
    f.write_bytes(data)
    with pytest.raises(MapFormatError):
        read_sample(f)


@given(line=st.integers(0, 10_000), junk=st.text(max_size=40))
@settings(max_examples=150, deadline=None)
def test_read_sample_fuzz_any_line_raises_only_scenesynth_errors(
    line, junk, tmp_path_factory
):
    text = sample_to_text(mask_trajectory(vectorize_scene(toy_scene(2))))
    lines = text.rstrip("\n").split("\n")
    lines[line % len(lines)] = junk
    f = tmp_path_factory.mktemp("fuzz") / "sample.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        sample = read_sample(f)
    except SceneSynthError:
        return
    assert sample.visible.shape[1] == 8
    assert len(sample.masked) == len(sample.targets) >= 1
