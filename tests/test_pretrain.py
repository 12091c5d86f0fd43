import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binomial_band, pointwise_l1_loop
from scenesynth.errors import MapFormatError, MaskingError
from scenesynth.pretrain import (
    ElementKind,
    ReconTask,
    assign_tasks,
    map_recon_loss,
    mask_map,
    mask_trajectory,
    read_sample,
    sample_to_text,
    traj_recon_loss,
    vectorize_scene,
    write_sample,
)
from scenesynth.synthesis import Scene


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


def test_vectorize_fencepost_counts():
    scene = toy_scene(n_lanes=3)
    vectors = vectorize_scene(scene)
    lane_vecs = [v for v in vectors if v.element_kind is ElementKind.LANE]
    traj_vecs = [v for v in vectors if v.element_kind is ElementKind.TRAJECTORY]
    assert len(lane_vecs) == 3 * 2  # 3-point lanes give 2 vectors each
    assert len(traj_vecs) == 49
    assert {v.polyline_id for v in lane_vecs} == {0, 1, 2}
    assert {v.polyline_id for v in traj_vecs} == {3}


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
    lane_vecs = [v for v in vectors if v.element_kind is ElementKind.LANE]
    assert len(lane_vecs) == 10
    assert all(v.polyline_id == 0 for v in lane_vecs)


def test_vectorize_trajectory_attributes_are_timestamps():
    vectors = vectorize_scene(toy_scene())
    traj_vecs = [v for v in vectors if v.element_kind is ElementKind.TRAJECTORY]
    assert traj_vecs[0].attributes == (0.0, pytest.approx(0.1))
    assert traj_vecs[-1].attributes[1] == pytest.approx(4.9)


def test_vectorize_reassembles_polylines_exactly(demo_scene):
    vectors = vectorize_scene(demo_scene)
    for pid, lane_id in enumerate(demo_scene.map_crop.sorted_ids()):
        seq = [v for v in vectors if v.polyline_id == pid]
        pts = [(v.start.x, v.start.y) for v in seq] + [
            (seq[-1].end.x, seq[-1].end.y)
        ]
        assert np.array_equal(
            np.array(pts), demo_scene.map_crop.lanes[lane_id].centerline.xy
        )
    traj_id = len(demo_scene.map_crop.lanes)
    seq = [v for v in vectors if v.polyline_id == traj_id]
    pts = [(v.start.x, v.start.y) for v in seq] + [(seq[-1].end.x, seq[-1].end.y)]
    assert np.array_equal(np.array(pts), demo_scene.trajectory)


def test_mask_map_masks_half_of_ten():
    sample = mask_map(
        vectorize_scene(toy_scene(10)), 0.5, np.random.default_rng(0)
    )
    assert len(sample.masked_placeholders) == 5
    assert sample.task is ReconTask.MAP


def test_mask_map_rounds_half_up_on_three():
    sample = mask_map(vectorize_scene(toy_scene(3)), 0.5, np.random.default_rng(0))
    assert len(sample.masked_placeholders) == 2


def test_mask_map_partition_is_clean():
    vectors = vectorize_scene(toy_scene(7))
    sample = mask_map(vectors, 0.5, np.random.default_rng(1))
    masked = {p.polyline_id for p in sample.masked_placeholders}
    visible = {v.polyline_id for v in sample.visible}
    assert masked.isdisjoint(visible)
    lane_ids = {v.polyline_id for v in vectors if v.element_kind is ElementKind.LANE}
    assert (masked | visible) >= lane_ids
    # trajectory always stays visible under the map task
    assert 7 in visible


def test_mask_map_needs_two_lanes():
    with pytest.raises(MaskingError):
        mask_map(vectorize_scene(toy_scene(1)), 0.5, np.random.default_rng(0))


def test_mask_map_placeholder_first_points_bit_exact():
    scene = toy_scene(6)
    sample = mask_map(vectorize_scene(scene), 0.5, np.random.default_rng(3))
    for ph, tgt in zip(sample.masked_placeholders, sample.targets):
        assert ph.polyline_id == tgt.polyline_id
        assert (ph.first_point.x, ph.first_point.y) == tuple(tgt.points[0])
        lane = scene.map_crop.lanes[f"L{ph.polyline_id}"]
        assert (ph.first_point.x, ph.first_point.y) == tuple(lane.centerline.xy[0])


def test_mask_trajectory_masks_only_trajectory(demo_scene):
    vectors = vectorize_scene(demo_scene)
    sample = mask_trajectory(vectors)
    traj_id = len(demo_scene.map_crop.lanes)
    assert [p.polyline_id for p in sample.masked_placeholders] == [traj_id]
    assert sample.task is ReconTask.TRAJECTORY
    start = sample.masked_placeholders[0].first_point
    assert (start.x, start.y) == tuple(demo_scene.trajectory[0])
    lane_count = sum(
        1 for v in sample.visible if v.element_kind is ElementKind.LANE
    )
    assert lane_count == sum(
        1 for v in vectors if v.element_kind is ElementKind.LANE
    )


def test_mask_trajectory_requires_exactly_one():
    vectors = vectorize_scene(toy_scene())
    no_traj = [v for v in vectors if v.element_kind is ElementKind.LANE]
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
    assert [sorted(p.polyline_id for p in s.masked_placeholders) for s in a] == [
        sorted(p.polyline_id for p in s.masked_placeholders) for s in b
    ]


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
        assert back.visible == sample.visible
        assert back.masked_placeholders == sample.masked_placeholders
        assert len(back.targets) == len(sample.targets)
        for t1, t2 in zip(back.targets, sample.targets):
            assert t1.polyline_id == t2.polyline_id
            assert np.array_equal(t1.points, t2.points)
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
