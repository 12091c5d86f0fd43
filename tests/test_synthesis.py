import hashlib

import numpy as np
import pytest

from scenesynth.errors import ConfigError, MapFormatError, ValidationError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.geometry import Point2
from scenesynth.maps import crop_map
from scenesynth.planner import PlannerParams
from scenesynth.refine import RefinementParams
from scenesynth.synthesis import (
    GenerationConfig,
    SCENE_SAMPLES,
    generate_dataset,
    generate_scene,
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
    a = generate_scene(corridors_map, np.random.default_rng([9, 0, 0]), cfg, "000000")
    b = generate_scene(corridors_map, np.random.default_rng([9, 0, 0]), cfg, "000000")
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
        scene = generate_scene(m, np.random.default_rng([2, i, 0]), cfg, f"{i:06d}")
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
    scene = generate_scene(
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
