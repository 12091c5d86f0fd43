from dataclasses import replace

import numpy as np
import pytest

from scenesynth.cli import main, parse_run_config
from scenesynth.errors import ConfigError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.maps import LaneSegment, load_map, make_map, save_map
from scenesynth.pretrain import ReconTask, read_sample, sample_to_text
from scenesynth.synthesis import read_scene, write_scene


@pytest.fixture()
def map_file(tmp_path):
    f = tmp_path / "mia.map"
    save_map(generate_map_fixture("corridors", "MIA"), f)
    return f


def write_cfg(tmp_path, map_file, **overrides):
    values = {
        "seed": 21,
        "n_scenes": 8,
        "output_dir": str(tmp_path / "scenes"),
        "map_files": str(map_file),
    }
    values.update(overrides)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return cfg


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["augment-map", "--seed", "1", "--out", "x.map"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["augment-map", "mask"])
def test_negative_seed_flag_exits_2(tmp_path, map_file, command, capsys):
    argv = {
        "augment-map": ["--map", str(map_file), "--out", str(tmp_path / "a.map")],
        "mask": ["--scenes", str(tmp_path), "--task", "traj",
                 "--out", str(tmp_path / "out")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-1"] + argv)
    assert exc.value.code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_generate_negative_seed_exits_2(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, seed=-1)
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_augment_map_deterministic_bytes(tmp_path, map_file):
    out1 = tmp_path / "a1.map"
    out2 = tmp_path / "a2.map"
    args = ["augment-map", "--map", str(map_file), "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    load_map(out1).validate()


def test_augment_map_double_kind_sidecar(tmp_path, map_file):
    out = tmp_path / "aug.map"
    code = main(
        ["augment-map", "--map", str(map_file), "--seed", "3", "--out", str(out),
         "--kind", "double"]
    )
    assert code == 0
    sidecar = (tmp_path / "aug.map.params").read_text()
    assert "transform_kind: double_turn" in sidecar
    assert "transform_beta: 20.0" in sidecar


def test_generate_and_validate_roundtrip(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file)
    assert main(["generate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "scenes/s" in out
    assert main(["validate", "--scenes", str(tmp_path / "scenes")]) == 0


def test_generate_manifest_echoes_each_config_key_once(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=2)
    assert main(["generate", "--config", str(cfg), "--workers", "2"]) == 0
    lines = (tmp_path / "scenes" / "manifest.txt").read_text().splitlines()
    keys = [ln[len("# config "):].partition(":")[0] for ln in lines
            if ln.startswith("# config ")]
    assert len(keys) == len(set(keys))
    echoed = dict(
        ln[len("# config "):].split(": ", 1) for ln in lines if ln.startswith("# config ")
    )
    assert echoed["seed"] == "21"
    assert echoed["workers"] == "2"
    assert echoed["map_files"] == str(map_file)
    assert echoed["mask_ratio"] == "0.5"


def test_generate_unknown_config_key_exits_2(tmp_path, map_file, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_scnes = 4\n")
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "n_scnes" in capsys.readouterr().err


def test_generate_invalid_fraction_exits_2(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, augmented_fraction="1.5")
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "augmented_fraction" in capsys.readouterr().err


def test_generate_requires_map_files(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, map_files="")
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "map_files" in capsys.readouterr().err


def test_generate_worker_counts_agree(tmp_path, map_file):
    cfg1 = write_cfg(tmp_path, map_file, output_dir=str(tmp_path / "w1"))
    assert main(["generate", "--config", str(cfg1), "--workers", "1"]) == 0
    cfg8 = write_cfg(tmp_path, map_file, output_dir=str(tmp_path / "w8"))
    assert main(["generate", "--config", str(cfg8), "--workers", "8"]) == 0
    for f1 in sorted((tmp_path / "w1").glob("scene_*.csv")):
        assert f1.read_bytes() == (tmp_path / "w8" / f1.name).read_bytes()


def test_validate_flags_corrupted_scene(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    main(["generate", "--config", str(cfg)])
    victim = sorted((tmp_path / "scenes").glob("scene_*.csv"))[0]
    lines = victim.read_text().rstrip("\n").split("\n")
    victim.write_text("\n".join(lines[:-1]) + "\n")  # drop a row
    assert main(["validate", "--scenes", str(tmp_path / "scenes")]) == 1
    assert victim.name in capsys.readouterr().err


def test_validate_reports_manifest_line_without_comma(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=2)
    main(["generate", "--config", str(cfg)])
    manifest = tmp_path / "scenes" / "manifest.txt"
    manifest.write_text(manifest.read_text() + "scene_000009.csv\n")
    capsys.readouterr()
    assert main(["validate", "--scenes", str(tmp_path / "scenes")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL ") and "manifest.txt:" in err
    assert err.count("FAIL ") == 1


def test_validate_empty_dir_exits_1(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["validate", "--scenes", str(empty)]) == 1


def test_mask_map_task_files(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=4)
    main(["generate", "--config", str(cfg)])
    out = tmp_path / "samples"
    code = main(
        ["mask", "--scenes", str(tmp_path / "scenes"), "--task", "map",
         "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    files = sorted(out.glob("sample_*.txt"))
    assert len(files) == 4
    for f in files:
        sample = read_sample(f)
        assert sample.task is ReconTask.MAP
        n_lanes = len(
            set(sample.visible[:, 1])
        ) + len(sample.masked) - 1  # trajectory id stays visible
        assert len(sample.masked) == int(np.floor(0.5 * n_lanes + 0.5))


def test_mask_traj_task(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    main(["generate", "--config", str(cfg)])
    out = tmp_path / "traj_samples"
    assert main(
        ["mask", "--scenes", str(tmp_path / "scenes"), "--task", "traj",
         "--seed", "2", "--out", str(out)]
    ) == 0
    for f in sorted(out.glob("sample_*.txt")):
        assert read_sample(f).task is ReconTask.TRAJECTORY


def test_mask_combined_task_mixes(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=12)
    main(["generate", "--config", str(cfg)])
    out = tmp_path / "combined"
    assert main(
        ["mask", "--scenes", str(tmp_path / "scenes"), "--task", "combined",
         "--seed", "7", "--out", str(out), "--map-fraction", "0.7"]
    ) == 0
    files = sorted(out.glob("sample_*.txt"))
    assert len(files) == 12
    tasks = {read_sample(f).task for f in files}
    assert ReconTask.MAP in tasks  # 12 draws at 0.7 hit the map task w.h.p.
    # every sample reloads to the bytes it was written from
    for f in files:
        assert sample_to_text(read_sample(f)) == f.read_text(encoding="utf-8")


def test_mask_combined_falls_back_on_one_lane_crop(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=4)
    main(["generate", "--config", str(cfg)])
    scenes = tmp_path / "scenes"

    def mask(task, out):
        return main(
            ["mask", "--scenes", str(scenes), "--task", task, "--seed", "7",
             "--out", str(tmp_path / out), "--map-fraction", "1.0"]
        )

    assert mask("combined", "before") == 0
    victim = sorted(scenes.glob("scene_*.csv"))[0]
    scene = read_scene(victim)
    lane = scene.map_crop.lanes[scene.map_crop.sorted_ids()[0]]
    one_lane = make_map(scene.city, [LaneSegment(lane.lane_id, lane.centerline)])
    write_scene(replace(scene, map_crop=one_lane), victim)

    assert mask("combined", "after") == 0
    before = sorted((tmp_path / "before").glob("sample_*.txt"))
    after = sorted((tmp_path / "after").glob("sample_*.txt"))
    assert [f.name for f in before] == [f.name for f in after]
    assert read_sample(after[0]).task is ReconTask.TRAJECTORY
    assert [f.read_bytes() for f in before[1:]] == [f.read_bytes() for f in after[1:]]
    assert mask("map", "map_only") == 1
    assert "map masking needs >= 2 lanes" in capsys.readouterr().err


def test_mask_sample_depends_only_on_its_scene(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=6)
    main(["generate", "--config", str(cfg)])
    scenes = tmp_path / "scenes"

    def mask(out):
        assert main(
            ["mask", "--scenes", str(scenes), "--task", "combined", "--seed", "7",
             "--out", str(tmp_path / out)]
        ) == 0
        return {f.name: f.read_bytes() for f in (tmp_path / out).glob("sample_*.txt")}

    before = mask("before")
    (scenes / "scene_000000.csv").unlink()
    after = mask("after")
    assert len(before) == 6
    assert after == {k: v for k, v in before.items() if k != "sample_000000.txt"}


def test_mask_rejects_non_numeric_scene_id(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=1)
    main(["generate", "--config", str(cfg)])
    victim = tmp_path / "scenes" / "scene_000000.csv"
    scene = read_scene(victim)
    metadata = {**scene.metadata, "scene_id": "abc"}
    write_scene(replace(scene, scene_id="abc", metadata=metadata), victim)
    assert main(
        ["mask", "--scenes", str(tmp_path / "scenes"), "--task", "traj",
         "--seed", "1", "--out", str(tmp_path / "out")]
    ) == 1
    assert "scene id 'abc' is not a number" in capsys.readouterr().err


def test_mask_empty_dir_exits_1(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(
        ["mask", "--scenes", str(empty), "--task", "map", "--seed", "1",
         "--out", str(tmp_path / "out")]
    ) == 1


def test_stats_self_comparison_reports_zero(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=4)
    main(["generate", "--config", str(cfg)])
    scenes = str(tmp_path / "scenes")
    assert main(["stats", "--scenes", scenes, "--ref", scenes]) == 0
    out = capsys.readouterr().out
    assert "speed_jsd=0.000000" in out
    assert "speed_overlap=1.000000" in out


def test_plot_emits_tables_and_svg(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=4)
    main(["generate", "--config", str(cfg)])
    out = tmp_path / "plots"
    assert main(
        ["plot", "--scenes", str(tmp_path / "scenes"), "--out", str(out), "--svg"]
    ) == 0
    for name in ("speed_hist.csv", "heading_hist.csv", "endpoints.csv",
                 "speed_hist.svg", "heading_hist.svg"):
        assert (out / name).exists()


def test_parse_run_config_defaults_and_echo(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file)
    run = parse_run_config(cfg)
    assert run.generation.seed == 21
    assert run.generation.planner.dt == 0.5
    assert run.generation.refinement.k == 5
    assert run.map_fraction == 0.7
    assert dict(run.echo)["n_scenes"] == "8"


def test_parse_run_config_rejects_garbage_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_run_config(cfg)
