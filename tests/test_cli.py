import contextlib
import importlib
import io
import os
import re
import runpy
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lane_records, read_manifest, trajectory_stats, with_lane_cache

import scenesynth
from scenesynth import analysis, cli
from scenesynth.cli import main, parse_run_config
from scenesynth.errors import ConfigError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.maps import LaneSegment, load_map, make_map, read_lines, save_map
from scenesynth.pretrain import ReconTask, read_sample
from scenesynth import maps, synthesis
from scenesynth.config import FLOAT, GenerationConfig
from scenesynth.synthesis import CSV_HEADER, generate_dataset, read_scene, scene_to_text

REPO = Path(__file__).resolve().parent.parent

# the config keys, in manifest order: the init fields of GenerationConfig
KEY_FIELDS = [f for f in fields(GenerationConfig) if f.init]


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


@pytest.mark.parametrize(
    "n_scenes, crop_radius, runs, made, skipped, code",
    [(8, synthesis.CROP_RADIUS, 1, 8, 0, 0), (3, 0.01, 1, 0, 3, 1),
     (3, synthesis.CROP_RADIUS, 2, 3, 0, 0)],
    ids=["all-made", "all-skipped", "resumed-complete"],
)
def test_generate_summary_counts_made_and_skipped_scenes_apart(
    tmp_path, map_file, capsys, monkeypatch, n_scenes, crop_radius, runs, made, skipped, code
):
    # every trajectory leaves a crop radius of 1 cm: each scene is skipped
    # after its retries, and a run that made no scene is a data failure;
    # a rerun over a complete dataset keeps every scene and succeeds
    monkeypatch.setattr(synthesis, "CROP_RADIUS", crop_radius)
    cfg = write_cfg(tmp_path, map_file, n_scenes=n_scenes)
    for _ in range(runs):
        assert main(["generate", "--config", str(cfg)]) == code
    summary = capsys.readouterr().out.splitlines()[-2]
    assert summary.startswith(f"generated {made} scenes and skipped {skipped} in ")
    lines = read_manifest(tmp_path / "scenes" / "manifest.txt").counts
    counts = {key: int(value) for _, key, value in lines}
    assert (counts["total"] - counts["skipped"], counts["skipped"]) == (made, skipped)


def test_generate_manifest_echoes_each_config_key_once(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=2)
    assert main(["generate", "--config", str(cfg), "--workers", "2"]) == 0
    path = tmp_path / "scenes" / "manifest.txt"
    manifest = read_manifest(path)
    assert GenerationConfig.from_lines(manifest.config, path) == parse_run_config(cfg)
    block = [text for _, text in manifest.config]
    keys = [text.partition(":")[0] for text in block]
    assert len(keys) == len(set(keys))
    echoed = dict(text.split(": ", 1) for text in block)
    assert echoed["seed"] == "21"
    assert echoed["map_files"] == str(map_file)
    assert keys == [f.name for f in KEY_FIELDS]
    assert list(echoed.items()) == parse_run_config(cfg).echo()


def test_generate_manifests_of_one_and_two_workers_are_byte_identical(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=6)
    scenes = tmp_path / "scenes"
    written = []
    for workers in ("1", "2"):
        assert main(["generate", "--config", str(cfg), "--workers", workers]) == 0
        written.append({f.name: f.read_bytes() for f in scenes.iterdir()})
        shutil.rmtree(scenes)
    assert "manifest.txt" in written[0]
    assert written[0] == written[1]


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


@pytest.mark.parametrize("city", ["MI,A", "MI;A", "MI=A"])
def test_generate_refuses_a_city_label_that_scene_files_cannot_hold(
    tmp_path, map_file, city, capsys
):
    # the city is a CSV column of every scene row and manifest row, and the
    # manifest's `# maps:` line joins `CITY=N` entries with `;`
    text = map_file.read_text()
    assert text.startswith("city MIA\n")
    map_file.write_text(f"city {city}\n" + text.removeprefix("city MIA\n"))
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 1
    message = f"{map_file}:1: city label {city!r} holds {city[2]!r}, a scene and manifest separator"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("scenes/scene_*.csv"))


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


def test_validate_reports_an_unreadable_scene_file_and_goes_on(tmp_path, map_file, capsys):
    # a directory in a scene file's place: one failure, then the other
    # files and the manifest, which lists the scene as made
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 0
    victim = tmp_path / "scenes" / "scene_000001.csv"
    victim.unlink()
    victim.mkdir()
    capsys.readouterr()
    assert main(["validate", "--scenes", str(tmp_path / "scenes")]) == 1
    out, err = capsys.readouterr()
    assert out == "validated 3 scenes, 1 failures\n"
    assert err.startswith(f"FAIL {victim}: ") and err.count("\n") == 1, err


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


def test_validate_compares_manifest_rows_with_scene_metadata(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"
    assert main(["validate", "--scenes", str(scenes)]) == 0
    victim = scenes / "scene_000001.csv"
    text = victim.read_text()
    cost = re.search(r"^# plan_cost: (.*)$", text, re.M)[1]
    victim.write_text(text.replace(f"# plan_cost: {cost}\n", "# plan_cost: 0.123\n"))
    rows = (scenes / "manifest.txt").read_text().splitlines()
    lineno = next(i for i, row in enumerate(rows, 1) if row.startswith(victim.name))
    capsys.readouterr()
    assert main(["validate", "--scenes", str(scenes)]) == 1
    err = capsys.readouterr().err
    assert err.count("FAIL ") == 1
    assert err.startswith(f"FAIL {scenes / 'manifest.txt'}:{lineno}: ")
    assert cost in err and "0.123" in err


def _row_of(name, line):
    return line.startswith(f"{name},")


# manifest lines of a 3-scene, one-city dataset: the header, the config
# block (one line per key, `CONFIG_LINE`) and the maps line, then five
# count lines, then the rows
CONFIG_LINE = {f.name: 2 + k for k, f in enumerate(KEY_FIELDS)}
FIRST_COUNT = 2 + len(KEY_FIELDS) + 1
FIRST_ROW = FIRST_COUNT + 5


def _list_twice(line):
    """Each row twice, with the count lines doubled to match."""
    if line.startswith("# count "):
        key, _, value = line.rpartition(": ")
        return f"{key}: {2 * int(value)}"
    return f"{line}\n{line}" if line.startswith("scene_") else line


# the config lines, at their defaults, of the keys that became constants
# of the program, each after the key that the manifest listed it after
REMOVED_KEYS = {
    "augmented_fraction": ["crop_radius: 100.0", "v_d_min: 6.0", "v_d_max: 15.0",
                           "action_set: -2.0,-1.0,-0.5,0.0,0.5,1.0"],
    "t_g": ["w1: 5.0", "w2: 5.0", "w3: 1.0", "omega1: 1.0", "omega2: 1.0", "omega3: 10.0"],
    "path_min_length": ["retry_budget: 5"],
}


def _with_removed_keys(line):
    """The config block with each removed key at its old place."""
    after = REMOVED_KEYS.get(line[len("# config "):].partition(":")[0], [])
    return "\n".join([line] + [f"# config {entry}" for entry in after])


def _case(fault, edit, named):
    """A case whose FAIL line names the first manifest line that is not
    the writer's, `named`; its id names the fault that `edit` makes."""
    return pytest.param(edit, named, id=f"{edit.__name__}-{fault}")


@pytest.mark.parametrize(
    "edit, named",
    [
        _case("no row lists scene_000001.csv",
              lambda line: None if _row_of("scene_000001.csv", line) else line,
              f":{FIRST_ROW + 1}: expected 'scene_000001.csv,"),
        _case("lists scene_000002.csv as skipped",
              lambda line: "scene_000002.csv,skipped,-,-,x" if _row_of("scene_000002.csv", line)
              else line, f":{FIRST_ROW + 2}: expected 'scene_000002.csv,"),
        _case("count total is 4; the rows tally 3",
              lambda line: "# count total: 4" if line.startswith("# count total:") else line,
              f":{FIRST_COUNT}: expected '# count total: 3\\n', found '# count total: 4\\n'"),
        _case("count city MIA is missing; the rows tally 3",
              lambda line: None if line.startswith("# count city MIA:") else line,
              f":{FIRST_COUNT + 4}: expected '# count city MIA: 3\\n', found 'scene_000000.csv,"),
        _case(f":{FIRST_COUNT + 1}: count total repeats line {FIRST_COUNT}",
              lambda line: f"# count total: 99\n{line}" if line.startswith("# count total:")
              else line,
              f":{FIRST_COUNT}: expected '# count total: 3\\n', found '# count total: 99\\n'"),
        _case(f":{FIRST_ROW + 1}: row of scene_000000.csv repeats line {FIRST_ROW}", _list_twice,
              f":{FIRST_COUNT}: expected '# count total: 3\\n', found '# count total: 6\\n'"),
        (lambda line: "# config seed: banana" if line.startswith("# config seed:") else line,
         ":2: seed: expected an integer, got 'banana'"),
        _case(":3: config echoes 'n_scenes: 10'; the block has 'output_dir: ",
              lambda line: None if line.startswith("# config n_scenes:") else line,
              ":3: expected '# config n_scenes: 10\\n', found '# config output_dir: "),
        _case(":3: n_scenes is 7; the manifest has 3 rows",
              lambda line: "# config n_scenes: 7" if line.startswith("# config n_scenes:")
              else line,
              f":{FIRST_COUNT}: expected '# count total: 7\\n', found '# count total: 3\\n'"),
        _case(f":{FIRST_COUNT}: maps line repeats line {FIRST_COUNT - 1}",
              lambda line: f"{line}\n# maps: MIA=12" if line.startswith("# maps:") else line,
              f":{FIRST_COUNT}: expected '# count total: 3\\n', found '# maps: MIA=12\\n'"),
        (lambda line: None if line.startswith("# maps:") else line, "maps line is missing"),
        (lambda line: "# maps: banana" if line.startswith("# maps:") else line,
         f":{FIRST_COUNT - 1}: maps entry 'banana' is not CITY=N"),
        (lambda line: "# maps: PIT=12" if line.startswith("# maps:") else line,
         f":{FIRST_COUNT - 1}: no maps entry for city MIA, which a row lists"),
        (lambda line: "# config seed: -1" if line.startswith("# config seed:") else line,
         ":2: seed must be >= 0, got -1"),
        # a horizon too short at this step: the line of the first key that
        # the message names
        (lambda line: "# config dt: 0.4" if line.startswith("# config dt:") else line,
         f":{CONFIG_LINE['t_g']}: planner horizon too short for a full 50-sample scene"),
        # the scenes were made with seed 21
        (lambda line: "# config seed: 42" if line.startswith("# config seed:") else line,
         ":2: seed is 42, but scene_000000.csv has rng_key '21/0/0'"),
        # the config block of a dataset made before eleven keys became
        # constants: it must be generated again
        (_with_removed_keys,
         f":{CONFIG_LINE['augmented_fraction'] + 1}: unknown config key 'crop_radius'"),
    ],
)
def test_validate_checks_the_manifest_from_the_files_side(
    tmp_path, map_file, capsys, edit, named
):
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"
    manifest = scenes / "manifest.txt"
    lines = [edit(line) for line in manifest.read_text().splitlines()]
    manifest.write_text("".join(f"{line}\n" for line in lines if line is not None))
    capsys.readouterr()
    assert main(["validate", "--scenes", str(scenes)]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert err.count("\n") == 1 and err.startswith(f"FAIL {manifest}")


def _fifth_field(text):
    """A reason on the row of a made scene, whose fifth field is empty."""
    row = next(line for line in text.split("\n") if _row_of("scene_000000.csv", line))
    assert row.endswith(",")
    return text.replace(f"{row}\n", f"{row}late\n")


def _shown(text, lineno):
    """Line `lineno` of `text` as a FAIL line shows it: with its line end,
    or `<end of file>` past the last line."""
    lines = text.splitlines(keepends=True)
    return repr(lines[lineno - 1]) if lineno <= len(lines) else "<end of file>"


@pytest.mark.parametrize(
    "edit, lineno",
    [
        (lambda text: text.replace("# scenesynth dataset manifest", "# scenesynth manifest"), 1),
        (lambda text: text + "\n", FIRST_ROW + 3),
        (lambda text: text + "# note\n", FIRST_ROW + 3),
        (_fifth_field, FIRST_ROW),
        (lambda text: text.replace("# count total: 3\n", "# count total: 3 \n"), FIRST_COUNT),
        (lambda text: text.replace("\n", "\r\n"), 1),
    ],
    ids=["format-line", "blank-line", "comment-line", "fifth-field", "count-space", "crlf"],
)
def test_validate_fails_a_manifest_that_is_not_the_writers_text(
    tmp_path, map_file, capsys, edit, lineno
):
    """Each edit leaves every field that the files check intact, and the
    manifest fails at the edited line, showing the line it should be."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 0
    manifest = tmp_path / "scenes" / "manifest.txt"
    text = manifest.read_text()
    edited = edit(text)
    assert _shown(edited, lineno) != _shown(text, lineno)
    manifest.write_bytes(edited.encode())
    capsys.readouterr()
    assert main(["validate", "--scenes", str(tmp_path / "scenes")]) == 1
    want, got = _shown(text, lineno), _shown(edited, lineno)
    assert capsys.readouterr().err == f"FAIL {manifest}:{lineno}: expected {want}, found {got}\n"


def test_validate_fails_an_n_scenes_that_the_manifest_cannot_list(tmp_path, map_file, capsys):
    # the check renders a row per scene: it refuses to render 10**12 of them
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 0
    manifest = tmp_path / "scenes" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("n_scenes: 3\n", f"n_scenes: {10**12}\n"))
    capsys.readouterr()
    assert main(["validate", "--scenes", str(tmp_path / "scenes")]) == 1
    assert capsys.readouterr().err == (
        f"FAIL {manifest}: n_scenes is {10**12}, more rows than the manifest has lines\n"
    )


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_dataset")
    cfg = GenerationConfig(seed=4, n_scenes=2, output_dir=str(out))
    generate_dataset([generate_map_fixture("corridors", "MIA")], cfg)
    return out


@given(
    line=st.integers(0, 10_000),
    cut=st.integers(0, 60),
    junk=st.one_of(
        st.text(max_size=40), st.sampled_from([",", ",skipped", "\xff", "x" * 300])
    ),
)
@settings(max_examples=150, deadline=None)
def test_validate_fuzz_manifest_line_fails_without_traceback(
    small_dataset, line, cut, junk, tmp_path_factory
):
    """Any one manifest line cut short and followed by arbitrary text. The
    edited manifest fails unless it is the original, or unless the edit
    sets a value that no scene file holds: a config value that still
    echoes as written, such as another seed or output_dir, or a lane count
    of the maps line."""
    scenes = tmp_path_factory.mktemp("fuzz")
    for f in small_dataset.iterdir():
        (scenes / f.name).write_bytes(f.read_bytes())
    lines = (small_dataset / "manifest.txt").read_text().rstrip("\n").split("\n")
    i = line % len(lines)
    old, lines[i] = lines[i], lines[i][:cut] + junk
    (scenes / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate", "--scenes", str(scenes)])
    assert code in (0, 1)
    assert (code == 1) == ("FAIL " in err.getvalue())
    if code == 0 and lines[i] != old:
        prefix = next((p for p in ("# config ", "# maps: ") if old.startswith(p)), None)
        assert prefix is not None and lines[i].startswith(prefix) and "\n" not in lines[i]


def test_validate_empty_dir_exits_1(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["validate", "--scenes", str(empty)]) == 1


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["mask", "--task", "map", "--seed", "1", "--out", "OUT"],
     ["stats", "--ref", "EMPTY"], ["plot", "--out", "OUT"]],
    ids=["validate", "mask", "stats", "plot"],
)
def test_read_command_on_empty_dir_prints_one_error(tmp_path, argv, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    paths = {"EMPTY": str(empty), "OUT": str(tmp_path / "out")}
    argv = [argv[0], "--scenes", str(empty)] + [paths.get(a, a) for a in argv[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: no scene files in {empty}\n"


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
    # a sample file names its scene and the draw, and holds no float row
    for f in files:
        lines = f.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# format: scenesynth-sample v2" and len(lines) == 9


@pytest.mark.parametrize("task", ["map", "combined"])
def test_mask_every_ratio_writes_samples_that_reload(small_dataset, tmp_path, task):
    for ratio in ("0", "0.05", "1"):
        out = tmp_path / ratio
        assert main(
            ["mask", "--scenes", str(small_dataset), "--task", task, "--seed", "3",
             "--out", str(out), "--mask-ratio", ratio, "--map-fraction", "1.0"]
        ) == 0
        files = sorted(out.glob("sample_*.txt"))
        assert len(files) == 2
        for f in files:
            sample = read_sample(f)
            assert sample.task is ReconTask.MAP
            assert len(sample.masked) >= 1


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
    victim.write_text(scene_to_text(replace(scene, map_crop=one_lane)))

    assert mask("combined", "after") == 0
    before = sorted((tmp_path / "before").glob("sample_*.txt"))
    after = sorted((tmp_path / "after").glob("sample_*.txt"))
    assert [f.name for f in before] == [f.name for f in after]
    assert read_sample(after[0]).task is ReconTask.TRAJECTORY
    assert [f.read_bytes() for f in before[1:]] == [f.read_bytes() for f in after[1:]]
    # the map task falls back alike: the same trajectory sample, in a file
    # that names the other task
    assert mask("map", "map_only") == 0
    map_only = read_sample(tmp_path / "map_only" / after[0].name)
    combined = read_sample(after[0])
    assert (map_only.task, map_only.masked) == (combined.task, combined.masked)
    assert map_only.visible.tobytes() == combined.visible.tobytes()


def test_mask_map_writes_the_trajectory_sample_of_a_one_lane_crop(
    tmp_path, map_file, capsys
):
    """A one-lane crop amid the dataset gets its trajectory sample, counted
    under traj=; the samples before and after it keep their bytes."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=4)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"

    def mask(out):
        capsys.readouterr()
        assert main(
            ["mask", "--scenes", str(scenes), "--task", "map", "--seed", "7",
             "--out", str(tmp_path / out)]
        ) == 0
        return capsys.readouterr().out, sorted((tmp_path / out).glob("sample_*.txt"))

    _, before = mask("before")
    victim = sorted(scenes.glob("scene_*.csv"))[1]
    scene = read_scene(victim)
    lane = scene.map_crop.lanes[scene.map_crop.sorted_ids()[0]]
    one_lane = make_map(scene.city, [LaneSegment(lane.lane_id, lane.centerline)])
    victim.write_text(scene_to_text(replace(scene, map_crop=one_lane)))

    out, after = mask("after")
    assert out.endswith("(map=3, traj=1)\n")
    assert [f.name for f in after] == [f.name for f in before]
    assert read_sample(after[1]).task is ReconTask.TRAJECTORY
    kept = [0, 2, 3]
    assert [after[i].read_bytes() for i in kept] == [before[i].read_bytes() for i in kept]


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


def test_mask_out_at_the_scenes_directory_exits_2(tmp_path, map_file, capsys):
    """Samples written into the scenes directory would replace the
    dataset manifest with theirs: a usage error, and nothing is written."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=2)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"
    before = {f.name: f.read_bytes() for f in scenes.iterdir()}
    capsys.readouterr()
    spelled = str(tmp_path / "scenes" / ".." / "scenes")
    assert main(
        ["mask", "--scenes", str(scenes), "--task", "traj", "--seed", "1", "--out", spelled]
    ) == 2
    assert "is the --scenes directory" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in scenes.iterdir()} == before


def test_samples_reload_from_another_working_directory(tmp_path, map_file, monkeypatch):
    """The samples manifest names the scenes directory relative to the
    samples, so a sample reloads whatever the working directory, and with
    both directories moved together."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(
        ["mask", "--scenes", "scenes", "--task", "combined", "--seed", "1",
         "--out", "data/samples"]
    ) == 0
    manifest = tmp_path / "data" / "samples" / "manifest.txt"
    assert manifest.read_text() == "# format: scenesynth-samples v1\n# scenes: ../../scenes\n"
    samples = sorted((tmp_path / "data" / "samples").glob("sample_*.txt"))
    want = [read_sample(f) for f in samples]
    assert len(want) == 3
    moved = tmp_path / "elsewhere"
    moved.mkdir()
    (tmp_path / "data").rename(moved / "data")
    shutil.move(str(tmp_path / "scenes"), str(moved / "scenes"))
    monkeypatch.chdir(moved / "data")
    for f, sample in zip(sorted(Path("samples").glob("sample_*.txt")), want):
        got = read_sample(f)
        assert got.masked == sample.masked
        assert got.visible.tobytes() == sample.visible.tobytes()


def test_perfbench_check_mask_passes_on_a_v2_dataset(tmp_path, map_file):
    """The benchmark's mask check, loaded as it is, reloads every sample of
    a dataset whose samples sit apart from its scenes."""
    check_mask = runpy.run_path(str(REPO / "perfbench" / "checks.py"))["check_mask"]
    cfg = write_cfg(tmp_path, map_file, n_scenes=4)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes, samples = tmp_path / "scenes", tmp_path / "run" / "samples"
    assert main(
        ["mask", "--scenes", str(scenes), "--task", "combined", "--seed", "5",
         "--out", str(samples)]
    ) == 0
    problems, sample_bytes = check_mask(0, scenes, samples)
    assert problems == []
    assert sorted(sample_bytes) == [f"sample_{i:06d}.txt" for i in range(4)]


def test_mask_rejects_non_numeric_scene_id(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=1)
    main(["generate", "--config", str(cfg)])
    victim = tmp_path / "scenes" / "scene_000000.csv"
    scene = read_scene(victim)
    metadata = {**scene.metadata, "scene_id": "abc"}
    victim.write_text(scene_to_text(replace(scene, scene_id="abc", metadata=metadata)))
    assert main(
        ["mask", "--scenes", str(tmp_path / "scenes"), "--task", "traj",
         "--seed", "1", "--out", str(tmp_path / "out")]
    ) == 1
    assert "scene id 'abc' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mask-ratio", "--map-fraction"])
@pytest.mark.parametrize("value", ["1.5", "-1", "nan", "7"])
def test_mask_fraction_flags_outside_unit_interval_exit_2(tmp_path, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["mask", "--scenes", str(tmp_path), "--task", "combined", "--seed", "1",
             "--out", str(tmp_path / "out"), flag, value]
        )
    assert exc.value.code == 2
    assert "must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_generate_workers_below_one_exit_2(tmp_path, map_file, workers, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=1)
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--config", str(cfg), "--workers", workers])
    assert exc.value.code == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


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


def map_blocks(scenes) -> dict[str, list[Path]]:
    """The scene files of each map block (its `# map: ` lines), in order."""
    blocks: dict[str, list[Path]] = {}
    for f in sorted(scenes.glob("scene_*.csv")):
        block = "\n".join(line for line in read_lines(f) if line.startswith("# map: "))
        blocks.setdefault(block, []).append(f)
    return blocks


@pytest.mark.parametrize("edit", ["pt", "row"])
def test_validate_fails_a_file_whose_twin_was_read_first_as_without_the_cache(
    tmp_path, map_file, monkeypatch, capsys, edit
):
    """The second file of a map block is edited: a `# map: pt` line that no
    longer parses, or a row that breaks the speed bound under the lanes
    that its twin left parsed. validate prints what it prints with every
    lane parsed afresh, and parses each distinct lane record once."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=12)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"
    victim = next(files for files in map_blocks(scenes).values() if len(files) > 1)[1]
    lines = victim.read_text().split("\n")
    if edit == "pt":
        i = next(i for i, line in enumerate(lines) if line.startswith("# map: pt "))
        lines[i] = "# map: pt 1.0 one"
        fault = f"FAIL {victim}:{i + 1}: bad coordinate: pt 1.0 one\n"
    else:
        i = lines.index(CSV_HEADER) + 5
        fields = lines[i].split(",")
        fields[3] = repr(float(fields[3]) + 100.0)
        lines[i] = ",".join(fields)
        fault = f"FAIL {victim}: scene {victim.stem[6:]}: speed "
    victim.write_text("\n".join(lines))
    built = []  # one entry per lane parsed
    polyline = maps.Polyline
    monkeypatch.setattr(maps, "Polyline", lambda xy: built.append(1) or polyline(xy))
    monkeypatch.setattr(maps, "_LANE_CACHE", {})
    capsys.readouterr()

    def validate():
        code = main(["validate", "--scenes", str(scenes)])
        out = capsys.readouterr()
        return code, out.out, out.err

    cached = validate()
    # the victim's records are its twin's, but for the edited one, which
    # faults before its lane is built
    records = [r for f in scenes.glob("scene_*.csv") if f != victim for r in lane_records(f)]
    assert len(built) == len(set(records)) < len(records)
    monkeypatch.setattr(
        cli, "read_scene", lambda path, text: with_lane_cache(read_scene, {})(path, text)
    )
    assert validate() == cached
    assert cached[0] == 1
    assert cached[2].startswith(fault)


def test_read_commands_write_the_same_bytes_at_any_lane_cache_size(
    tmp_path, map_file, monkeypatch, capsys
):
    """validate, mask, stats and plot print and write the same with a lane
    cache of one record as with the default."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=12, augmented_fraction="0.5")
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = str(tmp_path / "scenes")
    runs = []
    for size in (maps.LANE_CACHE_SIZE, 1):
        monkeypatch.setattr(maps, "LANE_CACHE_SIZE", size)
        monkeypatch.setattr(maps, "_LANE_CACHE", {})
        out = tmp_path / "out"
        capsys.readouterr()
        for argv in (
            ["validate", "--scenes", scenes],
            ["mask", "--scenes", scenes, "--task", "combined", "--seed", "3",
             "--out", str(out / "samples")],
            ["stats", "--scenes", scenes, "--ref", scenes, "--out", str(out / "tables")],
            ["plot", "--scenes", scenes, "--out", str(out / "plot"), "--svg"],
        ):
            assert main(argv) == 0
        files = {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        runs.append((capsys.readouterr(), files))
        shutil.rmtree(out)
    assert len(runs[0][1]) > 12
    assert runs[0] == runs[1]


def test_stats_against_its_own_directory_reads_each_file_once(
    tmp_path, map_file, monkeypatch, capsys
):
    cfg = write_cfg(tmp_path, map_file, n_scenes=6)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in scenes.glob("scene_*.csv"):
        (copy / f.name).write_bytes(f.read_bytes())
    capsys.readouterr()
    assert main(["stats", "--scenes", str(scenes), "--ref", str(copy)]) == 0
    want = capsys.readouterr().out
    reads = []

    def counted(path, *args, **kwargs):
        reads.append(Path(path).name)
        return read_scene(path, *args, **kwargs)

    monkeypatch.setattr(cli, "read_scene", counted)
    # another spelling of the same directory
    assert main(["stats", "--scenes", str(scenes), "--ref", str(scenes / ".." / "scenes")]) == 0
    assert capsys.readouterr().out == want
    assert len(want.splitlines()) == 2 and want.count("=") == 4
    assert sorted(reads) == sorted(f.name for f in scenes.glob("scene_*.csv"))


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("lane L1\npt 0 0\npt 1 0\nsucc L3\nlane L2\npt 1 0\npt 2 0\n", 1,
         "lane 'L1' references missing lane 'L3'"),
        ("lane L1\npt 0 0\npt 1 0\nlane L2\npt 1 0\npt 2 0\npred L0\n", 4,
         "lane 'L2' references missing lane 'L0'"),
        ("lane L1\npt 0 0\npt 1 0\nlane L2\npt 1 0\npt 2 0\nlane L1\npt 5 0\npt 6 0\n", 7,
         "duplicate lane id 'L1'"),
    ],
    ids=["succ", "pred", "duplicate"],
)
def test_augment_map_graph_fault_names_file_and_lane_line(
    tmp_path, capsys, text, line, message
):
    bad = tmp_path / "bad.map"
    bad.write_text("city MIA\n" + text)
    code = main(["augment-map", "--map", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "a.map")])
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error: {bad}:{line + 1}: {message}"
    assert not (tmp_path / "a.map").exists()


def test_augment_map_of_an_overflowing_lane_length_names_the_lane_line(tmp_path, capsys):
    bad = tmp_path / "big.map"
    bad.write_text("city MIA\nlane A\npt 0 0\npt 1e308 0\npt -1e308 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        code = main(["augment-map", "--map", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "a.map")])
    assert code == 1
    message = "lane 'A': polyline coordinate magnitude 1e+308 exceeds 1e+150 m"
    assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"
    assert not (tmp_path / "a.map").exists()


def test_augment_map_of_a_lane_past_the_length_limit_names_the_lane_line(tmp_path, capsys):
    bad = tmp_path / "long.map"
    bad.write_text("city MIA\nlane A\npt 0 0\npt 1e150 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        code = main(["augment-map", "--map", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "a.map")])
    assert code == 1
    message = "lane 'A': polyline length 1e+150 m exceeds 100000.0 m"
    assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"
    assert not (tmp_path / "a.map").exists()


def test_augment_map_that_warps_a_lane_past_the_length_limit_prints_one_error(
    tmp_path, capsys
):
    # the lane is inside the limit, and seed 2's warp lengthens it past
    long_map = tmp_path / "long.map"
    points = "".join(f"pt {x} 0\n" for x in [*range(0, 99_001, 1000), 99_999])
    long_map.write_text("city MIA\nlane A\n" + points)
    code = main(["augment-map", "--map", str(long_map), "--seed", "2",
                 "--out", str(tmp_path / "a.map")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: warped lane 'A': polyline length ") and err.count("\n") == 1
    assert not (tmp_path / "a.map").exists()


def test_augment_map_into_a_missing_directory_names_the_output(tmp_path, map_file, capsys):
    out = tmp_path / "missing" / "x.map"
    code = main(["augment-map", "--map", str(map_file), "--seed", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"io error: [Errno 2] No such file or directory: {str(out)!r}\n"


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


def test_plot_rotates_each_trajectory_once_and_writes_the_one_trajectory_bytes(
    tmp_path, map_file, monkeypatch
):
    """plot makes one `normalize_headings` call, for both its heading
    histogram and its endpoints, and writes what the one-trajectory oracle
    (`trajectory_stats`) gives: the same table and SVG bytes."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=12, augmented_fraction="0.5")
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"
    calls = []
    normalize = analysis.normalize_headings

    def counted(*args):
        calls.append(len(args[0]))
        return normalize(*args)

    monkeypatch.setattr(analysis, "normalize_headings", counted)
    out = tmp_path / "plot"
    assert main(["plot", "--scenes", str(scenes), "--out", str(out), "--svg"]) == 0
    files = sorted(scenes.glob("scene_*.csv"))
    assert calls == [len(files)]

    trajectories = np.array([read_scene(f).trajectory for f in files])
    stats = [trajectory_stats(traj) for traj in trajectories]
    headings = np.concatenate([one.headings for one in stats])
    edges = analysis.heading_distribution(headings).edges
    speeds = analysis.speed_distribution(trajectories)
    heading_hist = analysis.Histogram(edges, np.histogram(headings, bins=edges)[0])
    want = tmp_path / "want"
    want.mkdir()
    analysis.write_histogram_table(speeds, want / "speed_hist.csv")
    analysis.write_histogram_table(heading_hist, want / "heading_hist.csv")
    endpoints = np.array([one.endpoint for one in stats])
    analysis.write_endpoint_cloud(endpoints, want / "endpoints.csv")
    analysis.render_histogram_svg(speeds, want / "speed_hist.svg", title="speed (m/s)")
    analysis.render_histogram_svg(heading_hist, want / "heading_hist.svg", title="heading (rad)")
    names = sorted(f.name for f in want.iterdir())
    assert sorted(f.name for f in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def write_edited_scene(tmp_path, map_file, edit):
    """Generate 4 scenes and `edit` the file of the third; returns (the
    scenes directory, that file)."""
    cfg = write_cfg(tmp_path, map_file, n_scenes=4)
    assert main(["generate", "--config", str(cfg)]) == 0
    scenes = tmp_path / "scenes"
    victim = sorted(scenes.glob("scene_*.csv"))[2]
    edit(victim)
    return scenes, victim


def make_stationary(victim):
    """Put the 50 rows of the scene at its crop center, in canonical text."""
    scene = read_scene(victim)
    center = [float(scene.metadata[key]) for key in ("crop_center_x", "crop_center_y")]
    victim.write_text(scene_to_text(replace(scene, trajectory=np.tile(center, (50, 1)))))


def write_stationary_scene(tmp_path, map_file):
    return write_edited_scene(tmp_path, map_file, make_stationary)


def read_commands(scenes, out):
    """The argv of each command that reads the scene files of `scenes`."""
    return [
        ["validate", "--scenes", str(scenes)],
        ["mask", "--scenes", str(scenes), "--task", "combined", "--seed", "1",
         "--out", str(out / "samples")],
        ["stats", "--scenes", str(scenes), "--ref", str(scenes)],
        ["plot", "--scenes", str(scenes), "--out", str(out / "plot")],
    ]


@pytest.mark.parametrize(
    "edit",
    [
        lambda victim: victim.write_text(victim.read_text().rsplit("\n", 5)[0] + "\n"),
        lambda victim: victim.write_bytes(b"\xff" + victim.read_bytes()),
        make_stationary,
    ],
    ids=["46-rows", "not-utf8", "all-stationary"],
)
def test_each_read_command_names_a_faulty_file_once(tmp_path, map_file, capsys, edit):
    scenes, victim = write_edited_scene(tmp_path, map_file, edit)
    for argv in read_commands(scenes, tmp_path):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count(victim.name) == 1, (argv[0], err)


def _blank_metadata_line(victim):
    lines = victim.read_text().split("\n")
    victim.write_text("\n".join(lines[:3] + [""] + lines[3:]))


def _metadata_below_header(victim):
    lines = victim.read_text().split("\n")
    v0 = next(line for line in lines if line.startswith("# v0: "))
    lines.remove(v0)
    lines.insert(lines.index(CSV_HEADER) + 1, v0)
    victim.write_text("\n".join(lines))


def _crlf(victim):
    victim.write_bytes(victim.read_bytes().replace(b"\n", b"\r\n"))


@pytest.mark.parametrize(
    "edit, departs",
    [
        (_blank_metadata_line, lambda lines: 4),
        (_metadata_below_header, lambda lines: lines.index(CSV_HEADER) + 2),
        # a CRLF file departs at its header line, the first line that is
        # compared whole
        (_crlf, lambda lines: lines.index(CSV_HEADER) + 1),
    ],
    ids=["blank-metadata-line", "metadata-below-header", "crlf"],
)
def test_the_read_commands_agree_on_what_a_scene_file_is(
    tmp_path, map_file, capsys, edit, departs
):
    """A file off `scene_to_text`'s layout fails validate, mask, stats and
    plot alike, each naming the same line: `departs` of the file's lines."""
    scenes, victim = write_edited_scene(tmp_path, map_file, edit)
    line = departs(victim.read_text().split("\n"))
    faults = []
    for argv in read_commands(scenes, tmp_path):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        faults.append(err.partition(" ")[2])
    assert faults[0].startswith(f"{victim}:{line}: ")
    assert faults == [faults[0]] * 4


def _shift_timestamps(victim):
    """Every TIMESTAMP 5.0 s later, each still at one decimal."""
    lines = victim.read_text().split("\n")
    for i in range(lines.index(CSV_HEADER) + 1, len(lines) - 1):
        t, _, rest = lines[i].partition(",")
        lines[i] = f"{float(t) + 5.0:.1f},{rest}"
    victim.write_text("\n".join(lines))


def _timestamp_at_two_decimals(victim):
    victim.write_text(victim.read_text().replace("\n0.3,", "\n0.30,", 1))


@pytest.mark.parametrize(
    "edit, row, fault",
    [
        (_shift_timestamps, 0, "TIMESTAMP '5.0', expected '0.0'"),
        (_timestamp_at_two_decimals, 3, "TIMESTAMP '0.30', expected '0.3'"),
    ],
    ids=["shifted-5s", "two-decimals"],
)
def test_the_read_commands_refuse_a_timestamp_off_the_grid(
    tmp_path, map_file, capsys, edit, row, fault
):
    """The scene grid is a constant of the format: a TIMESTAMP whose text
    is not the grid's fails validate, mask, stats and plot alike, each
    naming the file and the line of the first row at fault."""
    scenes, victim = write_edited_scene(tmp_path, map_file, edit)
    line = victim.read_text().split("\n").index(CSV_HEADER) + 2 + row
    for argv in read_commands(scenes, tmp_path):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1, (argv[0], err)
        assert err.partition(" ")[2] == f"{victim}:{line}: {fault}\n", (argv[0], err)


STATIONARY = "scene 000002: all-stationary trajectory, no step longer than 1e-12 m"


def test_validate_fails_an_all_stationary_trajectory_naming_its_file(
    tmp_path, map_file, capsys
):
    scenes, victim = write_stationary_scene(tmp_path, map_file)
    capsys.readouterr()
    assert main(["validate", "--scenes", str(scenes)]) == 1
    out = capsys.readouterr()
    assert out.err == f"FAIL {victim}: {STATIONARY}\n"
    assert out.out == "validated 4 scenes, 1 failures\n"


def test_mask_fails_an_all_stationary_trajectory_naming_its_file(
    tmp_path, map_file, capsys
):
    scenes, victim = write_stationary_scene(tmp_path, map_file)
    capsys.readouterr()
    for task in ("map", "traj", "combined"):
        argv = ["mask", "--scenes", str(scenes), "--task", task, "--seed", "1",
                "--out", str(tmp_path / task)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {victim}: {STATIONARY}\n"


def test_stats_and_plot_name_the_file_of_an_all_stationary_trajectory(
    tmp_path, map_file, capsys
):
    """A scene whose 50 rows all sit at its crop center is canonical, but
    it has no heading: stats and plot exit 1 with the ValidationError that
    `validate` reports for it, naming its file."""
    scenes, victim = write_stationary_scene(tmp_path, map_file)
    capsys.readouterr()
    for argv in (
        ["stats", "--scenes", str(scenes), "--ref", str(scenes)],
        ["plot", "--scenes", str(scenes), "--out", str(tmp_path / "plot")],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {victim}: {STATIONARY}\n"


def test_parse_run_config_defaults_and_echo(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file)
    run = parse_run_config(cfg)
    assert run.seed == 21
    assert run.planner.dt == 0.5
    assert run.path_min_length == 150.0
    assert run.map_files == (str(map_file),)
    assert dict(run.echo())["n_scenes"] == "8"


def test_parse_run_config_rejects_garbage_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_run_config(cfg)


def test_manifest_config_block_reads_back(tmp_path, map_file):
    other = tmp_path / "pit.map"
    save_map(generate_map_fixture("corridors", "PIT"), other)
    cfg = write_cfg(
        tmp_path, f"{map_file}, {other}", n_scenes=2, augmented_fraction=0.75,
        dt=1.0, t_g=7.0, path_min_length=400,
    )
    assert main(["generate", "--config", str(cfg), "--workers", "2"]) == 0
    path = tmp_path / "scenes" / "manifest.txt"
    manifest = read_manifest(path)
    keys = [text.partition(":")[0] for _, text in manifest.config]
    assert keys == [f.name for f in KEY_FIELDS]
    assert [lineno for lineno, _ in manifest.config] == list(range(2, 2 + len(KEY_FIELDS)))
    run = parse_run_config(cfg)
    back = GenerationConfig.from_lines(manifest.config, path)
    assert back == run
    assert back.map_files == (str(map_file), str(other))
    assert run.path_min_length == 400.0
    assert (run.planner.dt, run.planner.t_g) == (1.0, 7.0)


def test_read_manifest_gives_each_part_with_its_line(tmp_path, map_file):
    cfg = write_cfg(tmp_path, map_file, n_scenes=2)
    assert main(["generate", "--config", str(cfg)]) == 0
    path = tmp_path / "scenes" / "manifest.txt"
    manifest = read_manifest(path)
    lines = path.read_text().splitlines()
    rebuilt = {1: lines[0]}  # the header line
    rebuilt.update((n, f"# config {text}") for n, text in manifest.config)
    rebuilt.update((n, f"# maps: {text}") for n, text in manifest.maps)
    rebuilt.update((n, f"# count {key}: {value}") for n, key, value in manifest.counts)
    rebuilt.update((n, ",".join(fields)) for n, fields in manifest.rows)
    assert rebuilt == dict(enumerate(lines, start=1))
    assert manifest.maps == [(FIRST_COUNT - 1, "MIA=9")]
    assert [fields[0] for _, fields in manifest.rows] == ["scene_000000.csv", "scene_000001.csv"]


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing set\n")
    run = parse_run_config(cfg)
    assert run == GenerationConfig()
    assert run.map_files == ()


def test_docstring_lists_each_config_key_with_its_default():
    rows = re.findall(r"^    (\w+) = ?(.*?)(?: {2,}.*)?$", cli.__doc__, flags=re.M)
    default = GenerationConfig()
    expected = [
        (f.name, f.metadata["type"].format(getattr(default, f.name))) for f in KEY_FIELDS
    ]
    assert rows == expected
    assert len(rows) == 8


@pytest.mark.parametrize(
    "key", ["mask_ratio", "map_fraction", "speed_bin_width", "speed_max",
            "miss_threshold", "k", "dt_fine"],
)
def test_removed_config_keys_exit_2(tmp_path, map_file, key, capsys):
    cfg = write_cfg(tmp_path, map_file, **{key: "0.5"})
    assert main(["generate", "--config", str(cfg)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("abs_curvature", "true"), ("max_warp_slope", "3.5"), ("path_spacing", "1.0")]
    + [tuple(entry.split(": ")) for entries in REMOVED_KEYS.values() for entry in entries],
)
def test_removed_cost_warp_and_spacing_keys_exit_2_at_their_line(
    tmp_path, map_file, key, value, capsys
):
    # curvature always enters the cost by magnitude, alpha1 is drawn over its
    # whole range, reference paths are sampled every 1 m, and the crop
    # radius, speed range, retries, action set and weights are constants,
    # so a config that sets one of these keys, even to its old default, is
    # refused at the key's line
    cfg = write_cfg(tmp_path, map_file, **{key: value})
    assert main(["generate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:5: unknown config key {key!r}\n"
    assert not (tmp_path / "scenes").exists()


@pytest.mark.parametrize(
    "key, value",
    [("augmented_fraction", "half"), ("dt", "x"), ("n_scenes", "1.5")],
)
def test_config_parse_error_names_the_key(tmp_path, map_file, key, value, capsys):
    cfg = write_cfg(tmp_path, map_file, **{key: value})
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected" in err and repr(value) in err


def test_generate_coarse_step_other_than_k_fine_steps_exits_2(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, dt=0.45)
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "dt=0.45 is not a whole number of 0.1 s steps" in capsys.readouterr().err
    # a whole number of steps, but 12 knots of 4 fine steps make 49 samples
    cfg = write_cfg(tmp_path, map_file, dt=0.4)
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "planner horizon too short" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


def test_generate_at_a_coarse_step_of_two_fine_steps(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=2, dt=0.2)
    assert main(["generate", "--config", str(cfg)]) == 0
    assert main(["validate", "--scenes", str(tmp_path / "scenes")]) == 0
    assert len(list((tmp_path / "scenes").glob("scene_*.csv"))) == 2


@pytest.mark.parametrize(
    "overrides, named, message",
    [({"seed": "-1"}, "seed", "seed must be >= 0, got -1"),
     ({"n_scenes": "0"}, "n_scenes", "n_scenes must be >= 1, got 0"),
     ({"augmented_fraction": "1.5"}, "augmented_fraction",
      "augmented_fraction must lie in [0, 1], got 1.5"),
     # the check names t_g first, which the file leaves at its default
     ({"dt": "0.4"}, "dt", "planner horizon too short for a full 50-sample scene: "
      "t_g=5.0 at dt=0.4"),
     ({"dt": "0.4", "t_g": "5"}, "t_g", "planner horizon too short")],
    ids=["seed", "n_scenes", "augmented_fraction", "dt", "t_g"],
)
def test_generate_config_value_error_names_the_line_of_its_key(
    tmp_path, map_file, overrides, named, message, capsys
):
    cfg = write_cfg(tmp_path, map_file, **overrides)
    lines = cfg.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, 1) if line.startswith(f"{named} ="))
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:{lineno}: {message}"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "scenes").exists()


NUMBER_KEYS = [f.name for f in KEY_FIELDS if f.metadata["type"] is FLOAT]


def assert_config_error(argv, capsys):
    """`argv` exits 2 with one `config error:` line and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_generate_non_finite_number_exits_2(tmp_path, map_file, key, value, capsys):
    cfg = write_cfg(tmp_path, map_file, **{key: value})
    assert_config_error(["generate", "--config", str(cfg)], capsys)
    assert not (tmp_path / "scenes").exists()


@pytest.mark.parametrize("key, value", [("t_g", "1e308"), ("dt", "5e-324")])
def test_generate_horizon_of_overflowing_step_count_exits_2(
    tmp_path, map_file, key, value, capsys
):
    cfg = write_cfg(tmp_path, map_file, **{key: value})
    assert_config_error(["generate", "--config", str(cfg)], capsys)
    assert not (tmp_path / "scenes").exists()


@pytest.mark.parametrize(
    "key, value",
    [("path_min_length", "0"), ("path_min_length", "-5")],
)
def test_generate_non_positive_path_setting_exits_2(tmp_path, map_file, key, value, capsys):
    cfg = write_cfg(tmp_path, map_file, **{key: value})
    assert_config_error(["generate", "--config", str(cfg)], capsys)
    assert not (tmp_path / "scenes").exists()


def test_generate_repeated_config_key_exits_2(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file)
    cfg.write_text(cfg.read_text() + "# a comment\nseed: 22\n")
    assert_config_error(["generate", "--config", str(cfg)], capsys)
    with pytest.raises(ConfigError, match=r"run.cfg:6: seed is already set on line 1$"):
        parse_run_config(cfg)
    assert not (tmp_path / "scenes").exists()


def test_generate_refuses_to_resume_another_seed(tmp_path, map_file, capsys):
    assert main(["generate", "--config", str(write_cfg(tmp_path, map_file, seed=1,
                                                        n_scenes=3))]) == 0
    kept = tmp_path / "scenes" / "scene_000000.csv"
    before = (kept.read_bytes(), kept.stat().st_mtime_ns)
    manifest = (tmp_path / "scenes" / "manifest.txt").read_bytes()
    capsys.readouterr()
    cfg = write_cfg(tmp_path, map_file, seed=2, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "rng_key '1/0/0'" in capsys.readouterr().err
    assert (kept.read_bytes(), kept.stat().st_mtime_ns) == before
    assert (tmp_path / "scenes" / "manifest.txt").read_bytes() == manifest


def test_generate_refuses_to_resume_a_kept_file_that_no_longer_reads(tmp_path, map_file, capsys):
    cfg = write_cfg(tmp_path, map_file, n_scenes=3)
    assert main(["generate", "--config", str(cfg)]) == 0
    kept = tmp_path / "scenes" / "scene_000001.csv"
    kept.write_text(kept.read_text().rsplit("\n", 2)[0] + "\n")  # lose the last row
    before = (kept.read_bytes(), kept.stat().st_mtime_ns)
    manifest = (tmp_path / "scenes" / "manifest.txt").read_bytes()
    capsys.readouterr()
    assert main(["generate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {kept}: 49 trajectory rows, expected 50\n"
    assert "scene=" not in captured.out
    assert (kept.read_bytes(), kept.stat().st_mtime_ns) == before
    assert (tmp_path / "scenes" / "manifest.txt").read_bytes() == manifest


@pytest.mark.parametrize(
    "fault, command",
    [("scene", "validate"), ("map", "augment-map"), ("config", "generate"),
     ("crop_center_x", "validate")],
)
def test_malformed_input_exits_without_traceback(tmp_path, map_file, fault, command):
    cfg = write_cfg(tmp_path, map_file, n_scenes=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    scene = tmp_path / "scenes" / "scene_000000.csv"
    victim = {"scene": scene, "map": map_file, "config": cfg, "crop_center_x": scene}[fault]
    if fault == "crop_center_x":
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(ln for ln in lines if not ln.startswith("# crop_center_x")))
    else:
        victim.write_bytes(victim.read_bytes() + b"\xff")
    argv = {
        "validate": ["--scenes", str(tmp_path / "scenes")],
        "augment-map": ["--map", str(map_file), "--seed", "1",
                        "--out", str(tmp_path / "a.map")],
        "generate": ["--config", str(cfg)],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(scenesynth.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "scenesynth.cli", command] + argv,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()


def test_cli_import_loads_numpy_alone():
    # every command starts by this import in a fresh interpreter; a second
    # numerical library once took about half of its time and memory.
    # multiprocessing registers the main module as `__mp_main__`
    env = {**os.environ, "PYTHONPATH": str(Path(scenesynth.__file__).parent.parent)}
    code = (
        "import sys; before = set(sys.modules); import scenesynth.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['__mp_main__', 'numpy', 'scenesynth']"


def test_demo_pipeline_runs(tmp_path, monkeypatch, capsys):
    script = REPO / "scripts" / "demo_pipeline.py"
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path / "demo"), "4"])
    runpy.run_path(str(script), run_name="__main__")
    assert "demo complete" in capsys.readouterr().out
    assert len(list((tmp_path / "demo" / "samples").glob("sample_*.txt"))) == 4


def test_every_traced_site_records_a_span(tmp_path, map_file):
    """A small pipeline under the benchmark's tracer, with the reload of
    each sample that the benchmark's mask check makes, reaches every
    traced site, so a moved call site cannot leave a per-layer figure
    empty."""
    spans = runpy.run_path(str(REPO / "perfbench" / "spans.py"), run_name="spans")
    modules = {m: importlib.import_module(f"scenesynth.{m}") for m, _, _, _ in spans["SITES"]}
    cfg = write_cfg(tmp_path, map_file, n_scenes=3, augmented_fraction=1.0)
    scenes, out = str(tmp_path / "scenes"), tmp_path / "out"
    tracer = spans["Tracer"]()
    tracer.install(modules)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["generate", "--config", str(cfg)],
                ["validate", "--scenes", scenes],
                ["mask", "--scenes", scenes, "--task", "map", "--seed", "1",
                 "--out", str(out / "map")],
                ["mask", "--scenes", scenes, "--task", "traj", "--seed", "1",
                 "--out", str(out / "traj")],
                ["stats", "--scenes", scenes, "--ref", scenes],
                ["plot", "--scenes", scenes, "--out", str(out / "plot"), "--svg"],
            ):
                assert main(argv) == 0, argv
            for sample in sorted(out.glob("*/sample_*.txt")):
                read_sample(sample)
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    assert sorted({name for _, _, name, _ in spans["SITES"]} - recorded) == []


def test_compare_outputs_same_tree_exits_0():
    script = REPO / "scripts" / "compare_outputs.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(REPO), str(REPO), "--scenes", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 files differ" in proc.stdout


def test_compare_outputs_reports_a_dataset_that_fails_validate(tmp_path):
    # a tree whose scene files end in a space, which the reader refuses
    # (a writer fault that `validate` accepts shows only as differing bytes)
    tree = tmp_path / "tree"
    shutil.copytree(REPO / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tree / "src" / "scenesynth" / "synthesis.py"
    module.write_text(module.read_text() + (
        "\n_text = scene_to_text\n\n\ndef scene_to_text(scene):\n"
        "    return _text(scene)[:-1] + ' \\n'\n"
    ))
    script = REPO / "scripts" / "compare_outputs.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(REPO), str(tree), "--scenes", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert re.search(r"scene_000000\.csv:\d+: CITY_NAME '(MIA|PIT) ', expected", proc.stderr)
    assert "scenesynth validate exited 1" in proc.stderr


def test_compare_outputs_names_files_that_differ_across_worker_counts():
    script = runpy.run_path(str(REPO / "scripts" / "compare_outputs.py"), run_name="compare")
    digests = {
        "corridors_MIA.txt": "m",
        "scenes/manifest.txt": "w1",
        "scenes/scene_000000.csv": "a",
        "scenes_w2/manifest.txt": "w2",
        "scenes_w2/scene_000000.csv": "b",
        "samples/sample_000000.txt": "c",
        "samples_w2/sample_000000.txt": "c",
        "samples_w2/sample_000001.txt": "d",
    }
    assert script["worker_problems"]("T", digests) == [
        "T/scenes_w2/scene_000000.csv: differs from scenes/scene_000000.csv",
        "T/samples_w2/sample_000001.txt: differs from samples/sample_000001.txt",
    ]


def test_compare_outputs_shows_the_first_line_that_differs():
    script = runpy.run_path(str(REPO / "scripts" / "compare_outputs.py"), run_name="compare")
    first = script["first_difference"]
    assert first(b"a\nb\nc\n", b"a\nc\n") == "\n    line 2, old: b\n    line 2, new: c"
    assert first(b"a\n", b"a\nb\n") == (
        "\n    line 2, old: <end of file>\n    line 2, new: b"
    )
    assert first(b"\xff", b"a") == ""
