"""Command-line front-end.

Subcommands::

    scenesynth augment-map --map FILE --seed N --out FILE [--kind single|double]
    scenesynth generate    --config FILE [--workers N]
    scenesynth mask        --scenes DIR --task map|traj|combined --seed N --out DIR
                           [--map-fraction F] [--mask-ratio R]
    scenesynth stats       --scenes DIR --ref DIR [--out DIR]
    scenesynth validate    --scenes DIR
    scenesynth plot        --scenes DIR --out DIR [--svg]

Exit codes: 0 success, 1 data or validation failure, 2 usage/config error.
A scene that `generate` skips after its retries is not a failure, and
the summary line counts the scenes made and skipped; a run whose every
scene is skipped made no data, and exits 1 after writing its manifest.

Config file format (module `config`: `parse_run_config` reads the file
through `GenerationConfig.from_lines`): one `key = value` per line
(`key: value`, as the manifest writes it, reads the same), `#` comments
allowed, unknown and repeated keys rejected, numbers finite.
Keys and defaults, one row per `GenerationConfig` field, in the order of
the fields and of the manifest's config block:

    seed = 0                  master seed; every scene derives its own stream
    n_scenes = 10             number of scenes to generate
    output_dir = out/scenes   where scene files and the manifest land
    augmented_fraction = 0.44594594594594594
    dt = 0.5                  coarse planning step (s), a whole number of 0.1 s steps
    t_g = 5.0                 planning horizon (s)
    path_min_length = 150.0   reference-path assembly target (m)
    map_files =               comma-separated map paths (required by generate)

The planner's action set and cost weights (`planner.PlannerParams`), the
smoothing weights (`refine.RefinementParams`), the desired-velocity range
(`planner.V_D_RANGE`), the crop radius and the retries per scene
(`synthesis.CROP_RADIUS`, `synthesis.RETRY_BUDGET`) are constants.
Refinement smooths each plan onto the 10 Hz scene grid, k = dt / 0.1 fine
steps per coarse step. `validate` checks each scene file (a file that
cannot be read is one failure, and the check goes on), then that the
manifest is the text that `manifest.manifest_text` makes from its own
config block and maps line and the scene files, and that its seed is
the one in each scene's `rng_key` (`manifest.manifest_problems`).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, pretrain
from .augment import DEFAULT_TURN_GAP, TurnKind, apply_transform
from .config import GenerationConfig, parse_run_config
from .errors import ConfigError, SceneSynthError
from .manifest import MANIFEST_FILE, manifest_problems
from .maps import load_map, save_map, write_text_atomic
from .synthesis import (
    SCENE_SAMPLES,
    draw_warp,
    generate_dataset,
    read_scene,
    read_scene_text,
    scene_to_text,
)


def _scene_files(directory) -> list[Path]:
    """The scene files of `directory`, in name order; raises
    SceneSynthError when there are none."""
    files = sorted(Path(directory).glob("scene_*.csv"))
    if not files:
        raise SceneSynthError(f"no scene files in {directory}")
    return files


def cmd_augment_map(args) -> int:
    m = load_map(args.map)
    params = draw_warp(m, np.random.default_rng([args.seed]), GenerationConfig())
    if args.kind is not None:
        kind = TurnKind.SINGLE if args.kind == "single" else TurnKind.DOUBLE
        params = replace(
            params,
            kind=kind,
            beta=DEFAULT_TURN_GAP if kind is TurnKind.DOUBLE else None,
        )
    augmented = apply_transform(m, params)
    save_map(augmented, args.out)
    sidecar = str(args.out) + ".params"
    write_text_atomic(
        sidecar,
        "\n".join(f"{k}: {v}" for k, v in params.metadata().items()) + "\n",
    )
    print(f"wrote {args.out} and {sidecar}")
    return 0


def cmd_generate(args) -> int:
    cfg = parse_run_config(args.config)
    if not cfg.map_files:
        raise ConfigError("config key map_files must list at least one map")
    maps = [load_map(f) for f in cfg.map_files]
    t0 = time.perf_counter()
    records = generate_dataset(maps, cfg, workers=args.workers, log=print)
    elapsed = time.perf_counter() - t0
    skipped = sum(rec.status == "skipped" for rec in records)
    print(
        f"generated {len(records) - skipped} scenes and skipped {skipped} "
        f"in {elapsed:.1f} s ({len(records) / elapsed:.2f} scenes/s)"
    )
    print(f"manifest: {Path(cfg.output_dir) / MANIFEST_FILE}")
    return 1 if skipped == len(records) else 0


def cmd_mask(args) -> int:
    scenes_dir, out_dir = Path(args.scenes), Path(args.out)
    if out_dir.resolve() == scenes_dir.resolve():
        # the samples manifest would replace the dataset's manifest
        raise ConfigError(f"--out {args.out} is the --scenes directory; give samples their own")
    files = _scene_files(scenes_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pretrain.write_samples_manifest(out_dir, scenes_dir)
    settings = pretrain.MaskSettings(args.seed, args.task, args.map_fraction, args.mask_ratio)
    n_map = 0
    for path in files:
        text = read_scene_text(path)
        scene = read_scene(path, text)
        task, masked = pretrain.draw_masked(settings, scene, path)
        n_map += task is pretrain.ReconTask.MAP
        ref = pretrain.SampleRef(path.name, pretrain.scene_sha256(text), settings, task, masked)
        pretrain.write_sample(ref, out_dir / pretrain.sample_filename(scene.scene_id))
    print(
        f"masked {len(files)} scenes -> {out_dir} "
        f"(map={n_map}, traj={len(files) - n_map})"
    )
    return 0


def _load_trajectories(directory) -> np.ndarray:
    """The (n, 50, 2) trajectories of the scene files of `directory`."""
    files = _scene_files(directory)
    trajectories = np.empty((len(files), SCENE_SAMPLES, 2))
    for row, path in enumerate(files):
        trajectories[row] = read_scene(path).trajectory
    return trajectories


def _histograms(directory):
    """The speed and heading histograms of the trajectories of
    `directory`, and their endpoints after `analysis.normalize_headings`,
    which rotates each trajectory once."""
    trajectories = _load_trajectories(directory)
    headings, endpoints = analysis.normalize_headings(trajectories)
    return (
        analysis.speed_distribution(trajectories),
        analysis.heading_distribution(headings),
        endpoints,
    )


def cmd_stats(args) -> int:
    scenes = _histograms(args.scenes)
    # the same directory under another spelling is read and histogrammed once
    same = Path(args.ref).resolve() == Path(args.scenes).resolve()
    (sp1, hd1, _), (sp2, hd2, _) = scenes, scenes if same else _histograms(args.ref)
    speed_rep = analysis.compare_distributions(sp1, sp2)
    head_rep = analysis.compare_distributions(hd1, hd2)
    print(f"speed_overlap={speed_rep.overlap:.6f} speed_jsd={speed_rep.jsd:.6f}")
    print(f"heading_overlap={head_rep.overlap:.6f} heading_jsd={head_rep.jsd:.6f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        analysis.write_histogram_table(sp1, out_dir / "speed_scenes.csv")
        analysis.write_histogram_table(sp2, out_dir / "speed_ref.csv")
        analysis.write_histogram_table(hd1, out_dir / "heading_scenes.csv")
        analysis.write_histogram_table(hd2, out_dir / "heading_ref.csv")
        print(f"tables: {out_dir}")
    return 0


def cmd_validate(args) -> int:
    files = _scene_files(args.scenes)
    failures = 0
    metadata: dict[str, dict[str, str]] = {}  # of each scene that reads back
    for path in files:
        try:
            text = read_scene_text(path)  # read once: the parse and the compare see one text
            scene = read_scene(path, text)
            if scene_to_text(scene) != text:
                raise SceneSynthError("file bytes differ from canonical serialization", path)
        except (SceneSynthError, OSError) as exc:  # a SceneSynthError names its file
            failures += 1
            fault = exc if isinstance(exc, SceneSynthError) else f"{path}: {exc.strerror or exc}"
            print(f"FAIL {fault}", file=sys.stderr)
            continue
        metadata[path.name] = scene.metadata
    manifest = Path(args.scenes) / MANIFEST_FILE
    if manifest.exists():
        problems = manifest_problems(manifest, {path.name for path in files}, metadata)
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        failures += len(problems)
    print(f"validated {len(files)} scenes, {failures} failures")
    return 1 if failures else 0


def cmd_plot(args) -> int:
    speeds, headings, endpoints = _histograms(args.scenes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_histogram_table(speeds, out_dir / "speed_hist.csv")
    analysis.write_histogram_table(headings, out_dir / "heading_hist.csv")
    analysis.write_endpoint_cloud(endpoints, out_dir / "endpoints.csv")
    if args.svg:
        analysis.render_histogram_svg(
            speeds, out_dir / "speed_hist.svg", title="speed (m/s)"
        )
        analysis.render_histogram_svg(
            headings, out_dir / "heading_hist.svg", title="heading (rad)"
        )
    print(f"plot data written to {out_dir}")
    return 0


def _usage(parse):
    """The argparse type that parses with `parse` (`pretrain.parse_seed`,
    `pretrain.parse_fraction`) and reports its ValueError as the usage error."""

    def parse_arg(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_arg


_seed, _fraction = _usage(pretrain.parse_seed), _usage(pretrain.parse_fraction)


def _workers(text: str) -> int:
    """argparse type of --workers: a pool needs at least one process."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenesynth",
        description="Deterministic driving-scene synthesis and masking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment-map", help="warp a map and write it back out")
    p.add_argument("--map", required=True)
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("single", "double"))
    p.set_defaults(func=cmd_augment_map)

    p = sub.add_parser("generate", help="generate a scene dataset from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=_workers, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mask", help="emit masked-reconstruction samples")
    p.add_argument("--scenes", required=True)
    p.add_argument("--task", required=True, choices=pretrain.MASK_TASKS)
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--out", required=True)
    p.add_argument("--map-fraction", type=_fraction, default=pretrain.DEFAULT_MAP_FRACTION)
    p.add_argument("--mask-ratio", type=_fraction, default=pretrain.DEFAULT_MASK_RATIO)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("stats", help="compare two scene directories")
    p.add_argument("--scenes", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", help="check every invariant of every scene file")
    p.add_argument("--scenes", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plot", help="emit plot-data tables (and optional SVGs)")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SceneSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
