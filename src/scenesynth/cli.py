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

Config file format: one `key = value` per line, `#` comments allowed,
unknown keys rejected. Keys and defaults:

    seed = 0                  master seed; every scene derives its own stream
    n_scenes = 10             number of scenes to generate
    output_dir = out/scenes   where scene files and the manifest land
    map_files =               comma-separated map paths (required)
    augmented_fraction = 0.44594594594594594
    crop_radius = 100.0       map crop half-extent around the trajectory midpoint
    v_d_min = 6.0             desired-velocity sampling range
    v_d_max = 15.0
    action_set = -2,-1,-0.5,0,0.5,1
    dt = 0.5                  coarse planning step (s)
    t_g = 5.0                 planning horizon (s)
    w1 = 5.0                  acceleration cost weight
    w2 = 5.0                  curvature cost weight
    w3 = 1.0                  velocity-tracking cost weight
    abs_curvature = true      cost curvature by magnitude (false: signed)
    omega1 = 1.0              smoothing acceleration weight
    omega2 = 1.0              smoothing jerk weight
    omega3 = 10.0             coarse-plan tracking weight
    dt_fine = 0.1             fine grid step (s); 0.1 emits 10 Hz scenes
    k = 5                     fine steps per coarse step (k * dt_fine = dt)
    path_min_length = 150.0   reference-path assembly target (m)
    path_spacing = 1.0        reference-path sample spacing (m)
    retry_budget = 5          regeneration attempts per failed scene
    max_warp_slope = none     optional cap on the post-turn lateral slope
    mask_ratio = 0.5          fraction of lanes masked by the map task
    map_fraction = 0.7        share of scenes given the map task (combined)
    speed_bin_width = 0.5     speed histogram bin width (m/s)
    speed_max = 30.0          speed histogram upper edge (m/s)
    miss_threshold = 2.0      final-error threshold for the miss metric
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, pretrain
from .augment import DEFAULT_TURN_GAP, TurnKind, apply_transform, sample_transform_params
from .errors import ConfigError, MapFormatError, SceneSynthError
from .maps import build_reference_path, load_map, save_map, write_text_atomic
from .planner import PlannerParams
from .refine import RefinementParams
from .synthesis import GenerationConfig, generate_dataset, read_scene, scene_to_text


_CONFIG_DEFAULTS: dict[str, str] = {
    "seed": "0",
    "n_scenes": "10",
    "output_dir": "out/scenes",
    "map_files": "",
    "augmented_fraction": repr(165.0 / 370.0),
    "crop_radius": "100.0",
    "v_d_min": "6.0",
    "v_d_max": "15.0",
    "action_set": "-2,-1,-0.5,0,0.5,1",
    "dt": "0.5",
    "t_g": "5.0",
    "w1": "5.0",
    "w2": "5.0",
    "w3": "1.0",
    "abs_curvature": "true",
    "omega1": "1.0",
    "omega2": "1.0",
    "omega3": "10.0",
    "dt_fine": "0.1",
    "k": "5",
    "path_min_length": "150.0",
    "path_spacing": "1.0",
    "retry_budget": "5",
    "max_warp_slope": "none",
    "mask_ratio": "0.5",
    "map_fraction": "0.7",
    "speed_bin_width": "0.5",
    "speed_max": "30.0",
    "miss_threshold": "2.0",
}


@dataclass(frozen=True)
class RunConfig:
    generation: GenerationConfig
    map_files: tuple[str, ...]
    mask_ratio: float
    map_fraction: float
    speed_bin_width: float
    speed_max: float
    miss_threshold: float
    echo: tuple[tuple[str, str], ...]


def _parse_bool(key: str, value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def parse_run_config(path) -> RunConfig:
    values = dict(_CONFIG_DEFAULTS)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value': {line!r}")
        key = key.strip()
        if key not in values:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()

    try:
        planner = PlannerParams(
            action_set=tuple(
                float(a) for a in values["action_set"].split(",") if a.strip()
            ),
            dt=_parse_float("dt", values["dt"]),
            w1=_parse_float("w1", values["w1"]),
            w2=_parse_float("w2", values["w2"]),
            w3=_parse_float("w3", values["w3"]),
            t_g=_parse_float("t_g", values["t_g"]),
            abs_curvature=_parse_bool("abs_curvature", values["abs_curvature"]),
        )
        refinement = RefinementParams(
            omega1=_parse_float("omega1", values["omega1"]),
            omega2=_parse_float("omega2", values["omega2"]),
            omega3=_parse_float("omega3", values["omega3"]),
            dt_fine=_parse_float("dt_fine", values["dt_fine"]),
            k=_parse_int("k", values["k"]),
        )
        max_slope = values["max_warp_slope"]
        generation = GenerationConfig(
            seed=_parse_int("seed", values["seed"]),
            n_scenes=_parse_int("n_scenes", values["n_scenes"]),
            output_dir=values["output_dir"],
            augmented_fraction=_parse_float(
                "augmented_fraction", values["augmented_fraction"]
            ),
            crop_radius=_parse_float("crop_radius", values["crop_radius"]),
            v_d_range=(
                _parse_float("v_d_min", values["v_d_min"]),
                _parse_float("v_d_max", values["v_d_max"]),
            ),
            planner=planner,
            refinement=refinement,
            path_min_length=_parse_float("path_min_length", values["path_min_length"]),
            path_spacing=_parse_float("path_spacing", values["path_spacing"]),
            retry_budget=_parse_int("retry_budget", values["retry_budget"]),
            max_warp_slope=(
                None if max_slope.lower() == "none"
                else _parse_float("max_warp_slope", max_slope)
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    map_files = tuple(f.strip() for f in values["map_files"].split(",") if f.strip())
    echo = tuple(sorted(values.items()))
    return RunConfig(
        generation=generation,
        map_files=map_files,
        mask_ratio=_parse_float("mask_ratio", values["mask_ratio"]),
        map_fraction=_parse_float("map_fraction", values["map_fraction"]),
        speed_bin_width=_parse_float("speed_bin_width", values["speed_bin_width"]),
        speed_max=_parse_float("speed_max", values["speed_max"]),
        miss_threshold=_parse_float("miss_threshold", values["miss_threshold"]),
        echo=echo,
    )


def _scene_files(directory) -> list[Path]:
    return sorted(Path(directory).glob("scene_*.csv"))


def cmd_augment_map(args) -> int:
    m = load_map(args.map)
    rng = np.random.default_rng([args.seed])
    lane_ids = m.sorted_ids()
    seed_lane = lane_ids[int(rng.integers(len(lane_ids)))]
    path = build_reference_path(m, seed_lane, GenerationConfig.path_min_length, rng)
    params = sample_transform_params(rng, [path])
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
    run = parse_run_config(args.config)
    if not run.map_files:
        raise ConfigError("config key map_files must list at least one map")
    maps = [load_map(f) for f in run.map_files]
    # the manifest already echoes every GenerationConfig key
    echoed = {key for key, _ in run.generation.echo()}
    manifest = generate_dataset(
        maps,
        run.generation,
        workers=args.workers,
        log=print,
        extra_config=[("workers", str(args.workers))]
        + [(key, value) for key, value in run.echo if key not in echoed],
    )
    print(
        f"generated {len(manifest.records)} scenes in {manifest.elapsed_s:.1f} s "
        f"({manifest.scenes_per_s:.2f} scenes/s)"
    )
    print(f"manifest: {manifest.path}")
    return 0


def cmd_mask(args) -> int:
    files = _scene_files(args.scenes)
    if not files:
        raise SceneSynthError(f"no scene files in {args.scenes}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_map = 0
    for path in files:
        scene = read_scene(path)
        # keyed on the scene id, so a sample does not depend on which other
        # scene files sit in the directory
        if not (scene.scene_id.isascii() and scene.scene_id.isdigit()):
            raise MapFormatError(f"scene id {scene.scene_id!r} is not a number", path)
        rng = np.random.default_rng([args.seed, int(scene.scene_id)])
        vectors = pretrain.vectorize_scene(scene)
        if args.task == "map":
            sample = pretrain.mask_map(vectors, args.mask_ratio, rng)
        elif args.task == "traj":
            sample = pretrain.mask_trajectory(vectors)
        else:
            sample = pretrain.draw_sample(
                vectors, args.map_fraction, args.mask_ratio, rng
            )
        if sample.task is pretrain.ReconTask.MAP:
            n_map += 1
        pretrain.write_sample(sample, out_dir / pretrain.sample_filename(scene.scene_id))
    print(
        f"masked {len(files)} scenes -> {out_dir} "
        f"(map={n_map}, traj={len(files) - n_map})"
    )
    return 0


def _load_scenes(directory):
    files = _scene_files(directory)
    if not files:
        raise SceneSynthError(f"no scene files in {directory}")
    return [read_scene(f) for f in files]


def cmd_stats(args) -> int:
    scenes = _load_scenes(args.scenes)
    ref = _load_scenes(args.ref)
    sp1 = analysis.speed_distribution(scenes)
    sp2 = analysis.speed_distribution(ref)
    hd1 = analysis.heading_distribution(scenes)
    hd2 = analysis.heading_distribution(ref)
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
    if not files:
        print(f"no scene files in {args.scenes}", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        try:
            scene = read_scene(path)
            if scene_to_text(scene) != path.read_text(encoding="utf-8"):
                raise SceneSynthError("file bytes differ from canonical serialization")
        except SceneSynthError as exc:
            failures += 1
            print(f"FAIL {path}: {exc}", file=sys.stderr)
    manifest = Path(args.scenes) / "manifest.txt"
    if manifest.exists():
        for lineno, line in enumerate(
            manifest.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if line.startswith("#") or not line.strip():
                continue
            name, sep, rest = line.partition(",")
            status = rest.partition(",")[0]
            if not sep:
                problem = f"expected 'file,status,...', got {line!r}"
            elif status != "skipped" and not (Path(args.scenes) / name).exists():
                problem = f"listed file {name} missing"
            else:
                continue
            failures += 1
            print(f"FAIL {manifest}:{lineno}: {problem}", file=sys.stderr)
    print(f"validated {len(files)} scenes, {failures} failures")
    return 1 if failures else 0


def cmd_plot(args) -> int:
    scenes = _load_scenes(args.scenes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    speeds = analysis.speed_distribution(scenes)
    headings = analysis.heading_distribution(scenes)
    endpoints = np.array(
        [analysis.trajectory_stats(sc.trajectory).endpoint for sc in scenes]
    )
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


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
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
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mask", help="emit masked-reconstruction samples")
    p.add_argument("--scenes", required=True)
    p.add_argument("--task", required=True, choices=("map", "traj", "combined"))
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--out", required=True)
    p.add_argument("--map-fraction", type=float, default=0.7, dest="map_fraction")
    p.add_argument("--mask-ratio", type=float, default=0.5, dest="mask_ratio")
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
