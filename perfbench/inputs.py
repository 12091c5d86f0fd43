"""The benchmark's inputs: the `corridors` fixture written once as an MIA
map file and once as a PIT map file, and `generate` config files.

Run as a script, it does the whole set-up a user of the CLI pays before the
first command: import the package, write both map files and a config::

    PYTHONPATH=src python3 perfbench/inputs.py DIR
"""

from __future__ import annotations

import sys
from pathlib import Path

CITIES = ("MIA", "PIT")


def write_maps(directory) -> list[Path]:
    from scenesynth.fixtures import generate_map_fixture
    from scenesynth.maps import save_map

    paths = []
    for city in CITIES:
        path = Path(directory) / f"corridors_{city}.txt"
        save_map(generate_map_fixture("corridors", city=city), path)
        paths.append(path)
    return paths


def write_config(
    path, *, seed: int, n_scenes: int, output_dir, map_files, augmented_fraction=None
) -> Path:
    """A config with the program's defaults except for the keys given;
    `augmented_fraction=None` keeps the paper's 165/370."""
    lines = [
        f"seed = {seed}",
        f"n_scenes = {n_scenes}",
        f"output_dir = {output_dir}",
        "map_files = " + ",".join(str(f) for f in map_files),
    ]
    if augmented_fraction is not None:
        lines.append(f"augmented_fraction = {augmented_fraction!r}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def main(directory) -> None:
    import scenesynth.cli  # noqa: F401  the import is part of set-up

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    maps = write_maps(directory)
    write_config(
        directory / "generate.cfg", seed=0, n_scenes=1,
        output_dir=directory / "scenes", map_files=maps,
    )


if __name__ == "__main__":
    main(sys.argv[1])
