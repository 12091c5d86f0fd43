"""Compare the output bytes of two checkouts of scenesynth.

Usage: python scripts/compare_outputs.py OLD_TREE NEW_TREE [--scenes N]

For each case (the paper's 165/370 warped mix and an all-warped dataset,
each at two fixed seeds) it runs, once with OLD_TREE/src and once with
NEW_TREE/src on PYTHONPATH, in a fresh process and into the same paths:
write the `corridors` MIA and PIT map files, `generate` N scenes from
them, then `mask --task combined`; then the same again with
`generate --workers 2`, into `scenes_w2/` and `samples_w2/`. The manifest
echoes the output and map paths, so both trees must write to the same
paths for their bytes to be comparable; the second tree runs after the
first one's files are recorded and removed.

Prints every map, scene, manifest or sample file whose bytes differ, or
that only one tree wrote, and every scene or sample file of a two-worker
run whose bytes differ from the one-worker run's; exits 1 if there is
any, and 0 if every file is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, augmented_fraction or None for the default mix, seed)
CASES = (
    ("mixed-1000", None, 1000),
    ("mixed-271828000", None, 271828000),
    ("warped-1000", 1.0, 1000),
    ("warped-271828000", 1.0, 271828000),
)

# run in the tree's interpreter environment: write the maps and a config,
# then generate and mask through the CLI
RUN = """
import sys
from pathlib import Path
from scenesynth.cli import main
from scenesynth.fixtures import generate_map_fixture
from scenesynth.maps import save_map

work, n_scenes, seed, fraction = Path(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
maps = []
for city in ("MIA", "PIT"):
    path = work / f"corridors_{city}.txt"
    save_map(generate_map_fixture("corridors", city), path)
    maps.append(str(path))
for suffix, workers in (("", "1"), ("_w2", "2")):
    scenes, cfg = work / f"scenes{suffix}", work / f"generate{suffix}.cfg"
    lines = [f"seed = {seed}", f"n_scenes = {n_scenes}", f"output_dir = {scenes}",
             "map_files = " + ",".join(maps)]
    if fraction != "default":
        lines.append(f"augmented_fraction = {fraction}")
    cfg.write_text("\\n".join(lines) + "\\n")
    for argv in (
        ["generate", "--config", str(cfg), "--workers", workers],
        ["mask", "--scenes", str(scenes), "--task", "combined", "--seed", seed,
         "--out", str(work / f"samples{suffix}")],
    ):
        code = main(argv)
        if code != 0:
            sys.exit(f"scenesynth {argv[0]} exited {code}")
"""


def _digests(root: Path) -> dict[str, str]:
    return {
        str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*"))
        if f.is_file()
    }


def run_tree(tree: Path, work: Path, n_scenes: int, fraction, seed: int) -> dict[str, str]:
    """sha256 of every file one tree writes for one case, by path."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", RUN, str(work), str(n_scenes), str(seed),
            "default" if fraction is None else repr(fraction)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {proc.stderr.strip()}")
    digests = _digests(work)
    shutil.rmtree(work)
    return digests


def worker_problems(label: str, digests: dict[str, str]) -> list[str]:
    """One line per scene or sample file of the two-worker run whose bytes
    differ from the one-worker run's, or that only one of the runs wrote.
    The manifests differ by design: they echo `output_dir` and `workers`."""
    problems = []
    for one, two in (("scenes", "scenes_w2"), ("samples", "samples_w2")):
        files = {
            run: {
                path.partition("/")[2]: digest
                for path, digest in digests.items()
                if path.partition("/")[0] == run and not path.endswith("manifest.txt")
            }
            for run in (one, two)
        }
        for path in sorted(files[one].keys() | files[two].keys()):
            if files[one].get(path) != files[two].get(path):
                problems.append(f"{label}/{two}/{path}: differs from {one}/{path}")
    return problems


def compare(old: Path, new: Path, n_scenes: int, work: Path) -> list[str]:
    """One line per file whose bytes differ between the trees, or between
    a tree's one- and two-worker runs."""
    problems = []
    for name, fraction, seed in CASES:
        before = run_tree(old, work / name, n_scenes, fraction, seed)
        after = run_tree(new, work / name, n_scenes, fraction, seed)
        problems += worker_problems(f"{old}: {name}", before)
        problems += worker_problems(f"{new}: {name}", after)
        for path in sorted(before.keys() | after.keys()):
            if path not in after:
                problems.append(f"{name}/{path}: only in {old}")
            elif path not in before:
                problems.append(f"{name}/{path}: only in {new}")
            elif before[path] != after[path]:
                problems.append(f"{name}/{path}: bytes differ")
        print(f"{name}: {len(after)} files compared", flush=True)
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path, help="checkout whose src/ is the reference")
    p.add_argument("new", type=Path, help="checkout whose src/ is compared with it")
    p.add_argument("--scenes", type=int, default=200, help="scenes per dataset (default 200)")
    args = p.parse_args(argv)
    if args.scenes < 1:
        p.error("--scenes must be >= 1")
    with tempfile.TemporaryDirectory() as work:
        try:
            problems = compare(args.old.resolve(), args.new.resolve(), args.scenes, Path(work))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for line in problems:
        print(line)
    print(f"{len(problems)} files differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
