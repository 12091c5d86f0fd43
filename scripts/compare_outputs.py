"""Compare the output bytes of two checkouts of scenesynth.

Usage: python scripts/compare_outputs.py OLD_TREE NEW_TREE [--scenes N]

Each case runs once with OLD_TREE/src and once with NEW_TREE/src on
PYTHONPATH, in a fresh process and into the same paths, after writing
the `corridors` MIA and PIT map files:

- generate cases (the paper's 165/370 warped mix and an all-warped
  dataset, each at two fixed seeds, and the mix planned at `dt = 1.0`
  to `t_g = 7.0`, a second refinement shape of k = 10 fine steps per
  coarse step and n = 70, at one seed): `generate` N scenes from the maps,
  `validate` them, then `mask --task combined` into `samples/`, `stats`
  of the dataset against itself into `tables/` and `plot --svg` into
  `plot/`; then the same again with `generate --workers 2`, into
  `scenes_w2/`, `samples_w2/`, `tables_w2/` and `plot_w2/`. The per-scene
  lines that `generate` logs, without their `wall_ms=` timing, go to
  `logs/generate.log` and `logs_w2/generate.log`, and what each of the
  four read commands prints, its run's own directories named as in the
  one-worker run, to `logs/<command>.out` and `logs_w2/<command>.out`.
  In the first case, each run also copies its first eight scene files to
  `faulty/` (`faulty_w2/`) and edits five of them, one fault each, so
  that both of `read_scene`'s read paths meet a fault: a `# map: pt`
  coordinate that is not a number, a `# map: lane` line with two ids, a
  metadata line moved below the column header (out of `scene_to_text`'s
  layout), the rows cut short, and a row whose city is not the
  metadata's. `validate` of that copy must exit 1, and what it prints
  on stdout and stderr goes to `logs/validate_faulty.out` (and
  `logs_w2/`);
- augment-map cases (`--kind single` and `--kind double`, each at two
  fixed seeds): `augment-map` on each map, which writes the warped map
  and its `.params` file.

The manifest echoes the output and map paths, so both trees must write
to the same paths for their bytes to be comparable; the second tree runs
after the first one's files are recorded and removed.

Prints every map, scene, manifest, sample, table, plot, log or `.params`
file whose bytes differ, or that only one tree wrote, and every scene,
sample, table, plot or log file of a two-worker run whose bytes differ
from the one-worker run's;
exits 1 if there is any, and 0 if every file is byte-identical. So a
change in how the work is ordered must not reorder or change a logged
record. For a text file whose bytes differ between the trees, it also
prints the first line where they differ, as each tree wrote it. The
manifests of the one- and two-worker runs differ only by their
`output_dir` line, so they are not compared with each other. A command
that exits nonzero in either tree, such as a `validate` that finds a
fault, stops the comparison, and so does a `validate` of the faulty copy
that does not exit 1: its stderr is printed and the exit code is 2.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, seed, config lines besides seed, n_scenes, output_dir and map_files)
CASES = (
    ("mixed-1000", 1000, ()),
    ("mixed-271828000", 271828000, ()),
    ("warped-1000", 1000, ("augmented_fraction = 1.0",)),
    ("warped-271828000", 271828000, ("augmented_fraction = 1.0",)),
    ("mixed-dt1-1000", 1000, ("dt = 1.0", "t_g = 7.0")),
)

# (name, augment-map --kind, seed)
AUGMENT_CASES = (
    ("augment-single-1000", "single", 1000),
    ("augment-single-271828000", "single", 271828000),
    ("augment-double-1000", "double", 1000),
    ("augment-double-271828000", "double", 271828000),
)

# run in the tree's interpreter environment: write the maps, then
# (generate) write a config, generate (keeping its scene log lines), then
# validate, mask, stats and plot (keeping what each prints) through the
# CLI, and (faulty) validate an edited copy of a few scene files, or
# (augment) warp each map through the CLI; a command's nonzero exit, or
# the faulty copy's exit other than 1, ends the run with its stderr
RUN = """
import contextlib
import io
import sys
from pathlib import Path
from scenesynth.cli import main
from scenesynth.fixtures import generate_map_fixture
from scenesynth.maps import save_map
from scenesynth.synthesis import CSV_HEADER


def bad_pt(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("# map: pt "))
    lines[i] = "# map: pt 1.0 one"


def bad_lane(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("# map: lane "))
    lines[i] += " X"


def metadata_below_header(lines):
    first = lines.pop(0)
    lines.insert(lines.index(CSV_HEADER) + 1, first)


def short_rows(lines):
    del lines[-10:]
    lines[-1] = lines[-1][:20]


def other_city(lines):
    i = lines.index(CSV_HEADER) + 5
    lines[i] = lines[i].rpartition(",")[0] + ",XXX"


# the edit of each of the first eight scene files, None for a copy
FAULTS = (None, bad_pt, bad_lane, metadata_below_header, short_rows, other_city, None, None)

mode, work, seed = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
maps = []
for city in ("MIA", "PIT"):
    path = work / f"corridors_{city}.txt"
    save_map(generate_map_fixture("corridors", city), path)
    maps.append(str(path))
if mode == "augment":
    for path in maps:
        out = path.replace("corridors_", f"augmented_{sys.argv[4]}_")
        code = main(["augment-map", "--map", path, "--seed", seed, "--out", out,
                     "--kind", sys.argv[4]])
        if code != 0:
            sys.exit(f"scenesynth augment-map exited {code}")
    sys.exit(0)
n_scenes, settings = sys.argv[4], sys.argv[5:]
for suffix, workers in (("", "1"), ("_w2", "2")):
    run = {name: str(work / f"{name}{suffix}") for name in ("scenes", "samples", "tables", "plot")}
    cfg, logs = work / f"generate{suffix}.cfg", work / f"logs{suffix}"
    logs.mkdir()
    lines = [f"seed = {seed}", f"n_scenes = {n_scenes}", f"output_dir = {run['scenes']}",
             "map_files = " + ",".join(maps), *settings]
    cfg.write_text("\\n".join(lines) + "\\n")
    for argv in (
        ["generate", "--config", str(cfg), "--workers", workers],
        ["validate", "--scenes", run["scenes"]],
        ["mask", "--scenes", run["scenes"], "--task", "combined", "--seed", seed,
         "--out", run["samples"]],
        ["stats", "--scenes", run["scenes"], "--ref", run["scenes"], "--out", run["tables"]],
        ["plot", "--scenes", run["scenes"], "--out", run["plot"], "--svg"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            sys.exit(f"scenesynth {argv[0]} exited {code}")
        if argv[0] == "generate":
            lines = [line.partition(" wall_ms=")[0] for line in out.getvalue().splitlines()
                     if line.startswith("scene=")]
            (logs / "generate.log").write_text("\\n".join(lines) + "\\n")
        else:
            text = out.getvalue()
            for name, path in run.items():
                text = text.replace(path, name)
            (logs / f"{argv[0]}.out").write_text(text)
    if mode == "faulty":
        faulty = work / f"faulty{suffix}"
        faulty.mkdir()
        for path, edit in zip(sorted(Path(run["scenes"]).glob("scene_*.csv")), FAULTS):
            lines = path.read_text().splitlines()
            if edit is not None:
                edit(lines)
            (faulty / path.name).write_text("\\n".join(lines) + "\\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["validate", "--scenes", str(faulty)])
        if code != 1:
            sys.exit(f"scenesynth validate of the faulty copy exited {code}, expected 1")
        (logs / "validate_faulty.out").write_text(out.getvalue().replace(str(faulty), "faulty"))
"""


def _contents(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def run_tree(tree: Path, work: Path, mode: str, seed: int, *args: str) -> dict[str, bytes]:
    """The bytes of every file one tree writes for one case, by path:
    `mode` is "generate" or "faulty" (args: scene count, then config
    lines) or "augment" (args: kind)."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", RUN, mode, str(work), str(seed), *args]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {proc.stderr.strip()}")
    contents = _contents(work)
    shutil.rmtree(work)
    return contents


def first_difference(old: bytes, new: bytes) -> str:
    """The first line at which two UTF-8 texts differ, as each has it
    (`<end of file>` past its last line), indented under the file's
    problem line; empty when either is not text."""
    try:
        a, b = old.decode("utf-8").splitlines(), new.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return ""
    i = 0
    while i < min(len(a), len(b)) and a[i] == b[i]:
        i += 1
    side = [lines[i] if i < len(lines) else "<end of file>" for lines in (a, b)]
    return f"\n    line {i + 1}, old: {side[0]}\n    line {i + 1}, new: {side[1]}"


def worker_problems(label: str, contents: dict[str, bytes]) -> list[str]:
    """One line per scene, sample, table, plot or log file of the
    two-worker run whose bytes differ from the one-worker run's, or that
    only one of the runs wrote. The manifests differ by design: they echo
    `output_dir`."""
    problems = []
    for one in ("scenes", "samples", "tables", "plot", "logs"):
        two = f"{one}_w2"
        files = {
            run: {
                path.partition("/")[2]: data
                for path, data in contents.items()
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
    runs = [
        (name, "faulty" if k == 0 else "generate", seed, str(n_scenes), *settings)
        for k, (name, seed, settings) in enumerate(CASES)
    ] + [(name, "augment", seed, kind) for name, kind, seed in AUGMENT_CASES]
    for name, *case in runs:
        before = run_tree(old, work / name, *case)
        after = run_tree(new, work / name, *case)
        problems += worker_problems(f"{old}: {name}", before)
        problems += worker_problems(f"{new}: {name}", after)
        for path in sorted(before.keys() | after.keys()):
            if path not in after:
                problems.append(f"{name}/{path}: only in {old}")
            elif path not in before:
                problems.append(f"{name}/{path}: only in {new}")
            elif before[path] != after[path]:
                detail = first_difference(before[path], after[path])
                problems.append(f"{name}/{path}: bytes differ{detail}")
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
