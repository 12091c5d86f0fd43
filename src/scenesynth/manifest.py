"""The dataset manifest, `manifest.txt`: write it, and check it against
the scene files.

    # scenesynth dataset manifest
    # config seed: 0           GenerationConfig.echo(), one line per key
    # maps: MIA=12;PIT=12      city and lane count of each map
    # count total: 2           the tally of the rows (`manifest_counts`)
    scene_000000.csv,augmented,MIA,41.5,
    scene_000001.csv,skipped,-,-,reason

It holds no timing or worker count, so its bytes are a function of
(seed, config, maps). `manifest_text` is its one writer, and the check
(`manifest_problems`) renders it again: from the file's own config block,
read back through `GenerationConfig.from_lines` (module `config`), the
file's maps line and a row per scene from the scene files. A manifest is
valid only when it is that text, byte for byte.
"""

from __future__ import annotations

import re
from itertools import zip_longest

from .config import GenerationConfig
from .errors import ConfigError, ValidationError
from .maps import read_text

MANIFEST_FILE = "manifest.txt"  # in the dataset's output_dir

HEADER = "# scenesynth dataset manifest"
CONFIG = "# config "
MAPS = "# maps: "
COUNT = "# count "
UNKNOWN = "..."  # a row field that no scene file gives


def scene_filename(index: int) -> str:
    return f"scene_{index:06d}.csv"


def manifest_fields(meta: dict[str, str]) -> tuple[str, str, str]:
    """The status, city and cost that the manifest row of a written scene
    lists, from the scene's metadata."""
    status = "augmented" if meta.get("augmented") == "true" else "original"
    return status, meta.get("city", "-"), meta.get("plan_cost", "-")


def manifest_counts(rows) -> dict[str, int]:
    """The `# count` lines of a manifest whose rows have the fields
    (status, city, ...) `rows`, as {key: count} in manifest order: the
    total, each status, then each city of the rows not skipped, by name. A
    row of another status counts in the total and for its city, and a row
    without a city field for no city."""
    counts = {"total": 0, "original": 0, "augmented": 0, "skipped": 0}
    cities: dict[str, int] = {}
    for row in rows:
        counts["total"] += 1
        if row[0] in ("original", "augmented", "skipped"):
            counts[row[0]] += 1
        if row[0] != "skipped" and len(row) > 1:
            cities[row[1]] = cities.get(row[1], 0) + 1
    counts.update((f"city {city}", cities[city]) for city in sorted(cities))
    return counts


def manifest_text(cfg, maps_text: str, rows: list[tuple[str, ...]]) -> str:
    """The manifest of `cfg` with the maps line `maps_text` and the rows
    `rows`, in index order, each the tuple of its comma-separated fields:
    (file, status, city, cost, reason), with the reason empty for a made
    scene and the city and cost `-` for a skipped one."""
    lines = [HEADER]
    lines.extend(f"{CONFIG}{key}: {value}" for key, value in cfg.echo())
    lines.append(MAPS + maps_text)
    counts = manifest_counts(row[1:] for row in rows)
    lines.extend(f"{COUNT}{key}: {value}" for key, value in counts.items())
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _maps_fault(maps_text: str, rows) -> str | None:
    """What is wrong with the maps line `maps_text` of a manifest with the
    rows `rows`, if anything: each `;` entry must be `CITY=N` with N a lane
    count, and it must name the city of every row not skipped. The lane
    counts are not checked against the maps."""
    cities = set()
    for entry in maps_text.split(";"):
        city, eq, lanes = entry.partition("=")
        if not (city and eq and lanes.isascii() and lanes.isdigit()):
            return f"maps entry {entry!r} is not CITY=N"
        cities.add(city)
    listed = {row[2] for row in rows if len(row) > 2 and row[1] != "skipped"}
    missing = sorted(listed - cities)
    return f"no maps entry for city {missing[0]}, which a row lists" if missing else None


def _first_difference(text: str, expected: str) -> tuple[int, str] | None:
    """The first line of `text` that is not that line of `expected`, as
    (line number, `expected ..., found ...`); each line is shown with its
    line end, or as `<end of file>` past the last one."""
    if text == expected:
        return None
    got, want = (re.findall(r"[^\n]*\n|[^\n]+\Z", t) for t in (text, expected))
    i = next(i for i, (a, b) in enumerate(zip_longest(got, want)) if a != b)
    found, wanted = (repr(lines[i]) if i < len(lines) else "<end of file>" for lines in (got, want))
    return i + 1, f"expected {wanted}, found {found}"


def manifest_problems(
    path, scene_names: set[str], metadata: dict[str, dict[str, str]]
) -> list[str]:
    """The faults of the manifest at `path`, as `where: problem`, against
    the scene files `scene_names`, of which `metadata` gives the metadata
    of each that reads back: one for the manifest, and `no row lists` each
    scene file that is not one of its `n_scenes`.

    Read without newline translation, as scene files are, the file must
    be `manifest_text` of its own config block (read back through
    `GenerationConfig.from_lines`; a ConfigError is the fault), its own
    maps line (`_maps_fault`) and a row per scene in index order: made
    from the scene file; as listed, for a file that does not read back;
    the listed five-field `skipped` row, for a file that does not exist.
    The seed line must be the seed of each such scene's `rng_key`, and a
    fault there names the first scene, by name, that has another. The
    fault is the first line at fault: the seed line's or the maps line's
    before a line that differs. Bytes that are not UTF-8 raise
    ValidationError.
    """
    text = read_text(path, ValidationError, newline="")
    lines = text.split("\n")
    config = [(n, line[len(CONFIG):]) for n, line in enumerate(lines, 1) if line.startswith(CONFIG)]
    try:
        cfg = GenerationConfig.from_lines(config, path)
    except ConfigError as exc:
        return [str(exc) if exc.line is not None else f"{path}: config block: {exc}"]
    if cfg.n_scenes >= len(lines):  # each scene has a row, below the header
        return [f"{path}: n_scenes is {cfg.n_scenes}, more rows than the manifest has lines"]
    names = [scene_filename(index) for index in range(cfg.n_scenes)]
    unlisted = [f"{path}: no row lists {name}" for name in sorted(scene_names - set(names))]
    maps_at = next((n for n, line in enumerate(lines, 1) if line.startswith(MAPS)), None)
    if maps_at is None:
        return [f"{path}: maps line is missing", *unlisted]
    listed: dict[str, tuple[str, ...]] = {}  # the first row that names each file
    for line in lines:
        listed.setdefault(line.partition(",")[0], tuple(line.split(",")))
    expected = []
    for name in names:
        row = listed.get(name, ())
        if name in metadata:
            row = (name, *manifest_fields(metadata[name]), "")
        elif name in scene_names:  # a file that does not read back
            row = row or (name, UNKNOWN)
        elif not (len(row) == 5 and row[1:4] == ("skipped", "-", "-")):
            row = (name, "skipped", "-", "-", UNKNOWN)
        expected.append(row)
    maps_text = lines[maps_at - 1][len(MAPS):]
    faults = []  # (line, problem); on one line, the seed's or the maps line's first
    seed_at = next((n for n, entry in config if entry.startswith("seed:")), None)
    keys = {name: metadata[name].get("rng_key", "") for name in sorted(metadata)}
    other = next((name for name, key in keys.items() if key.split("/")[0] != str(cfg.seed)), None)
    if seed_at is not None and other is not None:
        faults.append((seed_at, f"seed is {cfg.seed}, but {other} has rng_key {keys[other]!r}"))
    maps_fault = _maps_fault(maps_text, expected)
    if maps_fault is not None:
        faults.append((maps_at, maps_fault))
    difference = _first_difference(text, manifest_text(cfg, maps_text, expected))
    if difference is not None:
        faults.append(difference)
    fault = min(faults, key=lambda f: f[0], default=None)
    return ([] if fault is None else [f"{path}:{fault[0]}: {fault[1]}"]) + unlisted
