"""The dataset manifest, `manifest.txt`: write it, read it back, check it.

    # scenesynth dataset manifest
    # config seed: 0           GenerationConfig.echo(), one line per key
    # maps: MIA=12;PIT=12      city and lane count of each map
    # count total: 2           the tally of the rows (`manifest_counts`)
    scene_000000.csv,augmented,MIA,41.5,
    scene_000001.csv,skipped,-,-,reason

It holds no timing or worker count, so its bytes are a function of
(seed, config, maps). The config lines, numbered by `read_manifest`, read
back through `GenerationConfig.from_lines` (module `config`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .config import GenerationConfig
from .errors import ConfigError, ValidationError
from .maps import read_lines

MANIFEST_FILE = "manifest.txt"  # in the dataset's output_dir

CONFIG = "# config "
MAPS = "# maps: "
COUNT = "# count "


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


def manifest_text(cfg, maps, records) -> str:
    """The manifest of the scene records `records`, in index order, made
    from `cfg` and `maps`."""
    counts = manifest_counts((rec.status, rec.city) for rec in records)
    lines = ["# scenesynth dataset manifest"]
    lines.extend(f"{CONFIG}{key}: {value}" for key, value in cfg.echo())
    lines.append(MAPS + ";".join(f"{m.city}={len(m.lanes)}" for m in maps))
    lines.extend(f"{COUNT}{key}: {value}" for key, value in counts.items())
    for rec in records:
        if rec.status == "skipped":
            lines.append(f"{rec.filename},skipped,-,-,{rec.reason}")
        else:
            lines.append(f"{rec.filename},{rec.status},{rec.city},{rec.cost},")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ManifestLines:
    """A manifest's parts, each with its file line."""

    path: Path
    config: list[tuple[int, str]]  # (line, `key: value`) of each `# config` line
    maps: list[tuple[int, str]]  # (line, text) of each `# maps:` line
    counts: list[tuple[int, str, str]]  # (line, key, value) of each `# count` line
    rows: list[tuple[int, list[str]]]  # (line, comma-split fields) of each row


def read_manifest(path) -> ManifestLines:
    """The parts of the manifest at `path`; other `#` lines and blank lines
    are skipped. Bytes that are not UTF-8 raise ValidationError."""
    config, maps, counts, rows = [], [], [], []
    for lineno, line in enumerate(read_lines(path, ValidationError), start=1):
        if line.startswith(CONFIG):
            config.append((lineno, line[len(CONFIG):]))
        elif line.startswith(COUNT):
            key, _, value = line[len(COUNT):].partition(":")
            counts.append((lineno, key.strip(), value.strip()))
        elif line.startswith(MAPS):
            maps.append((lineno, line[len(MAPS):]))
        elif line.strip() and not line.startswith("#"):
            rows.append((lineno, line.split(",")))
    return ManifestLines(Path(path), config, maps, counts, rows)


def _config_problems(m: ManifestLines, n_rows: int) -> list[str]:
    """The config block must read back through
    `GenerationConfig.from_lines`, be that config's echo line for line, and
    have n_scenes equal to `n_rows`."""
    try:
        cfg = GenerationConfig.from_lines(m.config, m.path)
    except ConfigError as exc:
        return [str(exc) if exc.line is not None else f"{m.path}: config block: {exc}"]
    block = [repr(text) for _, text in m.config] + ["no line"]
    echo = [repr(f"{key}: {value}") for key, value in cfg.echo()] + ["no line"]
    i = next((i for i, (got, want) in enumerate(zip(block, echo)) if got != want), None)
    if i is not None:
        where = f"{m.path}:{m.config[i][0]}" if i < len(m.config) else m.path
        return [f"{where}: config echoes {echo[i]}; the block has {block[i]}"]
    if cfg.n_scenes != n_rows:
        lineno = next(n for n, text in m.config if text.startswith("n_scenes:"))
        return [f"{m.path}:{lineno}: n_scenes is {cfg.n_scenes}; the manifest has {n_rows} rows"]
    return []


def _maps_problems(m: ManifestLines, fields: list[tuple[str, ...]]) -> list[str]:
    """The `# maps:` line must be there once, each `;` entry `CITY=N` with
    N a lane count, and it must name the city of every row not skipped.
    The lane counts are not checked against the maps."""
    if not m.maps:
        return [f"{m.path}: maps line is missing"]
    (lineno, text), *again = m.maps
    where = f"{m.path}:{lineno}"
    problems = [f"{m.path}:{n}: maps line repeats line {lineno}" for n, _ in again]
    cities = set()
    for entry in text.split(";"):
        city, eq, lanes = entry.partition("=")
        if not (city and eq and lanes.isascii() and lanes.isdigit()):
            problems.append(f"{where}: maps entry {entry!r} is not CITY=N")
        cities.add(city)
    listed = {row[1] for row in fields if len(row) > 1 and row[0] != "skipped"}
    problems.extend(
        f"{where}: no maps entry for city {city}, which a row lists"
        for city in sorted(listed - cities)
    )
    return problems


def manifest_problems(
    path, scene_names: set[str], rows: dict[str, tuple[str, str, str]]
) -> list[str]:
    """Each fault of the manifest at `path`, as `where: problem`, against
    the scene files `scene_names`, of which `rows` gives the (status, city,
    cost) of each that reads back: a config block at fault (as
    `GenerationConfig.from_lines` reads it); a maps line missing,
    repeated, malformed or without the city of a row; a malformed or
    repeated row, or one that disagrees with its file; a file without a
    row or with a `skipped` one; a count line repeated, missing or off the
    tally."""
    m = read_manifest(path)
    problems: list[str] = []
    listed_at: dict[str, int] = {}  # first line of each file's row
    fields: list[tuple[str, ...]] = []  # the (status, city, cost) of each row
    for lineno, row in m.rows:
        where = f"{m.path}:{lineno}"
        if len(row) < 2:
            problems.append(f"{where}: expected 'file,status,...', got {row[0]!r}")
            continue
        name, listed = row[0], tuple(row[1:4])
        if name in listed_at:
            problems.append(f"{where}: row of {name} repeats line {listed_at[name]}")
        listed_at.setdefault(name, lineno)
        fields.append(listed)
        if listed[0] == "skipped":
            if name in scene_names:
                problems.append(f"{where}: lists {name} as skipped; the file exists")
        elif name not in scene_names:
            problems.append(f"{where}: listed file {name} missing")
        elif name in rows and listed != rows[name]:
            problems.append(
                f"{where}: lists {name} as {','.join(listed)}; "
                f"the file has {','.join(rows[name])}"
            )
    problems[:0] = _config_problems(m, len(fields)) + _maps_problems(m, fields)
    problems.extend(
        f"{m.path}: no row lists {name}" for name in sorted(scene_names - listed_at.keys())
    )
    tally = manifest_counts(fields)
    counted_at: dict[str, int] = {}  # first line of each count key
    for lineno, key, value in m.counts:
        where = f"{m.path}:{lineno}"
        if key in counted_at:
            problems.append(f"{where}: count {key} repeats line {counted_at[key]}")
        counted_at.setdefault(key, lineno)
        if value != str(tally.get(key, 0)):
            problems.append(f"{where}: count {key} is {value}; the rows tally {tally.get(key, 0)}")
    problems.extend(
        f"{m.path}: count {key} is missing; the rows tally {tally[key]}"
        for key in sorted(tally.keys() - counted_at.keys())
    )
    return problems
