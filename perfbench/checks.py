"""Correctness checks on the outputs of each CLI command.

Every check returns a list of problems; an empty list means it passed.
They run outside the timed sections.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

WORKERS_LINE = "# config workers:"
STATS_ORACLE = (
    "speed_overlap=1.000000 speed_jsd=0.000000",
    "heading_overlap=1.000000 heading_jsd=0.000000",
)
PLOT_FILES = (
    "speed_hist.csv", "heading_hist.csv", "endpoints.csv",
    "speed_hist.svg", "heading_hist.svg",
)


def scene_files(directory) -> list[Path]:
    return sorted(Path(directory).glob("scene_*.csv"))


def dataset_bytes(directory) -> dict[str, bytes]:
    """Every scene file, plus the manifest without its `workers` line: the
    one line that may differ between runs at different worker counts."""
    files = {p.name: p.read_bytes() for p in scene_files(directory)}
    manifest = Path(directory) / "manifest.txt"
    if manifest.exists():
        lines = manifest.read_bytes().splitlines(keepends=True)
        files[manifest.name] = b"".join(
            ln for ln in lines if not ln.startswith(WORKERS_LINE.encode())
        )
    return files


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def compare_datasets(a: dict[str, bytes], b: dict[str, bytes], label: str) -> list[str]:
    problems = [f"{label}: {n} only in one dataset" for n in sorted(set(a) ^ set(b))]
    problems += [f"{label}: {n} differs" for n in sorted(set(a) & set(b)) if a[n] != b[n]]
    return problems


def check_generate(stdout: str, out_dir, n: int) -> tuple[list[str], int]:
    """Exit code, one `scene=` log line per scene (resumed scenes log none),
    and a manifest counting n scenes. Returns (problems, skipped scenes)."""
    problems = []
    logged = len(re.findall(r"^scene=", stdout, flags=re.M))
    if logged != n:
        problems.append(f"generate logged {logged} scenes, expected {n}")
    manifest = Path(out_dir) / "manifest.txt"
    text = manifest.read_text(encoding="utf-8") if manifest.exists() else ""
    if f"# count total: {n}\n" not in text:
        problems.append(f"manifest {manifest} does not count {n} scenes")
    skipped = len(re.findall(r"^scene_\d+\.csv,skipped,", text, flags=re.M))
    written = len(scene_files(out_dir))
    if written != n - skipped:
        problems.append(f"{out_dir}: {written} scene files, expected {n - skipped}")
    return problems, skipped


def check_validate(stdout: str, stderr: str, n_files: int) -> tuple[list[str], int]:
    """Returns (problems, FAIL lines)."""
    fails = len(re.findall(r"^FAIL ", stderr, flags=re.M))
    problems = [f"validate: {ln}" for ln in stderr.splitlines() if ln.startswith("FAIL ")]
    if f"validated {n_files} scenes, 0 failures" not in stdout:
        problems.append(f"validate did not report 0 failures over {n_files} scenes")
    return problems, fails


def check_mask(rc: int, scenes_dir, samples_dir) -> tuple[list[str], dict[str, bytes]]:
    """Each sample belongs to a scene and reloads with `pretrain.read_sample`;
    after exit code 0, every scene has one. A nonzero exit is a failed
    operation, counted by the caller, so the samples missing after it are
    not reported again here. Returns (problems, sample bytes by file name)."""
    from scenesynth.errors import SceneSynthError
    from scenesynth.pretrain import read_sample, sample_filename

    want = {sample_filename(p.stem[len("scene_"):]) for p in scene_files(scenes_dir)}
    have = {p.name: p for p in Path(samples_dir).glob("sample_*.txt")}
    problems = [f"sample {name} matches no scene" for name in sorted(set(have) - want)]
    if rc == 0 and set(have) != want:
        problems.append(f"mask wrote {len(have)} samples for {len(want)} scenes")
    samples = {}
    for name, path in sorted(have.items()):
        try:
            read_sample(path)
        except SceneSynthError as exc:
            problems.append(f"sample {name} does not reload: {exc}")
        samples[name] = path.read_bytes()
    return problems, samples


def check_stats(stdout: str) -> list[str]:
    """A dataset compared with itself overlaps fully, at zero divergence."""
    lines = stdout.splitlines()
    return [f"stats did not print {want!r}" for want in STATS_ORACLE if want not in lines]


def check_plot(out_dir) -> list[str]:
    return [
        f"plot did not write {name}" for name in PLOT_FILES
        if not (Path(out_dir) / name).is_file()
    ]
