"""Short self-test of the benchmark, about four minutes on two cores::

    python3 perfbench/selftest.py

1. Runs every workload briefly, untraced and traced, and checks the last
   stdout line: exactly the keys `correct`, `attempted`, `failed` and
   `metrics`; `correct` true; and exactly the metrics BENCHMARK.json
   declares for that mode, with the declared units and names matching
   `[A-Za-z0-9_.-]+`.
2. Corrupts one scene file of a generated dataset, and one masked sample,
   and checks that the correctness checks report each.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_outputs(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{label}: correct is {result.get('correct')}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(
                    f"{label}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, "
                    f"units {sorted(k for k in set(want) & set(got) if want[k] != got[k])}"
                )
            problems += [f"{label}: bad metric name {k!r}" for k in got if not NAME.fullmatch(k)]
    return problems


def check_corruption(work: Path) -> list[str]:
    """Each check must report a corrupted output."""
    sys.path.insert(0, str(ROOT / "src"))
    from scenesynth import cli

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    maps = inputs.write_maps(work)
    cfg = inputs.write_config(work / "g.cfg", seed=3, n_scenes=4,
                              output_dir=work / "scenes", map_files=maps)
    run(["generate", "--config", str(cfg)])
    good, bad = work / "scenes", work / "corrupt"
    shutil.copytree(good, bad)
    scene = checks.scene_files(bad)[1]
    lines = scene.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("0.0,"))
    fields = lines[row].split(",")
    fields[3] += "7"  # one more digit: a different, non-canonical coordinate
    lines[row] = ",".join(fields)
    scene.write_text("".join(lines), encoding="utf-8")

    problems = []
    if not checks.compare_datasets(
        checks.dataset_bytes(good), checks.dataset_bytes(bad), "corrupt"
    ):
        problems.append("byte comparison missed a corrupted scene file")
    if checks.digest(checks.dataset_bytes(good)) == checks.digest(checks.dataset_bytes(bad)):
        problems.append("dataset digest missed a corrupted scene file")
    _, out, err = run(["validate", "--scenes", str(bad)])
    if not checks.check_validate(out, err, 4)[0]:
        problems.append("validate check missed a corrupted scene file")

    _, out, _ = run(["generate", "--config", str(cfg)])  # resumes: logs no scenes
    if not checks.check_generate(out, good, 4)[0]:
        problems.append("generate check missed a resumed run")

    samples = work / "samples"
    run(["mask", "--scenes", str(good), "--task", "traj", "--seed", "1", "--out", str(samples)])
    sample = sorted(samples.glob("sample_*.txt"))[0]
    sample.write_text(sample.read_text(encoding="utf-8").replace("target,", "target,x", 1),
                      encoding="utf-8")
    if not checks.check_mask(0, good, samples)[0]:
        problems.append("mask check missed a corrupted sample")
    if not checks.check_stats("speed_overlap=0.990000 speed_jsd=0.000000\n"):
        problems.append("stats check missed a wrong overlap")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench" / f"selftest.{os.getpid()}"
    work.mkdir(parents=True)
    try:
        problems = check_outputs(spec) + check_corruption(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
