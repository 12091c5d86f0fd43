"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned in the assertions below; the shared 1000-scene
dataset fixture is generated single-worker and timed.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from oracles import (
    binomial_band,
    Node,
    build_refinement_system,
    enumerate_plan_costs,
    expand,
    f_double_turn,
    f_single_turn,
    f_single_turn_slope,
    forecast_metrics_loop,
    objective_gradient,
    objective_value,
    plan_of_nodes,
    plan_one,
    pointwise_l1_loop,
    q_alpha,
    refine_one,
    solve_system,
    stationarity_residual,
    wiggly_path,
)
from scenesynth.analysis import forecast_metrics
from scenesynth.augment import TurnKind, TurnTransformParams
from scenesynth.geometry import Polyline
from scenesynth.manifest import manifest_counts
from scenesynth.maps import LaneSegment, make_map, write_text_atomic
from scenesynth.planner import PlannerParams
from scenesynth.pretrain import (
    MaskSettings,
    ReconTask,
    draw_masked,
    map_recon_loss,
    mask_map,
    mask_trajectory,
    traj_recon_loss,
    vectorize_scene,
)
from scenesynth.refine import RefinementParams
from scenesynth.synthesis import (
    GenerationConfig,
    Scene,
    generate_dataset,
    read_scene,
    scene_to_text,
)

IDENTITY = (0.0, 0.0, 0.0)  # frame x, y, heading


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance[{name}]: FAIL ({time.perf_counter() - t0:.2f} s)")
        raise
    print(f"acceptance[{name}]: PASS ({time.perf_counter() - t0:.2f} s)")


def small_scene(n_lanes, city="MIA"):
    lanes = [
        LaneSegment(
            f"L{i}", Polyline([(0.0, 4.0 * i), (6.0, 4.0 * i), (12.0, 4.0 * i)])
        )
        for i in range(n_lanes)
    ]
    traj = np.column_stack([np.arange(50, dtype=float), np.zeros(50)])
    meta = {
        "scene_id": "acc000",
        "city": city,
        "crop_center_x": "25.0",
        "crop_center_y": "0.0",
        "crop_radius": "100.0",
    }
    return Scene("acc000", city, make_map(city, lanes), traj, meta)


def test_criterion_1_warp_correctness():
    with criterion("1 warp correctness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        eps = 1e-4
        for _ in range(1000):
            alpha1 = float(rng.uniform(1.0, 10.0))
            ps = TurnTransformParams(
                TurnKind.SINGLE, 10.0, alpha1, 20.0, 10.0, None, *IDENTITY
            )
            pd = TurnTransformParams(
                TurnKind.DOUBLE, 10.0, alpha1, 20.0, 10.0, 20.0, *IDENTITY
            )
            # q at the turn end hits alpha1 exactly
            assert q_alpha(ps.s_t, alpha1, ps.alpha2, ps.s_t) == alpha1
            # C1 continuity at both branch points
            for x in (0.0, ps.s_t):
                cd = (f_single_turn(x + eps, ps) - f_single_turn(x - eps, ps)) / (
                    2.0 * eps
                )
                slope = f_single_turn_slope(x, ps)
                assert abs(cd - slope) / max(1.0, abs(slope)) < 1e-3
            assert abs(
                (f_single_turn(ps.s_t + eps, ps) - f_single_turn(ps.s_t - eps, ps))
                / (2.0 * eps)
                - alpha1 * 20.0 / 10.0
            ) / (alpha1 * 2.0) < 1e-3
            # double-turn plateau
            xs = pd.s_t + pd.beta + rng.uniform(1.0, 100.0, size=100)
            vals = np.array([f_double_turn(float(x), pd) for x in xs])
            assert vals.max() - vals.min() < 1e-9
            assert abs(vals[0] - alpha1 * 20.0 * 20.0 / 10.0) < 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_planner_optimality():
    with criterion("2 planner optimality"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        for trial in range(100):
            path = wiggly_path(rng)
            n_extra = int(rng.integers(1, 5))
            actions = tuple(
                sorted({0.0, *(float(a) for a in rng.uniform(-2, 1, n_extra))})
            )[:5]
            steps = int(rng.integers(2, 7))
            p = PlannerParams(
                action_set=actions,
                dt=0.5,
                w1=float(rng.uniform(0, 6)),
                w2=float(rng.uniform(0, 6)),
                w3=float(rng.uniform(0.1, 3)),
                t_g=(steps - 1) * 0.5 + 0.25,
            )
            v_d = float(rng.uniform(4, 14))
            v0 = float(rng.uniform(0, 1.2 * v_d))
            plan = plan_one(path, 5.0, v0, v_d, p)
            best, _ = enumerate_plan_costs(path, 5.0, v0, v_d, p)
            assert abs(plan.total_cost - best) < 1e-9, trial
        # flat path at the desired speed: the zero plan is optimal
        flat = Polyline([(0.0, 0.0), (400.0, 0.0)])
        from scenesynth.maps import _path_from_polyline

        path = _path_from_polyline(flat, ("L",))
        plan = plan_one(path, 0.0, 10.0, 10.0, PlannerParams())
        assert plan.total_cost == 0.0
        assert all(a == 0.0 for a in plan.actions)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_refinement_correctness():
    with criterion("3 refinement correctness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        p = RefinementParams()
        for _ in range(50):
            nodes = [Node(float(rng.uniform(0, 120)), float(rng.uniform(2, 15)), 0.0)]
            acts = []
            for _ in range(11):
                a = float(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]))
                if nodes[-1].v + a * 0.5 < 0:
                    a = 0.0
                acts.append(a)
                nodes.append(expand(nodes[-1], a, 0.5))
            plan = plan_of_nodes(nodes, acts, 0.0, 0.5)
            v0 = float(rng.uniform(0, 16))
            s0 = nodes[0].s + float(rng.uniform(-0.5, 0.5))
            sys = build_refinement_system(plan, p, v0=v0, s0=s0)
            x, lam = solve_system(sys)
            assert abs(x[0] - s0) < 1e-8
            assert abs((x[1] - x[0]) / 0.1 - v0) < 1e-8
            assert stationarity_residual(x, lam, sys) < 1e-6
            # analytic gradient vs central differences at a random point
            probe = x + rng.normal(scale=0.1, size=x.size)
            grad = objective_gradient(probe, sys)
            h = 1e-6
            for i in rng.choice(x.size, size=5, replace=False):
                xp = probe.copy()
                xp[i] += h
                xm = probe.copy()
                xm[i] -= h
                fd = (objective_value(xp, sys) - objective_value(xm, sys)) / (2 * h)
                assert abs(fd - grad[i]) / max(1.0, abs(grad[i])) < 1e-5
        # pure tracking with a consistent initial state reproduces the plan
        nodes = [Node(3.0, 9.0, 0.0)]
        for a in (0.5, -0.5, 0.0, 1.0, -1.0, 0.5):
            nodes.append(expand(nodes[-1], a, 0.1))
        plan = plan_of_nodes(nodes, (0.5, -0.5, 0.0, 1.0, -1.0, 0.5), 0.0, 0.1)
        pt = RefinementParams(omega1=0.0, omega2=0.0)  # k = 1 at the plan's 0.1 s step
        v0 = (nodes[1].s - nodes[0].s) / 0.1
        s = refine_one(plan, pt, v0=v0, s0=nodes[0].s)
        coarse = np.array([n.s for n in nodes[:-1]])
        assert np.abs(s - coarse).max() < 1e-8
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_throughput(dataset_1k):
    with criterion("4 throughput"):
        records, elapsed_s, _, _ = dataset_1k
        assert len(records) == 1000
        assert elapsed_s < 240.0
        assert len(records) / elapsed_s >= 5.0
        print(f"  generated 1000 scenes in {elapsed_s:.1f} s ({1000 / elapsed_s:.1f} scenes/s)")


def test_criterion_5_dataset_integrity(dataset_1k):
    with criterion("5 dataset integrity"):
        records, _, cfg, _ = dataset_1k
        counts = manifest_counts((rec.status, rec.city) for rec in records)
        assert counts["skipped"] == 0
        out_dir = Path(cfg.output_dir)
        files = sorted(out_dir.glob("scene_*.csv"))
        assert len(files) == 1000
        for i, f in enumerate(files):
            scene = read_scene(f)  # validates rows, spacing, speed bounds
            assert scene_to_text(scene) == f.read_text()
            if i % 40 == 0:
                # explicit round-trip comparison at the stated tolerance
                speeds = np.hypot(*np.diff(scene.trajectory, axis=0).T) / 0.1
                assert speeds.min() >= 0.0 and speeds.max() <= 25.0
                tmp = out_dir / "_rt_probe.csv"
                write_text_atomic(tmp, scene_to_text(scene))
                back = read_scene(tmp)
                assert np.abs(back.trajectory - scene.trajectory).max() <= 1e-9
                tmp.unlink()
        lo, hi = binomial_band(1000, cfg.augmented_fraction)
        assert lo <= counts["augmented"] <= hi, counts


def test_criterion_6_masking_contracts():
    with criterion("6 masking contracts"):
        rng = np.random.default_rng(606)
        for n_lanes in (2, 3, 4, 7, 10, 15):
            sample = mask_map(vectorize_scene(small_scene(n_lanes)), 0.5, rng)
            assert len(sample.masked) == int(
                math.floor(0.5 * n_lanes + 0.5)
            )
        scene = small_scene(6)
        traj_sample = mask_trajectory(vectorize_scene(scene))
        assert len(traj_sample.masked) == 1
        # the placeholder keeps the masked polyline's first point
        start = traj_sample.targets[0][0]
        assert (float(start[0]), float(start[1])) == (
            float(scene.trajectory[0, 0]),
            float(scene.trajectory[0, 1]),
        )
        # one draw per scene id, as `mask --task combined --seed 616` draws
        settings = MaskSettings(616, "combined", 0.7, 0.5)
        scene = small_scene(4)
        n_map = sum(
            draw_masked(settings, replace(scene, scene_id=str(i)))[0] is ReconTask.MAP
            for i in range(10_000)
        )
        lo, hi = binomial_band(10_000, 0.7)
        assert lo <= n_map <= hi, n_map


def test_criterion_7_loss_metric_oracles():
    with criterion("7 loss and metric oracles"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            n = int(rng.integers(2, 35))
            pred = rng.normal(size=(n, 2))
            target = rng.normal(size=(n, 2))
            assert abs(
                map_recon_loss(pred, target) - pointwise_l1_loop(pred, target)
            ) <= 1e-12
            modes = [rng.normal(size=(n, 2)) for _ in range(6)]
            loss, best = traj_recon_loss(modes, target)
            per_mode = [pointwise_l1_loop(m, target) for m in modes]
            expect_best = per_mode.index(min(per_mode))
            rest = [v for j, v in enumerate(per_mode) if j != expect_best]
            assert best == expect_best
            assert abs(loss - (per_mode[expect_best] + 0.05 * sum(rest) / 5)) <= 1e-12
            m = forecast_metrics(modes, target)
            ade, fde, missed = forecast_metrics_loop(modes, target, 2.0)
            assert abs(m.min_ade - ade) <= 1e-12
            assert abs(m.min_fde - fde) <= 1e-12
            assert m.missed == missed
        # identity cases return exactly zero
        pts = rng.normal(size=(20, 2))
        assert map_recon_loss(pts, pts) == 0.0
        assert traj_recon_loss([pts] * 6, pts)[0] == 0.0
        m = forecast_metrics([pts] * 6, pts)
        assert m.min_ade == 0.0 and m.min_fde == 0.0 and m.missed is False


def test_criterion_8_worker_determinism(tmp_path, corridors_map):
    with criterion("8 worker determinism"):
        out = tmp_path / "det"
        cfg = GenerationConfig(seed=88, n_scenes=64, output_dir=str(out))
        generate_dataset([corridors_map], cfg, workers=1)
        snapshot = {
            f.name: f.read_bytes() for f in sorted(out.iterdir())
        }
        for f in out.iterdir():
            f.unlink()
        generate_dataset([corridors_map], cfg, workers=8)
        after = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert snapshot.keys() == after.keys()
        for name, data in snapshot.items():
            assert after[name] == data, name
