import numpy as np
import pytest

from oracles import objective_value, reference_refine
from scenesynth import synthesis
from scenesynth.errors import RefinementError, SceneSynthError
from scenesynth.planner import CoarsePlan, PlannerNode, PlannerParams, expand
from scenesynth.refine import (
    RefinementParams,
    accel_of,
    build_refinement_system,
    jerk_of,
    objective_gradient,
    refine_one,
    refine_trajectory,
    solve_system,
    stationarity_residual,
)


def make_plan(actions, v0=10.0, s0=0.0, dt=0.5):
    nodes = [PlannerNode(s0, v0, 0.0)]
    for a in actions:
        nodes.append(expand(nodes[-1], a, dt))
    return CoarsePlan(tuple(nodes), tuple(actions), 0.0)


def random_plan(rng, n_actions=11):
    actions = [float(a) for a in rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0], n_actions)]
    v0 = float(rng.uniform(3.0, 15.0))
    # keep velocities nonnegative so the plan resembles planner output
    v = v0
    safe = []
    for a in actions:
        if v + a * 0.5 < 0:
            a = 0.0
        v += a * 0.5
        safe.append(a)
    return make_plan(safe, v0=v0, s0=float(rng.uniform(0.0, 50.0)))


def test_accel_linear_is_zero():
    t = np.arange(20) * 0.1
    assert np.abs(accel_of(3.0 * t + 1.0, 0.1)).max() < 1e-12


def test_accel_quadratic_exact():
    t = np.arange(30) * 0.1
    s = 0.5 * 2.0 * t * t
    assert np.abs(accel_of(s, 0.1) - 2.0).max() < 1e-9


def test_accel_needs_three_samples():
    with pytest.raises(ValueError):
        accel_of(np.array([0.0, 1.0]), 0.1)


def test_jerk_quadratic_is_zero():
    t = np.arange(30) * 0.1
    assert np.abs(jerk_of(t * t, 0.1)).max() < 1e-6


def test_jerk_cubic_exact():
    t = np.arange(30) * 0.1
    assert np.abs(jerk_of(t**3, 0.1) - 6.0).max() < 1e-6


def test_jerk_needs_four_samples():
    with pytest.raises(ValueError):
        jerk_of(np.array([0.0, 1.0, 2.0]), 0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        RefinementParams(omega3=0.0)
    with pytest.raises(ValueError):
        RefinementParams(omega1=-1.0)
    with pytest.raises(ValueError):
        RefinementParams(k=0)
    with pytest.raises(ValueError):
        RefinementParams(dt_fine=0.0)


def test_grid_and_knots_cover_horizon():
    plan = make_plan([0.0] * 11)
    p = RefinementParams()
    traj = refine_one(plan, p, v0=10.0, s0=0.0)
    assert traj.timestamps.shape == (51,)
    assert traj.timestamps[0] == 0.0
    assert traj.timestamps[-1] == pytest.approx(5.0)
    assert np.allclose(np.diff(traj.timestamps), 0.1)


def test_k_dt_mismatch_rejected():
    plan = make_plan([0.0] * 11)
    with pytest.raises(RefinementError, match="coarse step"):
        refine_one(plan, RefinementParams(dt_fine=0.1, k=4), 10.0, 0.0)


def test_constant_velocity_plan_refines_to_line():
    plan = make_plan([0.0] * 11, v0=8.0, s0=2.0)
    traj = refine_one(plan, RefinementParams(), v0=8.0, s0=2.0)
    expected = 2.0 + 8.0 * traj.timestamps
    assert np.abs(traj.s_values - expected).max() < 1e-8
    assert np.abs(traj.accel).max() < 1e-8
    assert np.abs(traj.jerk).max() < 1e-7


def test_pure_tracking_reproduces_consistent_coarse():
    # omega1 = omega2 = 0 with every fine knot tracked (k = 1); the initial
    # state is consistent with the coarse plan under the forward-difference
    # velocity definition
    plan = make_plan([0.5, -0.5, 1.0, 0.0, -1.0, 0.5], v0=6.0, s0=1.0, dt=0.1)
    p = RefinementParams(omega1=0.0, omega2=0.0, dt_fine=0.1, k=1)
    v0_fd = (plan.nodes[1].s - plan.nodes[0].s) / p.dt_fine
    traj = refine_one(plan, p, v0=v0_fd, s0=1.0)
    coarse_s = np.array([n.s for n in plan.nodes[:-1]])
    assert np.abs(traj.s_values - coarse_s).max() < 1e-8


def test_zero_smoothing_with_untracked_knots_raises():
    plan = make_plan([0.0] * 11)
    p = RefinementParams(omega1=0.0, omega2=0.0, dt_fine=0.1, k=5)
    with pytest.raises(RefinementError, match="singular"):
        refine_one(plan, p, 10.0, 0.0)


def test_initial_constraints_hold_exactly():
    rng = np.random.default_rng(3)
    p = RefinementParams()
    for _ in range(25):
        plan = random_plan(rng)
        v0 = float(rng.uniform(0.0, 16.0))
        s0 = plan.nodes[0].s + float(rng.uniform(-1.0, 1.0))
        traj = refine_one(plan, p, v0=v0, s0=s0)
        assert abs(traj.s_values[0] - s0) < 1e-8
        assert abs((traj.s_values[1] - traj.s_values[0]) / 0.1 - v0) < 1e-8


def test_stationarity_residual_small():
    rng = np.random.default_rng(4)
    p = RefinementParams()
    for _ in range(10):
        plan = random_plan(rng)
        sys = build_refinement_system(plan, p, v0=plan.nodes[0].v, s0=plan.nodes[0].s)
        x, lam = solve_system(sys)
        assert stationarity_residual(x, lam, sys) < 1e-6


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    plan = random_plan(rng)
    p = RefinementParams(omega1=0.7, omega2=1.3, omega3=4.0)
    sys = build_refinement_system(plan, p, v0=plan.nodes[0].v, s0=plan.nodes[0].s)
    x = plan.nodes[0].s + np.cumsum(rng.uniform(0.0, 1.2, size=sys.grid_t.size))
    grad = objective_gradient(x, sys)
    h = 1e-6
    for i in rng.choice(x.size, size=12, replace=False):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fd = (objective_value(xp, sys) - objective_value(xm, sys)) / (2 * h)
        assert abs(fd - grad[i]) / max(1.0, abs(grad[i])) < 1e-5


def test_objective_value_matches_quadratic_form():
    rng = np.random.default_rng(6)
    plan = random_plan(rng)
    p = RefinementParams()
    sys = build_refinement_system(plan, p, v0=plan.nodes[0].v, s0=plan.nodes[0].s)
    x = rng.normal(size=sys.grid_t.size)
    direct = objective_value(x, sys)
    quad = float(x @ sys.Q @ x - 2.0 * sys.q @ x + sys.const)
    assert direct == pytest.approx(quad, rel=1e-9, abs=1e-9)


def test_solution_is_local_minimum_along_feasible_directions():
    rng = np.random.default_rng(7)
    plan = random_plan(rng)
    p = RefinementParams()
    sys = build_refinement_system(plan, p, v0=plan.nodes[0].v, s0=plan.nodes[0].s)
    x, _ = solve_system(sys)
    f0 = objective_value(x, sys)
    for _ in range(100):
        d = rng.normal(size=x.size)
        d[0] = d[1] = 0.0  # homogeneous constraints
        for eps in (1e-3, -1e-3):
            assert objective_value(x + eps * d, sys) >= f0 - 1e-12


def test_solution_beats_corrected_interpolant():
    rng = np.random.default_rng(8)
    p = RefinementParams()
    for _ in range(10):
        plan = random_plan(rng)
        v0 = float(rng.uniform(2.0, 14.0))
        s0 = plan.nodes[0].s
        sys = build_refinement_system(plan, p, v0=v0, s0=s0)
        x, _ = solve_system(sys)
        coarse_t = np.array([n.t for n in plan.nodes])
        coarse_s = np.array([n.s for n in plan.nodes])
        candidate = np.interp(sys.grid_t, coarse_t, coarse_s)
        candidate[0] = s0
        candidate[1] = s0 + v0 * p.dt_fine
        assert objective_value(x, sys) <= objective_value(candidate, sys) + 1e-9


def test_refined_accel_jerk_match_stencils():
    plan = make_plan([1.0, -0.5, 0.5, 0.0, -1.0, 0.5, 1.0, 0.0, -0.5, 0.0, 0.5])
    traj = refine_one(plan, RefinementParams(), v0=10.0, s0=0.0)
    assert np.abs(traj.accel - accel_of(traj.s_values, 0.1)).max() < 1e-9
    assert np.abs(traj.jerk - jerk_of(traj.s_values, 0.1)).max() < 1e-9


@pytest.mark.parametrize("v0", [float("nan"), float("inf")])
def test_non_finite_initial_speed_is_refinement_error(v0):
    plan = make_plan([0.0] * 11)
    with np.errstate(invalid="ignore"), pytest.raises(RefinementError, match="non-finite"):
        refine_one(plan, RefinementParams(), v0=v0, s0=0.0)


def test_too_short_plan_rejected():
    plan = make_plan([0.0])
    with pytest.raises(RefinementError, match="too short"):
        refine_one(plan, RefinementParams(), 10.0, 0.0)


def captured_refinements(corridors_map, monkeypatch, cfg, count):
    """(plan, v0, s0) of the first `count` refinements `make_scene`
    asks for under `cfg`, recorded from its batched call."""
    calls = []

    def record(problems, p):
        calls.extend(problems)
        return refine_trajectory(problems, p)

    monkeypatch.setattr(synthesis, "refine_trajectory", record)
    for index in range(4 * count):
        if len(calls) >= count:
            break
        try:
            synthesis.make_scene(
                corridors_map, np.random.default_rng([44, index]), cfg
            )
        except SceneSynthError:
            pass
    monkeypatch.undo()
    assert len(calls) >= count
    return calls[:count]


# the default weights, no acceleration weight, one fine step per coarse step
REFINE_PARAMS = [
    RefinementParams(),
    RefinementParams(omega1=0.0),
    RefinementParams(dt_fine=0.5, k=1),
]


def random_batches(rng, n):
    """The indices 0 .. n-1 in a random order, cut into batches of random
    sizes from 1 to 32."""
    order = rng.permutation(n).tolist()
    batches = []
    while order:
        size = int(rng.integers(1, 33))
        batches.append(order[:size])
        order = order[size:]
    return batches


@pytest.mark.parametrize(
    "fraction, t_g, count",
    [(165.0 / 370.0, 5.0, 160), (1.0, 5.0, 160), (165.0 / 370.0, 7.0, 40)],
)
def test_refine_matches_reference_on_generated_plans(
    corridors_map, monkeypatch, fraction, t_g, count
):
    cfg = synthesis.GenerationConfig(
        output_dir="unused", augmented_fraction=fraction,
        planner=PlannerParams(t_g=t_g),
    )
    problems = captured_refinements(corridors_map, monkeypatch, cfg, count)
    rng = np.random.default_rng(count)
    for p in REFINE_PARAMS:
        for batch in random_batches(rng, len(problems)):
            got = refine_trajectory([problems[j] for j in batch], p)
            for j, traj in zip(batch, got):
                plan, v0, s0 = problems[j]
                assert np.array_equal(traj.s_values, reference_refine(plan, p, v0, s0))


def test_mixed_batch_gives_each_failing_plan_its_own_error():
    rng = np.random.default_rng(9)
    plans = [random_plan(rng) for _ in range(4)]
    problems = [(plan, plan.nodes[0].v, plan.nodes[0].s) for plan in plans]
    coarse_step = make_plan([0.0] * 11, dt=0.4)  # k * dt_fine is 0.5, not 0.4
    mixed = [problems[0], (make_plan([0.0]), 10.0, 0.0), problems[1], problems[2],
             (coarse_step, 10.0, 0.0), problems[3]]
    p = RefinementParams()
    got = refine_trajectory(mixed, p)
    assert isinstance(got[1], RefinementError) and str(got[1]) == "coarse plan too short to refine"
    assert isinstance(got[4], RefinementError) and "does not match coarse step 0.4" in str(got[4])
    for traj, (plan, v0, s0) in zip([got[k] for k in (0, 2, 3, 5)], problems):
        assert np.array_equal(traj.s_values, refine_one(plan, p, v0, s0).s_values)
        assert np.array_equal(traj.s_values, reference_refine(plan, p, v0, s0))


def test_cached_quadratic_form_refuses_writes():
    plan = make_plan([0.0] * 11)
    sys = build_refinement_system(plan, RefinementParams(), v0=10.0, s0=0.0)
    again = build_refinement_system(plan, RefinementParams(), v0=4.0, s0=7.0)
    assert again.Q is sys.Q
    with pytest.raises(ValueError, match="read-only"):
        sys.Q[3, 3] = 0.0
