import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    Node,
    accel_of,
    build_refinement_system,
    expand,
    jerk_of,
    make_scene,
    objective_gradient,
    objective_value,
    reference_refine,
    plan_of_nodes,
    refine_one,
    solve_system,
    stationarity_residual,
)
from scenesynth import synthesis
from scenesynth.errors import RefinementError, SceneSynthError
from scenesynth.planner import PlannerParams, astar_plan
from scenesynth.refine import (
    RefinementParams,
    _cholesky,
    _gain,
    _quadratic_form,
    refine_trajectory,
    refinement_shape,
)


def make_plan(actions, v0=10.0, s0=0.0, dt=0.5):
    nodes = [Node(s0, v0, 0.0)]
    for a in actions:
        nodes.append(expand(nodes[-1], a, dt))
    return plan_of_nodes(nodes, actions, 0.0, dt)


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


def test_grid_and_knots_cover_horizon():
    # a plan to a 5 s horizon has one state past it: 5 / dt knots of k
    # fine steps, so the 0.1 s grid runs from 0 to 5 s at every step
    for dt, k in ((0.5, 5), (0.2, 2), (0.1, 1)):
        plan = make_plan([0.0] * (round(5.0 / dt) + 1), dt=dt)
        s = refine_one(plan, RefinementParams(), v0=10.0, s0=0.0)
        assert s.shape == (51,)
        # every k-th fine sample is the constant-speed plan's state
        assert np.abs(s[::k] - np.array(plan.s[:-1])).max() < 1e-8


def test_k_dt_mismatch_rejected():
    # a coarse step that is not a whole number of 0.1 s fine steps
    plan = make_plan([0.0] * 11, dt=0.45)
    with pytest.raises(RefinementError, match="dt=0.45 is not a whole number of 0.1 s steps"):
        refine_one(plan, RefinementParams(), 10.0, 0.0)


def test_constant_velocity_plan_refines_to_line():
    plan = make_plan([0.0] * 11, v0=8.0, s0=2.0)
    s = refine_one(plan, RefinementParams(), v0=8.0, s0=2.0)
    expected = 2.0 + 8.0 * np.arange(s.size) * 0.1
    assert np.abs(s - expected).max() < 1e-8
    assert np.abs(accel_of(s, 0.1)).max() < 1e-8
    assert np.abs(jerk_of(s, 0.1)).max() < 1e-7


def test_pure_tracking_reproduces_consistent_coarse():
    # omega1 = omega2 = 0 with every fine knot tracked (k = 1); the initial
    # state is consistent with the coarse plan under the forward-difference
    # velocity definition
    plan = make_plan([0.5, -0.5, 1.0, 0.0, -1.0, 0.5], v0=6.0, s0=1.0, dt=0.1)
    p = RefinementParams(omega1=0.0, omega2=0.0)
    v0_fd = (plan.s[1] - plan.s[0]) / 0.1
    s = refine_one(plan, p, v0=v0_fd, s0=1.0)
    coarse_s = np.array(plan.s[:-1])
    assert np.abs(s - coarse_s).max() < 1e-8


def test_zero_smoothing_with_untracked_knots_raises():
    plan = make_plan([0.0] * 11)
    p = RefinementParams(omega1=0.0, omega2=0.0)  # k = 5 at the plan's 0.5 s step
    with pytest.raises(RefinementError, match="singular"):
        refine_one(plan, p, 10.0, 0.0)


@pytest.mark.parametrize(
    "band",
    [[[1.0, 1.0], [2.0]], [[1.0, 1.0], [1.0]], [[math.inf, 1.0], [0.0]], [[math.nan]]],
    ids=["negative", "zero", "inf", "nan"],
)
def test_cholesky_refuses_a_pivot_that_is_not_positive_and_finite(band):
    with pytest.raises(RefinementError, match="singular smoothing system"):
        _cholesky(band)


@pytest.mark.parametrize(
    "p, dt",
    [
        # Q's acceleration entries overflow, so the first pivot is not finite
        (RefinementParams(omega1=1e308), 0.5),
        # tracking alone, at the smallest weight: the gain's columns overflow
        (RefinementParams(omega1=0.0, omega2=0.0, omega3=5e-324), 0.1),
    ],
    ids=["pivot", "gain"],
)
def test_extreme_weights_are_a_singular_system(p, dt):
    plan = make_plan([0.0] * (round(5.0 / dt) + 1), dt=dt)
    with np.errstate(over="ignore"), pytest.raises(
        RefinementError, match="singular smoothing system"
    ):
        refine_one(plan, p, 10.0, 0.0)


def test_an_overflowing_weight_fails_the_stationarity_residual():
    # the gain is built, but Q x overflows: the residual is NaN, not a pass
    p = RefinementParams(omega1=1e303)
    with pytest.raises(RefinementError, match="stationarity residual too large"):
        refine_one(make_plan([0.0] * 11), p, 10.0, 0.0)


@pytest.mark.parametrize(
    "p, text",
    [(RefinementParams(omega1=0.0, omega2=0.0), "untracked interior knots"),
     (RefinementParams(omega1=1e308), "singular smoothing system"),
     (RefinementParams(omega1=1e8), "refine no plan")],
    ids=["zero-smoothing", "overflowing-weight", "refines-no-plan"],
)
def test_refinement_shape_refuses_weights_that_refine_no_plan(p, text):
    # the system of plans of 11 states at the default dt = 0.5 (k = 5):
    # untracked fine samples without smoothing, a quadratic form that
    # overflows, and weights under which the probe plan fails its checks
    with np.errstate(over="ignore"), pytest.raises(RefinementError, match=text):
        refinement_shape(p, 0.5, 11)


def test_initial_constraints_hold_exactly():
    rng = np.random.default_rng(3)
    p = RefinementParams()
    for _ in range(25):
        plan = random_plan(rng)
        v0 = float(rng.uniform(0.0, 16.0))
        s0 = plan.s[0] + float(rng.uniform(-1.0, 1.0))
        s = refine_one(plan, p, v0=v0, s0=s0)
        assert abs(s[0] - s0) < 1e-8
        assert abs((s[1] - s[0]) / 0.1 - v0) < 1e-8


def test_stationarity_residual_small():
    rng = np.random.default_rng(4)
    p = RefinementParams()
    for _ in range(10):
        plan = random_plan(rng)
        sys = build_refinement_system(plan, p, v0=plan.v[0], s0=plan.s[0])
        x, lam = solve_system(sys)
        assert stationarity_residual(x, lam, sys) < 1e-6


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    plan = random_plan(rng)
    p = RefinementParams(omega1=0.7, omega2=1.3, omega3=4.0)
    sys = build_refinement_system(plan, p, v0=plan.v[0], s0=plan.s[0])
    x = plan.s[0] + np.cumsum(rng.uniform(0.0, 1.2, size=sys.grid_t.size))
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
    sys = build_refinement_system(plan, p, v0=plan.v[0], s0=plan.s[0])
    x = rng.normal(size=sys.grid_t.size)
    direct = objective_value(x, sys)
    quad = float(x @ sys.Q @ x - 2.0 * sys.q @ x + sys.const)
    assert direct == pytest.approx(quad, rel=1e-9, abs=1e-9)


def test_solution_is_local_minimum_along_feasible_directions():
    rng = np.random.default_rng(7)
    plan = random_plan(rng)
    p = RefinementParams()
    sys = build_refinement_system(plan, p, v0=plan.v[0], s0=plan.s[0])
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
        s0 = plan.s[0]
        sys = build_refinement_system(plan, p, v0=v0, s0=s0)
        x, _ = solve_system(sys)
        coarse_t = np.arange(len(plan.s)) * plan.dt
        coarse_s = np.array(plan.s)
        candidate = np.interp(sys.grid_t, coarse_t, coarse_s)
        candidate[0] = s0
        candidate[1] = s0 + v0 * 0.1
        assert objective_value(x, sys) <= objective_value(candidate, sys) + 1e-9


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
            make_scene(
                corridors_map, np.random.default_rng([44, index]), cfg
            )
        except SceneSynthError:
            pass
    monkeypatch.undo()
    assert len(calls) >= count
    return calls[:count]


# the default weights and no acceleration weight; plans made with dt = 0.1
# (`test_refine_matches_reference_on_one_step_plans`) have one fine step
# per coarse step
REFINE_PARAMS = [RefinementParams(), RefinementParams(omega1=0.0)]


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
        output_dir="unused", augmented_fraction=fraction, t_g=t_g,
    )
    problems = captured_refinements(corridors_map, monkeypatch, cfg, count)
    assert_batches_match_reference(problems, np.random.default_rng(count))


def test_refine_matches_reference_on_one_step_plans(corridors_map, monkeypatch):
    # three actions keep the 50-layer search at 0.1 s steps quick (the
    # default six take about 2 s a scene); the largest is the default's,
    # which the draw of the start takes
    cfg = synthesis.GenerationConfig(output_dir="unused", dt=0.1)
    quick = PlannerParams(dt=0.1, action_set=(-1.0, 0.0, 1.0))
    monkeypatch.setattr(synthesis, "astar_plan", lambda problems, p: astar_plan(problems, quick))
    problems = captured_refinements(corridors_map, monkeypatch, cfg, 16)
    assert {plan.dt for plan, _, _ in problems} == {0.1}
    assert_batches_match_reference(problems, np.random.default_rng(16))


def assert_batches_match_reference(problems, rng):
    """Refine `problems` in random batches under each of REFINE_PARAMS;
    every trajectory has the bits of `reference_refine` of its plan."""
    for p in REFINE_PARAMS:
        for batch in random_batches(rng, len(problems)):
            got = refine_trajectory([problems[j] for j in batch], p)
            for j, s in zip(batch, got):
                plan, v0, s0 = problems[j]
                assert np.array_equal(s, reference_refine(plan, p, v0, s0))


@pytest.mark.parametrize(
    "other",
    [make_plan([0.0] * 6, dt=1.0), make_plan([0.0] * 12)],
    ids=["dt", "states"],
)
def test_plans_of_two_shapes_are_refused(other):
    # one call is one system: plans of another dt (6 steps of 1 s reach the
    # same 5 s horizon) or of another state count cannot share it
    plan = make_plan([0.0] * 11)
    with pytest.raises(ValueError, match="share one dt and number of states"):
        refine_trajectory([(plan, 10.0, 0.0), (other, 10.0, 0.0)], RefinementParams())


def test_a_non_finite_knot_is_the_error_of_its_row_alone():
    rng = np.random.default_rng(9)
    problems = [(plan, plan.v[0], plan.s[0]) for plan in (random_plan(rng) for _ in range(5))]
    plan, v0, s0 = problems[2]
    problems[2] = (replace(plan, s=plan.s[:4] + (math.nan,) + plan.s[5:]), v0, s0)
    p = RefinementParams()
    got = refine_trajectory(problems, p)
    assert isinstance(got[2], RefinementError) and "non-finite" in str(got[2])
    for k in (0, 1, 3, 4):
        plan, v0, s0 = problems[k]
        assert np.array_equal(got[k], refine_one(plan, p, v0, s0))
        assert np.array_equal(got[k], reference_refine(plan, p, v0, s0))


def test_cached_quadratic_form_refuses_writes():
    plan = make_plan([0.0] * 11)
    sys = build_refinement_system(plan, RefinementParams(), v0=10.0, s0=0.0)
    again = build_refinement_system(plan, RefinementParams(), v0=4.0, s0=7.0)
    assert again.Q is sys.Q
    with pytest.raises(ValueError, match="read-only"):
        sys.Q[3, 3] = 0.0
    refine_one(plan, RefinementParams(), v0=10.0, s0=0.0)
    G = _gain(RefinementParams(), 5, 50)
    assert _gain(RefinementParams(), 5, 50) is G
    with pytest.raises(ValueError, match="read-only"):
        G[0, 3] = 0.0


def test_refinement_matches_exact_rational_solve(corridors_map, monkeypatch):
    # each plan's eliminated system H u = r, with H = Q[2:, 2:] and r its
    # knot mismatches against the tangent line, both as the floats refine
    # forms them, solved exactly in rationals
    cfg = synthesis.GenerationConfig(output_dir="unused")
    problems = captured_refinements(corridors_map, monkeypatch, cfg, 24)
    p, dt = RefinementParams(), 0.1
    assert {(plan.dt, len(plan.s)) for plan, _, _ in problems} == {(0.5, 12)}
    k, n = 5, 50
    m = n - 1
    Q = _quadratic_form(p, k, n)
    # H = L U without pivoting, band 3, L's multipliers stored below the diagonal
    A = [[Fraction(float(Q[2 + a, 2 + b])) for b in range(m)] for a in range(m)]
    for c in range(m):
        for r in range(c + 1, min(m, c + 4)):
            f = A[r][c] / A[c][c]
            for cc in range(c + 1, min(m, c + 4)):
                A[r][cc] -= f * A[c][cc]
            A[r][c] = f
    worst = 0.0
    for (plan, v0, s0), x in zip(problems, refine_trajectory(problems, p)):
        x_ref = [s0 + i * (v0 * dt) for i in range(n + 1)]
        x_ref[0] = s0
        u = [Fraction(0)] * m
        for j in range(1, n // k + 1):
            u[j * k - 2] = Fraction(p.omega3 * (plan.s[j] - x_ref[j * k]))
        for r in range(m):
            u[r] -= sum(A[r][c] * u[c] for c in range(max(0, r - 3), r))
        for r in reversed(range(m)):
            u[r] = (u[r] - sum(A[r][c] * u[c] for c in range(r + 1, min(m, r + 4)))) / A[r][r]
        exact = [Fraction(v) for v in x_ref[:2]] + [Fraction(x_ref[i + 2]) + u[i] for i in range(m)]
        worst = max(worst, max(abs(float(Fraction(float(a)) - b)) for a, b in zip(x, exact)))
    assert worst <= 1e-9
