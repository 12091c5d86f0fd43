import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import enumerate_plan_costs, reference_plan, wiggly_path
from scenesynth import synthesis
from scenesynth.errors import (
    PathOverrunError,
    PlanningError,
    PlanningFailureError,
    SceneSynthError,
)
from scenesynth.maps import ReferencePath, _path_from_polyline
from scenesynth.geometry import Polyline
from scenesynth.planner import (
    BEAM_WIDTH,
    CoarsePlan,
    PlannerNode,
    PlannerParams,
    _Batch,
    _n_steps,
    astar_plan,
    expand,
    plan_one,
    transition_cost,
)
from scenesynth.synthesis import GenerationConfig, make_scene


def straight_path(length=400.0):
    poly = Polyline([(0.0, 0.0), (length, 0.0)])
    return _path_from_polyline(poly, ("L",), 1.0)


def constant_kappa_path(kappa, length=200.0):
    base = straight_path(length)
    return ReferencePath(
        base.samples,
        base.cum_s,
        np.full_like(base.kappa, kappa),
        base.spacing,
        base.lane_ids,
    )


def test_expand_hand_value():
    n = expand(PlannerNode(0.0, 10.0, 0.0), 1.0, 0.5)
    assert (n.s, n.v, n.t) == (5.125, 10.5, 0.5)


def test_expand_zero_acceleration():
    n = expand(PlannerNode(3.0, 7.0, 1.0), 0.0, 0.5)
    assert (n.s, n.v, n.t) == (3.0 + 7.0 * 0.5, 7.0, 1.5)


def test_expand_returns_raw_negative_velocity():
    n = expand(PlannerNode(0.0, 0.0, 0.0), -2.0, 0.5)
    assert n.v == -1.0


def test_transition_cost_hand_value():
    path = constant_kappa_path(0.05)
    p = PlannerParams(w1=5.0, w2=5.0, w3=1.0, v_d=10.0)
    c = transition_cost(PlannerNode(20.0, 10.5, 0.5), 1.0, path, p)
    assert c == pytest.approx(32.8125, abs=1e-12)


def test_transition_cost_zero_at_target():
    path = straight_path(200.0)
    p = PlannerParams(v_d=10.0)
    assert transition_cost(PlannerNode(10.0, 10.0, 0.5), 0.0, path, p) == 0.0


def test_transition_cost_signed_curvature_flag():
    path = constant_kappa_path(-0.05)
    node = PlannerNode(20.0, 10.0, 0.5)
    p_abs = PlannerParams(v_d=10.0, abs_curvature=True)
    p_raw = PlannerParams(v_d=10.0, abs_curvature=False)
    assert transition_cost(node, 0.0, path, p_abs) > 0
    # signed curvature enters the formula as-is and may reduce the cost
    assert transition_cost(node, 0.0, path, p_raw) < 0


def test_transition_cost_overrun():
    path = straight_path(200.0)
    with pytest.raises(PathOverrunError):
        transition_cost(PlannerNode(201.0, 10.0, 0.5), 0.0, path, PlannerParams())


def test_param_validation():
    with pytest.raises(ValueError):
        PlannerParams(action_set=())
    with pytest.raises(ValueError):
        PlannerParams(action_set=(-3.0,))
    with pytest.raises(ValueError):
        PlannerParams(dt=0.0)
    with pytest.raises(ValueError):
        PlannerParams(w1=-1.0)


def test_plan_zero_cost_at_desired_velocity():
    path = straight_path(400.0)
    p = PlannerParams(v_d=10.0, t_g=5.0)
    plan = plan_one(path, PlannerNode(0.0, 10.0, 0.0), p)
    assert plan.total_cost == 0.0
    assert all(a == 0.0 for a in plan.actions)
    assert len(plan.actions) == 11


def test_plan_accelerates_from_standstill():
    path = straight_path(200.0)
    p = PlannerParams(v_d=10.0, t_g=1.3, action_set=(-1.0, 0.0, 1.0))
    plan = plan_one(path, PlannerNode(0.0, 0.0, 0.0), p)
    best_cost, best_seq = enumerate_plan_costs(path, 0.0, 0.0, p)
    assert plan.total_cost == pytest.approx(best_cost, abs=1e-9)
    assert plan.actions[0] == 1.0 == best_seq[0]


def test_plan_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(1234)
    for trial in range(30):
        path = wiggly_path(rng)
        n_actions = int(rng.integers(1, 5))
        actions = tuple(
            sorted({0.0, *(float(a) for a in rng.uniform(-2.0, 1.0, size=n_actions))})
        )
        horizon_steps = int(rng.integers(2, 7))
        p = PlannerParams(
            action_set=actions,
            dt=0.5,
            w1=float(rng.uniform(0, 6)),
            w2=float(rng.uniform(0, 6)),
            w3=float(rng.uniform(0.1, 3)),
            v_d=float(rng.uniform(4, 14)),
            t_g=(horizon_steps - 1) * 0.5 + 0.25,
        )
        v0 = float(rng.uniform(0, 1.2 * p.v_d))
        plan = plan_one(path, PlannerNode(5.0, v0, 0.0), p)
        best_cost, _ = enumerate_plan_costs(path, 5.0, v0, p)
        assert plan.total_cost == pytest.approx(best_cost, abs=1e-9), trial
        assert len(plan.actions) == horizon_steps


def test_plan_replay_reproduces_nodes_bit_exactly():
    path = wiggly_path(np.random.default_rng(7))
    p = PlannerParams(v_d=9.0)
    plan = plan_one(path, PlannerNode(3.0, 8.5, 0.0), p)
    node = plan.nodes[0]
    for a, expect in zip(plan.actions, plan.nodes[1:]):
        node = expand(node, a, p.dt)
        assert node == expect
    costs = [
        transition_cost(n, a, path, p)
        for n, a in zip(plan.nodes[1:], plan.actions)
    ]
    assert plan.total_cost == sum(costs)


def test_plan_monotone_time_and_horizon():
    path = straight_path(400.0)
    p = PlannerParams(v_d=8.0, t_g=5.0)
    plan = plan_one(path, PlannerNode(0.0, 8.0, 0.0), p)
    times = plan.times()
    assert np.allclose(np.diff(times), p.dt)
    assert times[-1] > p.t_g
    assert times[-1] - p.dt <= p.t_g


def test_plan_actions_within_bounds():
    path = wiggly_path(np.random.default_rng(8))
    plan = plan_one(path, PlannerNode(2.0, 12.0, 0.0), PlannerParams(v_d=6.0))
    assert all(-2.0 <= a <= 1.0 for a in plan.actions)


def test_plan_deterministic():
    rng = np.random.default_rng(55)
    path = wiggly_path(rng)
    p = PlannerParams(v_d=11.0)
    a = plan_one(path, PlannerNode(1.0, 10.0, 0.0), p)
    b = plan_one(path, PlannerNode(1.0, 10.0, 0.0), p)
    assert a == b


def test_plan_overrun_error_on_short_path():
    path = straight_path(30.0)
    with pytest.raises(PathOverrunError):
        plan_one(path, PlannerNode(0.0, 15.0, 0.0), PlannerParams(v_d=15.0))


def test_plan_failure_when_all_pruned():
    path = straight_path(200.0)
    p = PlannerParams(action_set=(-2.0,), v_d=5.0)
    with pytest.raises(PlanningFailureError):
        plan_one(path, PlannerNode(0.0, 0.0, 0.0), p)


def test_plan_rejects_negative_initial_velocity():
    path = straight_path(200.0)
    with pytest.raises(ValueError):
        plan_one(path, PlannerNode(0.0, -1.0, 0.0), PlannerParams())


def plan_to_global(plan, path):
    """A plan's nodes as (t, x, y): its arc lengths placed on the path by
    `ReferencePath.xy_at`, as synthesis places a refined plan."""
    xy = path.xy_at(plan.s_values())
    return [(node.t, float(x), float(y)) for node, (x, y) in zip(plan.nodes, xy)]


def test_plan_to_global_straight():
    path = straight_path(200.0)
    nodes = (
        PlannerNode(0.0, 10.0, 0.0),
        PlannerNode(5.0, 10.0, 0.5),
        PlannerNode(10.0, 10.0, 1.0),
    )
    plan = CoarsePlan(nodes, (0.0, 0.0), 0.0)
    assert plan_to_global(plan, path) == [
        (0.0, 0.0, 0.0),
        (0.5, 5.0, 0.0),
        (1.0, 10.0, 0.0),
    ]


def test_plan_to_global_sample_exact_and_dense_oracle():
    path = wiggly_path(np.random.default_rng(3))
    # a node exactly on a grid sample maps to that sample's coordinates
    idx = 17
    nodes = (
        PlannerNode(float(path.cum_s[idx]), 5.0, 0.0),
        PlannerNode(float(path.cum_s[idx]) + 3.3, 5.0, 0.5),
    )
    plan = CoarsePlan(nodes, (0.0,), 0.0)
    pts = plan_to_global(plan, path)
    assert pts[0][1:] == tuple(path.samples.xy[idx])
    # independent scalar interpolation along the stored grid
    s = nodes[1].s
    i = int(np.searchsorted(path.cum_s, s, side="right")) - 1
    frac = (s - path.cum_s[i]) / (path.cum_s[i + 1] - path.cum_s[i])
    expect = path.samples.xy[i] * (1.0 - frac) + path.samples.xy[i + 1] * frac
    assert abs(pts[1][1] - expect[0]) < 1e-6
    assert abs(pts[1][2] - expect[1]) < 1e-6


def test_plan_to_global_overrun():
    path = straight_path(100.0)
    plan = CoarsePlan(
        (PlannerNode(99.0, 10.0, 0.0), PlannerNode(104.0, 10.0, 0.5)), (0.0,), 0.0
    )
    with pytest.raises(PathOverrunError):
        plan_to_global(plan, path)





def plan_or_error(path, init, p, plan=plan_one):
    try:
        return plan(path, init, p)
    except PlanningError as exc:
        return type(exc)


def assert_matches_reference(path, init, p):
    """`plan_one` returns the reference plan or raises its error class."""
    got = plan_or_error(path, init, p)
    assert got == plan_or_error(path, init, p, reference_plan)
    return got


FRACTIONS = (165.0 / 370.0, 1.0)


@pytest.fixture(scope="module")
def oracle_instances(corridors_map):
    """For each warp fraction, the first 160 planner problems that
    `make_scene` poses at seed 35, each with `reference_plan`'s plan or
    error class. At index 18 both fractions draw a plan whose merge has an
    exact cost tie, so the (parent, action) tie-break is checked too."""
    instances = {}
    for fraction in FRACTIONS:
        calls = []

        def record(problems):
            calls.extend(problems)
            return astar_plan(problems)

        cfg = GenerationConfig(
            seed=35, n_scenes=1, output_dir="unused", augmented_fraction=fraction
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "astar_plan", record)
            index = 0
            while len(calls) < 160:
                try:
                    make_scene(corridors_map, np.random.default_rng([35, index]), cfg)
                except SceneSynthError:
                    pass
                index += 1
        instances[fraction] = [
            (problem, plan_or_error(*problem, reference_plan)) for problem in calls
        ]
    return instances


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_plan_matches_reference_on_generated_instances(oracle_instances, fraction):
    for problem, want in oracle_instances[fraction]:
        assert plan_or_error(*problem) == want


def outcome(result):
    """A plan, or the class of a PlanningError, as `plan_or_error` gives it."""
    return type(result) if isinstance(result, PlanningError) else result


def test_batched_plans_match_reference(oracle_instances):
    instances = [x for fraction in FRACTIONS for x in oracle_instances[fraction]]
    rng = np.random.default_rng(2718)
    order = rng.permutation(len(instances)).tolist()
    sizes = [1]
    while sum(sizes) < len(order):
        sizes.append(int(rng.integers(2, 41)))
    start = 0
    for size in sizes:
        batch = [instances[k] for k in order[start : start + size]]
        start += size
        got = astar_plan([problem for problem, _ in batch])
        assert [outcome(r) for r in got] == [want for _, want in batch]


def test_batch_mixing_feasible_overrunning_and_pruned_scenes():
    # only braking actions: a slow start runs out of speed, a fast start
    # runs off a short path, and one starts past the end of its path
    path, short = straight_path(200.0), straight_path(30.0)
    p = PlannerParams(action_set=(-1.0, -0.5), v_d=8.0)
    problems = [
        (path, PlannerNode(0.0, 10.0, 0.0), p),
        (short, PlannerNode(0.0, 10.0, 0.0), replace(p, v_d=10.0)),
        (wiggly_path(np.random.default_rng(4)), PlannerNode(3.0, 9.0, 0.0), replace(p, v_d=6.0)),
        (path, PlannerNode(0.0, 0.5, 0.0), replace(p, v_d=3.0)),
        (path, PlannerNode(201.0, 5.0, 0.0), p),
    ]
    got = [outcome(r) for r in astar_plan(problems)]
    assert got == [plan_or_error(*problem, reference_plan) for problem in problems]
    assert isinstance(got[0], CoarsePlan) and isinstance(got[2], CoarsePlan)
    assert (got[1], got[3], got[4]) == (PathOverrunError, PlanningFailureError, PathOverrunError)


def test_batch_must_share_all_but_desired_velocity():
    path = straight_path(200.0)
    init = PlannerNode(0.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="only in v_d"):
        astar_plan([(path, init, PlannerParams()), (path, init, PlannerParams(w1=4.0))])
    coarse = _path_from_polyline(Polyline([(0.0, 0.0), (100.0, 0.0)]), ("L",), 2.0)
    with pytest.raises(ValueError, match="one uniform grid"):
        astar_plan([(path, init, PlannerParams()), (coarse, init, PlannerParams())])


def test_batched_curvature_lookup_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(5)
    paths = [wiggly_path(rng, length=n, max_turn=0.08) for n in (40.0, 260.0, 117.0)]
    batch = _Batch(paths, PlannerParams(), np.zeros(len(paths)))
    for row, path in enumerate(paths):
        end = path.length
        x = np.concatenate([
            path.cum_s,
            [end, np.nextafter(end, np.inf), np.nextafter(end, -np.inf), end + 3.5],
            rng.uniform(0.0, end, 5000),
            [-0.5, -0.0],
        ])
        got = batch.curvature(x, np.full(x.shape, row))
        assert got.tobytes() == np.interp(x, path.cum_s, path.kappa).tobytes()
    # padded (scene, state) layout, as the beam pass asks for it
    x = rng.uniform(0.0, 45.0, (3, 500))
    got = batch.curvature(x, np.arange(3)[:, None])
    want = [np.interp(x[row], path.cum_s, path.kappa) for row, path in enumerate(paths)]
    assert got.tobytes() == np.array(want).tobytes()


def test_plan_matches_reference_on_tied_action_orders():
    # zero curvature and w3 = 0 leave only w1 * sum(a^2), so every order
    # of the same actions costs the same
    path = straight_path(400.0)
    for actions in [(-0.5, 0.5), (-1.0, -0.5, 0.5, 1.0)]:
        p = PlannerParams(action_set=actions, v_d=10.0, w3=0.0)
        plan = assert_matches_reference(path, PlannerNode(0.0, 10.0, 0.0), p)
        assert isinstance(plan, CoarsePlan)


def test_plan_matches_reference_with_signed_curvature():
    rng = np.random.default_rng(41)
    for _ in range(10):
        path = wiggly_path(rng, max_turn=0.08)
        p = PlannerParams(v_d=float(rng.uniform(6, 15)), abs_curvature=False)
        init = PlannerNode(4.0, float(rng.uniform(5, 15)), 0.0)
        assert_matches_reference(path, init, p)


def test_plan_matches_reference_when_beam_pass_overruns():
    # the beam keeps only cheap, fast states, which all run off a 20 m
    # path; the bound falls back to infinity and the exact pass still
    # finds the braking plan
    path = straight_path(20.0)
    init = PlannerNode(0.0, 4.0, 0.0)
    p = PlannerParams(v_d=4.0)
    batch = _Batch([path], p, np.array([p.v_d]))
    ub = batch.beam_bounds(np.array([init.s]), np.array([init.v]), _n_steps(0.0, p), BEAM_WIDTH)
    assert ub.tolist() == [math.inf]
    assert isinstance(assert_matches_reference(path, init, p), CoarsePlan)
