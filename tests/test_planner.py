import math

import numpy as np
import pytest

from oracles import (
    Node,
    enumerate_plan_costs,
    expand,
    make_scene,
    plan_one,
    reference_plan,
    transition_cost,
    wiggly_path,
)
from scenesynth import planner, synthesis
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
    PlannerParams,
    _Batch,
    _segment,
    astar_plan,
)
from scenesynth.synthesis import GenerationConfig


def straight_path(length=400.0):
    poly = Polyline([(0.0, 0.0), (length, 0.0)])
    return _path_from_polyline(poly, ("L",))


def constant_kappa_path(kappa, length=200.0):
    base = straight_path(length)
    return ReferencePath(
        base.samples,
        base.cum_s,
        np.full_like(base.kappa, kappa),
        base.lane_ids,
    )


def test_expand_hand_value():
    n = expand(Node(0.0, 10.0, 0.0), 1.0, 0.5)
    assert (n.s, n.v, n.t) == (5.125, 10.5, 0.5)


def test_expand_zero_acceleration():
    n = expand(Node(3.0, 7.0, 1.0), 0.0, 0.5)
    assert (n.s, n.v, n.t) == (3.0 + 7.0 * 0.5, 7.0, 1.5)


def test_expand_returns_raw_negative_velocity():
    n = expand(Node(0.0, 0.0, 0.0), -2.0, 0.5)
    assert n.v == -1.0


def test_transition_cost_hand_value():
    path = constant_kappa_path(0.05)
    p = PlannerParams(w1=5.0, w2=5.0, w3=1.0)
    c = transition_cost(Node(20.0, 10.5, 0.5), 1.0, path, p, 10.0)
    assert c == pytest.approx(32.8125, abs=1e-12)


def test_transition_cost_zero_at_target():
    path = straight_path(200.0)
    assert transition_cost(Node(10.0, 10.0, 0.5), 0.0, path, PlannerParams(), 10.0) == 0.0


def test_transition_cost_overrun():
    path = straight_path(200.0)
    with pytest.raises(PathOverrunError):
        transition_cost(Node(201.0, 10.0, 0.5), 0.0, path, PlannerParams(), 10.0)


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
    plan = plan_one(path, 0.0, 10.0, 10.0, PlannerParams(t_g=5.0))
    assert plan.total_cost == 0.0
    assert all(a == 0.0 for a in plan.actions)
    assert len(plan.actions) == 11


def test_plan_accelerates_from_standstill():
    path = straight_path(200.0)
    p = PlannerParams(t_g=1.3, action_set=(-1.0, 0.0, 1.0))
    plan = plan_one(path, 0.0, 0.0, 10.0, p)
    best_cost, best_seq = enumerate_plan_costs(path, 0.0, 0.0, 10.0, p)
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
            t_g=(horizon_steps - 1) * 0.5 + 0.25,
        )
        v_d = float(rng.uniform(4, 14))
        v0 = float(rng.uniform(0, 1.2 * v_d))
        plan = plan_one(path, 5.0, v0, v_d, p)
        best_cost, _ = enumerate_plan_costs(path, 5.0, v0, v_d, p)
        assert plan.total_cost == pytest.approx(best_cost, abs=1e-9), trial
        assert len(plan.actions) == horizon_steps


def test_plan_replay_reproduces_nodes_bit_exactly():
    path = wiggly_path(np.random.default_rng(7))
    p = PlannerParams()
    plan = plan_one(path, 3.0, 8.5, 9.0, p)
    nodes = [Node(plan.s[0], plan.v[0], 0.0)]
    for a, s, v in zip(plan.actions, plan.s[1:], plan.v[1:]):
        nodes.append(expand(nodes[-1], a, p.dt))
        assert (nodes[-1].s, nodes[-1].v) == (s, v)
    costs = [
        transition_cost(n, a, path, p, 9.0)
        for n, a in zip(nodes[1:], plan.actions)
    ]
    assert plan.total_cost == sum(costs)


def test_plan_monotone_time_and_horizon():
    path = straight_path(400.0)
    p = PlannerParams(t_g=5.0)
    plan = plan_one(path, 0.0, 8.0, 8.0, p)
    assert plan.dt == p.dt
    assert len(plan.s) == len(plan.v) == len(plan.actions) + 1
    t_end = len(plan.actions) * plan.dt
    assert t_end > p.t_g
    assert t_end - p.dt <= p.t_g


def test_plan_actions_within_bounds():
    path = wiggly_path(np.random.default_rng(8))
    plan = plan_one(path, 2.0, 12.0, 6.0, PlannerParams())
    assert all(-2.0 <= a <= 1.0 for a in plan.actions)


def test_plan_deterministic():
    rng = np.random.default_rng(55)
    path = wiggly_path(rng)
    p = PlannerParams()
    a = plan_one(path, 1.0, 10.0, 11.0, p)
    b = plan_one(path, 1.0, 10.0, 11.0, p)
    assert a == b


def test_plan_fields_are_python_floats():
    plan = plan_one(wiggly_path(np.random.default_rng(9)), 1.0, 10.0, 11.0, PlannerParams())
    for value in (*plan.s, *plan.v, *plan.actions, plan.total_cost, plan.dt):
        assert type(value) is float


def test_plan_overrun_error_on_short_path():
    path = straight_path(30.0)
    with pytest.raises(PathOverrunError):
        plan_one(path, 0.0, 15.0, 15.0, PlannerParams())


def test_plan_failure_when_all_pruned():
    path = straight_path(200.0)
    p = PlannerParams(action_set=(-2.0,))
    with pytest.raises(PlanningFailureError):
        plan_one(path, 0.0, 0.0, 5.0, p)


def test_plan_rejects_negative_initial_velocity():
    path = straight_path(200.0)
    with pytest.raises(ValueError):
        plan_one(path, 0.0, -1.0, 10.0, PlannerParams())


@pytest.mark.parametrize(
    "s0, v0",
    [(math.nan, 10.0), (0.0, math.nan), (0.0, math.inf), (math.inf, 10.0)],
    ids=["nan-s0", "nan-v0", "inf-v0", "inf-s0"],
)
def test_plan_rejects_a_non_finite_start(s0, v0):
    # a RuntimeWarning from the array work would fail the test too
    path = wiggly_path(np.random.default_rng(3))
    with pytest.raises(ValueError, match="initial state must be finite"):
        plan_one(path, s0, v0, 10.0, PlannerParams())


def plan_to_global(plan, path):
    """A plan's states as (t, x, y): its arc lengths placed on the path by
    `ReferencePath.xy_at`, as synthesis places a refined plan."""
    xy = path.xy_at(np.array(plan.s))
    return [(i * plan.dt, float(x), float(y)) for i, (x, y) in enumerate(xy.tolist())]


def test_plan_to_global_straight():
    path = straight_path(200.0)
    plan = CoarsePlan((0.0, 5.0, 10.0), (10.0, 10.0, 10.0), (0.0, 0.0), 0.0, 0.5)
    assert plan_to_global(plan, path) == [
        (0.0, 0.0, 0.0),
        (0.5, 5.0, 0.0),
        (1.0, 10.0, 0.0),
    ]


def test_plan_to_global_sample_exact_and_dense_oracle():
    path = wiggly_path(np.random.default_rng(3))
    # a node exactly on a grid sample maps to that sample's coordinates
    idx = 17
    s_nodes = (float(path.cum_s[idx]), float(path.cum_s[idx]) + 3.3)
    plan = CoarsePlan(s_nodes, (5.0, 5.0), (0.0,), 0.0, 0.5)
    pts = plan_to_global(plan, path)
    assert pts[0][1:] == tuple(path.samples.xy[idx])
    # independent scalar interpolation along the stored grid
    s = s_nodes[1]
    i = int(np.searchsorted(path.cum_s, s, side="right")) - 1
    frac = (s - path.cum_s[i]) / (path.cum_s[i + 1] - path.cum_s[i])
    expect = path.samples.xy[i] * (1.0 - frac) + path.samples.xy[i + 1] * frac
    assert abs(pts[1][1] - expect[0]) < 1e-6
    assert abs(pts[1][2] - expect[1]) < 1e-6


def test_plan_to_global_overrun():
    path = straight_path(100.0)
    plan = CoarsePlan((99.0, 104.0), (10.0, 10.0), (0.0,), 0.0, 0.5)
    with pytest.raises(PathOverrunError):
        plan_to_global(plan, path)



def plan_or_error(problem, p, plan=plan_one):
    """The plan of a `(path, s0, v0, v_d)` problem under `p`, or the class
    of the PlanningError it ends in."""
    try:
        return plan(*problem, p)
    except PlanningError as exc:
        return type(exc)


def assert_matches_reference(problem, p):
    """`plan_one` returns the reference plan or raises its error class."""
    got = plan_or_error(problem, p)
    assert got == plan_or_error(problem, p, reference_plan)
    return got


FRACTIONS = (165.0 / 370.0, 1.0)


@pytest.fixture(scope="module")
def oracle_instances(corridors_map):
    """For each warp fraction, the first 160 planner problems that
    `make_scene` poses at seed 35, each with its parameters and
    `reference_plan`'s plan or error class. At index 18 both fractions
    draw a plan whose merge has an exact cost tie, so the (parent, action)
    tie-break is checked too."""
    instances = {}
    for fraction in FRACTIONS:
        calls = []

        def record(problems, p):
            calls.extend((problem, p) for problem in problems)
            return astar_plan(problems, p)

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
            (problem, p, plan_or_error(problem, p, reference_plan)) for problem, p in calls
        ]
    return instances


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_plan_matches_reference_on_generated_instances(oracle_instances, fraction):
    for problem, p, want in oracle_instances[fraction]:
        assert plan_or_error(problem, p) == want


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
        (p,) = {p for _, p, _ in batch}
        got = astar_plan([problem for problem, _, _ in batch], p)
        assert [outcome(r) for r in got] == [want for _, _, want in batch]


def test_batch_mixing_feasible_overrunning_and_pruned_scenes():
    # only braking actions: a slow start runs out of speed, a fast start
    # runs off a short path, and one starts past the end of its path
    path, short = straight_path(200.0), straight_path(30.0)
    p = PlannerParams(action_set=(-1.0, -0.5))
    problems = [
        (path, 0.0, 10.0, 8.0),
        (short, 0.0, 10.0, 10.0),
        (wiggly_path(np.random.default_rng(4)), 3.0, 9.0, 6.0),
        (path, 0.0, 0.5, 3.0),
        (path, 201.0, 5.0, 8.0),
    ]
    got = [outcome(r) for r in astar_plan(problems, p)]
    assert got == [plan_or_error(problem, p, reference_plan) for problem in problems]
    assert isinstance(got[0], CoarsePlan) and isinstance(got[2], CoarsePlan)
    assert (got[1], got[3], got[4]) == (PathOverrunError, PlanningFailureError, PathOverrunError)


def test_batched_curvature_lookup_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(5)
    # one long path next to short ones, on the 1 m grid
    paths = [wiggly_path(rng, length=n, max_turn=0.08) for n in (40.0, 900.0, 117.0, 12.0)]
    batch = _Batch(paths, PlannerParams(), np.zeros(len(paths)))
    # ragged tables: the sum of the path lengths, not scenes x longest
    assert batch.kappa.size == batch.slope.size == sum(len(p.cum_s) for p in paths)
    for row, path in enumerate(paths):
        end = path.length
        x = np.concatenate([
            path.cum_s,
            np.nextafter(path.cum_s, np.inf),
            np.nextafter(path.cum_s, -np.inf),
            [end, end + 3.5, end + 1000.0, np.nan],
            rng.uniform(0.0, end, 5000),
            [-0.5, -0.0, -1e300],
        ])
        got = batch.curvature(x, np.full(x.shape, row))
        assert got.tobytes() == np.interp(x, path.cum_s, path.kappa).tobytes()
    # padded (scene, state) layout, as the beam pass asks for it
    x = rng.uniform(-1.0, 950.0, (len(paths), 500))
    got = batch.curvature(x, np.arange(len(paths))[:, None])
    want = [np.interp(x[row], path.cum_s, path.kappa) for row, path in enumerate(paths)]
    assert got.tobytes() == np.array(want).tobytes()


def test_segment_lookup_is_searchsorted_at_every_grid_point():
    grid = np.arange(600, dtype=float)
    x = np.concatenate([
        grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
        [np.nan, np.inf, -np.inf, -0.0, -0.5, -1.0, -1e300, 599.5, 1e300],
    ])
    want = np.searchsorted(grid, x, side="right") - 1
    assert np.array_equal(_segment(x, len(grid) - 1), want)


def test_segment_lookup_is_searchsorted_on_planner_states(oracle_instances, monkeypatch):
    seen = []
    real = planner._segment

    def record(x, top):
        seen.append((x.copy(), top))
        return real(x, top)

    monkeypatch.setattr(planner, "_segment", record)
    for fraction in FRACTIONS:
        instances = oracle_instances[fraction][:40]
        astar_plan([problem for problem, _, _ in instances], instances[0][1])
    assert sum(x.size for x, _ in seen) > 10_000
    for x, top in seen:
        want = np.searchsorted(np.arange(top + 1.0), x, side="right") - 1
        assert np.array_equal(real(x, top), want)


def test_plan_matches_reference_on_tied_action_orders():
    # zero curvature and w3 = 0 leave only w1 * sum(a^2), so every order
    # of the same actions costs the same
    path = straight_path(400.0)
    for actions in [(-0.5, 0.5), (-1.0, -0.5, 0.5, 1.0)]:
        p = PlannerParams(action_set=actions, w3=0.0)
        plan = assert_matches_reference((path, 0.0, 10.0, 10.0), p)
        assert isinstance(plan, CoarsePlan)


def test_plan_matches_reference_when_beam_pass_overruns():
    # the beam keeps only cheap, fast states, which all run off a 20 m
    # path; the bound falls back to infinity and the exact pass still
    # finds the braking plan
    path = straight_path(20.0)
    p = PlannerParams()
    batch = _Batch([path], p, np.array([4.0]))
    ub = batch.beam_bounds(np.array([0.0]), np.array([4.0]), p.n_steps, BEAM_WIDTH)
    assert ub.tolist() == [math.inf]
    assert isinstance(assert_matches_reference((path, 0.0, 4.0, 4.0), p), CoarsePlan)
