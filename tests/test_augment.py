import math

import numpy as np
import pytest

from oracles import (
    assert_same_map,
    binomial_band,
    end_slope,
    f_double_turn,
    f_single_turn,
    f_single_turn_slope,
    q_alpha,
    reference_apply_transform,
)
from scenesynth.augment import (
    ALPHA1_RANGE,
    DEFAULT_ALPHA2,
    DEFAULT_TURN_GAP,
    DEFAULT_TURN_LENGTH,
    TurnKind,
    TurnTransformParams,
    apply_transform,
    sample_transform_params,
    warp_displacement,
)
from scenesynth.errors import ValidationError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.geometry import Polyline
from scenesynth.maps import LaneSegment, build_reference_path, make_map

IDENTITY = (0.0, 0.0, 0.0)  # frame x, y, heading


def single(alpha1=5.0, alpha2=20.0, s_t=10.0, b=10.0, frame=IDENTITY):
    return TurnTransformParams(TurnKind.SINGLE, b, alpha1, alpha2, s_t, None, *frame)


def double(alpha1=5.0, alpha2=20.0, s_t=10.0, beta=20.0, b=10.0, frame=IDENTITY):
    return TurnTransformParams(TurnKind.DOUBLE, b, alpha1, alpha2, s_t, beta, *frame)


def test_q_alpha_zero():
    assert q_alpha(0.0, 2.0, 3.0, 10.0) == 0.0


def test_q_alpha_full_turn_exact():
    assert q_alpha(10.0, 5.0, 20.0, 10.0) == 5.0


def test_q_alpha_hand_value():
    assert q_alpha(5.0, 2.0, 3.0, 10.0) == pytest.approx(0.25, abs=1e-15)


def test_q_alpha_domain_error():
    with pytest.raises(ValueError):
        q_alpha(-0.1, 2.0, 3.0, 10.0)
    with pytest.raises(ValueError):
        q_alpha(10.5, 2.0, 3.0, 10.0)


def test_f_single_zero_before_onset():
    assert f_single_turn(-3.0, single()) == 0.0


def test_f_single_at_turn_end():
    assert f_single_turn(10.0, single()) == 5.0


def test_f_single_linear_branch_hand_value():
    # (12 - 10) * (5 * 20 / 10) + 5 = 25
    assert f_single_turn(12.0, single()) == pytest.approx(25.0, abs=1e-12)


def test_param_invariants():
    with pytest.raises(ValueError):
        single(alpha1=0.5)
    with pytest.raises(ValueError):
        single(alpha2=1.0)
    with pytest.raises(ValueError):
        single(s_t=0.0)
    with pytest.raises(ValueError):
        double(beta=0.0)


def test_f_double_requires_double_kind():
    with pytest.raises(ValueError, match="DoubleTurn"):
        f_double_turn(5.0, single())


def test_f_double_zero_before_onset():
    assert f_double_turn(-1.0, double()) == 0.0


def test_f_double_at_beta_equals_first_turn():
    p = double()
    assert f_double_turn(p.beta, p) == f_single_turn(p.beta, p)


def test_f_double_plateau_value_and_spread():
    p = double(alpha1=7.0)
    xs = np.linspace(p.s_t + p.beta + 1.0, p.s_t + p.beta + 120.0, 100)
    vals = np.array([f_double_turn(float(x), p) for x in xs])
    expected = p.alpha1 * p.alpha2 * p.beta / p.s_t
    assert vals.max() - vals.min() < 1e-9
    assert abs(vals[0] - expected) < 1e-9
    # algebraic check: the two linear branches cancel to beta * end slope
    assert expected == pytest.approx(p.beta * end_slope(p))


def test_c1_continuity_at_branch_points():
    rng = np.random.default_rng(12)
    eps = 1e-4
    for _ in range(200):
        p = single(alpha1=float(rng.uniform(1, 10)))
        for x in (0.0, p.s_t):
            cd = (f_single_turn(x + eps, p) - f_single_turn(x - eps, p)) / (2 * eps)
            slope = f_single_turn_slope(x, p)
            assert abs(cd - slope) / max(1.0, abs(slope)) < 1e-3


def test_warp_displacement_matches_scalar():
    p = double(alpha1=3.5)
    xs = np.linspace(-5, 60, 301)
    vec = warp_displacement(xs, p)
    scal = np.array([f_double_turn(float(x), p) for x in xs])
    assert np.abs(vec - scal).max() < 1e-12


def test_apply_transform_identity_region_bit_exact():
    m = generate_map_fixture("corridors")
    p = single(frame=(-40.0, 60.0, 0.3))
    out = apply_transform(m, p)
    for lane_id, lane in m.lanes.items():
        xy = lane.centerline.xy
        local_x = np.cos(-0.3) * (xy[:, 0] + 40.0) - np.sin(-0.3) * (xy[:, 1] - 60.0)
        untouched = local_x < p.b
        new_xy = out.lanes[lane_id].centerline.xy
        assert np.array_equal(new_xy[untouched], xy[untouched])


def test_apply_transform_identity_when_all_before_onset():
    m = generate_map_fixture("straight_pair")
    out = apply_transform(m, single(frame=(500.0, 0.0, 0.0)))  # onset far past the map
    for lane_id in m.lanes:
        assert np.array_equal(
            out.lanes[lane_id].centerline.xy, m.lanes[lane_id].centerline.xy
        )


def test_apply_transform_keeps_the_polyline_of_a_lane_before_onset():
    before = LaneSegment("A", Polyline([(0.0, 5.0), (9.0, 5.0)]))
    across = LaneSegment("B", Polyline([(0.0, 0.0), (9.0, 0.0), (30.0, 0.0)]))
    m = make_map("MIA", [before, across])
    out = apply_transform(m, single())
    assert out.lanes["A"].centerline is before.centerline
    assert out.lanes["B"].centerline is not across.centerline


def test_apply_transform_straight_lane_offsets_match_profile():
    lane = LaneSegment("L", Polyline([(float(x), 0.0) for x in range(0, 61, 2)]))
    m = make_map("MIA", [lane])
    p = single(alpha1=4.0)
    out = apply_transform(m, p)
    xy = out.lanes["L"].centerline.xy
    for x, y in xy:
        assert y == pytest.approx(f_single_turn(x - p.b, p), abs=1e-12)
        assert x == pytest.approx(x)


def test_apply_transform_double_far_tail_parallel():
    lane = LaneSegment("L", Polyline([(float(x), 0.0) for x in range(0, 201, 2)]))
    m = make_map("MIA", [lane])
    p = double(alpha1=2.0)
    out = apply_transform(m, p)
    xy = out.lanes["L"].centerline.xy
    tail = xy[xy[:, 0] > p.b + p.s_t + p.beta]
    offset = p.alpha1 * p.alpha2 * p.beta / p.s_t
    assert tail.shape[0] > 10
    assert np.abs(tail[:, 1] - offset).max() < 1e-9


def test_apply_transform_preserves_topology():
    m = generate_map_fixture("corridors")
    out = apply_transform(m, double(frame=(-100.0, 0.0, 0.0)))
    assert sorted(out.lanes) == sorted(m.lanes)
    for lane_id, lane in m.lanes.items():
        other = out.lanes[lane_id]
        assert other.successors == lane.successors
        assert other.predecessors == lane.predecessors
        assert other.centerline.n_points == lane.centerline.n_points


def random_warp(rng, m):
    """A warp of either kind anchored near a random centerline point of `m`,
    heading anywhere, with the onset b anywhere in [0, 30]."""
    lane = m.lanes[m.sorted_ids()[int(rng.integers(len(m.lanes)))]]
    origin = lane.centerline.xy[int(rng.integers(lane.centerline.n_points))]
    origin = origin + rng.normal(0.0, 20.0, 2)
    kind = TurnKind.SINGLE if rng.random() < 0.5 else TurnKind.DOUBLE
    return TurnTransformParams(
        kind,
        float(rng.uniform(0.0, 30.0)),
        float(rng.uniform(*ALPHA1_RANGE)),
        DEFAULT_ALPHA2,
        DEFAULT_TURN_LENGTH,
        DEFAULT_TURN_GAP if kind is TurnKind.DOUBLE else None,
        *map(float, origin),
        float(rng.uniform(-math.pi, math.pi)),
    )


def assert_warp_matches_reference(m, p):
    """`apply_transform(m, p)` is the per-lane loop's map, bit for bit, in
    the same lane order, with the same LaneSegment object for every lane
    the loop keeps, and its `points` are its lanes' points; returns the
    warped map and how many lanes it changed, or None when both raise."""
    try:
        want = reference_apply_transform(m, p)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            apply_transform(m, p)
        assert str(got.value) == str(exc)
        return None
    got = apply_transform(m, p)
    assert_same_map(got, want)
    for lane_id, lane in got.lanes.items():
        assert (lane is m.lanes[lane_id]) == (want.lanes[lane_id] is m.lanes[lane_id])
    ids, xy, offsets = got.points
    assert ids == tuple(got.sorted_ids()) and not xy.flags.writeable
    assert xy.tobytes() == np.concatenate([got.lanes[k].centerline.xy for k in ids]).tobytes()
    assert list(np.diff(offsets)) == [got.lanes[k].centerline.n_points for k in ids]
    return got, sum(lane is not m.lanes[k] for k, lane in got.lanes.items())


@pytest.mark.parametrize("name", ["corridors", "fork", "chain3"])
def test_apply_transform_matches_reference_on_random_warps(name):
    """200 random warps of the fixture, each warped once more (the second
    warp reads the `points` that the first one built), plus a warp that
    touches no lane and one that touches every lane."""
    m = generate_map_fixture(name)
    rng = np.random.default_rng([8, len(name)])
    xy = np.concatenate([lane.centerline.xy for lane in m.lanes.values()])
    (x0, y0), (x1, _) = xy.min(axis=0), xy.max(axis=0)
    warps = [
        single(frame=(float(x1) + 100.0, float(y0), 0.0)),  # touches none
        double(alpha1=1.0, frame=(float(x0) - 20.0, float(y0), 0.0)),
    ] + [random_warp(rng, m) for _ in range(200)]
    changed = []
    for p in warps:
        once = assert_warp_matches_reference(m, p)
        if once is not None:
            changed.append(once[1])
            assert_warp_matches_reference(once[0], random_warp(rng, once[0]))
    assert changed[0] == 0 and changed[1] == len(m.lanes)
    assert len(changed) >= 190
    assert {0, len(m.lanes)} < set(changed)


def test_apply_transform_of_an_empty_map():
    out = apply_transform(make_map("MIA", []), single())
    assert out.lanes == {} and out.points.xy.shape == (0, 2)


def test_sample_params_deterministic(corridors_map):
    path = build_reference_path(
        corridors_map, "H0_0", 150.0, np.random.default_rng(4)
    )
    a = sample_transform_params(np.random.default_rng(77), path)
    b = sample_transform_params(np.random.default_rng(77), path)
    assert a == b


def test_sample_params_ranges_and_kind_frequency(corridors_map):
    path = build_reference_path(
        corridors_map, "H0_0", 150.0, np.random.default_rng(4)
    )
    rng = np.random.default_rng(123)
    n = 10_000
    alphas = np.empty(n)
    doubles = 0
    for i in range(n):
        p = sample_transform_params(rng, path)
        alphas[i] = p.alpha1
        doubles += p.kind is TurnKind.DOUBLE
        assert p.alpha2 == 20.0 and p.s_t == 10.0 and p.b == 10.0
        if p.kind is TurnKind.DOUBLE:
            assert p.beta == 20.0
    assert alphas.min() >= 1.0 and alphas.max() <= 10.0
    lo, hi = binomial_band(n, 0.5)
    assert lo <= doubles <= hi
    assert 0.45 <= doubles / n <= 0.55


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["frame_x", "frame_y", "frame_heading"])
def test_params_refuse_a_non_finite_frame(field, bad):
    frame = dict(frame_x=1.0, frame_y=2.0, frame_heading=0.5)
    single(frame=frame.values())  # the finite frame is accepted
    frame[field] = bad
    with pytest.raises(ValueError, match="non-finite frame"):
        single(frame=frame.values())


def test_lane_warped_past_the_length_limit_is_a_validation_error():
    # a straight lane just inside the limit, lengthened by the turn
    xs = [*range(0, 99_001, 1000), 99_999]
    m = make_map("MIA", [LaneSegment("A", Polyline([(x, 0.0) for x in xs]))])
    with pytest.raises(ValidationError, match="warped lane 'A': polyline length .* exceeds"):
        apply_transform(m, single(b=50_000.0))
