import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circle_points
from scenesynth.geometry import (
    COORDINATE_LIMIT,
    LENGTH_LIMIT,
    Point2,
    Polyline,
    curvature_profile,
    resample_polyline,
)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, float("inf"))


def test_polyline_rejects_coincident_points():
    with pytest.raises(ValueError, match="coincident"):
        Polyline([(0, 0), (0, 0), (1, 0)])


def test_polyline_needs_two_points():
    with pytest.raises(ValueError):
        Polyline([(0, 0)])


@given(
    st.floats(-COORDINATE_LIMIT, COORDINATE_LIMIT),
    st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=40, unique=True),
)
@settings(max_examples=300, deadline=None)
def test_pt_lines_are_the_per_point_f_strings(a, bs):
    # a constant coordinate of any magnitude in either column; the other
    # column's values are apart, so the points are too
    bs = sorted(bs)
    if min(np.diff(bs)) <= 1e-6:
        return
    column = np.full(len(bs), a)
    for xy in (np.column_stack([column, bs]), np.column_stack([bs, column])):
        want = tuple(f"pt {x:.9f} {y:.9f}" for x, y in xy.tolist())
        poly = Polyline(xy)
        assert poly.pt_lines() == want
        assert poly.pt_lines() is poly.pt_lines()


def test_polyline_rejects_a_length_past_the_limit():
    Polyline([(0, 0), (LENGTH_LIMIT, 0)])
    with pytest.raises(ValueError, match="polyline length 100000.00001 m exceeds 100000.0 m"):
        Polyline([(0, 0), (60000, 0), (LENGTH_LIMIT + 0.00001, 0)])


def test_polyline_arclength_strictly_increasing():
    p = Polyline([(0, 0), (1, 0), (1, 2), (3, 2)])
    assert np.all(np.diff(p.cum_s) > 0)
    assert p.cum_s[0] == 0.0
    assert p.length == pytest.approx(5.0)


def test_resample_straight_spacing_one():
    p = Polyline([(0, 0), (10, 0)])
    r = resample_polyline(p, 1.0)
    assert r.n_points == 11
    assert np.allclose(r.xy[:, 1], 0.0)
    assert np.allclose(r.xy[:, 0], np.arange(11))


def test_resample_straight_spacing_three():
    r = resample_polyline(Polyline([(0, 0), (10, 0)]), 3.0)
    assert np.allclose(r.xy[:, 0], [0, 3, 6, 9, 10])


def test_resample_shorter_than_spacing_keeps_endpoints():
    r = resample_polyline(Polyline([(0, 0), (0.4, 0)]), 1.0)
    assert r.n_points == 2
    assert r.xy[0] @ r.xy[0] == 0.0
    assert r.xy[1, 0] == 0.4


def test_resample_requires_positive_spacing():
    with pytest.raises(ValueError):
        resample_polyline(Polyline([(0, 0), (1, 0)]), 0.0)


def test_resample_quarter_circle_stays_on_circle():
    # densify the input so chord interpolation error stays below 1e-6
    radius = 5.0
    ang = np.linspace(0, math.pi / 2, 3000)
    p = Polyline(np.column_stack([radius * np.cos(ang), radius * np.sin(ang)]))
    r = resample_polyline(p, 0.1)
    dist = np.hypot(r.xy[:, 0], r.xy[:, 1])
    assert np.abs(dist - radius).max() < 1e-6


def test_resample_endpoints_bit_exact():
    p = Polyline([(0.123456789, 1.0), (3.3, 4.7), (9.1, -2.0)])
    r = resample_polyline(p, 0.7)
    assert np.array_equal(r.xy[0], p.xy[0])
    assert np.array_equal(r.xy[-1], p.xy[-1])


def test_resample_idempotent_on_uniform_polyline():
    # uniform by construction: every chord is exactly 0.5 long
    rng = np.random.default_rng(2)
    headings = np.cumsum(rng.uniform(-0.1, 0.1, size=60))
    steps = 0.5 * np.column_stack([np.cos(headings), np.sin(headings)])
    p = Polyline(np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]))
    again = resample_polyline(p, 0.5)
    assert again.n_points == p.n_points
    assert np.abs(again.xy - p.xy).max() < 1e-9


def test_curvature_straight_line_zero():
    p = Polyline([(float(i), 0.0) for i in range(10)])
    assert np.all(curvature_profile(p) == 0.0)


@pytest.mark.parametrize("radius", [5.0, 20.0, 100.0])
def test_curvature_circle_analytic(radius):
    p = Polyline(circle_points(radius, 0.5))
    kappa = curvature_profile(p)
    assert np.abs(kappa - 1.0 / radius).max() < 1e-3 * (1.0 / radius)


def test_curvature_sign_flips_with_orientation():
    ccw = Polyline(circle_points(20.0, 0.5))
    cw = Polyline(ccw.xy[::-1].copy())
    assert curvature_profile(ccw)[5] > 0
    assert curvature_profile(cw)[5] < 0


def test_curvature_needs_three_points():
    with pytest.raises(ValueError):
        curvature_profile(Polyline([(0, 0), (1, 0)]))


def test_curvature_endpoints_copy_neighbors():
    kappa = curvature_profile(Polyline(circle_points(10.0, 0.5)))
    assert kappa[0] == kappa[1]
    assert kappa[-1] == kappa[-2]



