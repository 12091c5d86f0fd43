import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    forecast_metrics_loop,
    heading_normalize,
    jsd_direct,
    trajectory_stats,
)
from scenesynth.analysis import (
    Histogram,
    compare_distributions,
    forecast_metrics,
    heading_distribution,
    normalize_headings,
    render_histogram_svg,
    speed_distribution,
    speed_histogram_edges,
    write_endpoint_cloud,
    write_histogram_table,
)
from scenesynth.errors import ValidationError
from scenesynth.fixtures import generate_map_fixture
from scenesynth.refine import FINE_DT
from scenesynth.synthesis import GenerationConfig, generate_dataset, read_scene


def constant_speed_trajectory(speed=10.0, heading=0.0):
    # step-first construction keeps the finite-difference speeds exact
    d = np.arange(50, dtype=float) * (speed * 0.1)
    return np.column_stack([d * math.cos(heading), d * math.sin(heading)])


def test_heading_normalize_along_x_unchanged():
    traj = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
    out = heading_normalize(traj)
    assert np.abs(out - traj).max() < 1e-12


def test_heading_normalize_rotates_y_to_x():
    traj = np.column_stack([np.zeros(20), np.linspace(0, 10, 20)])
    out = heading_normalize(traj)
    assert out[1, 0] > 0
    assert abs(out[1, 1]) < 1e-12
    assert np.abs(out[:, 1]).max() < 1e-9


def test_heading_normalize_zero_first_step_uses_next():
    traj = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 2.0], [0.0, 4.0]])
    out = heading_normalize(traj)
    assert out[2, 0] == pytest.approx(2.0)
    assert abs(out[2, 1]) < 1e-12


def test_heading_normalize_stationary_errors():
    with pytest.raises(ValidationError):
        heading_normalize(np.zeros((5, 2)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_heading_normalize_is_isometry(seed):
    rng = np.random.default_rng(seed)
    traj = np.cumsum(rng.uniform(-1, 1, size=(15, 2)), axis=0)
    if np.hypot(*(traj[1] - traj[0])) <= 1e-12:
        traj[1] += 0.5
    out = heading_normalize(traj)
    d_in = np.linalg.norm(traj[:, None] - traj[None, :], axis=-1)
    d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
    assert np.abs(d_in - d_out).max() < 1e-9


def test_trajectory_stats_headings_wrapped():
    rng = np.random.default_rng(1)
    traj = np.cumsum(rng.uniform(-1, 1, size=(30, 2)), axis=0)
    stats = trajectory_stats(traj)
    assert (stats.headings > -math.pi).all()
    assert (stats.headings <= math.pi).all()
    # initial heading maps to angle zero
    assert abs(stats.headings[0]) < 1e-12


def crafted_trajectories() -> np.ndarray:
    """Edge cases of rotation normalization, each (50, 2): a zero first
    step, out along +x and back at raw headings of -pi and +pi, a first
    step along -x, a random walk, and a first step under the 1e-12 m
    threshold near the origin, where the second step taken relative to
    the first point is not the same float as the step itself."""
    out_and_back = np.concatenate([np.arange(26.0), np.arange(24.0, 0.0, -1.0)])
    tiny = np.zeros(50)
    tiny[26:] = np.where(np.arange(24) % 2, 1e-300, -1e-300)
    start = np.array([0.09438950975437521, 0.6006676972887692])
    turn = np.array([-0.9128577466663447, -0.21839920446296457])
    onward = turn + np.outer(np.arange(48.0), (-1.0, 0.5))
    creep = np.array([start, start + (4e-13, -3e-13), *onward])
    return np.array([
        np.column_stack([np.full(50, 3.0), np.maximum(np.arange(50.0) - 1.0, 0.0) - 2.0]),
        np.column_stack([out_and_back + 7.0, tiny - 1.0]),
        np.column_stack([-np.arange(50.0), np.zeros(50)]),
        np.cumsum(np.random.default_rng(4).uniform(-1, 1, size=(50, 2)), axis=0),
        creep,
    ])


@pytest.fixture(scope="module", params=["mixed", "warped"])
def workload_trajectories(request, tmp_path_factory):
    """The (n, 50, 2) trajectories of a generated 120-scene dataset of the
    paper's warped mix or of an all-warped one, read back."""
    out = tmp_path_factory.mktemp(request.param)
    maps = [generate_map_fixture("corridors", city) for city in ("MIA", "PIT")]
    fraction = {"mixed": GenerationConfig.augmented_fraction, "warped": 1.0}[request.param]
    cfg = GenerationConfig(
        seed=2026, n_scenes=120, output_dir=str(out), augmented_fraction=fraction
    )
    records = generate_dataset(maps, cfg)
    return np.array([
        read_scene(out / rec.filename).trajectory for rec in records if rec.status != "skipped"
    ])


def test_normalize_headings_matches_the_one_trajectory_oracle_bit_for_bit(
    workload_trajectories,
):
    trajectories = np.concatenate([crafted_trajectories(), workload_trajectories])
    headings, endpoints = normalize_headings(trajectories)
    stats = [trajectory_stats(traj) for traj in trajectories]
    want = np.concatenate([one.headings for one in stats])
    assert headings.tobytes() == want.tobytes()
    assert endpoints.tobytes() == np.array([one.endpoint for one in stats]).tobytes()
    h = heading_distribution(headings)
    assert np.array_equal(h.counts, np.histogram(want, bins=h.edges)[0])
    speeds = np.concatenate(
        [np.hypot(*np.diff(traj, axis=0).T) / FINE_DT for traj in trajectories]
    )
    h = speed_distribution(trajectories)
    assert np.array_equal(h.counts, np.histogram(speeds, bins=h.edges)[0])
    # the out-and-back trajectory reaches the wrap point from both sides
    assert (stats[1].headings[25:] == math.pi).all()
    # an all-stationary trajectory raises the oracle's error, naming its index
    still = np.insert(trajectories, 2, np.full((50, 2), 4.0), axis=0)
    with pytest.raises(ValidationError) as want:
        trajectory_stats(still[2])
    with pytest.raises(ValidationError) as got:
        normalize_headings(still)
    assert got.value.path is None
    assert str(got.value) == f"trajectory 2: {want.value}"


def test_speed_distribution_constant_scene_single_bin():
    h = speed_distribution(constant_speed_trajectory(10.0)[None])
    occupied = np.flatnonzero(h.counts)
    assert occupied.tolist() == [20]  # [10.0, 10.5)
    assert h.counts[20] == 49


def test_speed_distribution_mass_equals_samples():
    h = speed_distribution(np.array([constant_speed_trajectory(v) for v in (3.0, 8.0, 14.0)]))
    assert h.total == 3 * 49


def test_speed_distribution_needs_scenes():
    with pytest.raises(ValueError):
        speed_distribution(np.empty((0, 50, 2)))


def test_heading_distribution_straight_scene_at_zero():
    headings, _ = normalize_headings(constant_speed_trajectory(10.0, heading=1.1)[None])
    h = heading_distribution(headings)
    centers = 0.5 * (h.edges[:-1] + h.edges[1:])
    assert abs(centers[np.argmax(h.counts)]) < math.pi / 36


def test_compare_identical_histograms():
    h = Histogram(speed_histogram_edges(), np.arange(60))
    rep = compare_distributions(h, h)
    assert rep.overlap == 1.0
    assert rep.jsd == 0.0


def test_compare_disjoint_histograms():
    edges = speed_histogram_edges()
    c1 = np.zeros(60, dtype=int)
    c2 = np.zeros(60, dtype=int)
    c1[:10] = 5
    c2[30:40] = 7
    rep = compare_distributions(Histogram(edges, c1), Histogram(edges, c2))
    assert rep.overlap == 0.0
    assert rep.jsd == 1.0


def test_compare_matches_direct_formula():
    rng = np.random.default_rng(5)
    edges = speed_histogram_edges()
    for _ in range(20):
        c1 = rng.integers(0, 50, size=60)
        c2 = rng.integers(0, 50, size=60)
        if c1.sum() == 0 or c2.sum() == 0:
            continue
        rep = compare_distributions(Histogram(edges, c1), Histogram(edges, c2))
        assert rep.jsd == pytest.approx(jsd_direct(c1, c2), abs=1e-12)
        assert 0.0 <= rep.jsd <= 1.0
        overlap = sum(min(a / c1.sum(), b / c2.sum()) for a, b in zip(c1, c2))
        assert rep.overlap == pytest.approx(overlap, abs=1e-12)


def test_compare_is_symmetric_exactly():
    rng = np.random.default_rng(6)
    edges = speed_histogram_edges()
    c1 = rng.integers(0, 50, size=60)
    c2 = rng.integers(0, 50, size=60)
    r12 = compare_distributions(Histogram(edges, c1), Histogram(edges, c2))
    r21 = compare_distributions(Histogram(edges, c2), Histogram(edges, c1))
    assert r12.jsd == r21.jsd
    assert r12.overlap == r21.overlap


def test_compare_rejects_binning_mismatch():
    h1 = Histogram(speed_histogram_edges(), np.ones(60, dtype=int))
    h2 = Histogram(np.arange(121) * 0.25, np.ones(120, dtype=int))
    with pytest.raises(ValidationError):
        compare_distributions(h1, h2)


def test_forecast_metrics_exact_mode():
    truth = np.column_stack([np.arange(30.0), np.zeros(30)])
    rng = np.random.default_rng(2)
    preds = [truth + rng.normal(size=truth.shape) for _ in range(5)] + [truth]
    m = forecast_metrics(preds, truth)
    assert m.min_ade == 0.0
    assert m.min_fde == 0.0
    assert m.missed is False


def test_forecast_metrics_uniform_offset_boundary():
    truth = np.column_stack([np.arange(30.0), np.zeros(30)])
    best = truth + np.array([2.0, 0.0])
    far = truth + np.array([50.0, 0.0])
    m = forecast_metrics([best] + [far] * 5, truth, miss_threshold=2.0)
    assert m.min_ade == pytest.approx(2.0)
    assert m.min_fde == pytest.approx(2.0)
    assert m.missed is False  # exactly at the threshold is a hit
    m2 = forecast_metrics([best] + [far] * 5, truth, miss_threshold=1.99)
    assert m2.missed is True


def test_forecast_metrics_match_loop_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        truth = rng.normal(size=(n, 2))
        preds = [rng.normal(size=(n, 2)) for _ in range(6)]
        m = forecast_metrics(preds, truth)
        ade, fde, missed = forecast_metrics_loop(preds, truth, 2.0)
        assert m.min_ade == pytest.approx(ade, abs=1e-12)
        assert m.min_fde == pytest.approx(fde, abs=1e-12)
        assert m.missed == missed


def test_forecast_metrics_mode_count_checked():
    truth = np.zeros((10, 2))
    with pytest.raises(ValueError):
        forecast_metrics([truth] * 5, truth)


def test_forecast_metrics_min_bounds():
    rng = np.random.default_rng(12)
    truth = rng.normal(size=(20, 2))
    preds = [rng.normal(size=(20, 2)) for _ in range(6)]
    m = forecast_metrics(preds, truth)
    ades = [np.hypot(*(p - truth).T).mean() for p in preds]
    fdes = [float(np.hypot(*(p[-1] - truth[-1]))) for p in preds]
    assert all(m.min_ade <= a + 1e-12 for a in ades)
    assert m.min_fde <= max(fdes)


def test_histogram_table_roundtrip(tmp_path):
    h = Histogram(speed_histogram_edges(), np.arange(60))
    f = tmp_path / "hist.csv"
    write_histogram_table(h, f)
    rows = f.read_text().split("\n")
    assert rows[0] == "bin_lo,bin_hi,count"
    assert rows[-1] == ""  # the last row ends in a newline
    lo, hi, counts = zip(*(row.split(",") for row in rows[1:-1]))
    assert np.array_equal([float(v) for v in lo], h.edges[:-1])
    assert np.array_equal([float(v) for v in hi], h.edges[1:])
    assert list(counts) == [str(c) for c in h.counts]


def test_empty_histogram_table_headers_only(tmp_path):
    f = tmp_path / "empty.csv"
    write_histogram_table(Histogram(np.zeros(1), np.zeros(0, dtype=int)), f)
    assert f.read_text() == "bin_lo,bin_hi,count\n"


def test_endpoint_cloud_roundtrip(tmp_path):
    pts = np.random.default_rng(1).normal(size=(25, 2))
    f = tmp_path / "cloud.csv"
    write_endpoint_cloud(pts, f)
    rows = f.read_text().strip().split("\n")
    assert rows[0] == "x,y"
    back = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.array_equal(back, pts)


def test_rendered_svg_is_valid_xml(tmp_path):
    h = Histogram(speed_histogram_edges(), np.random.default_rng(0).integers(0, 20, 60))
    f = tmp_path / "hist.svg"
    render_histogram_svg(h, f, title="speeds")
    root = ET.parse(f).getroot()
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("rect") for child in root)


def test_generated_speeds_span_sampling_range(dataset_1k):
    # speeds across a 1000-scene run cover the sampled desired-velocity
    # range with slack on both sides from the initial-speed spread
    records, _, cfg, _ = dataset_1k
    trajectories = np.array([
        read_scene(Path(cfg.output_dir) / rec.filename).trajectory
        for rec in records[:400]
        if rec.status != "skipped"
    ])
    h = speed_distribution(trajectories)
    occupied = h.counts > 0
    lo_bin = int(np.searchsorted(h.edges, 5.0))
    hi_bin = int(np.searchsorted(h.edges, 16.0)) - 1
    assert occupied[lo_bin:hi_bin].all()
