"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (enumeration,
densification, direct formulas) and deliberately avoids the code paths it
is used to verify. The scalar statements of formulas that the package
computes in array form also live here: the planner's `expand` and
`transition_cost`, the warp profiles, the acceleration and jerk stencils
(`accel_of`, `jerk_of`), the refinement system with its gradient and
stationarity residual, and refinement's gain formula (`reference_gain`,
`reference_refine`), written one scalar at a time over dense matrices.
`solve_system` runs the package's solver on that system and takes the
multipliers from the two eliminated stationarity rows, so the residual
and gradient checks test the solver's output against system data formed
independently of it. `heading_normalize` and `trajectory_stats` rotate
one trajectory at a time, the form that `analysis.normalize_headings`
computes for a whole array.

`sample_to_text_v1` and `read_sample_v1` are the v1 sample format,
whose files held the floats that `pretrain.read_sample` now remakes from
the scene, and `reference_sample_text` writes v1 text from first
principles.

`read_manifest` splits a dataset manifest into its parts, each with
its line, so that a test can read the config block and the counts; the
package itself checks a manifest only against the text that
`manifest.manifest_text` writes.

`plan_one`, `refine_one` and `make_scene` are no oracles: they run the
package's batched planner, refinement and scene attempt on one problem
and raise its error, the single-problem form that most tests call.
`with_lane_cache` runs a read under a lane cache that the test holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest

from scenesynth import maps, synthesis
from scenesynth.errors import (
    MapFormatError,
    MaskingError,
    PathOverrunError,
    PlanningError,
    PlanningFailureError,
    RefinementError,
    SceneSynthError,
    ValidationError,
)
from scenesynth.augment import TurnKind, TurnTransformParams, warp_displacement
from scenesynth.geometry import Polyline, rotate
from scenesynth.maps import (
    CITY_FORBIDDEN,
    LaneSegment,
    ReferencePath,
    SceneMap,
    _path_from_polyline,
    make_map,
    read_lines,
    read_text,
)
from scenesynth.planner import CoarsePlan, PlannerParams, astar_plan
from scenesynth.pretrain import PretrainSample, ReconTask
from scenesynth.refine import (
    FINE_DT,
    RefinementParams,
    _quadratic_form,
    refine_trajectory,
    refinement_shape,
)
from scenesynth.synthesis import (
    CSV_HEADER,
    SCENE_SAMPLES,
    GenerationConfig,
    Scene,
    validate_scene,
)


def plan_one(
    path: ReferencePath, s0: float, v0: float, v_d: float, p: PlannerParams
) -> CoarsePlan:
    """`astar_plan` of one problem: its plan, or its PlanningError raised."""
    (plan,) = astar_plan([(path, s0, v0, v_d)], p)
    if isinstance(plan, PlanningError):
        raise plan
    return plan


def refine_one(
    coarse: CoarsePlan, p: RefinementParams, v0: float, s0: float
) -> np.ndarray:
    """`refine_trajectory` of one problem: its arc-lengths, or its
    RefinementError raised."""
    (refined,) = refine_trajectory([(coarse, v0, s0)], p)
    if isinstance(refined, RefinementError):
        raise refined
    return refined


def make_scene(
    base_map: SceneMap,
    rng: np.random.Generator,
    cfg: GenerationConfig,
    scene_id: str = "000000",
    rng_key: str = "unseeded",
    force_augmented: bool | None = None,
) -> Scene:
    """One attempt at one scene: draw, plan and refine alone, finish.
    Raises the attempt's error. Unless `force_augmented` pins it, the
    augmentation coin is the first draw from `rng`; a dataset draws it
    from the scene's own stream and makes the same scene from the same
    draws. The phases are looked up in `synthesis`, where tests patch them."""
    if force_augmented is None:
        force_augmented = bool(rng.random() < cfg.augmented_fraction)
    draft = synthesis.draw_scene(base_map, rng, cfg, scene_id, rng_key, force_augmented)
    return synthesis.generate_scene(draft, synthesis.plan_and_refine([draft], cfg)[0])


def binomial_band(n: int, p: float, z: float = 2.5758293035489004):
    """Two-sided 99% normal-approximation band for a Binomial(n, p) count."""
    mu = n * p
    sigma = math.sqrt(n * p * (1.0 - p))
    return mu - z * sigma, mu + z * sigma


def circle_points(radius: float, step: float, span: float = 2.0 * math.pi * 0.9):
    """Points on a circle of given radius at the given arc spacing."""
    n = int(span * radius / step)
    ang = np.arange(n + 1) * (step / radius)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def wiggly_path(rng: np.random.Generator, length: float = 260.0, max_turn: float = 0.04):
    """A smooth random reference path with small curvature everywhere."""
    n = int(length)
    headings = np.cumsum(rng.uniform(-max_turn, max_turn, size=n))
    xy = np.zeros((n + 1, 2))
    xy[1:, 0] = np.cumsum(np.cos(headings))
    xy[1:, 1] = np.cumsum(np.sin(headings))
    return _path_from_polyline(Polyline(xy), ("synthetic",))


class Node(NamedTuple):
    """One scalar search state: arc-length s (m), velocity v (m/s), time t (s)."""

    s: float
    v: float
    t: float


def expand(n: Node, a: float, dt: float) -> Node:
    """Constant-acceleration transition over one coarse step.

    Returns the raw kinematic result; negative velocities are rejected by
    the search, not here.
    """
    return Node(
        n.s + n.v * dt + 0.5 * a * dt * dt,
        n.v + a * dt,
        n.t + dt,
    )


def plan_of_nodes(nodes, actions, total_cost: float, dt: float) -> CoarsePlan:
    """The CoarsePlan whose states are `nodes`, reached by `actions`."""
    return CoarsePlan(
        tuple(float(n.s) for n in nodes),
        tuple(float(n.v) for n in nodes),
        tuple(actions),
        total_cost,
        dt,
    )


def transition_cost(
    n_next: Node, a: float, path: ReferencePath, p: PlannerParams, v_d: float
) -> float:
    """Cost of arriving at n_next using acceleration a, toward the desired
    velocity v_d."""
    if n_next.s < -1e-9 or n_next.s > path.length + 1e-9:
        raise PathOverrunError(
            f"s={n_next.s:.3f} outside path [0, {path.length:.3f}]"
        )
    kap = np.abs(np.interp(n_next.s, path.cum_s, path.kappa))
    return float(
        p.w1 * a * a
        + p.w2 * kap * n_next.v * n_next.v
        + p.w3 * (n_next.v - v_d) * (n_next.v - v_d)
    )


def enumerate_plan_costs(path, s0, v0, v_d, params):
    """Exhaustive minimum plan cost over every action sequence.

    Vectorized direct transcription of the transition kinematics and cost;
    returns (min cost, chosen action sequence) with infeasible sequences
    (negative velocity or running off the path) removed.
    """
    acts = np.asarray(params.action_set, dtype=float)
    n_steps = int(math.floor(params.t_g / params.dt + 1e-9)) + 1
    n_seq = len(acts) ** n_steps
    idx = np.arange(n_seq)
    seq = np.empty((n_seq, n_steps), dtype=int)
    for col in range(n_steps):
        seq[:, n_steps - 1 - col] = (idx // len(acts) ** col) % len(acts)
    a = acts[seq]  # (n_seq, n_steps)
    s = np.full(n_seq, float(s0))
    v = np.full(n_seq, float(v0))
    total = np.zeros(n_seq)
    alive = np.ones(n_seq, dtype=bool)
    for step in range(n_steps):
        ak = a[:, step]
        s = s + v * params.dt + 0.5 * ak * params.dt * params.dt
        v = v + ak * params.dt
        alive &= (v >= 0.0) & (s <= path.length)
        kap = np.abs(np.interp(s, path.cum_s, path.kappa))
        total = total + (
            params.w1 * ak * ak
            + params.w2 * kap * v * v
            + params.w3 * (v - v_d) * (v - v_d)
        )
    if not alive.any():
        return math.inf, None
    total = np.where(alive, total, np.inf)
    best = int(np.argmin(total))
    return float(total[best]), [float(x) for x in a[best]]


def reference_plan(path, s0, v0, v_d, params):
    """Unpruned layered DP over the action graph from (s0, v0) at t = 0,
    the planner's reference.

    Every layer expands every state, merges candidates on (s, v) rounded at
    1e-9 and keeps the cheapest of each, ties broken by parent then action
    through an explicit five-key lexsort. No cost bound prunes anything.
    Returns the same `CoarsePlan` as `astar_plan` and raises the same
    errors; expansions past the path end count as an overrun.
    """
    acts = np.asarray(params.action_set, dtype=float)
    n_actions = len(acts)
    n_steps = int(math.floor(params.t_g / params.dt + 1e-9)) + 1
    dt = params.dt
    S, V, G = np.array([float(s0)]), np.array([float(v0)]), np.array([0.0])
    trail = []
    overran = False
    for _ in range(n_steps):
        n_states = len(S)
        S2 = (S[:, None] + V[:, None] * dt + 0.5 * acts[None, :] * dt * dt).ravel()
        V2 = (V[:, None] + acts[None, :] * dt).ravel()
        par = np.repeat(np.arange(n_states), n_actions)
        act = np.tile(np.arange(n_actions), n_states)
        over = S2 > path.length
        overran |= bool(over.any())
        feas = (V2 >= 0.0) & ~over
        kap = np.abs(np.interp(S2, path.cum_s, path.kappa))
        a = acts[act]
        G2 = G[par] + (
            params.w1 * a * a
            + params.w2 * kap * V2 * V2
            + params.w3 * (V2 - v_d) * (V2 - v_d)
        )
        if not feas.any():
            if overran:
                raise PathOverrunError("reference: path too short for the horizon")
            raise PlanningFailureError("reference: no feasible expansion")
        S2, V2, G2, par, act = S2[feas], V2[feas], G2[feas], par[feas], act[feas]
        key_s, key_v = np.round(S2, 9), np.round(V2, 9)
        order = np.lexsort((act, par, G2, key_v, key_s))
        key_s, key_v = key_s[order], key_v[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (key_s[1:] != key_s[:-1]) | (key_v[1:] != key_v[:-1])
        sel = order[first]
        S, V, G = S2[sel], V2[sel], G2[sel]
        trail.append((par[sel], act[sel]))
    idx = int(np.lexsort((S, V, G))[0])
    picked = []
    for parents, chosen in reversed(trail):
        picked.append(float(acts[chosen[idx]]))
        idx = int(parents[idx])
    picked.reverse()
    nodes = [Node(float(s0), float(v0), 0.0)]
    for a in picked:
        nodes.append(expand(nodes[-1], a, dt))
    total = sum(
        transition_cost(n, a, path, params, v_d) for n, a in zip(nodes[1:], picked)
    )
    return plan_of_nodes(nodes, picked, total, dt)


def reference_sample_text(
    scene, task: str, rng: np.random.Generator,
    map_fraction: float = 0.7, mask_ratio: float = 0.5,
) -> str:
    """The v1 sample file text for `scene`, from first principles: one
    tuple per segment, a rescan of every segment per masked polyline, and
    one f-string per row. `task` is the CLI's map|traj|combined; `rng`
    is consumed as `mask` consumes it. A map draw on a crop of one lane
    raises MaskingError; `mask` writes the trajectory sample instead."""
    vectors = []
    for pid, lane_id in enumerate(scene.map_crop.sorted_ids()):
        lane = scene.map_crop.lanes[lane_id]
        xy = lane.centerline.xy
        attrs = (float(len(lane.predecessors)), float(len(lane.successors)))
        for i in range(xy.shape[0] - 1):
            vectors.append(
                ("lane", pid, float(xy[i, 0]), float(xy[i, 1]),
                 float(xy[i + 1, 0]), float(xy[i + 1, 1])) + attrs
            )
    traj_id = len(scene.map_crop.lanes)
    xy = scene.trajectory
    t = [float(f"{k * FINE_DT:.1f}") for k in range(len(xy))]  # as the file's text reads
    for i in range(xy.shape[0] - 1):
        vectors.append(
            ("trajectory", traj_id, float(xy[i, 0]), float(xy[i, 1]),
             float(xy[i + 1, 0]), float(xy[i + 1, 1]), float(t[i]), float(t[i + 1]))
        )
    lane_ids = sorted({v[1] for v in vectors if v[0] == "lane"})
    if task == "combined":
        use_map = rng.random() < map_fraction and len(lane_ids) >= 2
    else:
        use_map = task == "map"
    if use_map:
        if len(lane_ids) < 2:
            raise MaskingError(f"map masking needs >= 2 lanes, got {len(lane_ids)}")
        n_mask = max(1, int(math.floor(mask_ratio * len(lane_ids) + 0.5)))
        masked = sorted(int(i) for i in rng.choice(lane_ids, size=n_mask, replace=False))
        task_name = "map_recon"
    else:
        masked = [traj_id]
        task_name = "traj_recon"
    lines = [
        "# format: scenesynth-sample v1",
        f"# task: {task_name}",
        "# masked: " + ";".join(str(pid) for pid in masked),
        "# columns: kind,polyline_id,x0,y0,x1,y1,attr0,attr1",
    ]
    for kind, pid, x0, y0, x1, y1, a0, a1 in vectors:
        if pid not in masked:
            lines.append(f"{kind},{pid},{x0!r},{y0!r},{x1!r},{y1!r},{a0!r},{a1!r}")
    lines.append("# targets")
    for pid in masked:
        seq = [v for v in vectors if v[1] == pid]
        points = [(v[2], v[3]) for v in seq] + [(seq[-1][4], seq[-1][5])]
        lines.extend(f"target,{pid},{x!r},{y!r}" for x, y in points)
    return "\n".join(lines) + "\n"


# the names of the `kind` column's values (`pretrain.LANE`, `TRAJECTORY`)
# in v1 sample files
KIND_NAMES = ("lane", "trajectory")


def sample_to_text_v1(sample) -> str:
    """The v1 sample file text of a `PretrainSample`: its header, the
    visible rows and the target points as floats, one f-string per row
    and one `repr` per number. v1 files held the sample itself; v2 files
    name its scene and the draw, and `pretrain.read_sample` remakes it."""
    lines = [
        "# format: scenesynth-sample v1",
        f"# task: {sample.task.value}",
        "# masked: " + ";".join(str(p) for p in sample.masked),
        "# columns: kind,polyline_id,x0,y0,x1,y1,attr0,attr1",
    ]
    for kind, pid, x0, y0, x1, y1, a0, a1 in sample.visible.tolist():
        lines.append(
            f"{KIND_NAMES[int(kind)]},{int(pid)},{x0!r},{y0!r},{x1!r},{y1!r},{a0!r},{a1!r}"
        )
    lines.append("# targets")
    for pid, points in zip(sample.masked, sample.targets):
        lines.extend(f"target,{pid},{x!r},{y!r}" for x, y in points.tolist())
    return "\n".join(lines) + "\n"


def read_sample_v1(text: str) -> PretrainSample:
    """The `PretrainSample` of v1 sample text, its floats read back
    bit-exactly: the v1 reader, for well-formed text."""
    task = None
    rows: list[list[float]] = []
    target_pts: dict[int, list[tuple[float, float]]] = {}
    for line in text.splitlines():
        if line.startswith("# task:"):
            task = ReconTask(line.partition(":")[2].strip())
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if fields[0] == "target":
            target_pts.setdefault(int(fields[1]), []).append(
                (float(fields[2]), float(fields[3]))
            )
        else:
            rows.append(
                [float(KIND_NAMES.index(fields[0])), float(int(fields[1]))]
                + [float(f) for f in fields[2:]]
            )
    visible = np.array(rows, dtype=float).reshape(-1, 8)
    targets = tuple(np.array(pts) for pts in target_pts.values())
    return PretrainSample(visible, tuple(target_pts), targets, task)


def assert_same_sample(got: PretrainSample, want: PretrainSample) -> None:
    """Bit-identical arrays, the same masked ids and the same task."""
    assert got.task is want.task
    assert got.masked == want.masked
    assert got.visible.shape == want.visible.shape
    assert got.visible.tobytes() == want.visible.tobytes()
    assert len(got.targets) == len(want.targets)
    for a, b in zip(got.targets, want.targets):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def accel_of(s: np.ndarray, dt_fine: float) -> np.ndarray:
    """Central second difference per interior sample, along the last axis."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] < 3:
        raise ValueError(f"need at least 3 samples, got {s.shape[-1]}")
    return (s[..., 2:] - 2.0 * s[..., 1:-1] + s[..., :-2]) / (dt_fine * dt_fine)


def jerk_of(s: np.ndarray, dt_fine: float) -> np.ndarray:
    """Third difference (s[i+2] - 3 s[i+1] + 3 s[i] - s[i-1]) / dt^3, along
    the last axis."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] < 4:
        raise ValueError(f"need at least 4 samples, got {s.shape[-1]}")
    return (s[..., 3:] - 3.0 * s[..., 2:-1] + 3.0 * s[..., 1:-2] - s[..., :-3]) / (
        dt_fine * dt_fine * dt_fine
    )


@dataclass(frozen=True)
class RefinementSystem:
    """Quadratic data: objective x'Qx - 2 q'x + const, constraints A x = b."""

    grid_t: np.ndarray
    Q: np.ndarray
    q: np.ndarray
    const: float
    A: np.ndarray
    b: np.ndarray
    knot_index: np.ndarray
    sc_knots: np.ndarray
    params: RefinementParams
    coarse: CoarsePlan  # the plan whose knots are tracked


def build_refinement_system(
    coarse: CoarsePlan, p: RefinementParams, v0: float, s0: float
) -> RefinementSystem:
    k, n = refinement_shape(p, coarse.dt, len(coarse.s))
    dt = FINE_DT
    grid_t = np.arange(n + 1) * dt

    knot_index = np.arange(1, n // k + 1) * k
    sc_knots = np.array(coarse.s[1 : n // k + 1])
    q = np.zeros(n + 1)
    q[knot_index] += p.omega3 * sc_knots
    const = float(p.omega3 * np.dot(sc_knots, sc_knots))

    A = np.zeros((2, n + 1))
    A[0, 0] = 1.0
    A[1, 0] = -1.0 / dt
    A[1, 1] = 1.0 / dt
    b = np.array([s0, v0])
    return RefinementSystem(
        grid_t, _quadratic_form(p, k, n), q, const, A, b, knot_index, sc_knots, p, coarse
    )


def objective_gradient(x: np.ndarray, sys: RefinementSystem) -> np.ndarray:
    return 2.0 * (sys.Q @ x - sys.q)


def stationarity_residual(x: np.ndarray, lam: np.ndarray, sys: RefinementSystem) -> float:
    """Infinity norm of the stationarity equations, relative to the
    magnitude of the terms involved."""
    grad = objective_gradient(x, sys) + sys.A.T @ lam
    scale = max(
        1.0,
        float(np.abs(2.0 * (sys.Q @ x)).max()),
        float(np.abs(2.0 * sys.q).max(initial=0.0)),
        float(np.abs(sys.A.T @ lam).max()),
    )
    return float(np.abs(grad).max()) / scale


def solve_system(sys: RefinementSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stationarity system through `refine_one`; returns
    (s values, multipliers), the multipliers taken from the two eliminated
    stationarity rows."""
    s0, v0 = sys.b
    x = refine_one(sys.coarse, sys.params, v0=float(v0), s0=float(s0))
    grad = objective_gradient(x, sys)
    return x, np.array([-grad[0] - grad[1], -FINE_DT * grad[1]])


@lru_cache(maxsize=8)
def reference_gain(p, k, n):
    """The gain of `reference_refine`, one list per knot sample kj >= 2:
    column kj - 2 of H^-1, H = Q[2:, 2:] with Q assembled by a loop over
    every stencil entry and H read from its upper triangle. H = L L' is
    factored in Python floats; each column solves H g = e by forward and
    back substitution and takes two polish steps g += H^-1 (e - H g), the
    residual exact in rationals and rounded once per entry."""
    dt = 0.1
    Q = np.zeros((n + 1, n + 1))
    if p.omega1 > 0 and n >= 2:
        c2 = np.array([1.0, -2.0, 1.0]) / (dt * dt)
        for i in range(1, n):
            cols = (i - 1, i, i + 1)
            for a, ca in zip(cols, c2):
                for bcol, cb in zip(cols, c2):
                    Q[a, bcol] += p.omega1 * ca * cb
    if p.omega2 > 0 and n >= 3:
        c3 = np.array([-1.0, 3.0, -3.0, 1.0]) / (dt * dt * dt)
        for i in range(1, n - 1):
            cols = (i - 1, i, i + 1, i + 2)
            for a, ca in zip(cols, c3):
                for bcol, cb in zip(cols, c3):
                    Q[a, bcol] += p.omega2 * ca * cb
    for kj in range(k, n + 1, k):
        Q[kj, kj] += p.omega3

    m = n - 1
    # the band of bandwidth 3, from the upper triangle
    h = [[float(Q[2 + min(a, b), 2 + max(a, b)]) if abs(a - b) <= 3 else 0.0
          for b in range(m)] for a in range(m)]
    L = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(max(0, i - 3), i + 1):
            acc = h[i][j]
            for c in range(max(0, i - 3), j):
                acc -= L[i][c] * L[j][c]
            L[i][j] = acc / L[j][j] if j < i else math.sqrt(acc)

    def solve(r):
        y = list(r)
        for i in range(m):
            for c in range(max(0, i - 3), i):
                y[i] -= L[i][c] * y[c]
            y[i] /= L[i][i]
        for i in reversed(range(m)):
            for r_ in range(i + 1, min(m, i + 4)):
                y[i] -= L[r_][i] * y[r_]
            y[i] /= L[i][i]
        return y

    gain = []
    for kj in range(k, n + 1, k):
        if kj < 2:
            continue
        e = [0.0] * m
        e[kj - 2] = 1.0
        g = solve(e)
        for _ in range(2):
            residual = [
                float(Fraction(e[i]) - sum(
                    Fraction(h[i][c]) * Fraction(g[c])
                    for c in range(max(0, i - 3), min(m, i + 4))
                ))
                for i in range(m)
            ]
            step = solve(residual)
            g = [g[i] + step[i] for i in range(m)]
        gain.append(g)
    return gain


def reference_refine(coarse, p, v0, s0):
    """Refined arc-lengths by the scalar statement of `refine`'s formula,
    with k = coarse.dt / 0.1 fine steps of 0.1 s per coarse step: the
    initial tangent line x_ref plus, for each knot sample kj >= 2 in knot
    order, its mismatch d = omega3 * (sc - x_ref[kj]) times its column of
    `reference_gain`, accumulated one sample at a time. Returns the s
    values only; no checks."""
    dt = 0.1
    k = round(coarse.dt / dt)
    n = (len(coarse.s) - 2) * k
    x = [s0 + i * (v0 * dt) for i in range(n + 1)]
    x[0] = s0
    if n > 1:
        u = [0.0] * (n - 1)
        gains = iter(reference_gain(p, k, n))
        for j, kj in enumerate(range(k, n + 1, k)):
            if kj < 2:
                continue
            d = p.omega3 * (coarse.s[j + 1] - x[kj])
            for i, g in enumerate(next(gains)):
                u[i] += d * g
        for i in range(n - 1):
            x[2 + i] += u[i]
    return np.array(x)


def objective_value(x: np.ndarray, sys: RefinementSystem) -> float:
    """Smoothing-plus-tracking objective evaluated directly from stencils."""
    p = sys.params
    total = 0.0
    if x.size >= 3:
        total += p.omega1 * float(np.sum(accel_of(x, FINE_DT) ** 2))
    if x.size >= 4:
        total += p.omega2 * float(np.sum(jerk_of(x, FINE_DT) ** 2))
    total += p.omega3 * float(np.sum((x[sys.knot_index] - sys.sc_knots) ** 2))
    return total


def reference_scene_text(scene) -> str:
    """Scene file text formatted one numpy scalar at a time, by the path
    that per-lane cached `pt` lines and `.tolist()` rows replaced."""
    lines = [f"# {k}: {v}" for k, v in scene.metadata.items()]
    crop = scene.map_crop
    lines.append(f"# map: city {crop.city}")
    for lane_id in crop.sorted_ids():
        lane = crop.lanes[lane_id]
        lines.append(f"# map: lane {lane_id}")
        for x, y in lane.centerline.xy:
            lines.append(f"# map: pt {x:.9f} {y:.9f}")
        for pred in sorted(lane.predecessors):
            lines.append(f"# map: pred {pred}")
        for succ in sorted(lane.successors):
            lines.append(f"# map: succ {succ}")
    lines.append("TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME")
    for k, (x, y) in enumerate(scene.trajectory):
        t = k * FINE_DT
        lines.append(f"{t:.1f},{scene.scene_id},AGENT,{x:.9f},{y:.9f},{scene.city}")
    return "\n".join(lines) + "\n"


def reference_parse_map_lines(lines, path=None, line_numbers=None) -> SceneMap:
    """The map schema parsed one line at a time, one `strip`/`split`/`float`
    per line, by the loop that the batched `maps.parse_map_lines` replaced.
    Faults name `line_numbers[i]` (default `i + 1`); a lane-level fault
    names the lane's own `lane` line, and so does a graph fault."""
    if line_numbers is None:
        line_numbers = range(1, len(lines) + 1)
    city = "UNKNOWN"
    lanes: list[LaneSegment] = []
    lane_lines: list[int] = []
    cur_id = None
    cur_line = None
    cur_pts: list[tuple[float, float]] = []
    cur_succ: list[str] = []
    cur_pred: list[str] = []

    def flush():
        if cur_id is None:
            return
        if len(cur_pts) < 2:
            raise MapFormatError(
                f"lane {cur_id!r} has {len(cur_pts)} points, need at least 2",
                path,
                cur_line,
            )
        try:
            poly = Polyline(cur_pts)
        except ValueError as exc:
            raise MapFormatError(f"lane {cur_id!r}: {exc}", path, cur_line) from exc
        lanes.append(
            LaneSegment(cur_id, poly, tuple(cur_pred), tuple(cur_succ))
        )
        lane_lines.append(cur_line)

    for lineno, raw in zip(line_numbers, lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "city":
            if len(fields) != 2:
                raise MapFormatError("city line needs one label", path, lineno)
            city = fields[1]
            for c in city:
                if c in CITY_FORBIDDEN:
                    msg = f"city label {city!r} holds {c!r}, a scene and manifest separator"
                    raise MapFormatError(msg, path, lineno)
        elif tag == "lane":
            if len(fields) != 2:
                raise MapFormatError("lane line needs one id", path, lineno)
            flush()
            cur_id = fields[1]
            cur_line = lineno
            cur_pts, cur_succ, cur_pred = [], [], []
        elif tag == "pt":
            if cur_id is None:
                raise MapFormatError("pt before any lane header", path, lineno)
            if len(fields) != 3:
                raise MapFormatError("pt line needs two coordinates", path, lineno)
            try:
                cur_pts.append((float(fields[1]), float(fields[2])))
            except ValueError as exc:
                raise MapFormatError(f"bad coordinate: {line}", path, lineno) from exc
        elif tag in ("succ", "pred"):
            if cur_id is None:
                raise MapFormatError(f"{tag} before any lane header", path, lineno)
            if len(fields) != 2:
                raise MapFormatError(f"{tag} line needs one id", path, lineno)
            (cur_succ if tag == "succ" else cur_pred).append(fields[1])
        else:
            raise MapFormatError(f"unknown directive {tag!r}", path, lineno)
    flush()
    return make_map(city, lanes, path, lane_lines)


def end_slope(p: TurnTransformParams) -> float:
    """Displacement slope past the turn: alpha1 * alpha2 / s_t."""
    return p.alpha1 * p.alpha2 / p.s_t


def q_alpha(s_x: float, alpha1: float, alpha2: float, s_t: float) -> float:
    """Turn-shape profile alpha1 * (s_x / s_t) ** alpha2 on [0, s_t].

    Written in ratio form so q_alpha(s_t) equals alpha1 exactly.
    """
    if not 0.0 <= s_x <= s_t:
        raise ValueError(f"s_x {s_x} outside [0, {s_t}]")
    return alpha1 * (s_x / s_t) ** alpha2


def f_single_turn(s_x: float, p: TurnTransformParams) -> float:
    """Single-turn lateral displacement: zero before the turn, the shape
    profile across it, and its tangent line afterwards (C1 everywhere)."""
    if s_x < 0.0:
        return 0.0
    if s_x <= p.s_t:
        return p.alpha1 * (s_x / p.s_t) ** p.alpha2
    return (s_x - p.s_t) * end_slope(p) + p.alpha1


def f_double_turn(s_x: float, p: TurnTransformParams) -> float:
    """Two opposite turns `beta` apart; flattens to alpha1*alpha2*beta/s_t."""
    if p.kind is not TurnKind.DOUBLE:
        raise ValueError("f_double_turn requires DoubleTurn params")
    return f_single_turn(s_x, p) - f_single_turn(s_x - p.beta, p)


def f_single_turn_slope(s_x: float, p: TurnTransformParams) -> float:
    """Analytic derivative of the single-turn profile."""
    if s_x < 0.0:
        return 0.0
    if s_x <= p.s_t:
        return p.alpha1 * p.alpha2 / p.s_t * (s_x / p.s_t) ** (p.alpha2 - 1.0)
    return end_slope(p)


def reference_apply_transform(m: SceneMap, p) -> SceneMap:
    """The warp one lane at a time, by the loop that the whole-map
    `augment.apply_transform` replaced: rotate each lane into the frame,
    displace its points past the onset, rotate it back, and keep the
    LaneSegment object of a lane with no point past the onset."""
    origin = np.array([p.frame_x, p.frame_y])
    lanes = []
    for lane_id in m.sorted_ids():
        lane = m.lanes[lane_id]
        xy = lane.centerline.xy
        local = rotate(xy - origin, -p.frame_heading)
        touched = local[:, 0] >= p.b
        if touched.any():
            warped = local.copy()
            warped[touched, 1] += warp_displacement(
                local[touched, 0] - p.b, p
            )
            back = rotate(warped, p.frame_heading) + origin
            new_xy = np.where(touched[:, None], back, xy)
            lane = LaneSegment(
                lane.lane_id, Polyline(new_xy), lane.predecessors, lane.successors
            )
        lanes.append(lane)
    out = SceneMap(city=m.city, lanes={ln.lane_id: ln for ln in lanes})
    out.validate()
    return out


def reference_crop_map(m: SceneMap, center, radius: float) -> SceneMap:
    """The crop one lane at a time, by the loop that the whole-map
    `maps.crop_map` replaced."""
    c = np.array(center, dtype=float)
    keep: dict[str, LaneSegment] = {}
    for lane_id, lane in m.lanes.items():
        d2 = ((lane.centerline.xy - c) ** 2).sum(axis=1)
        if (d2 <= radius * radius).any():
            keep[lane_id] = lane
    lanes = [
        LaneSegment(
            lane.lane_id,
            lane.centerline,
            tuple(p for p in lane.predecessors if p in keep),
            tuple(s for s in lane.successors if s in keep),
        )
        for lane in keep.values()
    ]
    return make_map(m.city, lanes)


def reference_read_scene(path) -> Scene:
    """A scene file read one line at a time, by a strict state machine
    over `scene_to_text`'s layout: metadata, then the map block, then the
    header, then the rows. The first line off the layout raises; then the
    content faults in file order: the metadata, the map block (the
    line-by-line map oracle), each row's column count and X, Y numbers,
    the row count, then row by row its TIMESTAMP (the 10 Hz grid at one
    decimal), TRACK_ID, OBJECT_TYPE (`AGENT`) and CITY_NAME, and last
    `validate_scene`, whose fault is raised naming the file.
    Lines end at each "\\n" only: a "\\r" is part of its line."""
    state = "metadata"  # then "map", then "rows"
    metadata: dict[str, str] = {}
    map_lines: list[str] = []
    map_at: list[int] = []
    rows: list[tuple[str, int]] = []  # (text, file line) of each row
    lines = read_text(path, newline="").split("\n")
    if lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if state == "rows":
            rows.append((line, lineno))
        elif line.startswith("# map: "):
            state = "map"
            map_lines.append(line[len("# map: "):])
            map_at.append(lineno)
        elif state == "map":
            if line != CSV_HEADER:
                raise MapFormatError(
                    f"expected a '# map: ' line or the column header, got {line!r}",
                    path,
                    lineno,
                )
            state = "rows"
        else:
            key, sep, value = line[1:].strip().partition(":")
            if not line.startswith("#") or not sep:
                raise MapFormatError(
                    f"expected a '# key: value' line or the map block, got {line!r}",
                    path,
                    lineno,
                )
            metadata[key.strip()] = value.strip()
    if state == "metadata":
        raise MapFormatError("missing map block", path)
    if state == "map":
        raise MapFormatError("missing column header after the map block", path)

    if "scene_id" not in metadata or "city" not in metadata:
        raise MapFormatError("missing scene_id/city metadata", path)
    crop = reference_parse_map_lines(map_lines, path=path, line_numbers=map_at)
    values: list[tuple[float, float]] = []
    for line, lineno in rows:
        fields = line.split(",")
        if len(fields) != 6:
            raise MapFormatError(f"expected 6 columns, got {len(fields)}", path, lineno)
        try:
            values.append((float(fields[3]), float(fields[4])))
        except ValueError as exc:
            raise MapFormatError(f"bad numeric field: {line}", path, lineno) from exc
    if len(rows) != SCENE_SAMPLES:
        raise ValidationError(f"{len(rows)} trajectory rows, expected {SCENE_SAMPLES}", path)
    for k, (line, lineno) in enumerate(rows):
        fields = line.split(",")
        for column, got, want in (
            ("TIMESTAMP", fields[0], f"{k * FINE_DT:.1f}"),
            ("TRACK_ID", fields[1], metadata["scene_id"]),
            ("OBJECT_TYPE", fields[2], "AGENT"),
            ("CITY_NAME", fields[5], metadata["city"]),
        ):
            if got != want:
                raise ValidationError(f"{column} {got!r}, expected {want!r}", path, lineno)
    scene = Scene(
        scene_id=metadata["scene_id"],
        city=metadata["city"],
        map_crop=crop,
        trajectory=np.array(values),
        metadata=metadata,
    )
    try:
        validate_scene(scene)
    except ValidationError as exc:
        raise ValidationError(str(exc), path) from None
    return scene


def pointwise_l1_loop(pred, target):
    """Scalar-loop point-wise L1 used to check the vectorized losses."""
    total = 0.0
    n = 0
    for (px, py), (tx, ty) in zip(pred, target):
        total += abs(px - tx) + abs(py - ty)
        n += 1
    return total / n


def forecast_metrics_loop(preds, truth, threshold):
    """Scalar-loop best-of-k displacement metrics."""
    ades, fdes = [], []
    for mode in preds:
        errs = [math.hypot(px - tx, py - ty) for (px, py), (tx, ty) in zip(mode, truth)]
        ades.append(sum(errs) / len(errs))
        fdes.append(errs[-1])
    best_fde = fdes.index(min(fdes))
    return min(ades), min(fdes), fdes[best_fde] > threshold


def jsd_direct(c1, c2):
    """Jensen-Shannon divergence, log base 2, straight from the definition."""
    p = np.asarray(c1, float) / sum(c1)
    q = np.asarray(c2, float) / sum(c2)
    m = 0.5 * (p + q)
    out = 0.0
    for pi, qi, mi in zip(p, q, m):
        if pi > 0:
            out += 0.5 * pi * math.log2(pi / mi)
        if qi > 0:
            out += 0.5 * qi * math.log2(qi / mi)
    return out


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-trajectory summaries in the rotation-normalized frame."""

    headings: np.ndarray
    endpoint: np.ndarray


def heading_normalize(traj: np.ndarray) -> np.ndarray:
    """Rotate one trajectory about its first point so the initial
    displacement points +x, the per-trajectory form that
    `analysis.normalize_headings` replaced.

    A zero first displacement falls back to the first nonzero one; an
    all-stationary trajectory is an error. Distances are preserved.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.ndim != 2 or traj.shape[1] != 2 or traj.shape[0] < 2:
        raise ValueError("trajectory must be (n >= 2, 2)")
    deltas = np.diff(traj, axis=0)
    norms = np.hypot(deltas[:, 0], deltas[:, 1])
    moving = np.flatnonzero(norms > 1e-12)
    if moving.size == 0:
        raise ValidationError("all-stationary trajectory has no heading")
    dx, dy = deltas[moving[0]]
    ang = math.atan2(dy, dx)
    return rotate(traj - traj[0], -ang) + traj[0]


def trajectory_stats(traj: np.ndarray) -> TrajectoryStats:
    """The step headings, wrapped to (-pi, pi], and the endpoint of one
    trajectory after `heading_normalize`."""
    rotated = heading_normalize(traj)
    deltas = np.diff(rotated, axis=0)
    moving = np.hypot(deltas[:, 0], deltas[:, 1]) > 1e-12
    headings = np.arctan2(deltas[moving, 1], deltas[moving, 0])
    headings = -(np.mod(-headings + math.pi, 2.0 * math.pi) - math.pi)
    return TrajectoryStats(headings, rotated[-1].copy())


def lane_records(path) -> list[str]:
    """The lane records of a scene file's `# map: ` lines, in file order,
    each as `maps.parse_map_lines` cuts it in a generated file: from a
    line that starts with `lane ` to the line before the next, its lines
    joined by newlines."""
    records: list[list[str]] = []
    for line in read_lines(path):
        if not line.startswith("# map: "):
            continue
        if line.startswith("# map: lane "):
            records.append([])
        if records:
            records[-1].append(line[len("# map: "):])
    return ["\n".join(record) for record in records]


class ManifestParts(NamedTuple):
    config: list[tuple[int, str]]  # (line, `key: value`) of each `# config` line
    maps: list[tuple[int, str]]  # (line, text) of each `# maps:` line
    counts: list[tuple[int, str, str]]  # (line, key, value) of each `# count` line
    rows: list[tuple[int, list[str]]]  # (line, comma-split fields) of each row


def read_manifest(path) -> ManifestParts:
    """The parts of the dataset manifest at `path`, each with its file
    line; other `#` lines and blank lines are left out."""
    parts = ManifestParts([], [], [], [])
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.startswith("# config "):
            parts.config.append((lineno, line[len("# config "):]))
        elif line.startswith("# count "):
            key, _, value = line[len("# count "):].partition(":")
            parts.counts.append((lineno, key.strip(), value.strip()))
        elif line.startswith("# maps: "):
            parts.maps.append((lineno, line[len("# maps: "):]))
        elif line.strip() and not line.startswith("#"):
            parts.rows.append((lineno, line.split(",")))
    return parts


def assert_same_map(got: SceneMap, want: SceneMap) -> None:
    """Same city, lane order, point bits and links."""
    assert got.city == want.city
    assert list(got.lanes) == list(want.lanes)
    for a, b in zip(got.lanes.values(), want.lanes.values()):
        assert a.centerline.xy.tobytes() == b.centerline.xy.tobytes()
        assert (a.predecessors, a.successors) == (b.predecessors, b.successors)


def assert_same_scene(got: Scene, want: Scene) -> None:
    """Same metadata, array bits and map."""
    assert (got.scene_id, got.city, got.metadata) == (want.scene_id, want.city, want.metadata)
    assert got.trajectory.tobytes() == want.trajectory.tobytes()
    assert_same_map(got.map_crop, want.map_crop)


def assert_same_outcome(read, reference, *args) -> None:
    """`read(*args)` gives what `reference(*args)` gives: an equal map or
    scene, or a SceneSynthError of the same class, line and message."""
    try:
        want = reference(*args)
    except SceneSynthError as exc:
        with pytest.raises(SceneSynthError) as got:
            read(*args)
        assert type(got.value) is type(exc)
        assert getattr(got.value, "line", None) == getattr(exc, "line", None)
        assert str(got.value) == str(exc)
        return
    got = read(*args)
    if isinstance(want, Scene):
        assert_same_scene(got, want)
    else:
        assert_same_map(got, want)


def with_lane_cache(read, cache: dict):
    """`read` run with `cache` as the lane cache of `maps.parse_map_lines`
    (`maps._LANE_CACHE`); the module's own cache is back after each call."""

    def call(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maps, "_LANE_CACHE", cache)
            return read(*args)

    return call
