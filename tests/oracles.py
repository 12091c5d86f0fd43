"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (enumeration,
densification, direct formulas) and deliberately avoids the code paths it
is used to verify.
"""

from __future__ import annotations

import math

import numpy as np

from scenesynth.errors import MaskingError, PathOverrunError, PlanningFailureError
from scenesynth.geometry import Polyline
from scenesynth.maps import _path_from_polyline
from scenesynth.planner import CoarsePlan, expand, transition_cost


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
    return _path_from_polyline(Polyline(xy), ("synthetic",), 1.0)


def enumerate_plan_costs(path, s0, v0, params):
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
        kap = np.interp(s, path.cum_s, path.kappa)
        if params.abs_curvature:
            kap = np.abs(kap)
        total = total + (
            params.w1 * ak * ak
            + params.w2 * kap * v * v
            + params.w3 * (v - params.v_d) * (v - params.v_d)
        )
    if not alive.any():
        return math.inf, None
    total = np.where(alive, total, np.inf)
    best = int(np.argmin(total))
    return float(total[best]), [float(x) for x in a[best]]


def reference_plan(path, init, params):
    """Unpruned layered DP over the action graph, the planner's reference.

    Every layer expands every state, merges candidates on (s, v) rounded at
    1e-9 and keeps the cheapest of each, ties broken by parent then action
    through an explicit five-key lexsort. No cost bound prunes anything.
    Returns the same `CoarsePlan` as `astar_plan` and raises the same
    errors; expansions past the path end count as an overrun.
    """
    acts = np.asarray(params.action_set, dtype=float)
    n_actions = len(acts)
    n_steps = int(math.floor((params.t_g - init.t) / params.dt + 1e-9)) + 1
    dt = params.dt
    S, V, G = np.array([init.s]), np.array([init.v]), np.array([0.0])
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
        kap = np.interp(S2, path.cum_s, path.kappa)
        if params.abs_curvature:
            kap = np.abs(kap)
        a = acts[act]
        G2 = G[par] + (
            params.w1 * a * a
            + params.w2 * kap * V2 * V2
            + params.w3 * (V2 - params.v_d) * (V2 - params.v_d)
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
    nodes = [init]
    for a in picked:
        nodes.append(expand(nodes[-1], a, dt))
    total = sum(transition_cost(n, a, path, params) for n, a in zip(nodes[1:], picked))
    return CoarsePlan(tuple(nodes), tuple(picked), total)


def reference_sample_text(
    scene, task: str, rng: np.random.Generator,
    map_fraction: float = 0.7, mask_ratio: float = 0.5,
) -> str:
    """Sample file text for `scene` by the per-segment path the array code
    in `pretrain` replaced: one tuple per segment, a rescan of every
    segment per masked polyline, and one f-string per row. `task` is the
    CLI's map|traj|combined; `rng` is consumed as `mask` consumes it."""
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
    xy, t = scene.trajectory, scene.timestamps
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
        n_mask = int(math.floor(mask_ratio * len(lane_ids) + 0.5))
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
