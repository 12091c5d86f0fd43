"""Velocity planning along a reference path.

The search space is (arc-length, velocity, time) with a fixed acceleration
action set applied over a coarse time step. Transitions pay for actuation,
curvature-weighted speed, and deviation from the desired velocity; the
minimum-cost action sequence whose terminal node first passes the horizon
becomes the coarse trajectory.

The search is a layered dynamic program: states are expanded one time
layer at a time and merged on exact (arc-length, velocity) agreement, so
the returned plan is the true optimum over the reachable action graph.
Merging uses keys rounded at 1e-9 purely to absorb floating-point noise.
When all transition costs are nonnegative (the default absolute-curvature
mode), a beam pass through the same layer loop first bounds the optimum,
and the exact pass discards states costlier than that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PathOverrunError, PlanningError, PlanningFailureError
from .geometry import Point2
from .maps import ReferencePath

ACTION_RANGE = (-2.0, 1.0)
DEFAULT_ACTION_SET = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
# states per layer in the bounding beam pass; 16, 32 and 64 time the same
BEAM_WIDTH = 32


@dataclass(frozen=True)
class PlannerNode:
    """One search state: arc-length s (m), velocity v (m/s), time t (s)."""

    s: float
    v: float
    t: float


@dataclass(frozen=True)
class PlannerParams:
    action_set: tuple[float, ...] = DEFAULT_ACTION_SET
    dt: float = 0.5
    w1: float = 5.0
    w2: float = 5.0
    w3: float = 1.0
    v_d: float = 10.0
    t_g: float = 5.0
    abs_curvature: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.t_g <= 0:
            raise ValueError("dt and t_g must be positive")
        if not self.action_set:
            raise ValueError("action set must not be empty")
        for a in self.action_set:
            if not ACTION_RANGE[0] <= a <= ACTION_RANGE[1]:
                raise ValueError(f"action {a} outside {ACTION_RANGE}")
        if min(self.w1, self.w2, self.w3) < 0:
            raise ValueError("cost weights must be nonnegative")


@dataclass(frozen=True)
class CoarsePlan:
    """Planned nodes plus the actions that connect them.

    nodes[i+1] is exactly expand(nodes[i], actions[i], dt), and total_cost
    is the plain sum of the per-transition costs.
    """

    nodes: tuple[PlannerNode, ...]
    actions: tuple[float, ...]
    total_cost: float

    @property
    def dt(self) -> float:
        return self.nodes[1].t - self.nodes[0].t

    def s_values(self) -> np.ndarray:
        return np.array([n.s for n in self.nodes])

    def times(self) -> np.ndarray:
        return np.array([n.t for n in self.nodes])


def expand(n: PlannerNode, a: float, dt: float) -> PlannerNode:
    """Constant-acceleration transition over one coarse step.

    Returns the raw kinematic result; negative velocities are rejected by
    the search, not here.
    """
    return PlannerNode(
        n.s + n.v * dt + 0.5 * a * dt * dt,
        n.v + a * dt,
        n.t + dt,
    )


def transition_cost(
    n_next: PlannerNode, a: float, path: ReferencePath, p: PlannerParams
) -> float:
    """Cost of arriving at n_next using acceleration a."""
    if n_next.s < -1e-9 or n_next.s > path.length + 1e-9:
        raise PathOverrunError(
            f"s={n_next.s:.3f} outside path [0, {path.length:.3f}]"
        )
    kap = np.interp(n_next.s, path.cum_s, path.kappa)
    if p.abs_curvature:
        kap = np.abs(kap)
    return float(
        p.w1 * a * a
        + p.w2 * kap * n_next.v * n_next.v
        + p.w3 * (n_next.v - p.v_d) * (n_next.v - p.v_d)
    )


def _n_steps(init_t: float, p: PlannerParams) -> int:
    """Number of transitions until time first exceeds the horizon."""
    if p.t_g <= init_t:
        raise ValueError(f"horizon t_g={p.t_g} does not exceed init time {init_t}")
    return int(math.floor((p.t_g - init_t) / p.dt + 1e-9)) + 1


def _search(path, init, p, actions, n_steps, ub, beam):
    """Expand `n_steps` layers from `init`; returns the last layer's
    (S, V, G) and a trail of one flat `parent * n_actions + action` array
    per layer.

    With `beam > 0` each layer keeps its `beam` cheapest feasible states,
    unmerged. With `beam == 0` states are merged on (s, v) rounded at 1e-9,
    keeping the cheapest; the stable sort keeps candidate order, which is
    (parent, action), among equal costs. States costlier than `ub` are
    dropped.
    """
    length = path.length
    half_a_dt2 = 0.5 * actions * p.dt * p.dt
    a_dt = actions * p.dt
    a_cost = p.w1 * actions * actions
    S = np.array([init.s])
    V = np.array([init.v])
    G = np.array([0.0])
    trail: list[np.ndarray] = []
    overrun_pruned = False

    for _ in range(n_steps):
        # (state, action) grids; the flat index is parent * n_actions + action
        S2 = S[:, None] + V[:, None] * p.dt + half_a_dt2
        V2 = V[:, None] + a_dt
        over = S2 > length
        feas = (V2 >= 0.0) & ~over
        if over.any():
            overrun_pruned = True
        kap = np.interp(S2, path.cum_s, path.kappa)
        if p.abs_curvature:
            kap = np.abs(kap)
        dv = V2 - p.v_d
        G2 = G[:, None] + (a_cost + p.w2 * kap * V2 * V2 + p.w3 * dv * dv)
        if math.isfinite(ub):
            feas &= G2 <= ub + 1e-9
        if not feas.any():
            if overrun_pruned:
                raise PathOverrunError(
                    f"path of {length:.1f} m too short for the horizon"
                )
            raise PlanningFailureError("all expansions pruned before the horizon")
        idx = feas.ravel().nonzero()[0]
        S2, V2, G2 = S2.take(idx), V2.take(idx), G2.take(idx)

        if beam:
            sel = np.argpartition(G2, min(beam, len(G2)) - 1)[:beam]
        else:
            key_s = np.round(S2, 9)
            key_v = np.round(V2, 9)
            order = np.lexsort((G2, key_v, key_s))
            key_s, key_v = key_s[order], key_v[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = (key_s[1:] != key_s[:-1]) | (key_v[1:] != key_v[:-1])
            sel = order[first]
        S, V, G = S2[sel], V2[sel], G2[sel]
        trail.append(idx[sel])
    return S, V, G, trail


def astar_plan(path: ReferencePath, init: PlannerNode, p: PlannerParams) -> CoarsePlan:
    """Minimum-cost action sequence whose last node first passes t_g.

    A layered DP, not A*; the name is kept for its callers. Expansions with
    negative velocity are pruned; expansions past the end of the path are
    pruned and, if they starve the search, reported as a path overrun.
    Ties on terminal cost break toward lower velocity, then lower
    arc-length.

    With nonnegative costs, a beam pass of `BEAM_WIDTH` states per layer
    runs first; the cheapest plan it finds is feasible, so its cost `ub`
    bounds the optimum, and the exact pass drops states costlier than
    `ub + 1e-9`. A state's cost never falls along a path, so a dropped
    state could not have won a merge or the final pick: plan and bytes are
    those of the unpruned search. If the beam pass fails, nothing is
    dropped.
    """
    if init.v < 0:
        raise ValueError(f"initial velocity must be nonnegative, got {init.v}")
    if init.t < 0:
        raise ValueError(f"initial time must be nonnegative, got {init.t}")
    length = path.length
    if init.s < 0 or init.s > length:
        raise PathOverrunError(f"initial s={init.s:.3f} outside [0, {length:.3f}]")
    actions = np.asarray(p.action_set, dtype=float)
    n_actions = len(actions)
    n_steps = _n_steps(init.t, p)

    ub = math.inf
    if p.abs_curvature:
        try:
            G = _search(path, init, p, actions, n_steps, ub, BEAM_WIDTH)[2]
            ub = float(G.min())
        except PlanningError:
            pass
    S, V, G, trail = _search(path, init, p, actions, n_steps, ub, 0)

    idx = int(np.lexsort((S, V, G))[0])
    picked: list[float] = []
    for flat in reversed(trail):
        idx, ai = divmod(int(flat[idx]), n_actions)
        picked.append(float(actions[ai]))
    picked.reverse()
    nodes = [init]
    for a in picked:
        nodes.append(expand(nodes[-1], a, p.dt))
    costs = (transition_cost(n, a, path, p) for n, a in zip(nodes[1:], picked))
    return CoarsePlan(tuple(nodes), tuple(picked), sum(costs))


def plan_to_global(plan: CoarsePlan, path: ReferencePath) -> list[tuple[float, Point2]]:
    """Interpolate plan arc-lengths onto the path polyline."""
    s = plan.s_values()
    xy = path.xy_at(s)
    return [
        (node.t, Point2(float(x), float(y)))
        for node, (x, y) in zip(plan.nodes, xy)
    ]


def sample_speed_targets(
    rng: np.random.Generator, v_d_range: tuple[float, float]
) -> tuple[float, float]:
    """Draw a desired velocity and a consistent initial velocity."""
    v_d = float(rng.uniform(*v_d_range))
    v0 = max(0.0, float(rng.uniform(0.8 * v_d, 1.2 * v_d)))
    return v_d, v0
