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

`astar_plan` plans a batch of scenes at once, as the dataset driver asks
for a whole round of drafts: each layer of each pass is one set of array
operations over every scene, which saves the per-call numpy overhead that
dominates a single small search. A scene's plan, and so every output
byte, does not depend on which scenes share its batch; `plan_one` plans
one scene through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PathOverrunError, PlanningError, PlanningFailureError
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


class _Batch:
    """The scenes of one `astar_plan` call, as per-scene arrays.

    Every path's `cum_s` is a prefix of the grid `arange(n) * spacing`, so
    one `searchsorted` on the longest grid finds the curvature segment of
    any state of any scene; `kappa` and `slope` are per-scene tables on
    that grid, padded to its length.
    """

    def __init__(self, paths, p: PlannerParams, v_d: np.ndarray):
        self.p = p
        self.actions = np.asarray(p.action_set, dtype=float)
        self.half_a_dt2 = 0.5 * self.actions * p.dt * p.dt
        self.a_dt = self.actions * p.dt
        self.a_cost = p.w1 * self.actions * self.actions
        self.v_d = v_d
        self.length = np.array([path.length for path in paths])
        sizes = [len(path.cum_s) for path in paths]
        self.grid = np.arange(max(sizes)) * paths[0].spacing
        self.last = np.array(sizes) - 1
        kappa = np.zeros((len(paths), len(self.grid)))
        for row, path, n in zip(kappa, paths, sizes):
            if not (path.cum_s == self.grid[:n]).all():
                raise ValueError("paths planned together must share one uniform grid")
            row[:n] = path.kappa
        # np.interp's slope on each segment, (fp[j+1] - fp[j]) / (xp[j+1] - xp[j])
        self.slope = np.zeros_like(kappa)
        self.slope[:, :-1] = np.diff(kappa, axis=1) / np.diff(self.grid)
        self.kappa = kappa

    def curvature(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """`np.interp(x, cum_s, kappa)` on the path of each x's row, bit for
        bit: numpy's `slope * (x - xp[j]) + fp[j]`, but `fp[j]` itself at a
        grid point, the end value at or past the last point and the first
        value before the first."""
        j = np.searchsorted(self.grid, x, side="right") - 1
        last = self.last[rows]
        jc = np.minimum(np.maximum(j, 0), last)
        flat = rows * self.kappa.shape[1] + jc
        y = self.kappa.take(flat)
        xp = self.grid.take(jc)
        inner = self.slope.take(flat) * (x - xp) + y
        return np.where((x == xp) | (jc == last) | (j < 0), y, inner)

    def expand(self, S, V, G, rows):
        """Every action from every state: (S2, V2, G2, over, feas) on grids
        of shape `S.shape + (n_actions,)`; `rows` gives each state's scene,
        shaped to broadcast against those grids."""
        p = self.p
        S2 = S[..., None] + V[..., None] * p.dt + self.half_a_dt2
        V2 = V[..., None] + self.a_dt
        over = S2 > self.length[rows]
        feas = (V2 >= 0.0) & ~over
        kap = self.curvature(S2, rows)
        if p.abs_curvature:
            kap = np.abs(kap)
        dv = V2 - self.v_d[rows]
        G2 = G[..., None] + (self.a_cost + p.w2 * kap * V2 * V2 + p.w3 * dv * dv)
        return S2, V2, G2, over, feas

    def replay(self, S, V, t0: float, rows, picked):
        """The nodes and total costs of the plans that take actions
        `picked` (plans, layers) from states `S`, `V` at time `t0`, the
        plans' scenes being `rows`, one layer at a time: per plan, lists
        of (s, v, t) floats, and the costs as one array. Each layer takes
        the expression order of `expand` and `transition_cost` and the
        costs add up from the first layer, so plan and cost are those of
        replaying the plan node by node."""
        p = self.p
        n_plans, n_steps = picked.shape
        s = np.empty((n_plans, n_steps + 1))
        v = np.empty_like(s)
        t = np.empty_like(s)
        s[:, 0], v[:, 0], t[:, 0] = S, V, t0
        total = np.zeros(n_plans)
        for k in range(n_steps):
            a = picked[:, k]
            s[:, k + 1] = s[:, k] + v[:, k] * p.dt + 0.5 * a * p.dt * p.dt
            v[:, k + 1] = v[:, k] + a * p.dt
            t[:, k + 1] = t[:, k] + p.dt
            kap = self.curvature(s[:, k + 1], rows)
            if p.abs_curvature:
                kap = np.abs(kap)
            vk, dv = v[:, k + 1], v[:, k + 1] - self.v_d[rows]
            total = total + (p.w1 * a * a + p.w2 * kap * vk * vk + p.w3 * dv * dv)
        return zip(s.tolist(), v.tolist(), t.tolist()), total

    def beam_bounds(self, S, V, n_steps: int, beam: int) -> np.ndarray:
        """The cheapest plan cost of each scene when each layer keeps only
        its `beam` cheapest feasible states, unmerged; inf where a layer has
        none. States are padded `(scene, state)` arrays, and an infeasible
        or padding state costs inf."""
        n = len(S)
        rows = np.arange(n)[:, None]
        S, V, G = S[:, None], V[:, None], np.zeros((n, 1))
        for _ in range(n_steps):
            S2, V2, G2, _, feas = self.expand(S, V, G, rows[:, :, None])
            G2 = np.where(feas, G2, np.inf).reshape(n, -1)
            keep = min(beam, G2.shape[1])
            sel = np.argpartition(G2, keep - 1, axis=1)[:, :keep]
            sel += rows * G2.shape[1]
            S, V, G = S2.take(sel), V2.take(sel), G2.take(sel)
        return G.min(axis=1)

    def exact(self, S, V, n_steps: int, ub: np.ndarray):
        """The merged layered DP of every scene, on flat state arrays sorted
        by scene. Returns `(scenes, picks, trail, errors)`: the scenes that
        reach the last layer and the index of each one's pick in it, one
        flat `parent * n_actions + action` array per layer, and
        `{scene: PlanningError}` for the scenes that starve."""
        n_actions = len(self.actions)
        n = len(S)
        scene = np.arange(n)
        G = np.zeros(n)
        bound = ub + 1e-9
        overrun = np.zeros(n, dtype=bool)
        alive = np.ones(n, dtype=bool)
        errors: dict[int, PlanningError] = {}
        trail: list[np.ndarray] = []
        for _ in range(n_steps):
            S2, V2, G2, over, feas = self.expand(S, V, G, scene[:, None])
            overrun[scene[over.any(axis=1)]] = True
            feas &= G2 <= bound[scene][:, None]
            idx = feas.ravel().nonzero()[0]
            cand_scene = scene[idx // n_actions]
            starved = alive.copy()
            starved[cand_scene] = False
            for b in np.flatnonzero(starved).tolist():
                if overrun[b]:
                    errors[b] = PathOverrunError(
                        f"path of {self.length[b]:.1f} m too short for the horizon"
                    )
                else:
                    errors[b] = PlanningFailureError("all expansions pruned before the horizon")
            alive &= ~starved
            S2, V2, G2 = S2.take(idx), V2.take(idx), G2.take(idx)
            # merge on (scene, s, v) rounded at 1e-9, keeping the cheapest; the
            # stable sort keeps each scene's (parent, action) candidate order
            key_s = np.round(S2, 9)
            key_v = np.round(V2, 9)
            order = np.lexsort((G2, key_v, key_s, cand_scene))
            cand_scene, key_s, key_v = cand_scene[order], key_s[order], key_v[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = (
                (cand_scene[1:] != cand_scene[:-1])
                | (key_s[1:] != key_s[:-1])
                | (key_v[1:] != key_v[:-1])
            )
            sel = order[first]
            S, V, G, scene = S2[sel], V2[sel], G2[sel], cand_scene[first]
            trail.append(idx[sel])
        # per scene, the cheapest state, then the slowest, then the nearest
        order = np.lexsort((S, V, G, scene))
        first = np.ones(len(order), dtype=bool)
        first[1:] = scene[order[1:]] != scene[order[:-1]]
        picks = order[first]
        return scene[picks], picks, trail, errors


def astar_plan(problems) -> list[CoarsePlan | PlanningError]:
    """For each `(path, init, params)` problem, the minimum-cost action
    sequence whose last node first passes t_g, or the PlanningError that
    ends its search.

    A layered DP, not A*; the name is kept for its callers. Expansions with
    negative velocity are pruned; expansions past the end of the path are
    pruned and, if they starve a scene's search, reported as a path
    overrun. Ties on terminal cost break toward lower velocity, then lower
    arc-length.

    All problems run together: one beam pass over padded `(scene, state)`
    arrays, then one exact pass over flat state arrays that carry a scene
    key, merged with `lexsort((G2, key_v, key_s, scene))`. The problems
    must agree in their initial time, path grid spacing and every
    parameter but `v_d`. With nonnegative costs, the beam pass keeps `BEAM_WIDTH` states per
    scene and layer; the cheapest plan it finds is feasible, so its cost
    `ub` bounds that scene's optimum, and the exact pass drops the scene's
    states costlier than `ub + 1e-9`. A state's cost never falls along a
    path, so a dropped state could not have won a merge or the final pick:
    each plan, and its bytes, are those of the unpruned single-scene
    search, whatever else shares the batch (a tie at the beam cut may
    change `ub`, never the plan). A scene whose beam pass fails drops
    nothing.
    """
    out: list[CoarsePlan | PlanningError | None] = [None] * len(problems)
    live: list[int] = []  # problems that start on their path
    for k, (path, init, p) in enumerate(problems):
        if init.v < 0:
            raise ValueError(f"initial velocity must be nonnegative, got {init.v}")
        if init.t < 0:
            raise ValueError(f"initial time must be nonnegative, got {init.t}")
        head = problems[0]
        if init.t != head[1].t or (p != head[2] and replace(p, v_d=head[2].v_d) != head[2]):
            raise ValueError("problems planned together may differ only in v_d")
        if init.s < 0 or init.s > path.length:
            out[k] = PathOverrunError(
                f"initial s={init.s:.3f} outside [0, {path.length:.3f}]"
            )
        else:
            live.append(k)
    if not live:
        return out
    p = problems[0][2]
    n_steps = _n_steps(problems[0][1].t, p)
    batch = _Batch(
        [problems[k][0] for k in live], p, np.array([problems[k][2].v_d for k in live])
    )
    S = np.array([problems[k][1].s for k in live])
    V = np.array([problems[k][1].v for k in live])
    ub = np.full(len(live), np.inf)
    if p.abs_curvature:
        ub = batch.beam_bounds(S, V, n_steps, BEAM_WIDTH)
    scenes, idx, trail, errors = batch.exact(S, V, n_steps, ub)
    for b, exc in errors.items():
        out[live[b]] = exc

    chosen = np.empty((len(idx), n_steps), dtype=np.intp)
    for layer in range(n_steps - 1, -1, -1):
        idx, chosen[:, layer] = np.divmod(trail[layer][idx], len(batch.actions))
    picked = batch.actions[chosen]
    nodes, costs = batch.replay(S[scenes], V[scenes], problems[0][1].t, scenes, picked)
    for b, (s, v, t), acts, cost in zip(
        scenes.tolist(), nodes, picked.tolist(), costs.tolist()
    ):
        init = problems[live[b]][1]
        tail = map(PlannerNode, s[1:], v[1:], t[1:])
        out[live[b]] = CoarsePlan((init, *tail), tuple(acts), cost)
    return out


def plan_one(path: ReferencePath, init: PlannerNode, p: PlannerParams) -> CoarsePlan:
    """`astar_plan` of one problem: its plan, or its PlanningError raised."""
    (plan,) = astar_plan([(path, init, p)])
    if isinstance(plan, PlanningError):
        raise plan
    return plan


def sample_speed_targets(
    rng: np.random.Generator, v_d_range: tuple[float, float]
) -> tuple[float, float]:
    """Draw a desired velocity and a consistent initial velocity."""
    v_d = float(rng.uniform(*v_d_range))
    v0 = max(0.0, float(rng.uniform(0.8 * v_d, 1.2 * v_d)))
    return v_d, v0
