"""Velocity planning along a reference path.

The search space is (arc-length, velocity, time) with a fixed acceleration
action set applied over a coarse time step. Transitions pay for actuation,
curvature-weighted speed, and deviation from the desired velocity; the
minimum-cost action sequence whose terminal state first passes the
horizon becomes the coarse trajectory.

The search is a layered dynamic program: states are expanded one time
layer at a time and merged on exact (arc-length, velocity) agreement, so
the returned plan is the true optimum over the reachable action graph.
Merging uses keys rounded at 1e-9 purely to absorb floating-point noise.
Curvature enters the cost by magnitude and every weight is nonnegative,
so no transition cost is negative: a beam pass through the same layer
loop first bounds the optimum, and the exact pass discards states
costlier than that bound.

A planning problem is `(path, s0, v0, v_d)`: a reference path, the
start arc-length and velocity at t = 0 and the desired velocity, planned
under one `PlannerParams` that every problem shares. `astar_plan` plans a
batch of problems at once, as the dataset driver asks for a whole round
of drafts: each layer of each pass is one set of array operations over
every scene, which saves the per-call numpy overhead that dominates a
single small search. A scene's plan, and so every output byte, does not
depend on which scenes share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PathOverrunError, PlanningError, PlanningFailureError
from .maps import ReferencePath

ACTION_RANGE = (-2.0, 1.0)
DEFAULT_ACTION_SET = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
# the range (m/s) that each scene's desired velocity is drawn from
V_D_RANGE = (6.0, 15.0)
# states per layer in the bounding beam pass; 16, 32 and 64 time the same
BEAM_WIDTH = 32


@dataclass(frozen=True)
class PlannerParams:
    action_set: tuple[float, ...] = DEFAULT_ACTION_SET
    dt: float = 0.5
    w1: float = 5.0
    w2: float = 5.0
    w3: float = 1.0
    t_g: float = 5.0

    def __post_init__(self):
        for name in ("dt", "t_g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.t_g / self.dt):
            raise ValueError(f"t_g={self.t_g} is too many steps of dt={self.dt}")
        if not self.action_set:
            raise ValueError("action_set must not be empty")
        for a in self.action_set:
            if not ACTION_RANGE[0] <= a <= ACTION_RANGE[1]:
                raise ValueError(f"action_set entry {a} outside {ACTION_RANGE}")
        for name in ("w1", "w2", "w3"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"cost weight {name} must be nonnegative, got {getattr(self, name)}"
                )

    @property
    def n_steps(self) -> int:
        """Number of transitions from t = 0 until time first exceeds the
        horizon; a plan has one more state."""
        return int(math.floor(self.t_g / self.dt + 1e-9)) + 1


@dataclass(frozen=True)
class CoarsePlan:
    """The planned arc-lengths and velocities at t = 0, dt, 2 dt, ... plus
    the actions that connect them.

    (s[i+1], v[i+1]) is (s[i], v[i]) advanced by actions[i] over one step
    dt (the transition of `_Batch.expand`), and total_cost is the plain sum
    of the per-transition costs. Every field holds Python floats, so plans
    compare with `==`.
    """

    s: tuple[float, ...]
    v: tuple[float, ...]
    actions: tuple[float, ...]
    total_cost: float
    dt: float


def _segment(x: np.ndarray, top: int) -> np.ndarray:
    """`np.searchsorted(arange(top + 1), x, side="right") - 1` on the
    integer grid of reference-path samples: the last grid point at or
    before each x, -1 before the first, and `top` at or past the last and
    for a NaN x, as in `searchsorted`."""
    return np.fmax(np.fmin(np.floor(x), top), -1).astype(np.intp)


class _Batch:
    """The scenes of one `astar_plan` call, as per-scene arrays.

    Every path's `cum_s` is a prefix of the integer grid `arange(n)` (one
    sample every `maps.REFERENCE_SPACING`), so one lookup on the longest
    grid (`_segment`) finds the curvature segment of any state of any
    scene, and grid point `j` is `j` itself. `kappa` and `slope` are ragged
    tables: every path's samples one after another, scene `b`'s from
    `start[b]`, so they hold the sum of the path lengths, not scenes times
    the longest path.
    """

    def __init__(self, paths, p: PlannerParams, v_d: np.ndarray):
        self.p = p
        self.actions = np.asarray(p.action_set, dtype=float)
        self.half_a_dt2 = 0.5 * self.actions * p.dt * p.dt
        self.a_dt = self.actions * p.dt
        self.a_cost = p.w1 * self.actions * self.actions
        self.v_d = v_d
        self.length = np.array([path.length for path in paths])
        sizes = np.array([len(path.cum_s) for path in paths])
        self.top = int(sizes.max()) - 1
        self.last = sizes - 1
        self.start = np.cumsum(sizes) - sizes
        self.kappa = np.concatenate([path.kappa for path in paths])
        # np.interp's slope on each segment, (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]),
        # over a step of exactly 1; `curvature` never uses the slope at a
        # path's last sample
        self.slope = np.append(np.diff(self.kappa), 0.0)

    def curvature(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """`np.interp(x, cum_s, kappa)` on the path of each x's row, bit for
        bit: numpy's `slope * (x - xp[j]) + fp[j]`, but `fp[j]` itself at a
        grid point, the end value at or past the last point and the first
        value before the first; a NaN x gives NaN."""
        j = _segment(x, self.top)
        last = self.last[rows]
        jc = np.minimum(np.maximum(j, 0), last)
        flat = self.start[rows] + jc
        y = self.kappa.take(flat)
        inner = self.slope.take(flat) * (x - jc) + y
        return np.where((x == jc) | (x >= last) | (j < 0), y, inner)

    def expand(self, S, V, G, rows):
        """Every action from every state: (S2, V2, G2, over, feas) on grids
        of shape `S.shape + (n_actions,)`; `rows` gives each state's scene,
        shaped to broadcast against those grids.

        Action a takes (s, v, t) at constant acceleration over one step dt
        to s' = s + v dt + a dt^2 / 2, v' = v + a dt, t' = t + dt, at the
        cost w1 a^2 + w2 |kappa(s')| v'^2 + w3 (v' - v_d)^2, which is never
        negative; G2 adds that cost to G. `over` flags an s' past the path
        end and `feas` the expansions the search keeps: v' >= 0 and not
        over."""
        p = self.p
        S2 = S[..., None] + V[..., None] * p.dt + self.half_a_dt2
        V2 = V[..., None] + self.a_dt
        over = S2 > self.length[rows]
        feas = (V2 >= 0.0) & ~over
        kap = np.abs(self.curvature(S2, rows))
        dv = V2 - self.v_d[rows]
        G2 = G[..., None] + (self.a_cost + p.w2 * kap * V2 * V2 + p.w3 * dv * dv)
        return S2, V2, G2, over, feas

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
        by scene. Returns `(scenes, picks, costs, layers, errors)`: the
        scenes that reach the last layer, the index of each one's pick in
        it and the pick's cost G, per layer the kept states as `(S, V,
        trail)` with `trail` the flat `parent * n_actions + action` of each,
        and `{scene: PlanningError}` for the scenes that starve. G sums the
        transition costs from 0 along each state's chain of kept parents."""
        n_actions = len(self.actions)
        n = len(S)
        scene = np.arange(n)
        G = np.zeros(n)
        bound = ub + 1e-9
        overrun = np.zeros(n, dtype=bool)
        alive = np.ones(n, dtype=bool)
        errors: dict[int, PlanningError] = {}
        layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
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
            layers.append((S, V, idx[sel]))
        # per scene, the cheapest state, then the slowest, then the nearest
        order = np.lexsort((S, V, G, scene))
        first = np.ones(len(order), dtype=bool)
        first[1:] = scene[order[1:]] != scene[order[:-1]]
        picks = order[first]
        return scene[picks], picks, G[picks], layers, errors


def astar_plan(problems, p: PlannerParams) -> list[CoarsePlan | PlanningError]:
    """For each `(path, s0, v0, v_d)` problem, the minimum-cost action
    sequence from (s0, v0) at t = 0 whose last state first passes t_g, or
    the PlanningError that ends its search.

    A layered DP, not A*; the name is kept for its callers. Expansions with
    negative velocity are pruned; expansions past the end of the path are
    pruned and, if they starve a scene's search, reported as a path
    overrun. Ties on terminal cost break toward lower velocity, then lower
    arc-length. A start that is not finite, or a negative initial
    velocity, raises ValueError before any search.

    All problems run together under `p`: one beam pass over padded
    `(scene, state)` arrays, then one exact pass over flat state arrays
    that carry a scene key, merged with `lexsort((G2, key_v, key_s,
    scene))`. The beam pass keeps `BEAM_WIDTH` states per scene and layer;
    the cheapest plan it finds is feasible, so its cost `ub` bounds that
    scene's optimum, and the exact pass drops the scene's states costlier
    than `ub + 1e-9`. No transition cost is negative, so a state's cost
    never falls along a path, and a dropped state could not have won a
    merge or the final pick: each plan, and its bytes, are those of the
    unpruned single-scene search, whatever else shares the batch (a tie
    at the beam cut may change `ub`, never the plan). A scene whose beam
    pass fails drops nothing.
    """
    out: list[CoarsePlan | PlanningError | None] = [None] * len(problems)
    live: list[int] = []  # problems that start on their path
    for k, (path, s0, v0, _) in enumerate(problems):
        if not (math.isfinite(s0) and math.isfinite(v0)):
            raise ValueError(f"initial state must be finite, got s={s0}, v={v0}")
        if v0 < 0:
            raise ValueError(f"initial velocity must be nonnegative, got {v0}")
        if s0 < 0 or s0 > path.length:
            out[k] = PathOverrunError(f"initial s={s0:.3f} outside [0, {path.length:.3f}]")
        else:
            live.append(k)
    if not live:
        return out
    n_steps = p.n_steps
    paths, S, V, v_d = zip(*(problems[k] for k in live))
    batch = _Batch(paths, p, np.array(v_d, dtype=float))
    S, V = np.array(S, dtype=float), np.array(V, dtype=float)
    ub = batch.beam_bounds(S, V, n_steps, BEAM_WIDTH)
    scenes, idx, costs, layers, errors = batch.exact(S, V, n_steps, ub)
    for b, exc in errors.items():
        out[live[b]] = exc

    # each plan is its start, then the kept states along its pick's parent chain
    s = np.empty((len(idx), n_steps + 1))
    v = np.empty_like(s)
    s[:, 0], v[:, 0] = S[scenes], V[scenes]
    chosen = np.empty((len(idx), n_steps), dtype=np.intp)
    for layer in range(n_steps - 1, -1, -1):
        S_k, V_k, trail = layers[layer]
        s[:, layer + 1], v[:, layer + 1] = S_k[idx], V_k[idx]
        idx, chosen[:, layer] = np.divmod(trail[idx], len(batch.actions))
    for b, s_b, v_b, acts, cost in zip(
        scenes.tolist(), s.tolist(), v.tolist(), batch.actions[chosen].tolist(), costs.tolist()
    ):
        out[live[b]] = CoarsePlan(tuple(s_b), tuple(v_b), tuple(acts), cost, p.dt)
    return out


def sample_speed_targets(rng: np.random.Generator) -> tuple[float, float]:
    """Draw a desired velocity from `V_D_RANGE` and a consistent initial
    velocity."""
    v_d = float(rng.uniform(*V_D_RANGE))
    v0 = max(0.0, float(rng.uniform(0.8 * v_d, 1.2 * v_d)))
    return v_d, v0
