"""Trajectory smoothing onto a fine time grid.

The coarse plan is refined by minimizing squared acceleration and jerk
(finite differences on the fine grid) plus a tracking penalty tying the
fine trajectory to the coarse arc-lengths at every coarse knot, subject to
exact initial position and initial velocity (forward difference). The
problem is a convex quadratic with two equality constraints. Because the
constraints pin the first two samples outright, the solver eliminates them
and direct-factorizes the remaining banded positive-definite stationarity
system (bandwidth 3 from the jerk stencil); the two multipliers follow in
closed form from the eliminated stationarity rows. The constraints
therefore hold exactly, not merely to solver precision.

The quadratic form and its banded Cholesky factor depend only on the
weights and the horizon, not on the plan or the initial state, so each
is built once per (RefinementParams, horizon) and reused read-only by
every later solve; a scene only forms its right-hand side and runs the
two triangular solves.

`refine_trajectory` refines a batch of plans at once, as `generate_dataset`
asks for a whole round of plans: plans of one horizon are the
right-hand-side columns of one banded solve per step, and every other
step is one array operation over them. A trajectory's bits do not depend
on which plans share its batch; `refine_one` refines one plan through
the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import RefinementError
from .planner import CoarsePlan


@dataclass(frozen=True)
class RefinementParams:
    omega1: float = 1.0
    omega2: float = 1.0
    omega3: float = 10.0
    dt_fine: float = 0.1
    k: int = 5  # fine steps per coarse step

    def __post_init__(self):
        if min(self.omega1, self.omega2) < 0:
            raise ValueError("smoothing weights must be nonnegative")
        if self.omega3 <= 0:
            raise ValueError("tracking weight must be positive")
        if self.dt_fine <= 0:
            raise ValueError("dt_fine must be positive")
        if self.k < 1:
            raise ValueError("k must be a positive integer")


@dataclass(frozen=True)
class RefinedTrajectory:
    timestamps: np.ndarray
    s_values: np.ndarray
    accel: np.ndarray
    jerk: np.ndarray


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


def _add_stencil_gram(Q: np.ndarray, coeffs: np.ndarray, weight: float, centers) -> None:
    """Add weight * c c' at rows and columns i-1 .. i-2+len(c) for each i
    in `centers`, in increasing i: each entry then sums its terms in the
    order an entry-by-entry loop does, which keeps Q, and so the refined
    trajectories, the same as that loop's to the last bit."""
    block = weight * coeffs[:, None] * coeffs[None, :]
    width = len(coeffs)
    for i in centers:
        Q[i - 1:i - 1 + width, i - 1:i - 1 + width] += block


@lru_cache(maxsize=8)
def _quadratic_form(p: RefinementParams, n: int) -> np.ndarray:
    """The read-only (n+1, n+1) matrix Q of the objective x'Qx - 2 q'x +
    const: the acceleration and jerk stencils' Gram matrices plus the
    tracking weight on every k-th diagonal entry."""
    dt = p.dt_fine
    Q = np.zeros((n + 1, n + 1))
    if p.omega1 > 0 and n >= 2:
        c2 = np.array([1.0, -2.0, 1.0]) / (dt * dt)
        _add_stencil_gram(Q, c2, p.omega1, range(1, n))
    if p.omega2 > 0 and n >= 3:
        c3 = np.array([-1.0, 3.0, -3.0, 1.0]) / (dt * dt * dt)
        _add_stencil_gram(Q, c3, p.omega2, range(1, n - 1))
    knot_index = np.arange(1, n // p.k + 1) * p.k
    Q[knot_index, knot_index] += p.omega3
    Q.setflags(write=False)
    return Q


@lru_cache(maxsize=8)
def _banded_factor(p: RefinementParams, n: int) -> np.ndarray:
    """Upper banded Cholesky factor of Q[2:, 2:], the system left once the
    two constrained samples are eliminated; raises LinAlgError when that
    system is singular."""
    h = _quadratic_form(p, n)[2:, 2:]
    bw = min(3, h.shape[0] - 1)
    ab = np.zeros((bw + 1, h.shape[0]))
    for offset in range(bw + 1):
        ab[bw - offset, offset:] = np.diagonal(h, offset)
    factor = cholesky_banded(ab)
    factor.setflags(write=False)
    return factor


def _fine_steps(coarse: CoarsePlan, p: RefinementParams) -> int:
    """Index n of the last fine sample of the refined `coarse`; raises
    RefinementError when the plan cannot be refined with `p`."""
    nodes = coarse.nodes
    if len(nodes) < 3:
        raise RefinementError("coarse plan too short to refine")
    dt_coarse = nodes[1].t - nodes[0].t
    if abs(p.k * p.dt_fine - dt_coarse) > 1e-12:
        raise RefinementError(
            f"k*dt_fine={p.k * p.dt_fine} does not match coarse step {dt_coarse}"
        )
    # the final coarse node overshoots the horizon; refine up to the one before
    return (len(nodes) - 2) * p.k


def _tracked_knots(coarse: CoarsePlan, n: int, p: RefinementParams) -> list[float]:
    """The coarse arc-lengths that fine samples k, 2k, ..., n track."""
    return [node.s for node in coarse.nodes[1 : n // p.k + 1]]


def build_refinement_system(
    coarse: CoarsePlan, p: RefinementParams, v0: float, s0: float
) -> RefinementSystem:
    n = _fine_steps(coarse, p)
    dt = p.dt_fine
    grid_t = coarse.nodes[0].t + np.arange(n + 1) * dt

    knot_index = np.arange(1, n // p.k + 1) * p.k
    sc_knots = np.array(_tracked_knots(coarse, n, p))
    q = np.zeros(n + 1)
    q[knot_index] += p.omega3 * sc_knots
    const = float(p.omega3 * np.dot(sc_knots, sc_knots))

    A = np.zeros((2, n + 1))
    A[0, 0] = 1.0
    A[1, 0] = -1.0 / dt
    A[1, 1] = 1.0 / dt
    b = np.array([s0, v0])
    return RefinementSystem(
        grid_t, _quadratic_form(p, n), q, const, A, b, knot_index, sc_knots, p
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


def _solve_stacked(
    p: RefinementParams, n: int, s0: np.ndarray, v0: np.ndarray, sc_knots: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None, list[RefinementError | None]]:
    """Solve the systems of one horizon n, one per row of the initial
    states `s0`, `v0` and the tracked arc-lengths `sc_knots` (rows, knots),
    with x0, x1 eliminated through the constraints. Returns the s values
    (rows, n + 1), the multipliers (rows, 2) and, per row, None or the
    RefinementError that row ends in; no values when the system itself is
    singular.

    The solve works in deviations u from the initial tangent line
    x_ref_i = s0 + i * v0 * dt, which satisfies both constraints and is
    annihilated by the difference operators, so q - Q x_ref collapses to
    the knot-level tracking mismatches. That keeps every number at the
    scale of the smoothing correction instead of the absolute arc-length,
    which the dt^-6 jerk stencil would otherwise amplify past the stated
    tolerances. u solves the banded symmetric positive-definite system
    Q[2:, 2:] u = (q - Q x_ref)[2:]; the multipliers come from the two
    eliminated stationarity rows.

    Each row is a right-hand-side column of one `cho_solve_banded` call
    for the solve and one for each polish step; LAPACK solves every
    column on its own, so a row's bits do not depend on the others. The
    products with Q stay one matrix-vector product per row, as a matrix
    product would sum in another order. The finiteness and stationarity
    checks are per row.
    """
    rows = len(s0)
    if p.omega1 == 0.0 and p.omega2 == 0.0 and p.k > 1:
        exc = (
            "untracked interior knots with zero smoothing weights make the "
            "system singular; set omega1/omega2 > 0 or k = 1"
        )
        return None, None, [RefinementError(exc) for _ in range(rows)]
    Q = _quadratic_form(p, n)
    dt = p.dt_fine
    knot_index = np.arange(1, n // p.k + 1) * p.k
    X = s0[:, None] + np.arange(n + 1) * (v0 * dt)[:, None]
    X[:, 0] = s0
    errors: list[RefinementError | None] = [None] * rows
    if n > 1:
        h = Q[2:, 2:]
        # D2 x_ref = D3 x_ref = 0 analytically, so only tracking remains
        rhs = np.zeros((rows, n - 1))
        tracked = knot_index >= 2
        kj = knot_index[tracked]
        rhs[:, kj - 2] = p.omega3 * (sc_knots[:, tracked] - X[:, kj])
        try:
            factor = (_banded_factor(p, n), False)
        except np.linalg.LinAlgError:
            exc = (
                "singular smoothing system; add acceleration or jerk weight, "
                "or track every fine knot (k=1)"
            )
            return None, None, [RefinementError(exc) for _ in range(rows)]
        # a non-finite right-hand side gives a non-finite u, refused below
        U = np.ascontiguousarray(cho_solve_banded(factor, rhs.T, check_finite=False).T)
        # two fixed polish steps against the dt^-6 stencil scaling
        for _ in range(2):
            step = np.stack([r - h @ u for r, u in zip(rhs, U)])
            U = U + cho_solve_banded(factor, step.T, check_finite=False).T
        for row in np.flatnonzero(~np.isfinite(U).all(axis=1)):
            errors[row] = RefinementError("smoothing solve produced non-finite values")
        X[:, 2:] += U
    q = np.zeros_like(X)
    q[:, knot_index] += p.omega3 * sc_knots
    QX = np.stack([Q @ x for x in X])
    grad = 2.0 * (QX - q)
    lam = np.stack([-grad[:, 0] - grad[:, 1], -dt * grad[:, 1]], axis=1)
    # A' lam: the two constraint rows touch only x0 and x1
    a_lam = np.zeros_like(X)
    a_lam[:, 0] = lam[:, 0] - lam[:, 1] / dt
    a_lam[:, 1] = lam[:, 1] / dt
    scale = np.maximum.reduce([
        np.ones(rows),
        np.abs(2.0 * QX).max(axis=1),
        np.abs(2.0 * q).max(axis=1, initial=0.0),
        np.abs(a_lam).max(axis=1),
    ])
    residual = np.abs(grad + a_lam).max(axis=1) / scale
    for row in np.flatnonzero(residual > 1e-6):
        if errors[row] is None:
            errors[row] = RefinementError("stationarity residual too large after solve")
    return X, lam, errors


def solve_system(sys: RefinementSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stationarity system; returns (s values, multipliers)."""
    X, lam, (exc,) = _solve_stacked(
        sys.params, len(sys.grid_t) - 1, sys.b[:1], sys.b[1:], sys.sc_knots[None]
    )
    if exc is not None:
        raise exc
    return X[0], lam[0]


def refine_trajectory(
    problems, p: RefinementParams
) -> list[RefinedTrajectory | RefinementError]:
    """For each `(coarse, v0, s0)` problem, the coarse plan smoothed onto
    the fine grid from the state (s0, v0), or the RefinementError that
    ends its refinement.

    Plans with the same number of nodes are solved together, as rows of
    `_solve_stacked`; every other step is elementwise over those rows, so
    each trajectory has the bits of a refinement of its plan alone."""
    out: list[RefinedTrajectory | RefinementError | None] = [None] * len(problems)
    groups: dict[int, list[int]] = {}
    for j, (coarse, _, _) in enumerate(problems):
        try:
            groups.setdefault(_fine_steps(coarse, p), []).append(j)
        except RefinementError as exc:
            out[j] = exc
    dt = p.dt_fine
    for n, members in groups.items():
        plans = [problems[j][0] for j in members]
        v0 = np.array([problems[j][1] for j in members], dtype=float)
        s0 = np.array([problems[j][2] for j in members], dtype=float)
        sc_knots = np.array([_tracked_knots(plan, n, p) for plan in plans])
        X, _, errors = _solve_stacked(p, n, s0, v0, sc_knots)
        if X is None:
            for j, exc in zip(members, errors):
                out[j] = exc
            continue
        moved = (np.abs(X[:, 0] - s0) > 1e-8) | (np.abs((X[:, 1] - X[:, 0]) / dt - v0) > 1e-8)
        grid_t = np.array([plan.nodes[0].t for plan in plans])[:, None] + np.arange(n + 1) * dt
        accel = accel_of(X, dt) if n >= 2 else np.zeros((len(plans), 0))
        jerk = jerk_of(X, dt) if n >= 3 else np.zeros((len(plans), 0))
        for row, j in enumerate(members):
            if errors[row] is None and moved[row]:
                errors[row] = RefinementError("initial-state constraints violated after solve")
            out[j] = (
                RefinedTrajectory(grid_t[row], X[row], accel[row], jerk[row])
                if errors[row] is None else errors[row]
            )
    return out


def refine_one(
    coarse: CoarsePlan, p: RefinementParams, v0: float, s0: float
) -> RefinedTrajectory:
    """`refine_trajectory` of one problem: its trajectory, or its
    RefinementError raised."""
    (refined,) = refine_trajectory([(coarse, v0, s0)], p)
    if isinstance(refined, RefinementError):
        raise refined
    return refined
