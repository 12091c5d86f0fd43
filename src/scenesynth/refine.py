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
    """Central second difference per interior sample."""
    s = np.asarray(s, dtype=float)
    if s.size < 3:
        raise ValueError(f"need at least 3 samples, got {s.size}")
    return (s[2:] - 2.0 * s[1:-1] + s[:-2]) / (dt_fine * dt_fine)


def jerk_of(s: np.ndarray, dt_fine: float) -> np.ndarray:
    """Third difference (s[i+2] - 3 s[i+1] + 3 s[i] - s[i-1]) / dt^3."""
    s = np.asarray(s, dtype=float)
    if s.size < 4:
        raise ValueError(f"need at least 4 samples, got {s.size}")
    return (s[3:] - 3.0 * s[2:-1] + 3.0 * s[1:-2] - s[:-3]) / (
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


def build_refinement_system(
    coarse: CoarsePlan, p: RefinementParams, v0: float, s0: float
) -> RefinementSystem:
    nodes = coarse.nodes
    if len(nodes) < 3:
        raise RefinementError("coarse plan too short to refine")
    dt_coarse = nodes[1].t - nodes[0].t
    if abs(p.k * p.dt_fine - dt_coarse) > 1e-12:
        raise RefinementError(
            f"k*dt_fine={p.k * p.dt_fine} does not match coarse step {dt_coarse}"
        )
    # the final coarse node overshoots the horizon; refine up to the one before
    m_knots = len(nodes) - 2
    n = m_knots * p.k  # index of the last fine sample
    dt = p.dt_fine
    grid_t = nodes[0].t + np.arange(n + 1) * dt

    knot_index = np.arange(1, m_knots + 1) * p.k
    sc_knots = np.array([nodes[j].s for j in range(1, m_knots + 1)])
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


def objective_value(x: np.ndarray, sys: RefinementSystem) -> float:
    """Smoothing-plus-tracking objective evaluated directly from stencils."""
    p = sys.params
    total = 0.0
    if x.size >= 3:
        total += p.omega1 * float(np.sum(accel_of(x, p.dt_fine) ** 2))
    if x.size >= 4:
        total += p.omega2 * float(np.sum(jerk_of(x, p.dt_fine) ** 2))
    total += p.omega3 * float(np.sum((x[sys.knot_index] - sys.sc_knots) ** 2))
    return total


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


def _solve_eliminated(sys: RefinementSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve with x0, x1 eliminated through the constraints.

    The solve works in deviations u from the initial tangent line
    x_ref_i = s0 + i * v0 * dt, which satisfies both constraints and is
    annihilated by the difference operators, so q - Q x_ref collapses to
    the knot-level tracking mismatches. That keeps every number at the
    scale of the smoothing correction instead of the absolute arc-length,
    which the dt^-6 jerk stencil would otherwise amplify past the stated
    tolerances. u solves the banded symmetric positive-definite system
    Q[2:, 2:] u = (q - Q x_ref)[2:]; the multipliers come from the two
    eliminated stationarity rows.
    """
    n1 = sys.Q.shape[0]
    dt = sys.params.dt_fine
    p = sys.params
    c = sys.b[1] * dt
    x = sys.b[0] + np.arange(n1) * c
    x[0] = sys.b[0]
    if n1 > 2:
        h = sys.Q[2:, 2:]
        # D2 x_ref = D3 x_ref = 0 analytically, so only tracking remains
        rhs = np.zeros(n1 - 2)
        tracked = sys.knot_index >= 2
        kj = sys.knot_index[tracked]
        rhs[kj - 2] = p.omega3 * (sys.sc_knots[tracked] - x[kj])
        try:
            factor = (_banded_factor(p, n1 - 1), False)
        except np.linalg.LinAlgError as exc:
            raise RefinementError(
                "singular smoothing system; add acceleration or jerk weight, "
                "or track every fine knot (k=1)"
            ) from exc
        # a non-finite right-hand side gives a non-finite u, refused below
        u = cho_solve_banded(factor, rhs, check_finite=False)
        # two fixed polish steps against the dt^-6 stencil scaling
        for _ in range(2):
            u = u + cho_solve_banded(factor, rhs - h @ u, check_finite=False)
        if not np.isfinite(u).all():
            raise RefinementError("smoothing solve produced non-finite values")
        x[2:] += u
    grad = objective_gradient(x, sys)
    lam1 = -dt * grad[1]
    lam0 = -grad[0] - grad[1]
    return x, np.array([lam0, lam1])


def solve_system(sys: RefinementSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stationarity system; returns (s values, multipliers)."""
    p = sys.params
    if p.omega1 == 0.0 and p.omega2 == 0.0 and p.k > 1:
        raise RefinementError(
            "untracked interior knots with zero smoothing weights make the "
            "system singular; set omega1/omega2 > 0 or k = 1"
        )
    x, lam = _solve_eliminated(sys)
    if stationarity_residual(x, lam, sys) > 1e-6:
        raise RefinementError("stationarity residual too large after solve")
    return x, lam


def refine_trajectory(
    coarse: CoarsePlan, p: RefinementParams, v0: float, s0: float
) -> RefinedTrajectory:
    """Smooth the coarse plan onto the fine grid from the state (s0, v0)."""
    sys = build_refinement_system(coarse, p, v0, s0)
    x, _ = solve_system(sys)
    if abs(x[0] - s0) > 1e-8 or abs((x[1] - x[0]) / p.dt_fine - v0) > 1e-8:
        raise RefinementError("initial-state constraints violated after solve")
    accel = accel_of(x, p.dt_fine) if x.size >= 3 else np.zeros(0)
    jerk = jerk_of(x, p.dt_fine) if x.size >= 4 else np.zeros(0)
    return RefinedTrajectory(sys.grid_t, x, accel, jerk)
