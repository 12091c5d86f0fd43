"""Trajectory smoothing onto the fine time grid.

The fine grid is the 10 Hz grid that scenes are sampled on, so its step
`FINE_DT` is the scene step, and a plan of coarse step dt has
k = dt / FINE_DT fine steps per coarse step (`fine_steps_per`). The
coarse plan is refined by minimizing squared acceleration and jerk
(finite differences on the fine grid) plus a tracking penalty tying the
fine trajectory to the coarse arc-lengths at every coarse knot, subject to
exact initial position and initial velocity (forward difference). The
problem is a convex quadratic with two equality constraints. Because the
constraints pin the first two samples outright, the solver eliminates them;
the two multipliers follow in closed form from the eliminated stationarity
rows. The constraints therefore hold exactly, not merely to solver
precision.

What remains is linear in the knot mismatches: the refined arc-lengths are
x_ref + G d, with x_ref the initial tangent line, d the tracking weight
times each knot's mismatch against x_ref, and G the gain, the tracked
columns of the inverse of the banded positive-definite system Q[2:, 2:]
(bandwidth 3 from the jerk stencil). The quadratic form Q and the gain
depend only on the weights, k and the horizon, not on the plan or the
initial state, so each is built once per (RefinementParams, k, horizon)
and reused read-only. The gain comes from a banded Cholesky factorization
and solve in Python floats, with two polish steps on exact residuals, so
its bits are the same on every machine.

`refine_trajectory` refines a round of plans at once. Like the plans of
one `astar_plan` call, they share one dt and one number of states, so one
system (`refinement_shape` derives its k and n, checks it, builds its
gain and refines a probe plan; a fault of it raises one RefinementError
for the call), and each plan is a row of one array. Every step is
elementwise over the rows. No step uses a matrix product, whose summation
order would depend on the BLAS kernel and on the batch, so each plan's
fine arc-lengths have the same bits in any batch and on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RefinementError
from .planner import CoarsePlan


# the fine grid step (s): refined trajectories are the 10 Hz scene samples
FINE_DT = 0.1
# the scene grid: 20 history and 30 future samples, FINE_DT apart
HISTORY_SAMPLES = 20
FUTURE_SAMPLES = 30
SCENE_SAMPLES = HISTORY_SAMPLES + FUTURE_SAMPLES


@dataclass(frozen=True)
class RefinementParams:
    omega1: float = 1.0
    omega2: float = 1.0
    omega3: float = 10.0

    def __post_init__(self):
        for name in ("omega1", "omega2"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"smoothing weight {name} must be nonnegative, got {getattr(self, name)}"
                )
        if self.omega3 <= 0:
            raise ValueError(f"tracking weight omega3 must be positive, got {self.omega3}")


def fine_steps_per(dt: float) -> int:
    """The number k of fine steps in a coarse step `dt`; raises ValueError
    when `dt` is not a whole number of FINE_DT steps."""
    ratio = dt / FINE_DT
    k = round(ratio) if math.isfinite(ratio) else 0
    if k < 1 or abs(k * FINE_DT - dt) > 1e-12:
        raise ValueError(f"dt={dt} is not a whole number of {FINE_DT} s steps")
    return k


def _add_stencil_gram(Q: np.ndarray, coeffs: np.ndarray, weight: float, centers) -> None:
    """Add weight * c c' at rows and columns i-1 .. i-2+len(c) for each i
    in `centers`, in increasing i: each entry then sums its terms in the
    order an entry-by-entry loop does, which keeps Q, and so the refined
    trajectories, the same as that loop's to the last bit."""
    with np.errstate(over="ignore"):  # an overflowed Q is refused by `_cholesky`
        block = weight * coeffs[:, None] * coeffs[None, :]
    width = len(coeffs)
    for i in centers:
        Q[i - 1:i - 1 + width, i - 1:i - 1 + width] += block


@lru_cache(maxsize=8)
def _quadratic_form(p: RefinementParams, k: int, n: int) -> np.ndarray:
    """The read-only (n+1, n+1) matrix Q of the objective x'Qx - 2 q'x +
    const: the acceleration and jerk stencils' Gram matrices plus the
    tracking weight on every k-th diagonal entry."""
    dt = FINE_DT
    Q = np.zeros((n + 1, n + 1))
    if p.omega1 > 0 and n >= 2:
        c2 = np.array([1.0, -2.0, 1.0]) / (dt * dt)
        _add_stencil_gram(Q, c2, p.omega1, range(1, n))
    if p.omega2 > 0 and n >= 3:
        c3 = np.array([-1.0, 3.0, -3.0, 1.0]) / (dt * dt * dt)
        _add_stencil_gram(Q, c3, p.omega2, range(1, n - 1))
    knot_index = np.arange(1, n // k + 1) * k
    Q[knot_index, knot_index] += p.omega3
    Q.setflags(write=False)
    return Q


_SINGULAR = (
    "singular smoothing system; add acceleration or jerk weight, "
    "or track every fine knot (k = 1)"
)


def _cholesky(band: list[list[float]]) -> list[list[float]]:
    """The lower Cholesky factor L of the symmetric matrix whose o-th
    superdiagonal is `band[o]` (o = 0 .. w), in Python floats: `low[o][i]`
    is L[i, i - o]. Raises RefinementError at a pivot that is not positive
    and finite."""
    m, w = len(band[0]), len(band) - 1
    low = [[0.0] * m for _ in range(w + 1)]
    for i in range(m):
        for j in range(max(0, i - w), i + 1):
            acc = band[i - j][j]
            for c in range(max(0, i - w), j):
                acc -= low[i - c][i] * low[j - c][j]
            if j < i:
                low[i - j][i] = acc / low[0][j]
            elif 0.0 < acc < math.inf:
                low[0][i] = math.sqrt(acc)
            else:
                raise RefinementError(_SINGULAR)
    return low


def _cholesky_solve(low: list[list[float]], rhs: list[float]) -> list[float]:
    """x with L L' x = rhs, for `low` from `_cholesky`: forward, then back
    substitution, in Python floats."""
    m, w = len(rhs), len(low) - 1
    y = list(rhs)
    for i in range(m):
        acc = y[i]
        for c in range(max(0, i - w), i):
            acc -= low[i - c][i] * y[c]
        y[i] = acc / low[0][i]
    for i in reversed(range(m)):
        acc = y[i]
        for r in range(i + 1, min(m, i + w + 1)):
            acc -= low[r - i][r] * y[r]
        y[i] = acc / low[0][i]
    return y


def _scaled(rows: list[list[float]]) -> tuple[list[list[int]], int]:
    """Integers n[r][i] and one shift s with rows[r][i] == n[r][i] / 2**s
    exactly: every float is an integer over a power of two."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    s = max(d.bit_length() for row in ratios for _, d in row) - 1
    return [[n << (s + 1 - d.bit_length()) for n, d in row] for row in ratios], s


def _residual(h: list[list[int]], sh: int, c: int, g: list[float]) -> list[float]:
    """e_c - H g, with e_c the c-th unit vector and H the symmetric matrix
    whose o-th superdiagonal is h[o] / 2**sh (`_scaled`): every product
    and each row's sum are exact in integers, and the one division per row
    rounds correctly."""
    m = len(g)
    (x,), sx = _scaled([g])
    one = 1 << (sh + sx)
    out = []
    for i in range(m):
        acc = (one if i == c else 0) - h[0][i] * x[i]
        for o in range(1, len(h)):
            if i + o < m:
                acc -= h[o][i] * x[i + o]
            if i >= o:
                acc -= h[o][i - o] * x[i - o]
        out.append(acc / one)
    return out


@lru_cache(maxsize=8)
def _gain(p: RefinementParams, k: int, n: int) -> np.ndarray:
    """The read-only gain G, one row per knot sample kj >= 2 in knot
    order: row j is column kj - 2 of the inverse of H = Q[2:, 2:], the
    system left once the two constrained samples are eliminated. Each
    column solves H g = e through `_cholesky`, then takes two polish steps
    g += H^-1 (e - H g) with the residual exact (`_residual`), so G is
    accurate to about its last bit. Raises RefinementError when H is
    singular or a column leaves the float range."""
    H = _quadratic_form(p, k, n)[2:, 2:]
    m = H.shape[0]
    band = [np.diagonal(H, o).tolist() for o in range(min(3, m - 1) + 1)]
    low = _cholesky(band)
    h, sh = _scaled(band)
    rows = []
    try:
        for kj in range(k, n + 1, k):
            if kj < 2:
                continue
            e = [0.0] * m
            e[kj - 2] = 1.0
            g = _cholesky_solve(low, e)
            for _ in range(2):
                step = _cholesky_solve(low, _residual(h, sh, kj - 2, g))
                g = [gi + si for gi, si in zip(g, step)]
            rows.append(g)
    except (OverflowError, ValueError):  # a column past the float range
        raise RefinementError(_SINGULAR) from None
    G = np.array(rows)
    G.setflags(write=False)
    return G


def refinement_shape(p: RefinementParams, dt: float, states: int) -> tuple[int, int]:
    """The fine steps k per coarse step and the index n of the last fine
    sample of the refinement of plans of step `dt` with `states` states
    under `p`, once their shared system is checked, its gain built
    (`_gain`, cached) and a probe plan refined (`_probe`, cached). Raises
    RefinementError when no such plan can be refined: fewer than three
    states, a `dt` that is not a whole number of FINE_DT steps, zero
    smoothing weights with untracked fine samples (k > 1), a singular
    gain, or weights under which the probe fails a row check of
    `refine_trajectory`."""
    if states < 3:
        raise RefinementError("coarse plan too short to refine")
    try:
        k = fine_steps_per(dt)
    except ValueError as exc:
        raise RefinementError(str(exc)) from None
    if p.omega1 == 0.0 and p.omega2 == 0.0 and k > 1:
        raise RefinementError(
            "untracked interior knots with zero smoothing weights make the "
            "system singular; set omega1/omega2 > 0 or plan at dt = 0.1 (k = 1)"
        )
    # the final coarse state overshoots the horizon; refine up to the one before
    n = (states - 2) * k
    weights = f"omega1={p.omega1!r}, omega2={p.omega2!r}, omega3={p.omega3!r}"
    if n > 1:
        try:
            _gain(p, k, n)
        except RefinementError as exc:
            raise RefinementError(f"{exc}; weights {weights}") from None
    fault = _probe(p, dt, states, k, n)
    if fault is not None:
        raise RefinementError(
            f"weights {weights} refine no plan: a constant-speed plan with "
            f"its first knot 1 m ahead fails with {fault}"
        )
    return k, n


@lru_cache(maxsize=8)
def _probe(p: RefinementParams, dt: float, states: int, k: int, n: int) -> str | None:
    """The fault, if any, of the refinement of one probe plan of the
    system: 10 m/s from s = 0, its first knot after the start 1 m ahead."""
    s = [10.0 * dt * j for j in range(states)]
    s[1] += 1.0
    probe = CoarsePlan(tuple(s), (10.0,) * states, (0.0,) * (states - 1), 0.0, dt)
    (refined,) = _refine_rows([probe], (10.0,), (0.0,), p, k, n)
    return str(refined) if isinstance(refined, RefinementError) else None


def _times_q(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Q x for each row x of X, from Q's seven diagonals, elementwise."""
    QX = X * np.diagonal(Q)
    for o in range(1, 4):
        diag = np.diagonal(Q, o)
        QX[:, :len(diag)] += diag * X[:, o:]
        QX[:, o:] += diag * X[:, :len(diag)]
    return QX


def refine_trajectory(
    problems, p: RefinementParams
) -> list[np.ndarray | RefinementError]:
    """For each `(coarse, v0, s0)` problem, the (n + 1,) arc-lengths of
    the coarse plan smoothed onto the fine grid from the state (s0, v0) at
    t = 0, or the RefinementError that ends its refinement.

    The plans share one system: they must have one dt and one number of
    states, as the plans of one `astar_plan` call do, or ValueError is
    raised. A fault of that system (`refinement_shape`) raises one
    RefinementError for the whole call; a row's non-finite solve, its
    stationarity residual or a moved initial state is that row's error.

    A row's system: minimize x'Qx - 2 q'x + const over the fine samples
    x_0 .. x_n (Q from `_quadratic_form`; q = omega3 * sc at the knot
    samples k, 2k, ..., zero elsewhere; const = omega3 * sc'sc) subject to
    A x = b, the two rows x_0 = s0 and (x_1 - x_0) / dt = v0. Stationarity
    is 2 (Q x - q) + A' lam = 0. Its rows for x_0 and x_1 give the
    multipliers lam = (-g_0 - g_1, -dt g_1) with g = 2 (Q x - q), and the
    residual checked is max |2 (Q x - q) + A' lam|, relative to the largest
    of 1, |2 Q x|, |2 q| and |A' lam|, at most 1e-6.

    The solve works in deviations u from the initial tangent line
    x_ref_i = s0 + i * v0 * dt, which satisfies both constraints and is
    annihilated by the difference operators, so q - Q x_ref collapses to
    the knot-level tracking mismatches d_j = omega3 * (sc_j - x_ref_kj).
    That keeps every number at the scale of the smoothing correction
    instead of the absolute arc-length, which the dt^-6 jerk stencil would
    otherwise amplify past the stated tolerances. u solves
    Q[2:, 2:] u = (q - Q x_ref)[2:], whose right-hand side is d_j at each
    knot sample kj >= 2 and zero elsewhere, so u = sum_j d_j G[j] with the
    gain G of `_gain`.

    u is accumulated over the knots in knot order, one elementwise multiply
    and add per knot, and Q x is summed over Q's diagonals elementwise
    (`_times_q`): no step sums across rows or through BLAS, so each
    trajectory has the bits of a refinement of its plan alone, on any
    machine.
    """
    if not problems:
        return []
    plans, v0, s0 = zip(*problems)
    shape, *others = {(coarse.dt, len(coarse.s)) for coarse in plans}
    if others:
        raise ValueError("plans refined together must share one dt and number of states")
    return _refine_rows(plans, v0, s0, p, *refinement_shape(p, *shape))


def _refine_rows(plans, v0, s0, p: RefinementParams, k: int, n: int):
    """`refine_trajectory` of plans whose system (`refinement_shape`) is
    (k, n) with its gain built: each plan's row checked."""
    rows = len(plans)
    v0, s0 = np.array(v0, dtype=float), np.array(s0, dtype=float)
    # fine samples k, 2k, ..., n track the plan's arc-lengths after its start
    sc_knots = np.array([coarse.s[1 : n // k + 1] for coarse in plans])
    dt = FINE_DT
    knot_index = np.arange(1, n // k + 1) * k
    # a row that overflows (a huge weight, a non-finite state) fails the
    # checks below instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        X = s0[:, None] + np.arange(n + 1) * (v0 * dt)[:, None]
        X[:, 0] = s0
        if n > 1:
            # D2 x_ref = D3 x_ref = 0 analytically, so only tracking remains
            tracked = knot_index >= 2
            d = p.omega3 * (sc_knots[:, tracked] - X[:, knot_index[tracked]])
            U = np.zeros((rows, n - 1))
            for j, g in enumerate(_gain(p, k, n)):
                U += d[:, j, None] * g
            X[:, 2:] += U
        q = np.zeros_like(X)
        q[:, knot_index] += p.omega3 * sc_knots
        QX = _times_q(_quadratic_form(p, k, n), X)
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
        moved = (np.abs(X[:, 0] - s0) > 1e-8) | (np.abs((X[:, 1] - X[:, 0]) / dt - v0) > 1e-8)
    faults = (
        "smoothing solve produced non-finite values",  # a non-finite mismatch, say
        "stationarity residual too large after solve",
        "initial-state constraints violated after solve",
    )
    # each row's first fault in that order, -1 for none: later writes win
    first = np.full(rows, -1)
    first[moved] = 2
    first[~(residual <= 1e-6)] = 1  # a NaN residual fails too
    first[~np.isfinite(X).all(axis=1)] = 0
    return [x if f < 0 else RefinementError(faults[f]) for x, f in zip(X, first.tolist())]
