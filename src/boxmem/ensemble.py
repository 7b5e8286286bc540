"""Thermal-ensemble sampling and ballistic propagation in the box trap.

Atoms are stored as two (n, 3) arrays, positions and velocities, one row
per atom, and every operation is vectorized over the rows.  The random
stream is a counter-based Philox generator keyed by the 64-bit master seed;
samples are drawn in fixed atom-index order, so results are reproducible
regardless of how downstream consumers chunk the arrays.

Hard walls are event-driven (Alder & Wainwright, J. Chem. Phys. 31, 459
(1959); Lehtihet & Miller, Physica D 21, 93 (1986)): an atom flies its exact
free-fall parabola to the next wall hit, the first rising root of a quartic
in time.  That root is solved for all atoms at once: the closed-form roots
of the quartic's second derivative, a parabola, cut the flight into at most
three pieces of one curvature sign each, and on each piece Newton's method
converges monotonically from a side where it cannot pass a root.  Soft
walls are integrated with velocity-Verlet sub-steps in place, on a
contiguous copy of the transverse (2, n) state: the copy stays because
flying the strided x and y columns in place made
``calibrate_wall_width(0.67e-3, RingPotential(), n_atoms=4000)`` take
0.9-1.3 s against 0.7-0.8 s with it (2-vCPU host).  The end caps are hard,
and the decoupled axial motion is folded exactly.

Coordinates: z along the trap axis, y vertical (gravity acts along -y).
"""

from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigurationError, NumericalError
# axial_force is unused here, but bench/tracer.py patches ensemble.axial_force
from .geometry import TrapGeometry, axial_force, transverse_force  # noqa: F401

DEFAULT_DT = 5e-6  # s, sub-step; thermal atoms move ~0.3 um per step
ON_WALL = 1e-13  # |rho^2 / R^2 - 1| on the hard wall; bounces leave ~1e-16
WALL_TOL = 1e-12  # relative distance past the hard wall that counts as out
MAX_BOUNCE_ROUNDS = 10_000  # bounces of one atom in one call: stuck
# Newton steps of one wall-hit solve: thermal runs take at most 10, and a
# double root, whose error halves per step, about 40
MAX_NEWTON_STEPS = 200
# barometric rejection sampling that needs over 1000 candidates per atom is
# taken for a cloud too cold for the trap (about 0.1 uK for R = 95 um, below
# the recoil limit); at 1e-15 K it would never accept one
MIN_ACCEPTANCE = 1e-3


@dataclass
class AtomEnsemble:
    """Positions (n,3) in m and velocities (n,3) in m/s."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if not (self.positions.ndim == 2 and self.positions.shape[1] == 3
                and self.velocities.shape == self.positions.shape):
            raise ValueError("positions and velocities must both be (n, 3)")

    def __len__(self):
        return len(self.positions)

    @property
    def alive(self) -> np.ndarray:
        """All True, as no atom is ever lost; read only.  The benchmark's
        tracer (``bench/tracer.py``) counts simulated atoms with it."""
        return np.ones(len(self), dtype=bool)


def sample_thermal_ensemble(
    n: int,
    trap: TrapGeometry,
    temperature: float,
    gravity: float = CONSTANTS.g_earth,
    seed: int = 0,
    spatial: str = "thermal",
) -> AtomEnsemble:
    """Draw n atoms in thermal equilibrium inside the cylinder.

    Velocities are Maxwell-Boltzmann at ``temperature``.  Positions are
    uniform over the cylinder cross-section weighted by the barometric
    factor exp(-m g y / k_B T) (rejection sampling), uniform along the
    axis.  ``spatial="uniform"`` disables the barometric weighting.  Raises
    NumericalError where under MIN_ACCEPTANCE of the positions drawn would
    be kept.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if not np.isfinite(temperature) or temperature < 0:
        raise ValueError("temperature must be finite and non-negative")
    if not (np.isfinite(gravity) and gravity >= 0):
        raise ValueError("gravity must be finite and non-negative")
    if spatial not in ("thermal", "uniform"):
        raise ValueError("spatial must be 'thermal' or 'uniform'")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed <= 2**64 - 1):
        raise ValueError("seed must be an integer in [0, 2**64 - 1]")

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    sigma_v = np.sqrt(CONSTANTS.k_B * temperature / CONSTANTS.m_atom)
    velocities = sigma_v * rng.standard_normal((n, 3)) if sigma_v > 0 \
        else np.zeros((n, 3))

    barometric = (spatial == "thermal" and gravity != 0.0 and temperature > 0)
    scale_height = (CONSTANTS.k_B * temperature / (CONSTANTS.m_atom * gravity)
                    if barometric else np.inf)

    xy = np.empty((n, 2))
    filled = drawn = 0
    expected = 0.0                  # the sum of the acceptance probabilities
    while filled < n:
        m = max(2 * (n - filled), 1024)
        # uniform over the disc
        r = trap.radius * np.sqrt(rng.random(m))
        phi = 2.0 * np.pi * rng.random(m)
        cand = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
        if barometric:
            # accept prob normalized to 1 at the bottom of the trap
            accept = np.exp(-(cand[:, 1] + trap.radius) / scale_height)
            drawn += m
            expected += accept.sum()
            if expected < MIN_ACCEPTANCE * drawn:
                raise NumericalError(
                    f"barometric sampling accepts under {MIN_ACCEPTANCE:g} of "
                    f"the positions drawn (scale height {scale_height:.3g} m): "
                    "too cold for the trap")
            cand = cand[rng.random(m) < accept]
        k = min(len(cand), n - filled)
        xy[filled:filled + k] = cand[:k]
        filled += k

    z = trap.length * (rng.random(n) - 0.5)
    positions = np.column_stack((xy[:, 0], xy[:, 1], z))
    return AtomEnsemble(positions, velocities)


def _fold_axial(z, vz, half):
    """Exact end-cap reflections of decoupled linear axial motion."""
    period = 4.0 * half
    u = np.mod(z + half, period)
    upper = u > 2.0 * half
    z_f = np.where(upper, period - u, u) - half
    vz_f = np.where(upper, -vz, vz)
    return z_f, vz_f


def _poly(c, t):
    """Value and slope at t of sum_k c[k] t**k (Horner)."""
    f, df = c[-1] * t + c[-2], c[-1]
    for ck in c[-3::-1]:
        df = df * t + f
        f = f * t + ck
    return f, df


def _first_root(coef, horizon):
    """First root in (0, horizon] at which P(t) = sum_k coef[:, k] t**k
    rises through zero, np.inf where there is none; one polynomial per row
    of degree 3 or 4 whose P'' has a non-negative t**2 coefficient, and a
    positive t coefficient where that is zero.

    The roots of the parabola P'' split [0, horizon] into a convex, a
    concave and a convex piece (any may be empty), and on each piece one
    Newton iteration converges monotonically to the piece's rising root:
    - convex, started from the right at the zero of the quadratic lower
      bound P(b) + P'(b) (t - b) + min P'' (t - b)^2 / 2, which lies between
      the root and b.  P(a) < 0 <= P(b) holds exactly one rising root; with
      P(a) >= 0 a dip below zero needs P'(a) < 0, and its rising root is the
      larger one, which Newton from the right reaches first.
    - concave, started from the left at a; it can rise through zero only
      while P' > 0, so P(a) < 0 < P'(a) is needed.
    Where the far end does not prove a root, there is none once the start
    or an iterate leaves the piece or P' changes sign, which never happens
    on the way to a root.  The iteration stops when P has crossed to the
    root's far side, which only rounding does, or when the step is
    rounding; one more Newton step from there is the root.  The first piece
    with a root holds the first rising root, so none is skipped.
    """
    m, n = coef.shape
    t_root = np.full(m, np.inf)
    if m == 0:
        return t_root
    c = np.ascontiguousarray(coef.T)
    # P'' = q0 + q1 t + q2 t^2 and its roots, lower and upper edge of the
    # concave piece; a cubic's P'' is linear with its root as upper edge
    q0, q1 = 2.0 * c[2], 6.0 * c[3]
    q2 = 12.0 * c[4] if n == 5 else np.zeros(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -0.5 * (q1 + np.copysign(np.sqrt(q1 * q1 - 4.0 * q2 * q0), q1))
        r1, r2 = s / q2, q0 / s                 # NaN where P'' has no root
        vertex = -0.5 * q1 / q2
    edges = [np.fmin(np.fmax(r, 0.0), horizon)  # NaN -> 0: all convex
             for r in (np.fmin(r1, r2), np.fmax(r1, r2))]
    a = np.concatenate([np.zeros(m)] + edges)
    b = np.concatenate(edges + [horizon])
    convex = np.repeat([True, False, True], m)
    rows = np.tile(np.arange(m), 3)
    keep = b > a
    a, b, convex, rows = a[keep], b[keep], convex[keep], rows[keep]
    tol = 1e-15 * horizon[rows]

    cr = c[:, rows]
    (fa, fb), (dfa, dfb) = _poly(cr, np.stack((a, b)))
    v = np.fmin(np.fmax(vertex[rows], a), b)    # where P'' is least
    curv = np.maximum(q0[rows] + (q1[rows] + q2[rows] * v) * v, 0.0)
    disc = dfb * dfb - 2.0 * curv * fb
    # the convex start overflows to -inf or +inf only on pieces that hold
    # no root: where P(a) < 0 <= P(b), P'(b) >= (P(b) - P(a)) / (b - a)
    # keeps the step within 2 (b - a), an infinite start fails x >= a, and
    # fb < 0 is no task
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.where(convex, b - 2.0 * fb / (dfb + np.sqrt(
            np.maximum(disc, 0.0))), a)
    certain = np.where(convex, fa < 0, fb >= 0)
    # a dip's lower bound must reach zero inside the piece
    dip = (dfa < 0) & (disc >= 0) & (x >= a)
    ok = np.where(convex, (fb >= 0) & (dfb > 0) & (certain | dip),
                  (fa < 0) & (dfa > 0))

    task = np.flatnonzero(ok)
    root = np.full(len(a), np.inf)
    for _ in range(MAX_NEWTON_STEPS):
        if task.size == 0:
            break
        x, a, b, tol = x[ok], a[ok], b[ok], tol[ok]
        convex, certain, cr = convex[ok], certain[ok], cr[:, ok]
        f, df = _poly(cr, x)
        # a step overflows only where no root is certain (where one is,
        # it stays within the piece), and -inf or +inf leaves the piece
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_next = np.where(df > 0, x - f / df, x)
        # P' <= 0 where a root is certain: a double root, to rounding
        at_root = np.where(convex, f <= 0, f >= 0) | (df <= 0) & certain
        lost = ~certain & ~at_root & ((df <= 0) | (x_next < a) | (x_next > b))
        found = ~lost & (at_root | (np.abs(x_next - x) <= tol))
        root[task[found]] = x_next[found]
        ok = ~(found | lost)
        task, x = task[ok], x_next
    else:
        raise NumericalError("wall-hit root solve did not converge")
    np.minimum.at(t_root, rows, root)
    return t_root


def _next_hit(x, y, vx, vy, horizon, g, r2):
    """Time of each atom's first outward hit of the wall rho = R within
    [0, horizon] of free fall, np.inf where it has none.

    Along the parabola rho^2(t) - R^2 = c0 + c1 t + c2 t^2 + c3 t^3 + c4 t^4.
    For an atom on the wall c0 is rounding noise and the factor
    c1 + c2 t + c3 t^2 + c4 t^3 is solved instead, which leaves out the
    root at t = 0.  Both have the curvature _first_root needs: the quartic's
    second derivative is 2 (|v(t)|^2 - g y(t)), a parabola with leading
    coefficient 3 g^2, and the factor's is linear with slope 1.5 g^2.
    """
    v2 = vx * vx + vy * vy
    c0 = x * x + y * y - r2
    c1 = 2.0 * (x * vx + y * vy)
    c4 = 0.25 * g * g
    on_wall = np.abs(c0) <= ON_WALL * r2
    # rise(t) = (v2 + g |y| + g |vy| t + c4 t^2) t bounds c2 t + c3 t^2 +
    # c4 t^3 from above, so f(t) <= c0 + (max(c1, 0) + rise(t)) t, and
    # f(t) / t <= c1 + rise(t) on the wall; neither bound decreases with t,
    # so an atom whose bound is negative at the horizon cannot hit before it
    rise = (v2 + g * np.abs(y)
            + (g * np.abs(vy) + c4 * horizon) * horizon) * horizon
    wall = on_wall & (c1 + rise > 0)
    inside = ~on_wall & (c0 + (np.maximum(c1, 0.0) + rise) * horizon >= 0)
    t_hit = np.full(len(x), np.inf)
    # leaving now: reflect at once; a c1 within rounding of 0 is left to the
    # factor, whose root near 0 is no hit unless the path is pressed outward
    leaving = wall & (c1 > 1e-12 * np.sqrt(r2 * v2))
    t_hit[leaving] = 0.0
    wall &= ~leaving
    if g == 0.0:
        t_hit[wall] = -c1[wall] / v2[wall]
        a, b, c = v2[inside], c1[inside], c0[inside]
        sq = np.sqrt(b * b - 4.0 * a * c)
        t_hit[inside] = np.where(b > 0, -2.0 * c / (b + sq),
                                 (sq - b) / (2.0 * a))
    else:
        for sel, first in ((wall, 1), (inside, 0)):   # no c0 on the wall
            coef = np.column_stack((c0[sel], c1[sel], v2[sel] - g * y[sel],
                                    -g * vy[sel], np.full(sel.sum(), c4)))
            t_hit[sel] = _first_root(coef[:, first:], horizon[sel])
    return t_hit


def _fly_hard(pos, vel, interval, radius, g):
    """Exact transverse flight inside the hard cylinder wall, in place.

    Each atom flies its free-fall parabola to the end of ``interval`` or to
    its first outward wall hit, whichever comes first.  A hit places it on
    the wall and reflects its velocity specularly, and the atoms that hit
    fly on for the time they have left.  Axial motion is left alone.
    """
    r2 = radius * radius
    x, y, vx, vy = pos[:, 0], pos[:, 1], vel[:, 0], vel[:, 1]
    left = np.full(len(pos), float(interval))
    idx = slice(None)               # the first round flies every atom in place
    for _ in range(MAX_BOUNCE_ROUNDS):
        horizon = left[idx]
        t = _next_hit(x[idx], y[idx], vx[idx], vy[idx], horizon, g, r2)
        hit = t <= horizon
        t = np.where(hit, t, horizon)
        x[idx] += vx[idx] * t
        y[idx] += (vy[idx] - 0.5 * g * t) * t
        vy[idx] -= g * t
        left[idx] = horizon - t
        idx = np.flatnonzero(hit) if isinstance(idx, slice) else idx[hit]
        rho = np.hypot(x[idx], y[idx])
        nx, ny = x[idx] / rho, y[idx] / rho
        x[idx], y[idx] = radius * nx, radius * ny
        vn = np.maximum(vx[idx] * nx + vy[idx] * ny, 0.0)
        vx[idx] -= 2.0 * vn * nx
        vy[idx] -= 2.0 * vn * ny
        if idx.size == 0:
            break
    else:
        raise NumericalError(
            f"an atom hit the wall more than {MAX_BOUNCE_ROUNDS} times in "
            "one interval (grazing contact)")
    if not np.all(np.hypot(x, y) <= radius * (1.0 + WALL_TOL)):
        raise NumericalError("atom outside the cylinder wall (non-finite "
                             "state or grazing contact)")


def _verlet(pos, vel, accel, interval, dt):
    """Velocity-Verlet under ``accel(pos)`` over ``interval`` in sub-steps
    of at most ``dt``, in place on the arrays ``pos`` and ``vel``.  Each
    step's end-of-step acceleration is the next step's start, so it is
    evaluated once; one scratch array takes each kick and drift."""
    acc = accel(pos)
    scratch = np.empty_like(vel)
    remaining = interval
    while remaining > 1e-18:
        step = min(dt, remaining)
        remaining -= step
        vel += np.multiply(acc, 0.5 * step, out=scratch)
        pos += np.multiply(vel, step, out=scratch)
        acc = accel(pos)
        vel += np.multiply(acc, 0.5 * step, out=scratch)


def _check_substep(velocities, dt, wall_width):
    """Refuse a Verlet sub-step over a tenth of the time the fastest atom,
    at 3-sigma thermal speed, takes to cross the soft flank."""
    v = np.ascontiguousarray(velocities.T)  # (3, n): contiguous rows
    if v.size == 0:
        return
    v3 = max(3.0 * float(np.max(np.std(v, axis=1))),
             float(np.max(np.abs(v))))
    if v3 <= 0:
        return
    t_cross = wall_width / v3
    if dt > 0.1 * t_cross:
        raise ConfigurationError(
            f"dt={dt:g} s exceeds a tenth of the fastest wall-crossing time "
            f"{t_cross:g} s at 3-sigma thermal speed")


def propagate(
    ensemble: AtomEnsemble,
    t_start: float,
    t_end: float,
    dt: float = DEFAULT_DT,
    trap: TrapGeometry = TrapGeometry(),
    gravity: float = CONSTANTS.g_earth,
) -> AtomEnsemble:
    """Advance the atoms ballistically from t_start to t_end.

    Constant gravity g >= 0 along -y, no interatomic interactions.  The
    axial motion is decoupled from the transverse motion, so each is
    advanced over the whole interval on its own.  Hard walls are exact and
    event-driven: each atom flies its free-fall parabola from one wall hit
    to the next (the first root of the quartic rho(t)^2 = R^2).  A trap
    with a ring has soft walls, which integrate -grad U with velocity-Verlet
    in sub-steps of ``dt``, in place on a contiguous (2, n) transverse copy;
    ``dt`` is checked only there, and hard walls do not read it.  A
    non-finite state after either flight raises NumericalError.  The hard
    end caps fold the axial motion exactly.  Returns a new ensemble and
    leaves the input alone, so a consumer calls it once per sample interval
    and folds over the states it returns; no trajectory is stored.
    """
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ValueError("t_start and t_end must be finite")
    if t_end < t_start:
        raise ValueError("t_end must be >= t_start")
    if not 0 <= gravity < np.inf:
        raise ValueError("gravity must be finite and non-negative (it acts "
                         "along -y)")
    if trap.ring is not None:
        if not dt > 0:
            raise ValueError("dt must be positive")
        _check_substep(ensemble.velocities, dt, trap.ring.wall_width)

    pos = ensemble.positions.copy()
    vel = ensemble.velocities.copy()
    if len(pos) == 0 or t_end == t_start:
        return AtomEnsemble(pos, vel)

    interval = t_end - t_start
    if trap.ring is None:
        _fly_hard(pos, vel, interval, trap.radius, gravity)
    else:
        def transverse(xy):
            acc = transverse_force(xy.T, trap.ring).T
            acc /= CONSTANTS.m_atom
            acc[1] -= gravity
            return acc

        xy, vxy = pos[:, :2].T.copy(), vel[:, :2].T.copy()
        _verlet(xy, vxy, transverse, interval, dt)
        if not (np.isfinite(xy).all() and np.isfinite(vxy).all()):
            raise NumericalError("non-finite transverse state after the "
                                 "soft-wall flight")
        pos[:, :2], vel[:, :2] = xy.T, vxy.T
    pos[:, 2], vel[:, 2] = _fold_axial(pos[:, 2] + vel[:, 2] * interval,
                                       vel[:, 2], trap.length / 2.0)
    return AtomEnsemble(pos, vel)


def mechanical_energy(ensemble: AtomEnsemble, gravity: float) -> np.ndarray:
    """Per-atom kinetic + m g y energy (J); hard-wall invariant."""
    ke = 0.5 * CONSTANTS.m_atom * np.sum(ensemble.velocities**2, axis=1)
    pe = CONSTANTS.m_atom * gravity * ensemble.positions[:, 1]
    return ke + pe
