import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxmem.constants import CONSTANTS
from boxmem.ensemble import (AtomEnsemble, _first_root, mechanical_energy,
                             propagate, sample_thermal_ensemble)
from boxmem.errors import ConfigurationError, NumericalError
from boxmem.geometry import RingPotential, TrapGeometry, potential_at

TRAP = TrapGeometry()
T15 = 15e-6


def test_mean_speed_maxwell_boltzmann():
    ens = sample_thermal_ensemble(100_000, TRAP, T15, seed=1)
    speed = np.linalg.norm(ens.velocities, axis=1)
    expected = math.sqrt(8.0 * CONSTANTS.k_B * T15
                         / (math.pi * CONSTANTS.m_atom))
    assert expected == pytest.approx(60.4e-3, rel=2e-3)  # 60.4 mm/s
    assert np.mean(speed) == pytest.approx(expected, rel=1e-2)


def test_second_moment():
    ens = sample_thermal_ensemble(100_000, TRAP, T15, seed=2)
    v2 = np.mean(np.sum(ens.velocities**2, axis=1))
    assert v2 == pytest.approx(3.0 * CONSTANTS.k_B * T15 / CONSTANTS.m_atom,
                               rel=1e-2)


def test_positions_inside_trap():
    ens = sample_thermal_ensemble(50_000, TRAP, T15, seed=3)
    rho = np.hypot(ens.positions[:, 0], ens.positions[:, 1])
    assert np.all(rho <= TRAP.radius)
    assert np.all(np.abs(ens.positions[:, 2]) <= TRAP.length / 2)


def test_barometric_density_ratio():
    ens = sample_thermal_ensemble(400_000, TRAP, T15, seed=4)
    y = ens.positions[:, 1]
    band = 10e-6
    n_lo = np.count_nonzero(np.abs(y + 50e-6) < band)
    n_hi = np.count_nonzero(np.abs(y - 50e-6) < band)
    scale = CONSTANTS.k_B * T15 / (CONSTANTS.m_atom * CONSTANTS.g_earth)
    assert scale == pytest.approx(146.6e-6, rel=5e-3)  # ~147 um
    # the +-50 um strips subtend different chord widths; compare against the
    # geometric factor times the barometric factor
    chord_lo = np.sqrt(TRAP.radius**2 - 50e-6**2)
    expected = math.exp(100e-6 / scale)
    assert n_lo / n_hi == pytest.approx(expected, rel=0.05)
    assert chord_lo > 0


def test_uniform_override_flat():
    ens = sample_thermal_ensemble(200_000, TRAP, T15, seed=5,
                                  spatial="uniform")
    y = ens.positions[:, 1]
    n_lo = np.count_nonzero(np.abs(y + 50e-6) < 10e-6)
    n_hi = np.count_nonzero(np.abs(y - 50e-6) < 10e-6)
    assert n_lo / n_hi == pytest.approx(1.0, abs=0.03)


def test_sampling_deterministic():
    a = sample_thermal_ensemble(1000, TRAP, T15, seed=42)
    b = sample_thermal_ensemble(1000, TRAP, T15, seed=42)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    c = sample_thermal_ensemble(1000, TRAP, T15, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_zero_temperature():
    ens = sample_thermal_ensemble(100, TRAP, 0.0, seed=0)
    assert np.all(ens.velocities == 0.0)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 2.0, True, np.float64(3),
                                  "1", None])
def test_seed_must_be_a_philox_key(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_thermal_ensemble(10, TRAP, T15, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.int64(7), np.uint64(2**63)])
def test_seed_accepts_any_philox_key(seed):
    a = sample_thermal_ensemble(10, TRAP, T15, seed=seed)
    b = sample_thermal_ensemble(10, TRAP, T15, seed=int(seed))
    assert np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, True, np.float64(3), "10",
                               None])
def test_atom_count_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_thermal_ensemble(n, TRAP, T15)


@pytest.mark.parametrize("shape", [(4, 2), (2, 4), (4,), (2, 3, 3), (0,)])
def test_ensemble_must_be_n_by_3(shape):
    # a (4, 2) ensemble would fail inside propagate, a (2, 4) one would
    # propagate silently
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        AtomEnsemble(np.zeros(shape), np.zeros(shape))


def test_invalid_args():
    with pytest.raises(ValueError):
        sample_thermal_ensemble(0, TRAP, T15)
    with pytest.raises(ValueError):
        sample_thermal_ensemble(10, TRAP, -1e-6)
    with pytest.raises(ValueError):
        sample_thermal_ensemble(10, TRAP, T15, spatial="gaussian")
    with pytest.raises(ValueError):
        sample_thermal_ensemble(10, TRAP, T15, gravity=math.nan)
    with pytest.raises(ValueError):     # gravity acts along -y
        sample_thermal_ensemble(10, TRAP, T15, gravity=-9.81)
    ens = sample_thermal_ensemble(10, TRAP, T15)
    with pytest.raises(ValueError, match="gravity"):
        propagate(ens, 0.0, 1e-3, trap=TRAP, gravity=-9.81)
    # bad times are bad input on either wall: no hang, no NaN state and
    # no NumericalError
    soft = TrapGeometry(ring=RingPotential())
    bad_times = [(0.0, -1e-3, "t_end must be >= t_start"),
                 (0.0, math.inf, "finite"), (0.0, math.nan, "finite"),
                 (math.nan, 1e-3, "finite"), (-math.inf, 0.0, "finite")]
    for trap in (TRAP, soft):
        for t_start, t_end, message in bad_times:
            with pytest.raises(ValueError, match=message):
                propagate(ens, t_start, t_end, trap=trap)
    with pytest.raises(ValueError, match="dt must be positive"):
        propagate(ens, 0.0, 1e-3, dt=math.nan, trap=soft)
    # non-finite gravity is bad input on either wall, and a non-finite
    # state never comes back as NaN positions
    nan_v = AtomEnsemble(ens.positions, ens.velocities.copy())
    nan_v.velocities[3, 0] = math.nan
    for trap in (TRAP, soft):
        for g in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gravity must be finite"):
                propagate(ens, 0.0, 1e-3, trap=trap, gravity=g)
        with pytest.raises(NumericalError, match="non-finite"):
            propagate(nan_v, 0.0, 1e-4, trap=trap)


# velocity components up to ~5 thermal sigma at 15 uK
_speed = st.floats(-0.2, 0.2)
_angle = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _atom(draw):
    """One in-trap state: inside, on the wall moving in or out, or grazing
    the lowest wall point nearly tangentially.

    A path that touches the wall at a vanishing angle bounces without
    bound (see test_unresolvable_flight_fails_loudly), so atoms inside keep
    1e-4 R (10 nm) from the wall and atoms on it a normal speed of at least
    1 mm/s; that allows up to a few hundred bounces in 2 ms.
    """
    kind = draw(st.sampled_from(["inside", "wall", "graze"]))
    z = draw(st.floats(-0.5, 0.5)) * TRAP.length
    vz = draw(_speed)
    if kind == "inside":
        r = draw(st.floats(0.0, 1.0 - 1e-4)) * TRAP.radius
        phi = draw(_angle)
        return ([r * math.cos(phi), r * math.sin(phi), z],
                [draw(_speed), draw(_speed), vz])
    if kind == "wall":
        phi = draw(_angle)
        nx, ny = math.cos(phi), math.sin(phi)
        vn = draw(st.floats(1e-3, 0.2)) * draw(st.sampled_from([-1, 1]))
        vt = draw(_speed)
        return ([TRAP.radius * nx, TRAP.radius * ny, z],
                [-vn * nx - vt * ny, -vn * ny + vt * nx, vz])
    vy = draw(st.floats(1e-3, 1e-2))               # inward normal speed
    return [0.0, -TRAP.radius, z], [draw(_speed), vy, vz]


@settings(max_examples=100, deadline=None)
@given(atoms=st.lists(_atom(), min_size=1, max_size=6),
       g=st.sampled_from([0.0, 9.81]),
       interval=st.floats(1e-6, 2e-3))
def test_hard_wall_invariants(atoms, g, interval):
    pos, vel = (np.array(c, dtype=float) for c in zip(*atoms))
    ens = AtomEnsemble(pos, vel)
    out = propagate(ens, 0.0, interval, trap=TRAP, gravity=g)
    rho = np.hypot(out.positions[:, 0], out.positions[:, 1])
    assert np.all(rho <= TRAP.radius * (1 + 1e-12))
    assert np.all(np.abs(out.positions[:, 2]) <= TRAP.length / 2)
    drift = np.abs(mechanical_energy(out, g) - mechanical_energy(ens, g))
    assert np.all(drift <= 1e-12 * 1.5 * CONSTANTS.k_B * T15)
    if g == 0.0:
        speed = np.linalg.norm(out.velocities, axis=1)
        assert speed == pytest.approx(np.linalg.norm(vel, axis=1), rel=1e-12)


def test_chord_return_without_gravity():
    # leaving the centre along x, the atom meets the wall head-on and is
    # back at the centre after 2R/v with its velocity reversed
    v = 0.05
    ens = AtomEnsemble(np.zeros((1, 3)), np.array([[v, 0.0, 0.0]]))
    out = propagate(ens, 0.0, 2.0 * TRAP.radius / v, trap=TRAP, gravity=0.0)
    assert np.all(np.abs(out.positions[0]) <= 1e-12 * TRAP.radius)
    assert out.velocities[0] == pytest.approx([-v, 0.0, 0.0], abs=1e-12 * v)


@pytest.mark.parametrize("pos, vel", [
    ([0.0, TRAP.radius], [0.01, 0.0]),
    # tangential up to rounding, which leaves 2 (x vx + y vy) at +1.3e-23
    ([-5.695114523689611e-05, 7.603661654890995e-05],
     [-0.0005577096012043489, -0.00041772243347742196]),
])
def test_slow_atom_falls_off_the_ceiling(pos, vel):
    # on the upper wall with no normal speed and v^2 < g y, gravity pulls
    # the atom off the wall in free fall: the root at t = 0 is no hit
    g, t = CONSTANTS.g_earth, 1e-3
    ens = AtomEnsemble(np.array([pos + [0.0]]), np.array([vel + [0.0]]))
    out = propagate(ens, 0.0, t, trap=TRAP, gravity=g)
    fall = [pos[0] + vel[0] * t, pos[1] + vel[1] * t - 0.5 * g * t * t, 0.0]
    assert out.positions[0] == pytest.approx(fall, rel=1e-12, abs=1e-18)


@pytest.mark.parametrize("pos, vel, g", [
    # zero normal speed at the lowest wall point, pressed outward by gravity
    # and the wall's curvature: its motion is sliding along the wall, which
    # no finite number of bounces reaches, so it is not projected back
    ([0.0, -1.0, 0.0], [0.05, 0.0, 0.0], CONSTANTS.g_earth),
    ([0.0, -1.0, 0.0], [0.05, 0.0, 0.0], 0.0),    # hits the bounce cap
    # 1e-16 R inside, moving along the wall: whispering-gallery bounces at
    # an angle of 1e-8 rad, 1e8 of them per ms
    ([1.0 - 1e-16, 0.0, 0.0], [0.0, 0.125, 0.0], 0.0),
    # a non-finite state (non-finite gravity is refused as bad input)
    ([0.0, -1.0, 0.0], [0.05, math.nan, 0.0], CONSTANTS.g_earth),
])
def test_unresolvable_flight_fails_loudly(pos, vel, g):
    ens = AtomEnsemble(np.array([pos]) * TRAP.radius, np.array([vel]))
    with pytest.raises(NumericalError):
        propagate(ens, 0.0, 1e-3, trap=TRAP, gravity=g)


def _first_root_eigvals(coef, horizon):
    """Reference for _first_root: every root as an eigenvalue of the
    companion matrix of the polynomial in s = t / horizon, each polished by
    one Newton step in t; the first rising one in (0, horizon].

    A rising root is one that P reaches from below: a root where P is not
    negative 1e-6 horizon earlier, such as a double root that P touches
    from outside the wall, is none.
    """
    m, deg = coef.shape[0], coef.shape[1] - 1
    a = coef * horizon[:, None] ** np.arange(deg + 1)
    comp = np.zeros((m, deg, deg))
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    comp[:, :, -1] = -a[:, :-1] / a[:, -1:]
    s = np.linalg.eigvals(comp)
    t = np.where(np.abs(s.imag) <= 1e-6, s.real, np.nan) * horizon[:, None]
    f = np.zeros_like(t)
    df = np.zeros_like(t)
    for k in range(deg, -1, -1):                # Horner, value and slope
        df = df * t + f
        f = f * t + coef[:, k, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        step = f / df
    # a near-double root has a vanishing slope; keep it unpolished
    t = np.where(np.abs(step) <= 1e-6 * horizon[:, None], t - step, t)
    before = np.zeros_like(t)
    for k in range(deg, -1, -1):
        before = before * (t - 1e-6 * horizon[:, None]) + coef[:, k, None]
    rising = (t > 0) & (t <= horizon[:, None]) & (df >= 0) & (before < 0)
    return np.where(rising, t, np.inf).min(axis=1)


def _hit_coefficients(states, g, on_wall):
    """The polynomials _next_hit solves: rho^2(t) - R^2 of free fall, or
    its factor (rho^2 - R^2) / t for atoms on the wall."""
    x, y, vx, vy = np.array(states).T
    r2 = TRAP.radius ** 2
    coef = np.column_stack((x * x + y * y - r2, 2.0 * (x * vx + y * vy),
                            vx * vx + vy * vy - g * y, -g * vy,
                            np.full(len(x), 0.25 * g * g)))
    return coef[:, 1:] if on_wall else coef


def _near_miss(c, h, on_wall, t_end):
    """Whether the path comes within 1e-9 R of the wall without crossing
    it, at a turning point of the solved polynomial c before t_end or at the
    horizon h: there rounding decides the hit."""
    turns = np.roots(np.polyder(c[::-1]))
    turns = turns[np.abs(turns.imag) <= 1e-9 * h].real
    for t in np.append(turns[(turns > 0) & (turns < min(h, t_end))], h):
        path = np.polyval(c[::-1], t) * (t if on_wall else 1.0)
        if -2e-9 * TRAP.radius ** 2 < path <= 0.0 and t <= t_end:
            return True
    return False


_wall_angle = st.floats(math.pi, 2.0 * math.pi)       # lower half of the wall


@st.composite
def _hit_state(draw, on_wall):
    """(x, y, vx, vy) of an atom on the lower half of the wall moving
    inward, at a normal speed of zero, of rounding size or ordinary; or of
    one inside, anywhere or slow and just below the ceiling."""
    if on_wall:
        phi = draw(_wall_angle)
        nx, ny = math.cos(phi), math.sin(phi)
        vn = draw(st.sampled_from([0.0, 1e-15, 1e-9])
                  | st.floats(1e-6, 0.2))
        vt = draw(st.floats(-0.2, 0.2).filter(lambda v: abs(v) > 1e-4))
        return (TRAP.radius * nx, TRAP.radius * ny,
                -vn * nx - vt * ny, -vn * ny + vt * nx)
    if draw(st.booleans()):
        r = draw(st.floats(0.0, 1.0 - 1e-6)) * TRAP.radius
        phi = draw(_angle)
        return (r * math.cos(phi), r * math.sin(phi), draw(_speed),
                draw(_speed))
    slow = st.floats(-3e-3, 3e-3)
    depth = draw(st.floats(1e-8, 1e-2))
    return 0.0, TRAP.radius * (1.0 - depth), draw(slow), draw(slow)


# on the wall at its leftmost point, moving straight down against an
# upward pull: the path runs outside the wall along its tangent, and
# rho^2 - R^2 = y(t)^2 touches zero from outside at 3.1855 ms
_TANGENT_ON_WALL = (-9.5e-05, 1.16e-20, -1.91e-18, -0.015625)


def _hit_rows(on_wall):
    # up to 10 ms, the longest interval these tests hand to propagate
    return st.lists(st.tuples(_hit_state(on_wall), st.floats(1e-6, 1e-2)),
                    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(case=st.booleans().flatmap(
           lambda on_wall: st.tuples(st.just(on_wall), _hit_rows(on_wall))),
       g=st.sampled_from([9.81, -9.81, 1e-3]))
@example(case=(True, [(_TANGENT_ON_WALL, 0.0078125)]), g=-9.81)
# an atom inside at rest but for subnormal speeds: on the concave piece at
# t = 0 the Newton step from P' = 2 x vx ~ 1e-317 overflows
@example(case=(False, [((4.75e-05, 0.0, 2.2250738585e-313,
                         2.225073858507e-311), 0.0078125)]), g=9.81)
def test_first_root_matches_eigvals(case, g):
    on_wall, rows = case
    states, horizon = zip(*rows)
    horizon = np.array(horizon)
    coef = _hit_coefficients(states, g, on_wall)
    got = _first_root(coef, horizon)
    want = _first_root_eigvals(coef, horizon)
    for i in range(len(states)):
        if _near_miss(coef[i], horizon[i], on_wall, min(got[i], want[i])):
            continue
        assert np.isfinite(got[i]) == np.isfinite(want[i]), (states[i], g)
        if np.isfinite(got[i]):
            assert abs(got[i] - want[i]) <= 1e-12 * horizon[i]


def _poly_from_roots(*roots):
    """Coefficients, lowest power first, of the monic polynomial."""
    return np.polynomial.polynomial.polyfromroots(roots)


_EPS = 2.0 ** -40       # 0.25 +- _EPS is exact, and sqrt(_EPS) = 2**-20


def _touch(eps):
    """(t^2 - 4) ((t - 0.5)^2 + eps): below zero on [0, 2) up to a peak
    near 0.5 that misses zero by about 3.75 eps."""
    return np.polynomial.polynomial.polymul([-4.0, 0.0, 1.0],
                                            [0.25 + eps, -1.0, 1.0])


@pytest.mark.parametrize("coef, horizon, root", [
    # convex on [0, h]: P'' = 12 t^2 + 1.5 > 0, rising root at 0.5
    ([-0.25, 0.0, 0.75, 0.0, 1.0], 1.0, 0.5),
    # P'' < 0 on [0, 1.068]: that concave piece rises through 0.2 and falls
    # through 0.6, before the convex piece rises through 2
    (_poly_from_roots(-1.0, 0.2, 0.6, 2.0), 1.0, 0.2),
    (_poly_from_roots(-1.0, 0.2, 0.6, 2.0), 3.0, 0.2),
    (_poly_from_roots(0.2, 0.6, 2.0), 3.0, 0.2),     # cubic, concave first
    # convex from zero, where it falls: a dip, which rises through 0.5; the
    # factor of an atom that leaves the wall tangentially, pulled inward
    (_poly_from_roots(-1.0, 0.0, 0.5), 1.0, 0.5),
    # near miss: P peaks at -3.75 eps near 0.5, then rises through 2
    (_touch(_EPS), 3.0, 2.0),
    (_touch(_EPS), 1.9, math.inf),
])
def test_first_root_by_curvature(coef, horizon, root):
    got = _first_root(np.array([coef], dtype=float), np.array([horizon]))
    assert got[0] == pytest.approx(root, rel=1e-12)


def test_first_root_skips_a_dip_that_cannot_reach_zero():
    # an atom inside, 10 ms of flight: convex up to 2.96 ms, where it has hit
    # at 1.98 ms, concave to 8.28 ms, then convex again from above zero
    # with P' < 0: a dip is possible, but the tangent from 10 ms reaches
    # zero at -0.46 ms, left of the piece, so there is none
    coef = [-4.98944969429395e-09, -2.547393849195682e-06,
            0.0035334229165218363, -0.5405546284599854, 24.059025000000002]
    got = _first_root(np.array([coef]), np.array([0.01]))
    assert got[0] == pytest.approx(1.98121e-3, rel=1e-5)


def test_first_root_grazing_hit():
    # P peaks at +3.75 eps and rises through 0.5 - 2**-20 first; there its
    # slope is only 7.5e-6, so rounding in P (about 1e-15) moves the root by
    # about 1e-10
    got = _first_root(np.array([_touch(-_EPS)]), np.array([3.0]))
    assert got[0] == pytest.approx(0.5 - 2.0 ** -20, abs=1e-9)


def test_touch_from_outside_is_no_hit():
    # a double root of rho^2 - R^2 >= 0 is a touch, not a rising root; the
    # atom slides along the outside of the wall, which propagate refuses.
    # Mirrored in y, the state falls under g >= 0 with the same polynomial
    g = CONSTANTS.g_earth
    x, y, vx, vy = _TANGENT_ON_WALL
    y, vy = -y, -vy
    coef = _hit_coefficients([(x, y, vx, vy)], g, on_wall=True)
    assert np.array_equal(
        coef, _hit_coefficients([_TANGENT_ON_WALL], -g, on_wall=True))
    assert _first_root(coef, np.array([0.0078125]))[0] == math.inf
    ens = AtomEnsemble(np.array([[x, y, 0.0]]), np.array([[vx, vy, 0.0]]))
    with pytest.raises(NumericalError):
        propagate(ens, 0.0, 0.0078125, trap=TRAP, gravity=g)


def test_hard_wall_energy_conserved():
    ens = sample_thermal_ensemble(2000, TRAP, T15, seed=7)
    e0 = mechanical_energy(ens, CONSTANTS.g_earth)
    out = propagate(ens, 0.0, 5e-3, trap=TRAP)
    e1 = mechanical_energy(out, CONSTANTS.g_earth)
    # bounded relative to the thermal energy scale
    scale = 1.5 * CONSTANTS.k_B * T15
    assert np.max(np.abs(e1 - e0)) / scale < 1e-12


def test_hard_wall_containment():
    ens = sample_thermal_ensemble(5000, TRAP, T15, seed=8)
    out = propagate(ens, 0.0, 10e-3, trap=TRAP)
    rho = np.hypot(out.positions[:, 0], out.positions[:, 1])
    assert np.all(rho <= TRAP.radius * (1 + 1e-9))
    assert np.all(np.abs(out.positions[:, 2]) <= TRAP.length / 2 * (1 + 1e-9))


def test_free_fall_matches_kinematics():
    big = TrapGeometry(radius=1.0, length=1.0)   # walls far away
    pos = np.zeros((1, 3))
    vel = np.array([[1e-3, 2e-3, 0.5e-3]])
    ens = AtomEnsemble(pos.copy(), vel.copy())
    t = 20e-3
    out = propagate(ens, 0.0, t, dt=1e-4, trap=big)
    g = CONSTANTS.g_earth
    assert out.positions[0, 0] == pytest.approx(vel[0, 0] * t, rel=1e-9)
    assert out.positions[0, 1] == pytest.approx(
        vel[0, 1] * t - 0.5 * g * t * t, rel=1e-9)
    assert out.velocities[0, 1] == pytest.approx(vel[0, 1] - g * t, rel=1e-9)


def test_bounce_return_time():
    # an atom dropped from the axis returns to the axis at 2 sqrt(2R/g)
    pos = np.zeros((1, 3))
    vel = np.zeros((1, 3))
    ens = AtomEnsemble(pos, vel)
    g = CONSTANTS.g_earth
    t_return = 2.0 * math.sqrt(2.0 * TRAP.radius / g)
    out = propagate(ens, 0.0, t_return, dt=2e-6, trap=TRAP, gravity=g)
    assert abs(out.positions[0, 1]) < 1e-7     # back near the axis


def test_substep_guard():
    # a Verlet sub-step must resolve the soft flank of the wall
    trap = TrapGeometry(ring=RingPotential())
    ens = sample_thermal_ensemble(100, trap, T15, seed=9)
    with pytest.raises(ConfigurationError, match="wall-crossing"):
        propagate(ens, 0.0, 1e-3, dt=1e-3, trap=trap)
    with pytest.raises(ValueError, match="dt must be positive"):
        propagate(ens, 0.0, 1e-3, dt=0.0, trap=trap)


def test_hard_walls_do_not_read_dt():
    # the hard-wall flight is exact, so no sub-step enters it
    ens = sample_thermal_ensemble(2000, TRAP, T15, seed=9)
    ref = propagate(ens, 0.0, 3e-3, dt=5e-6, trap=TRAP)
    for dt in (1e-3, 2e-5):
        out = propagate(ens, 0.0, 3e-3, dt=dt, trap=TRAP)
        assert np.array_equal(out.positions, ref.positions)
        assert np.array_equal(out.velocities, ref.velocities)


@pytest.mark.parametrize("ring", [None, RingPotential()],
                         ids=["hard", "soft"])
def test_propagate_leaves_its_input_alone(ring):
    # run_scenario keeps the first sample's positions as the phi_2 origin
    # while it propagates on from them
    trap = TrapGeometry(ring=ring)
    ens = sample_thermal_ensemble(500, trap, T15, seed=12)
    pos, vel = ens.positions.copy(), ens.velocities.copy()
    out = propagate(ens, 0.0, 2e-3, trap=trap)
    assert np.array_equal(ens.positions, pos)
    assert np.array_equal(ens.velocities, vel)
    assert not np.array_equal(out.positions, pos)
    for a in (out.positions, out.velocities):
        for b in (ens.positions, ens.velocities):
            assert not np.shares_memory(a, b)


def test_soft_wall_energy_drift_100ms():
    ring = RingPotential()
    trap = TrapGeometry(radius=ring.ring_radius, ring=ring)
    ens = sample_thermal_ensemble(300, trap, T15, seed=11)
    g = CONSTANTS.g_earth

    def total_energy(e):
        rho = np.hypot(e.positions[:, 0], e.positions[:, 1])
        pot = potential_at(rho, ring) * CONSTANTS.k_B
        # offset gravity so the energy scale is positive definite
        return (mechanical_energy(e, g) + pot
                + CONSTANTS.m_atom * g * trap.radius)

    e0 = total_energy(ens)
    out = propagate(ens, 0.0, 100e-3, dt=5e-6, trap=trap, gravity=g)
    e1 = total_energy(out)
    drift = np.max(np.abs(e1 - e0)) / np.mean(e0)
    assert drift < 1e-3
