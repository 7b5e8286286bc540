import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from boxmem.constants import CONSTANTS
from boxmem.ensemble import AtomEnsemble
from boxmem.errors import EmptyModeError, GridCoverageError
from boxmem.geometry import RingPotential, potential_at
from boxmem.lightshift import differential_shift, simulate_coherence
from boxmem.spinwave import (_blur_matrix, assign_excitation, atom_survival,
                             collinear_delta_k, density_estimate,
                             efficiency_total, mode_overlap)

# the scenario's default grid: +-150 um in 128 cells and a 10 um kernel
GRID = dict(extent=150e-6, resolution=128, bandwidth=10e-6)
CELL_AREA = (300e-6 / 128) ** 2


def _overlap(a, b, cell_area=CELL_AREA):
    """mode_overlap of two grids, from their square roots."""
    return mode_overlap(np.sqrt(a), np.sqrt(b), cell_area)


def test_spinwave_wavelength_collinear():
    dk = collinear_delta_k()
    assert dk[0] == dk[1] == 0.0          # along the trap axis
    lam = 2.0 * math.pi / np.linalg.norm(dk)
    assert lam == pytest.approx(4.386e-2, rel=0.02)
    # same number from first principles
    assert lam == pytest.approx(CONSTANTS.c / CONSTANTS.nu_hf, rel=1e-9)


def test_excitation_weights_normalized():
    rng = np.random.default_rng(0)
    pos = rng.normal(scale=50e-6, size=(5000, 3))
    w = assign_excitation(pos)
    assert np.sum(w**2) == pytest.approx(1.0, rel=1e-12)
    assert 1.0 / np.sum(w**4) > 1.0    # participation number


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       spread=st.floats(1e-6, 300e-6),
       center=st.tuples(st.floats(-150e-6, 150e-6), st.floats(-150e-6, 150e-6)),
       waist=st.floats(5e-6, 400e-6))
def test_excitation_weights_have_unit_norm(seed, n, spread, center, waist):
    rng = np.random.default_rng(seed)
    pos = rng.normal(scale=spread, size=(n, 3))
    d2 = (pos[:, 0] - center[0]) ** 2 + (pos[:, 1] - center[1]) ** 2
    if np.max(np.exp(-d2 / waist**2)) < 1e-30:
        with pytest.raises(EmptyModeError):
            assign_excitation(pos, center, waist)
        return
    w = assign_excitation(pos, center, waist)
    assert np.all(w >= 0)
    assert np.sum(w**2) == pytest.approx(1.0, rel=1e-12)


def test_excitation_favors_mode_center():
    pos = np.array([[0.0, 0.0, 0.0], [100e-6, 0.0, 0.0]])
    w = assign_excitation(pos)
    assert w[0] > w[1]
    # exp(-(100/65)^2) raw ratio survives normalization
    assert w[1] / w[0] == pytest.approx(
        math.exp(-(100.0 / 65.0) ** 2), rel=1e-9)


def test_empty_mode_rejected():
    pos = np.array([[1.0, 1.0, 0.0]])     # a metre away from the beam
    with pytest.raises(EmptyModeError):
        assign_excitation(pos)


@pytest.mark.parametrize("waist", [0.0, -65e-6, math.nan, math.inf])
def test_excitation_rejects_bad_waist(waist):
    # an infinite waist would weight every atom equally
    with pytest.raises(ValueError, match="waist must be finite and positive"):
        assign_excitation(np.zeros((3, 3)), waist=waist)


@pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf),
                                    (-math.inf, 0.0), (0.0,), (0.0, 0.0, 0.0)],
                         ids=["nan-x", "inf-y", "-inf-x", "one", "three"])
def test_excitation_rejects_bad_center(center):
    # a NaN center would give all-NaN weights
    with pytest.raises(ValueError, match="center must be finite and two"):
        assign_excitation(np.zeros((3, 3)), center=center)


def test_density_unit_integral():
    rng = np.random.default_rng(1)
    pos = rng.normal(scale=40e-6, size=(20000, 2))
    w = np.full(20000, 1.0 / math.sqrt(20000))
    [grid] = density_estimate(w**2, pos, **GRID)
    assert grid.sum() * CELL_AREA == pytest.approx(1.0, rel=1e-9)
    assert np.all(grid >= 0.0)


def _second_moments(grid):
    """Variance of a GRID-shaped distribution along x and y (m^2)."""
    cell = 2.0 * GRID["extent"] / GRID["resolution"]
    c = -GRID["extent"] + cell * (np.arange(GRID["resolution"]) + 0.5)
    variances = []
    for p in (grid.sum(axis=1), grid.sum(axis=0)):
        mean = np.sum(c * p) / np.sum(p)
        variances.append(float(np.sum((c - mean) ** 2 * p) / np.sum(p)))
    return variances


def test_density_second_moment_includes_bandwidth():
    rng = np.random.default_rng(2)
    sigma = 30e-6
    h = 10e-6
    pos = rng.normal(scale=sigma, size=(200000, 2))
    w = np.full(len(pos), 1.0 / math.sqrt(len(pos)))
    [grid] = density_estimate(w**2, pos, **{**GRID, "bandwidth": h})
    vx, vy = _second_moments(grid)
    assert vx == pytest.approx(sigma**2 + h**2, rel=0.02)
    assert vy == pytest.approx(sigma**2 + h**2, rel=0.02)


def test_grid_coverage_guard():
    pos = np.array([[0.0, 0.0], [200e-6, 0.0]])   # second atom off-grid
    w = np.array([0.1, 1.0])
    with pytest.raises(GridCoverageError):
        density_estimate(w**2, pos, **GRID)


def _density_estimate_add_at(mass, positions_xy, extent=150e-6,
                             resolution=128, bandwidth=10e-6):
    """Reference for density_estimate: one grid, its cloud-in-cell
    deposit made by four sequential np.add.at calls, one per corner, then
    blurred by the products of _blur_matrix."""
    inside = (np.abs(positions_xy[:, 0]) < extent) \
        & (np.abs(positions_xy[:, 1]) < extent)
    cell = 2.0 * extent / resolution
    fx = (positions_xy[inside, 0] + extent) / cell - 0.5
    fy = (positions_xy[inside, 1] + extent) / cell - 0.5
    ix = np.floor(fx).astype(np.int64)
    iy = np.floor(fy).astype(np.int64)
    tx = fx - ix
    ty = fy - iy
    grid = np.zeros((resolution, resolution))
    m = mass[inside]
    for dx, wx in ((0, 1.0 - tx), (1, tx)):
        for dy, wy in ((0, 1.0 - ty), (1, ty)):
            gx = np.clip(ix + dx, 0, resolution - 1)
            gy = np.clip(iy + dy, 0, resolution - 1)
            np.add.at(grid, (gx, gy), m * wx * wy)
    blur = _blur_matrix(bandwidth / cell, resolution)
    grid = blur @ grid @ blur
    return grid / (grid.sum() * cell * cell)


@pytest.mark.parametrize("resolution", [8, 9, 64, 128, 200, 256])
@pytest.mark.parametrize("sigma", [0.3, 1.0, 4.27, 16.0, 40.0])
def test_blur_matrix_matches_gaussian_filter(resolution, sigma):
    # the products blur as scipy's zero-padded filter does, up to rounding;
    # at sigma 16 and 40 cells the radius int(8 sigma + 0.5) passes the
    # grid on most of these resolutions
    rng = np.random.default_rng(resolution)
    stack = rng.random((17, resolution, resolution)) ** 4
    blur = _blur_matrix(sigma, resolution)
    got = blur @ stack @ blur
    want = gaussian_filter(stack, sigma=(0.0, sigma, sigma), mode="constant",
                           truncate=8.0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    # a grid's bits do not depend on how many grids are blurred at once
    assert np.array_equal(got, np.stack([blur @ g @ blur for g in stack]))


def _tagged_cloud(n, seed):
    """n atoms of a cloud wider than the grid, tagged by the signal mode."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(scale=70e-6, size=(n, 2))
    return assign_excitation(pos), pos


def _narrow_clouds(n, resolution, seed):
    """Clouds whose deposit leaves most rows or columns empty: one in a
    corner of the grid, one inside its first row of cells, and the tagged
    cloud plus an atom at a finite 1e300 m with 0.25 % of the weight."""
    rng = np.random.default_rng(seed)
    corner = rng.normal(scale=6e-6, size=(n, 2)) + [-125e-6, 120e-6]
    row = np.column_stack((np.full(n, -150e-6 + 0.2 * 300e-6 / resolution),
                           rng.uniform(-100e-6, 100e-6, n)))
    w, pos = _tagged_cloud(n, seed)
    return [(rng.random(n) + 0.01, corner), (rng.random(n) + 0.01, row),
            (np.append(w, 0.05), np.vstack((pos, [1e300, 1e300])))]


@pytest.mark.parametrize("n", [1, 1000, 100_000])
@pytest.mark.parametrize("resolution", [64, 128, 200])
def test_density_matches_add_at_deposit(n, resolution):
    # the blur sums over the occupied rows and columns only, and an
    # off-grid atom deposits zero mass: neither moves a bit, in any row
    grid = {**GRID, "resolution": resolution}
    for w, pos in [_tagged_cloud(n, seed=n + resolution),
                   *_narrow_clouds(n, resolution, seed=n + resolution)]:
        [got] = density_estimate(w**2, pos, **grid)
        assert np.array_equal(got, _density_estimate_add_at(
            w**2, pos, resolution=resolution))
        counts = np.random.default_rng(5).integers(0, 3, size=(2, len(w)))
        counts[:, 0] = 1                    # no replica is empty
        mass = np.vstack((w**2, counts * w**2))
        grids = density_estimate(mass, pos, **grid)
        assert grids.shape == (3, resolution, resolution)
        for m, got in zip(mass, grids):
            assert np.array_equal(got, _density_estimate_add_at(
                m, pos, resolution=resolution))


def _replica_masses(w, n_reps, seed):
    """Row 0 the mode's w^2, then n_reps rows k_i w_i^2 of random
    multiplicities k_i in {0, 1, 2}."""
    counts = np.random.default_rng(seed).integers(0, 3, (n_reps, len(w)))
    return np.vstack((w**2, counts * w**2))


def test_density_row_is_its_one_row_call():
    w, pos = _tagged_cloud(5000, seed=8)
    mass = _replica_masses(w, 3, seed=8)
    grids = density_estimate(mass, pos, **GRID)
    assert grids.shape == (4, 128, 128)
    for m, got in zip(mass, grids):
        assert np.array_equal(density_estimate(m, pos, **GRID), got[None])


@pytest.mark.parametrize("n_reps", [0, 3])
def test_density_out_holds_the_grids_bit_for_bit(n_reps):
    w, pos = _tagged_cloud(20_000, seed=n_reps)
    mass = _replica_masses(w, n_reps, seed=n_reps)
    want = density_estimate(mass, pos, **GRID)
    out = np.full((1 + n_reps, 128, 128), np.nan)
    assert density_estimate(mass, pos, **GRID, out=out) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("out", [
    np.empty((2, 16, 16)),                  # one grid too many
    np.empty((1, 16, 8)),
    np.empty((16, 16)),
    np.empty((1, 16, 16), dtype=np.float32),
    np.empty((1, 16, 16), dtype=complex),
    np.empty((1, 16, 32))[:, :, ::2],       # strided
    np.empty((1, 16, 16), order="F"),
    [[[0.0] * 16] * 16],                    # not an array
])
def test_density_estimate_rejects_bad_out(out):
    args = dict(mass=[1.0, 1.0, 1.0, 1e-4], positions_xy=np.zeros((4, 2)),
                extent=150e-6, resolution=16, bandwidth=10e-6)
    density_estimate(**args, out=np.empty((1, 16, 16)))
    with pytest.raises(ValueError, match="out must be"):
        density_estimate(**args, out=out)


@pytest.mark.parametrize("change", [
    {"mass": [1.0, 1.0, math.nan, 1.0]},
    {"mass": [1.0, 1.0, 1.0, math.inf]},
    {"mass": np.ones((4, 1))},
    {"positions_xy": [[0.0, 0.0]] * 3 + [[math.nan, 0.0]]},   # < 1 % of mass
    {"positions_xy": [[0.0, 0.0]] * 3 + [[0.0, -math.inf]]},
    {"positions_xy": np.zeros((4, 3))},
    {"positions_xy": np.zeros((3, 2))},
    {"mass": [[1.0, 1.0, 1.0, 1e-4], [1.0, 1.0, math.nan, 1.0]]},
    {"mass": [[1.0, 1.0, 1.0, 1e-4], [1.0, 1.0, math.inf, 1.0]]},
    {"mass": [[1.0, 1.0, 1.0, 1e-4], [1.0, 1.0, -1.0, 1.0]]},
    {"mass": np.ones((2, 3))},
    {"mass": np.ones((1, 2, 4))},
    {"bandwidth": math.nan}, {"bandwidth": math.inf}, {"bandwidth": 0.0},
    {"extent": math.nan}, {"extent": math.inf}, {"extent": 0.0},
    {"extent": -1e-4},
    {"resolution": 0}, {"resolution": 2.5}, {"resolution": True},
    {"mass": [0.0, 0.0, 0.0, 0.0]},
    {"mass": [[1.0, 1.0, 1.0, 1e-4], [0.0, 0.0, 0.0, 0.0]]},
])
def test_density_estimate_rejects_bad_input(change):
    args = dict(mass=[[1.0, 1.0, 1.0, 1e-4], [2.0, 0.0, 1.0, 1e-4]],
                positions_xy=np.zeros((4, 2)), extent=150e-6, resolution=16,
                bandwidth=10e-6)
    density_estimate(**args)
    with pytest.raises(ValueError) as err:
        density_estimate(**{**args, **change})
    # a bad input is refused as such, not as weight off the grid
    assert not isinstance(err.value, GridCoverageError)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replica_counts_match_gathered_replica(seed):
    w, pos = _tagged_cloud(20_000, seed)
    rng = np.random.default_rng(seed)
    picks = [rng.integers(0, len(w), size=len(w)) for _ in range(4)]
    counts = np.array([np.bincount(idx, minlength=len(w)) for idx in picks])
    grids = density_estimate(counts * w**2, pos, **GRID)
    for idx, got in zip(picks, grids):
        [want] = density_estimate(w[idx] ** 2, pos[idx], **GRID)
        assert np.max(np.abs(got - want)) <= 1e-15 * want.max()
    # a replica that draws every atom once is the base ensemble, bit for bit
    once = density_estimate([w**2, np.ones(len(w)) * w**2], pos, **GRID)
    assert np.array_equal(once[1], once[0])


def test_replica_coverage_is_checked_on_its_own_mass():
    # one atom of 200 off the grid: 0.5 % of the base weight, but 5 / 204
    # of a replica that draws it five times
    pos = np.zeros((200, 2))
    pos[0] = [200e-6, 0.0]
    mass = np.full((2, 200), 1.0 / 200)
    density_estimate(mass[0], pos, **GRID)
    mass[1, 0] *= 5
    with pytest.raises(GridCoverageError):
        density_estimate(mass, pos, **GRID)


def test_overlap_identity_and_symmetry():
    rng = np.random.default_rng(3)
    w = np.full(10000, 1.0 / 100.0)
    [a] = density_estimate(w**2, rng.normal(scale=30e-6, size=(10000, 2)),
                           **GRID)
    [b] = density_estimate(w**2, rng.normal(scale=45e-6, size=(10000, 2)),
                           **GRID)
    assert _overlap(a, a) == pytest.approx(1.0, rel=1e-9)
    r_ab, r_ba = _overlap(a, b), _overlap(b, a)
    assert r_ab == pytest.approx(r_ba, rel=1e-12)
    assert 0.0 < r_ab < 1.0
    # the squared sum of the roots' products, in that order of operations
    assert r_ab == float(np.sum(np.sqrt(a) * np.sqrt(b)) * CELL_AREA) ** 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       spreads=st.tuples(st.floats(1e-6, 100e-6), st.floats(1e-6, 100e-6)),
       resolution=st.integers(8, 48), bandwidth=st.floats(1e-6, 60e-6))
def test_overlap_symmetric_bounded_and_one_on_itself(seed, n, spreads,
                                                     resolution, bandwidth):
    rng = np.random.default_rng(seed)
    [a], [b] = (density_estimate(
        (rng.random(n) + 0.01) ** 2,
        np.clip(rng.normal(scale=s, size=(n, 2)), -140e-6, 140e-6),
        extent=150e-6, resolution=resolution, bandwidth=bandwidth)
        for s in spreads)
    area = (300e-6 / resolution) ** 2
    assert _overlap(a, a, area) == pytest.approx(1.0, abs=1e-12)
    assert _overlap(a, b, area) == _overlap(b, a, area)
    assert 0.0 <= _overlap(a, b, area) <= 1.0 + 1e-12


def test_overlap_gaussian_closed_form():
    # two isotropic Gaussians with equal covariance s^2, displaced by d:
    # squared Bhattacharyya overlap = exp(-d^2 / (4 s^2))
    rng = np.random.default_rng(4)
    n = 400000
    base = rng.normal(scale=30e-6, size=(n, 2))
    w = np.full(n, n**-0.5)
    d = 40e-6
    h = 3e-6
    grid = {**GRID, "bandwidth": h}
    [a] = density_estimate(w**2, base, **grid)
    [b] = density_estimate(w**2, base + np.array([d, 0.0]), **grid)
    s2 = (30e-6) ** 2 + h**2
    assert _overlap(a, b) == pytest.approx(
        math.exp(-d**2 / (4 * s2)), rel=0.01)


def test_overlap_requires_matching_shapes():
    [a] = density_estimate([1.0], np.zeros((1, 2)),
                           **{**GRID, "resolution": 64})
    [b] = density_estimate([1.0], np.zeros((1, 2)), **GRID)
    for r0, rt in ((a, b), (b, a), (b, b[None]), (b[:, :64], b[:64])):
        with pytest.raises(ValueError, match="grids do not match"):
            mode_overlap(r0, rt, CELL_AREA)


def test_atom_survival_examples():
    assert atom_survival(0.0) == 1.0
    # equal-weight 160 ms / 580 ms components
    t = 0.2
    expected = 0.5 * math.exp(-t / 0.16) + 0.5 * math.exp(-t / 0.58)
    assert atom_survival(t) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        atom_survival(0.1, fast_fraction=1.5)
    with pytest.raises(ValueError):
        atom_survival(0.1, tau_fast=0.0)
    with pytest.raises(ValueError):
        atom_survival(0.1, tau_fast=math.nan)


def test_efficiency_composition():
    times = np.array([0.0, 28e-3])
    overlap = np.array([1.0, 1.0])
    curve = efficiency_total(times, overlap, tau_dephase=28e-3)
    assert curve.total[0] == 1.0
    assert curve.dephasing[1] == pytest.approx(1.0 / math.e, rel=1e-9)
    assert curve.total[1] == pytest.approx(
        (1.0 / math.e) * atom_survival(28e-3), rel=1e-9)
    with pytest.raises(ValueError):
        efficiency_total(times, np.array([1.0, 1.5]))
    # an infinite time constant means no decay
    flat = efficiency_total(times, overlap, tau_dephase=math.inf,
                            tau_fast=math.inf, tau_slow=math.inf)
    assert np.array_equal(flat.total, [1.0, 1.0])


@pytest.mark.parametrize("change", [
    {"overlap": [0.0, 1.0]}, {"overlap": [1.0, math.nan]},
    {"times": [0.0, math.nan]}, {"times": [0.0, math.inf]},
    {"times": [], "overlap": []}, {"times": [0.0]},
    {"times": [[0.0, 1e-3]], "overlap": [[1.0, 0.5]]},
    {"tau_dephase": math.nan}, {"tau_dephase": 0.0},
    {"tau_fast": math.nan}, {"tau_slow": math.nan},
    {"fast_fraction": math.nan},
])
def test_efficiency_total_rejects_bad_input(change):
    args = dict(times=[0.0, 1e-3], overlap=[1.0, 0.5])
    efficiency_total(**args)
    with pytest.raises(ValueError):
        efficiency_total(**{**args, **change})


def test_grid_resolution_convergence():
    rng = np.random.default_rng(5)
    n = 50000
    base = rng.normal(scale=35e-6, size=(n, 2))
    moved = base + np.array([20e-6, 0.0])
    w = np.full(n, n**-0.5)
    vals = []
    for res in (128, 256):
        [a] = density_estimate(w**2, base, **{**GRID, "resolution": res})
        [b] = density_estimate(w**2, moved, **{**GRID, "resolution": res})
        vals.append(_overlap(a, b, (300e-6 / res) ** 2))
    assert vals[0] == pytest.approx(vals[1], rel=0.01)


def test_phase_evolution_from_light_shift():
    # two atoms at rest without gravity in the ring's trap: one parked at the
    # ring peak, one on the axis, where the flank's force is zero.  Each
    # accumulates omega(r) t, so the coherence of the pair is
    # |cos((omega_peak - omega_axis) t / 2)|, sampled up to its first value
    # below 1/e
    ring = RingPotential()
    pos = np.array([[ring.ring_radius, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ens = AtomEnsemble(pos, np.zeros_like(pos))
    times, c = simulate_coherence(ring, ens, t_max=2e-4, sample_dt=1e-5,
                                  gravity=0.0)
    peak, axis = differential_shift(
        potential_at([ring.ring_radius, 0.0], ring) * CONSTANTS.k_B)
    expected = np.abs(np.cos(0.5 * (peak - axis) * times))
    np.testing.assert_allclose(c, expected, rtol=0.0, atol=1e-9)
    assert len(times) < 21       # the peak atom dephases from the axis atom
    assert c[-1] < 1.0 / math.e <= c[:-1].min()
