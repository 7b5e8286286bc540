"""The singly-excited spin wave: per-atom weights, transverse mode
estimation, and retrieval-efficiency composition.

The stored excitation is one weight per atom; the beams are collinear, so
the spin wave's wave vector ``collinear_delta_k()`` lies along the trap
axis.  Its storage phases are folded over the trajectory by their consumers
(the phi_2 coherence of ``pipeline.run_scenario`` and the light-shift phase
of ``lightshift.simulate_coherence``).  The transverse mode U(x, y, t) is
the weight-squared distribution estimated on a grid with a Gaussian kernel;
retrieval is scored by the Bhattacharyya overlap squared,

    R(dT) = ( sum_cells sqrt(U0) sqrt(Ut) * cell_area )^2,

composed multiplicatively with a dephasing exponential and the measured
double-exponential atom survival.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import EmptyModeError, GridCoverageError

MAX_OUTSIDE = 0.01  # share of the excitation weight allowed off the grid


def collinear_delta_k() -> np.ndarray:
    """delta_k for collinear beams split by the clock frequency (along z)."""
    return np.array([0.0, 0.0, 2.0 * math.pi * CONSTANTS.nu_hf / CONSTANTS.c])


def assign_excitation(positions: np.ndarray,
                      center: tuple[float, float] = (0.0, 0.0),
                      # 130 um signal / 550 um write-read diameters are
                      # 1/e^2 intensity diameters; the field waist is half
                      waist: float = 65e-6) -> np.ndarray:
    """The spin wave's weights: raw weight exp(-|r_perp - center|^2 / w0^2)
    from the signal mode at transverse ``center`` (x, y) (m) with field
    waist w0 = ``waist`` (m), normalized so that sum w^2 = 1.

    The much larger write mode (275 um waist) varies by < 6% over the
    signal waist, so it is treated as uniform and takes no argument.
    """
    if not (len(center) == 2 and all(map(math.isfinite, center))):
        raise ValueError("center must be finite and two numbers (x, y)")
    if not 0 < waist < math.inf:
        raise ValueError("waist must be finite and positive")
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if len(positions) == 0:
        raise ValueError("at least one atom is required")
    d2 = ((positions[:, 0] - center[0]) ** 2
          + (positions[:, 1] - center[1]) ** 2)
    raw = np.exp(-d2 / waist**2)
    if np.max(raw) < 1e-30:
        raise EmptyModeError("signal mode does not overlap the atomic cloud")
    return raw / np.sqrt(np.sum(raw**2))


def _cic_axis(u, extent, cell, resolution):
    """Cloud-in-cell stencil along one axis: the indices of the two cell
    centres around each coordinate u, lower first and clipped to the grid,
    and the weights of each, shape (2, len(u))."""
    f = (u + extent) / cell - 0.5
    i = np.floor(f).astype(np.int64)
    t = f - i
    return (np.clip(i + np.array([[0], [1]]), 0, resolution - 1),
            np.stack((1.0 - t, t)))


def _blur_matrix(sigma: float, resolution: int) -> np.ndarray:
    """The symmetric (resolution, resolution) matrix B of a zero-padded
    Gaussian blur of ``sigma`` cells, so that ``B @ grid @ B`` blurs both
    axes: the kernel of radius int(8 sigma + 0.5) with weights
    exp(-x^2 / 2 sigma^2), normalised over [-radius, radius] and zero past
    the grid edge."""
    radius = int(8.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x**2)
    kernel /= kernel.sum()
    taps = np.zeros(resolution)             # weight by cell distance
    half = kernel[radius:radius + resolution]
    taps[:len(half)] = half
    cells = np.arange(resolution)
    return taps[np.abs(cells[:, None] - cells[None])]


def density_estimate(mass: np.ndarray, positions_xy: np.ndarray,
                     extent: float, resolution: int, bandwidth: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Kernel density estimates of K per-atom masses of one cloud on a
    square grid spanning [-extent, extent] in ``resolution`` cells per axis.

    ``mass`` is (K, n), or (n,) for K = 1: a transverse mode weighs atom i
    by w_i^2, and a bootstrap replica that draws it k_i times by k_i w_i^2.
    Each row is deposited cloud-in-cell, blurred by an isotropic Gaussian of
    standard deviation ``bandwidth`` (zero-padded boundaries, kernel cut at
    8 standard deviations) and normalized to unit integral.  All rows share
    one stencil and one blur matrix, so row k's grid has the bits of the
    one-row call of ``mass[k]``.  The blur is two BLAS products by
    ``_blur_matrix``, each summed over occupied rows or columns only, so a
    grid's last bits follow the BLAS kernel.  Each row's grid coverage is
    checked on its own mass.  Non-finite or negative masses, non-finite
    positions and bad grid settings raise ValueError.

    Returns the (K, resolution, resolution) grids, index [k, ix, iy].  They
    are written into ``out`` when it is given, a C-contiguous float64 array
    of that shape, which is returned: a caller that estimates many clouds in
    turn passes one stack to every call instead of faulting in fresh grids.
    """
    mass = np.atleast_2d(np.asarray(mass, dtype=float))
    positions_xy = np.asarray(positions_xy, dtype=float)
    if not (mass.ndim == 2 and positions_xy.shape == (mass.shape[1], 2)
            and np.all(np.isfinite(mass)) and np.all(mass >= 0)
            and all(np.isfinite(u).all() for u in positions_xy.T)):
        raise ValueError("mass (K, n) must be finite and non-negative, and"
                         " positions (n, 2) finite")
    if not (math.isfinite(bandwidth) and bandwidth > 0
            and math.isfinite(extent) and extent > 0):
        raise ValueError("bandwidth and extent must be finite and positive")
    if (isinstance(resolution, bool)
            or not isinstance(resolution, (int, np.integer))
            or resolution < 1):
        raise ValueError("resolution must be an integer >= 1")
    shape = (len(mass), resolution, resolution)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == shape and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array of shape"
                         " (K, resolution, resolution)")
    totals = mass.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("total weight must be positive")

    inside = (np.abs(positions_xy[:, 0]) < extent) \
        & (np.abs(positions_xy[:, 1]) < extent)
    if np.any(mass @ ~inside > MAX_OUTSIDE * totals):
        raise GridCoverageError(
            "more than {:.0%} of the excitation weight lies outside the grid"
            .format(MAX_OUTSIDE))

    cell = 2.0 * extent / resolution
    (gx, wx), (gy, wy) = (
        _cic_axis(np.where(inside, u, u[inside.argmax()]), extent, cell,
                  resolution) for u in positions_xy.T)
    wx *= inside    # an off-grid atom deposits zero from an on-grid place
    rows = slice(gx.min(), gx.max() + 1)
    cols = slice(gy.min(), gy.max() + 1)
    # the four corners in the order 00, 01, 10, 11 as one flat cell index,
    # so one bincount sums in the order of four sequential np.add.at calls
    flat = (gx[:, None] * resolution + gy[None]).ravel()
    del gx, gy      # freed before the per-grid buffers: lowers peak memory

    blur = _blur_matrix(bandwidth / cell, resolution)
    corner = np.empty((2, 2, mass.shape[1]))
    for m, grid in zip(mass, out):
        # (m * wx) * wy, the product order of the per-corner deposit
        np.multiply(m, wx[:, None], out=corner)
        corner *= wy
        deposit = np.bincount(flat, weights=corner.ravel(),
                              minlength=resolution**2).reshape(resolution, -1)
        np.matmul((blur[:, rows] @ deposit[rows])[:, cols], blur[cols],
                  out=grid)
        grid /= grid.sum() * cell * cell
    return out


def mode_overlap(root0: np.ndarray, root_t: np.ndarray,
                 cell_area: float) -> float:
    """Squared Bhattacharyya overlap (sum root0 root_t cell_area)^2 of two
    unit-integral grids, given their square roots on the same grid."""
    if root0.shape != root_t.shape:
        raise ValueError("grids do not match")
    return float(np.sum(root0 * root_t) * cell_area) ** 2


def atom_survival(t, fast_fraction: float = 0.5, tau_fast: float = 0.16,
                  tau_slow: float = 0.58):
    """Double-exponential trap survival S(t); S(0) = 1.  Vectorized.  An
    infinite time constant means no decay."""
    if not 0.0 <= fast_fraction <= 1.0:
        raise ValueError("fast_fraction must lie in [0, 1]")
    if not (tau_fast > 0 and tau_slow > 0):
        raise ValueError("time constants must be positive")
    t = np.asarray(t, dtype=float)
    return (fast_fraction * np.exp(-t / tau_fast)
            + (1.0 - fast_fraction) * np.exp(-t / tau_slow))


@dataclass
class EfficiencyCurve:
    """Per-time overlap, dephasing, and loss factors; total is their
    product, normalized to the first time point."""

    times: np.ndarray
    overlap: np.ndarray
    dephasing: np.ndarray
    loss: np.ndarray
    total: np.ndarray


TOTAL_COLUMN = "R_total"    # the column fitted, scanned and drawn by default
# CSV column name -> EfficiencyCurve attribute, in file order after t_ms
CURVE_COLUMNS = {"R_overlap": "overlap", "dephasing_factor": "dephasing",
                 "loss_factor": "loss", TOTAL_COLUMN: "total"}


def curve_column(curve: EfficiencyCurve, name: str) -> np.ndarray:
    """The values of the named CSV column of ``curve``."""
    if name not in CURVE_COLUMNS:
        raise ValueError(f"unknown column '{name}'")
    return getattr(curve, CURVE_COLUMNS[name])


def efficiency_total(times, overlap, tau_dephase: float = 28e-3,
                     fast_fraction: float = 0.5, tau_fast: float = 0.16,
                     tau_slow: float = 0.58) -> EfficiencyCurve:
    """Compose total(t) = overlap(t) * exp(-t/tau_dephase) * S(t), each
    factor normalized to its value at the first time point, so the first
    overlap must be positive.  An infinite time constant means no decay."""
    if not tau_dephase > 0:
        raise ValueError("tau_dephase must be positive")
    times = np.asarray(times, dtype=float)
    overlap = np.asarray(overlap, dtype=float)
    if not (times.ndim == 1 and len(times) > 0
            and overlap.shape == times.shape
            and np.all(np.isfinite(times)) and np.all(np.isfinite(overlap))):
        raise ValueError("times and overlap must be finite, non-empty and of"
                         " equal length")
    if np.any(overlap < 0) or np.any(overlap > 1.0 + 1e-9):
        raise ValueError("overlap values must lie in [0, 1]")
    if not overlap[0] > 0:
        raise ValueError("the first overlap must be positive")
    dephasing = np.exp(-times / tau_dephase)
    loss = atom_survival(times, fast_fraction, tau_fast, tau_slow)
    overlap = overlap / overlap[0]
    dephasing = dephasing / dephasing[0]
    loss = loss / loss[0]
    return EfficiencyCurve(times, overlap, dephasing, loss,
                           overlap * dephasing * loss)
