"""Scenario configuration, presets, and the end-to-end efficiency pipeline.

A scenario samples a thermal ensemble, tags the spin wave with the signal
mode, propagates the atoms from one storage time to the next, estimates the
transverse mode on a grid at each, and composes the overlap with dephasing
and atom-loss factors into a normalized efficiency curve (CSV rows).

Strict determinism: a (config, seed) pair fixes every output byte.  Random
streams are counter-based (Philox) and keyed by the master seed.  The density
grids of one storage time (the base mass and each bootstrap replica's) are
deposited from one cloud-in-cell stencil and blurred by two BLAS matrix
products each, in the calling thread.  The grids' last bits follow the BLAS
kernel but not its thread count.
"""

import io
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constants import CONSTANTS
from .ensemble import propagate, sample_thermal_ensemble
from .errors import ConfigurationError
from .geometry import TrapGeometry
from .spinwave import (CURVE_COLUMNS, EfficiencyCurve, assign_excitation,
                       collinear_delta_k, curve_column, density_estimate,
                       efficiency_total, mode_overlap)

CSV_HEADER = ",".join(["t_ms", *CURVE_COLUMNS])
MAX_WORKERS = 64  # bound of the inert `workers`; a larger count is a typo
# a run holds about 300 bytes per atom, so 10^7 atoms need about 3 GB; a
# larger count is taken for a typo rather than left to fail in allocation
MAX_ATOMS = 10_000_000
# cells per axis: a 2048^2 grid takes 32 MiB, and a run holds 2 (1 +
# n_bootstrap) grids at once (the first sample's square roots and the one
# stack that every sample's grids are written into) plus the blur matrix and
# two scratch grids; a finer grid is taken for a typo
MAX_GRID_RESOLUTION = 2048


def _si(default, file_unit):
    """A field with an SI default, set in files as ``<name>_<file_unit>``."""
    return field(default=default, metadata={"unit": file_unit})


@dataclass
class ScenarioConfig:
    """Scenario settings in SI units (K, m, s, m/s^2).  The walls are hard;
    the soft ring flank is the light-shift calibration's."""

    atoms: int = 100_000
    temperature: float = _si(15e-6, "uK")
    trap_radius: float = _si(95e-6, "um")
    trap_length: float = _si(3e-3, "mm")
    gravity_on: bool = True
    gravity: float = _si(CONSTANTS.g_earth, "m_s2")
    mode_offset_x: float = _si(0.0, "um")
    mode_offset_y: float = _si(0.0, "um")
    mode_waist: float = _si(65e-6, "um")
    spatial: str = "thermal"            # initial density: thermal | uniform
    times: np.ndarray = field(
        default_factory=lambda: np.arange(0.0, 20.0001e-3, 0.4e-3))
    tau_dephase: float = _si(28e-3, "ms")
    loss_fast_fraction: float = 0.5
    loss_tau_fast: float = _si(0.16, "ms")
    loss_tau_slow: float = _si(0.58, "ms")
    grid_extent: float = _si(150e-6, "um")
    grid_resolution: int = 128
    kde_bandwidth: float = _si(10e-6, "um")
    seed: int = 0
    workers: int = 1                    # no effect: the KDE runs in one thread

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigurationError(f"{f.name}: must be finite")
            if f.type is int and (isinstance(value, bool) or not isinstance(
                    value, (int, np.integer))):
                raise ConfigurationError(f"{f.name}: must be an integer")
        checks = [
            ("atoms", 1 <= self.atoms <= MAX_ATOMS,
             f"must lie in [1, {MAX_ATOMS}]"),
            ("temperature", self.temperature >= 0, "must be non-negative"),
            ("trap_radius", self.trap_radius > 0, "must be positive"),
            ("trap_length", self.trap_length > 0, "must be positive"),
            ("gravity", self.gravity >= 0,
             "must be non-negative (it acts along -y)"),
            ("mode_waist", self.mode_waist > 0, "must be positive"),
            ("spatial", self.spatial in ("thermal", "uniform"),
             "must be 'thermal' or 'uniform'"),
            ("times", len(self.times) >= 1 and np.all(np.isfinite(self.times))
             and np.all(np.diff(self.times) > 0) and self.times[0] >= 0,
             "must be finite, increasing and non-negative"),
            ("tau_dephase", self.tau_dephase > 0, "must be positive"),
            ("loss_fast_fraction", 0.0 <= self.loss_fast_fraction <= 1.0,
             "must lie in [0, 1]"),
            ("loss_tau_fast", self.loss_tau_fast > 0, "must be positive"),
            ("loss_tau_slow", self.loss_tau_slow > 0, "must be positive"),
            ("grid_extent", self.grid_extent > 0, "must be positive"),
            ("grid_resolution",
             8 <= self.grid_resolution <= MAX_GRID_RESOLUTION,
             f"must lie in [8, {MAX_GRID_RESOLUTION}]"),
            ("kde_bandwidth", 0 < self.kde_bandwidth < self.grid_extent,
             "must be positive and below grid_extent"),
            ("seed", 0 <= self.seed <= 2**64 - 1,
             "must lie in [0, 2**64 - 1]"),
            ("workers", 1 <= self.workers <= MAX_WORKERS,
             f"must lie in [1, {MAX_WORKERS}]"),
        ]
        for name, ok, msg in checks:
            if not ok:
                raise ConfigurationError(f"{name}: {msg}")

    def trap(self) -> TrapGeometry:
        return TrapGeometry(radius=self.trap_radius, length=self.trap_length)

    def effective_gravity(self) -> float:
        return self.gravity if self.gravity_on else 0.0


PRESETS = {
    # breathing-revival presets start the tagged atoms from the mode region
    # of a spatially uniform gas; the barometric ("thermal") initial density
    # washes the collective fall-and-refocus revivals down to the noise
    "centered": ScenarioConfig(spatial="uniform"),
    # signal mode 60 um above the trap center
    "offset60": ScenarioConfig(mode_offset_y=60e-6, spatial="uniform"),
    # dense short-time grid, uncompensated dephasing constant
    "shortdecay": ScenarioConfig(
        times=np.arange(0.0, 5.0001e-3, 0.1e-3), tau_dephase=0.67e-3),
    # long-time decay out to 100 ms
    "longdecay": ScenarioConfig(times=np.arange(0.0, 100.0001e-3, 2.0e-3)),
}


def preset(name: str, **overrides) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigurationError(
            f"preset: unknown preset '{name}' (choose from {sorted(PRESETS)})")
    return replace(PRESETS[name], **overrides)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    curve: EfficiencyCurve
    phi2_coherence: np.ndarray          # |sum w^2 exp(i phi_2)| per time
    bootstrap_se: np.ndarray | None = None


def run_scenario(config: ScenarioConfig, n_bootstrap: int = 0) -> ScenarioResult:
    """Execute the full pipeline for one scenario.

    The trajectory is consumed one sample time at a time, as ``propagate``
    returns it: each sample is reduced to the overlap of its density grid
    with the first sample's grid and to the phi_2 coherence
    |sum w^2 exp(i k_z (z(t) - z(t0)))|, with k_z the axial wave number of
    ``collinear_delta_k``, so memory is O(n_atoms).

    ``n_bootstrap`` >= 2 additionally estimates the per-time Monte-Carlo
    standard error of the overlap by resampling atoms with replacement.
    A replica is the same ensemble with mass k_i w_i^2, k_i being how often
    it drew atom i, so the base mass and every replica's are rows of one
    ``density_estimate`` call per sample time.  The base curve does not
    depend on ``n_bootstrap``.  Every sample time's grids are written into
    one (1 + n_bootstrap) grid stack, allocated once, and replaced by their
    square roots there; the first sample's roots are copied and kept.
    """
    # one replica's standard error would be the ddof=1 spread of one value
    if type(n_bootstrap) is not int or n_bootstrap < 0 or n_bootstrap == 1:
        raise ValueError("n_bootstrap must be an int, 0 or at least 2")
    config.validate()
    # the grid stack and the first sample's roots, taken before the run's
    # short-lived arrays, so they do not sit among them on the heap
    stack = np.empty((1 + n_bootstrap, config.grid_resolution,
                      config.grid_resolution))
    first = np.empty_like(stack)
    trap = config.trap()
    gravity = config.effective_gravity()

    ens = sample_thermal_ensemble(
        config.atoms, trap, config.temperature, gravity=gravity,
        seed=config.seed, spatial=config.spatial)
    weights = assign_excitation(ens.positions,
                                (config.mode_offset_x, config.mode_offset_y),
                                config.mode_waist)
    k_z = collinear_delta_k()[2]        # the spin wave runs along the axis

    rng = np.random.Generator(np.random.Philox(
        key=np.uint64(config.seed) ^ np.uint64(0x626F6F74)))
    # the KDE's masses: row 0 the mode's w^2, and row b the w^2 of replica
    # b, which draws atoms with replacement and so weighs each atom by how
    # often it drew it
    mass = np.empty((1 + n_bootstrap, config.atoms))
    mass[0] = weights**2
    for row in mass[1:]:
        draw = rng.integers(0, config.atoms, size=config.atoms)
        np.multiply(np.bincount(draw, minlength=len(row)), mass[0], out=row)
    cell_area = (2.0 * config.grid_extent / config.grid_resolution) ** 2

    times = np.asarray(config.times, dtype=float)
    overlap = np.empty((1 + n_bootstrap, len(times)))
    phi2_coh = np.empty(len(times))
    current, t = ens, 0.0
    for i, ti in enumerate(times):
        if ti > t:
            current = propagate(current, t, ti, trap=trap, gravity=gravity)
            t = ti
        positions = current.positions
        roots = np.sqrt(density_estimate(
            mass, positions[:, :2], config.grid_extent, config.grid_resolution,
            config.kde_bandwidth, out=stack), out=stack)
        if i == 0:
            first[:], z0 = roots, positions[:, 2]
        overlap[:, i] = [mode_overlap(r0, r, cell_area)
                         for r0, r in zip(first, roots)]
        phi2 = k_z * (positions[:, 2] - z0)
        phi2_coh[i] = np.abs(np.exp(1j * phi2) @ mass[0])

    curve = efficiency_total(
        times, overlap[0], tau_dephase=config.tau_dephase,
        fast_fraction=config.loss_fast_fraction,
        tau_fast=config.loss_tau_fast, tau_slow=config.loss_tau_slow)

    boot_se = (overlap[1:] / overlap[1:, :1]).std(axis=0, ddof=1) \
        if n_bootstrap else None

    return ScenarioResult(config, curve, phi2_coh, boot_se)


def curve_to_csv(curve: EfficiencyCurve) -> str:
    """Stable CSV serialization: fixed header, LF endings, 9 significant
    digits."""
    columns = [curve.times * 1e3] + [curve_column(curve, name)
                                     for name in CURVE_COLUMNS]
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in zip(*columns):
        buf.write(",".join(f"{v:.9g}" for v in row) + "\n")
    return buf.getvalue()


def write_curve_csv(curve: EfficiencyCurve, path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(curve_to_csv(curve))


def read_curve_csv(path) -> EfficiencyCurve:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0 or data.shape[1] != 1 + len(CURVE_COLUMNS):
        raise ValueError("CSV has no data rows or a wrong column count")
    return EfficiencyCurve(times=data[:, 0] * 1e-3, **{
        attr: data[:, j] for j, attr in enumerate(CURVE_COLUMNS.values(), 1)})
