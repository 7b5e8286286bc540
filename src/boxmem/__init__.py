"""boxmem: Monte-Carlo simulator and analysis toolkit for a spin-wave
quantum memory stored in cold atoms inside a blue-detuned box trap."""

from .analysis import (ExtremaReport, FitResult, find_extrema,
                       fit_double_exponential, fit_exponential)
from .constants import CONSTANTS, PhysicalConstants
from .ensemble import (AtomEnsemble, mechanical_energy, propagate,
                       sample_thermal_ensemble)
from .geometry import RingPotential, TrapGeometry, potential_at
from .lightshift import (calibrate_wall_width, differential_shift,
                         one_over_e_time, optimal_compensation_power,
                         residual_lifetime, simulate_coherence, trap_detuning)
from .pipeline import (PRESETS, ScenarioConfig, ScenarioResult, preset,
                       read_curve_csv, run_scenario, write_curve_csv)
from .spinwave import (EfficiencyCurve, assign_excitation, atom_survival,
                       collinear_delta_k, density_estimate, efficiency_total,
                       mode_overlap)

__version__ = "0.1.0"
