"""Decay-curve fitting: single and double exponentials.

The memory efficiency decays with a short dephasing constant while the atom
number decays with two much longer constants.  This script synthesizes noisy
curves with known parameters and shows the fitter recovering them, then fits
the simulated long-storage efficiency curve end to end.

Run:  python3 demos/fitting_decays.py  (about half a minute)
"""

import numpy as np

from boxmem.analysis import fit_double_exponential, fit_exponential
from boxmem.pipeline import preset, run_scenario

rng = np.random.default_rng(0)

print("single exponential, tau = 28 ms, 2% noise:")
t = np.linspace(0.0, 0.12, 80)
y = np.clip(np.exp(-t / 28e-3) + rng.normal(scale=0.02, size=len(t)),
            1e-6, None)
res = fit_exponential(t, y)
print(f"  recovered tau = {res.params['tau'] * 1e3:.2f} "
      f"+- {res.errors['tau'] * 1e3:.2f} ms (converged={res.converged})")

print("\ndouble exponential, tau = 160 / 580 ms, equal weights, 3% noise:")
t = np.linspace(0.0, 1.5, 150)
y = 0.5 * np.exp(-t / 0.16) + 0.5 * np.exp(-t / 0.58)
y = np.clip(y + rng.normal(scale=0.03, size=len(t)), 1e-6, None)
res = fit_double_exponential(t, y)
print(f"  recovered tau1 = {res.params['tau1'] * 1e3:.0f} ms, "
      f"tau2 = {res.params['tau2'] * 1e3:.0f} ms, "
      f"fast fraction = {res.params['fast_fraction']:.2f} "
      f"(degenerate={res.degenerate})")

print("\nfitting the simulated 100 ms storage curve (10k atoms):")
curve = run_scenario(preset("longdecay", atoms=10_000)).curve
res = fit_exponential(curve.times, curve.total)
print(f"  total-efficiency 1/e-style constant: "
      f"{res.params['tau'] * 1e3:.1f} ms")
print("  (dominated by the 28 ms dephasing envelope, shortened slightly by "
      "atom loss\n   and the overlap transient)")
