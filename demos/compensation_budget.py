"""Light-shift compensation budget.

The blue-detuned trap light raises the |F=2> clock level relative to |F=1>
wherever atoms touch the walls, dephasing the stored spin wave.  A weak
beam tuned midway between the ground hyperfine components produces an
opposite-signed shift; this script computes the power that cancels the
trap's shift and the memory lifetime left by imperfect cancellation.

Run:  python3 demos/compensation_budget.py
"""

import math

from boxmem.constants import CONSTANTS
from boxmem.lightshift import (differential_shift, optimal_compensation_power,
                               residual_lifetime, trap_detuning)

trap_power, trap_wavelength = 1.9, 775e-9     # W, m
delta = trap_detuning(trap_wavelength)
print(f"trap: {trap_power:.1f} W at {trap_wavelength * 1e9:.0f} nm, "
      f"detuning 2 pi x {delta / (2 * math.pi) / 1e12:.2f} THz from the D2 line")

u_peak = CONSTANTS.k_B * 45e-6          # 45 uK wall height
dw = differential_shift(u_peak)
print(f"differential clock shift at the wall peak: "
      f"2 pi x {dw / (2 * math.pi) / 1e3:.2f} kHz")

p_comp = optimal_compensation_power(trap_power, trap_wavelength)
print(f"optimal compensation power: {p_comp * 1e6:.2f} uW "
      f"(P_trap x (omega_hf / 2 Delta)^2)")

tau0 = 0.67e-3                           # uncompensated dephasing time
print(f"\nuncompensated wall-dephasing time: {tau0 * 1e3:.2f} ms")
print("residual lifetime vs intensity-control imperfection epsilon:")
for eps in (0.10, 0.024, 0.01, 0.001):
    tau = residual_lifetime(tau0, eps)
    print(f"  epsilon = {eps:5.1%}  ->  tau = {tau * 1e3:7.1f} ms")
print("\nAt the ~2.4% level the wall dephasing already matches the measured "
      "28 ms memory\nlifetime; 1% control pushes it to 67 ms.")
