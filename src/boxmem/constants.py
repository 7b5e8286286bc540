"""Physical constants for the 87Rb box-trap memory simulation.

All values are SI.  The fundamental constants are CODATA 2022, written out
so that importing the package loads no scipy; atomic data (hyperfine
splitting, D2-line wavelength) follow Steck, "Rubidium 87 D Line Data".
"""

import math
from dataclasses import dataclass

_U = 1.66053906892e-27                      # kg, atomic mass constant


@dataclass(frozen=True)
class PhysicalConstants:
    m_atom: float = 86.909180527 * _U        # kg, 87Rb
    k_B: float = 1.380649e-23                # J/K, exact
    hbar: float = 6.62607015e-34 / (2 * math.pi)  # J s, h / 2 pi with h exact
    c: float = 299792458.0                   # m/s, exact
    g_earth: float = 9.81                    # m/s^2
    nu_hf: float = 6.834682611e9             # Hz, 87Rb ground hyperfine splitting
    lambda_D2: float = 780.241209e-9         # m, vacuum

    @property
    def omega_hf(self) -> float:
        """Ground hyperfine splitting as an angular frequency (rad/s)."""
        return 2.0 * math.pi * self.nu_hf


CONSTANTS = PhysicalConstants()
