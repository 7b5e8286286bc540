import dataclasses

import pytest
import scipy.constants as sc

from boxmem.constants import CONSTANTS


def test_fundamental_constants_match_codata():
    # the literals are scipy's CODATA values, bit for bit
    assert CONSTANTS.k_B == sc.k
    assert CONSTANTS.hbar == sc.hbar
    assert CONSTANTS.c == sc.c


def test_rb87_mass():
    # 86.909180527 u
    assert CONSTANTS.m_atom == 86.909180527 * sc.u


def test_hyperfine_splitting():
    assert CONSTANTS.nu_hf == pytest.approx(6.834682611e9, rel=1e-6)
    assert CONSTANTS.omega_hf == pytest.approx(
        2.0 * sc.pi * CONSTANTS.nu_hf, rel=1e-12)


def test_d_line_wavelengths():
    assert CONSTANTS.lambda_D2 == pytest.approx(780.241e-9, rel=1e-5)


def test_all_constants_positive():
    for f in dataclasses.fields(CONSTANTS):
        assert getattr(CONSTANTS, f.name) > 0


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.m_atom = 0.0
