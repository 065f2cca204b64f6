import cmath
import math

import numpy as np
import pytest

from squeezekit import OneModeGaussian, fock


@pytest.fixture
def rng():
    return np.random.default_rng(20240902)


def random_physical_one_mode(rng, n_max=1.5, frac_max=0.95, n_min=0.05):
    """Random physical one-mode state with |m| below frac_max of the bound."""
    n = float(rng.uniform(n_min, n_max))
    m_abs = float(rng.uniform(0.0, frac_max)) * math.sqrt(n * (n + 1.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return OneModeGaussian(n, m_abs * cmath.exp(1j * phase))


def parity_graded_density(state, cutoff, eps_tr=fock.EPS_TR):
    """The density of a two-mode state as the total-parity writer lays it
    out (route ``recurrence``), whatever its moment pattern: the second
    writer of a cross-route comparison."""
    return fock._finish(2, cutoff, fock._recurrence_blocks(state, cutoff), eps_tr,
                        fock._Origin("recurrence", fock._swap_phase(state)))
