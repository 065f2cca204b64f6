"""Dense reference operators for tests of the Fock oracle.

They are independent of the oracle's sector-by-sector construction: each
exponential comes from one eigendecomposition of the full truncated
generator.
"""

import numpy as np

from squeezekit import fock


def expm_antihermitian(g: np.ndarray) -> np.ndarray:
    """exp(g) for anti-Hermitian g, exactly unitary up to round-off."""
    h = 1j * g
    asym = np.max(np.abs(h - h.conj().T))
    if asym > 1e-10:
        raise ValueError(f"generator is not anti-Hermitian (deviation {asym:.3g})")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (v * np.exp(-1j * w)) @ v.conj().T


def displacement_unitary(cutoff: int, alpha: complex) -> np.ndarray:
    """exp(α a† − α* a), truncated."""
    a = fock.annihilation(cutoff)
    g = alpha * a.conj().T - np.conj(alpha) * a
    return expm_antihermitian(g)
