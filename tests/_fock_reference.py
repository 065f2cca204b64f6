"""Dense reference operators for tests of the Fock oracle.

They are independent of the oracle's sector-by-sector construction: each
exponential comes from one eigendecomposition of the full truncated
generator.  Two small helpers reproduce pieces of the oracle that tests
compare against bit for bit: one beam-splitter sector block, and the
weight summary of the working-space candidate.
"""

import cmath
import math

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


def beam_splitter_unitary(cutoff: int, lam: float) -> np.ndarray:
    """Dense V with V†aV = (a + b e^{iλ})/√2 and V†bV = (a − b e^{iλ})/√2,
    truncated: exp((π/4)(e^{iλ} a†b − e^{−iλ} ab†)) followed by the output
    rotation e^{i(λ+π) n_b}.  Flat index n_a·cutoff + n_b."""
    a = fock.annihilation(cutoff)
    ad = a.conj().T
    phase = cmath.exp(1j * lam)
    g = (math.pi / 4.0) * (phase * np.kron(ad, a) - np.conj(phase) * np.kron(a, ad))
    nb = np.tile(np.arange(cutoff), cutoff)
    return np.exp(1j * (lam + math.pi) * nb)[:, None] * expm_antihermitian(g)


def two_mode_squeeze_unitary(cutoff: int, r: float, phi: float) -> np.ndarray:
    """Dense exp(ξ* ab − ξ a†b†) with ξ = r e^{iφ}, truncated."""
    a = fock.annihilation(cutoff)
    ad = a.conj().T
    xi = r * cmath.exp(1j * phi)
    return expm_antihermitian(np.conj(xi) * np.kron(a, a) - xi * np.kron(ad, ad))


def mixer_block(cutoff: int, total: int, lam: float):
    """Sector N = ``total`` of the beam splitter from the oracle's sector
    exponential: the mode-a photon numbers j of its states |j, N−j⟩ and its
    block, output rotation e^{i(λ+π) n_b} included."""
    js = fock._mixer_states(cutoff, total)
    block = fock._sector_exponential("mixer", cutoff, total, (math.pi / 4.0) * cmath.exp(1j * lam))
    rotation = np.exp(1j * (lam + math.pi) * (total - js))
    return js, rotation[:, None] * block


def candidate_weight_summary(state, cutoff: int):
    """(min eigenvalue, trace deficit) of the oracle's two-mode candidate at
    ``cutoff``, read off its factors' (quasi-)thermal weights; None when the
    moments admit no candidate.

    The candidate is a diagonal of weight products conjugated by exactly
    unitary factors, so its spectrum is that diagonal and its trace the
    product of the factor traces.  A negative weight certifies nonphysical
    moments at any cutoff, since truncation only drops tail entries of the
    exact spectrum.
    """
    plan = fock._plan_two_mode(state)
    if plan is None:
        return None
    w1 = fock._thermal_weights(plan.factor1.nbar, cutoff)
    w2 = fock._thermal_weights(plan.factor2.nbar, cutoff)
    min_eig = min(e1 * e2 for e1 in (w1.min(), w1.max()) for e2 in (w2.min(), w2.max()))
    return float(min_eig), 1.0 - float(w1.sum() * w2.sum())
