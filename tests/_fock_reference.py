"""Dense reference operators for tests of the Fock oracle.

They are independent of the oracle's constructions: each exponential
comes from one eigendecomposition of the full truncated generator, built
from this module's own truncated ladder matrix (``annihilation``).  The
factor solve of ``plan_two_mode`` writes a tensor, two-mode-squeezed or
beam-splitter moment pattern as unitaries acting on (quasi-)thermal
factors, for the dense references and for the weight summary of that
candidate density.  ``recurrence_entries`` runs the Gaussian recurrence
entry by entry in plain Python, with none of the oracle's array layouts.
"""

import cmath
import itertools
import math
from typing import NamedTuple

import numpy as np

from squeezekit.separability import _moment_matrix


def annihilation(cutoff: int) -> np.ndarray:
    """The truncated annihilation operator: √k on the first superdiagonal."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def quadrature_second_moment(rho, mode: complex) -> float:
    """⟨X²⟩ of a one-mode density for X = (c + c†)/√2 with c = ``mode``·a,
    from this module's ladder matrix and the dense ``matrix`` over its
    trace: the variance of X for a state of zero mean.  ``mode`` = 1 gives
    X₁ = (a + a†)/√2, −i gives X₂ = (a − a†)/(√2 i)."""
    c = mode * annihilation(rho.cutoff)
    x = (c + c.conj().T) / math.sqrt(2.0)
    return float(np.trace(rho.matrix @ x @ x).real) / rho.trace()


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
    a = annihilation(cutoff)
    g = alpha * a.conj().T - np.conj(alpha) * a
    return expm_antihermitian(g)


def beam_splitter_unitary(cutoff: int, lam: float) -> np.ndarray:
    """Dense V with V†aV = (a + b e^{iλ})/√2 and V†bV = (a − b e^{iλ})/√2,
    truncated: exp((π/4)(e^{iλ} a†b − e^{−iλ} ab†)) followed by the output
    rotation e^{i(λ+π) n_b}.  Flat index n_a·cutoff + n_b."""
    a = annihilation(cutoff)
    ad = a.conj().T
    phase = cmath.exp(1j * lam)
    g = (math.pi / 4.0) * (phase * np.kron(ad, a) - np.conj(phase) * np.kron(a, ad))
    nb = np.tile(np.arange(cutoff), cutoff)
    return np.exp(1j * (lam + math.pi) * nb)[:, None] * expm_antihermitian(g)


def two_mode_squeeze_unitary(cutoff: int, r: float, phi: float) -> np.ndarray:
    """Dense exp(ξ* ab − ξ a†b†) with ξ = r e^{iφ}, truncated."""
    a = annihilation(cutoff)
    ad = a.conj().T
    xi = r * cmath.exp(1j * phi)
    return expm_antihermitian(np.conj(xi) * np.kron(a, a) - xi * np.kron(ad, ad))


def squeeze_unitary(cutoff: int, r: float, phi: float) -> np.ndarray:
    """Dense exp(½(ξ* a² − ξ a†²)) with ξ = r e^{iφ}, truncated."""
    a = annihilation(cutoff)
    xi = r * cmath.exp(1j * phi)
    return expm_antihermitian(0.5 * (np.conj(xi) * (a @ a) - xi * (a.conj().T @ a.conj().T)))


def thermal_weights(nbar: float, cutoff: int) -> np.ndarray:
    """The first ``cutoff`` photon-number weights (1 − q) q^k, q = n̄/(n̄ + 1),
    of a thermal state; n̄ < 0 gives the formal weights of a quasi state."""
    q = nbar / (nbar + 1.0)
    return (1.0 - q) * q ** np.arange(cutoff)


class Factor(NamedTuple):
    """ρ = S(r, φ) ρ_thermal(n̄) S†; n̄ < 0 marks a quasi state."""

    nbar: float
    r: float
    phi: float


class Plan(NamedTuple):
    """A moment pattern as unitaries acting on two factors.

    ``tensor``: factor1 ⊗ factor2.  ``tms``: two thermal factors under the
    two-mode squeezer S₂(tms_r, tms_phi).  ``bs``: the factors mixed on the
    λ = 0 splitter of ``beam_splitter_unitary``, then rotated by
    e^{i(θc n_a + θd n_b)}.
    """

    route: str
    factor1: Factor
    factor2: Factor
    tms_r: float = 0.0
    tms_phi: float = 0.0
    theta_c: float = 0.0
    theta_d: float = 0.0


def solve_squeezed_thermal(n: float, m: complex):
    """Factor from n + ½ = (n̄+½) cosh 2r and m = e^{iφ}(n̄+½) sinh 2r; None
    unless n + ½ > |m|.  n̄ is negative beyond |m|² ≤ n(n+1)."""
    if n + 0.5 <= abs(m):
        return None
    half_width = math.sqrt((n + 0.5) ** 2 - abs(m) ** 2)
    return Factor(half_width - 0.5, 0.5 * math.asinh(abs(m) / half_width),
                  cmath.phase(m) if abs(m) > 0.0 else 0.0)


def plan_two_mode(state):
    """The ``Plan`` of a two-mode state with a tensor, tms or bs pattern;
    None when a factor has no solution.  Raises ValueError for any other
    pattern: unequal |m_a| and |m_b| beside cross correlations, or an m_x
    whose phase the squeezing phases do not allow."""
    scale = 1.0 + state.n + abs(state.m_a) + abs(state.m_b) + abs(state.m_c) + abs(state.m_x)
    tol = 1e-12 * scale
    if abs(state.m_a) <= tol and abs(state.m_b) <= tol and abs(state.m_x) <= tol:
        st = solve_squeezed_thermal(state.n, state.m_c)
        if st is None:
            return None
        thermal = Factor(st.nbar, 0.0, 0.0)
        return Plan("tms", thermal, thermal, tms_r=st.r, tms_phi=st.phi)
    if abs(state.m_c) <= tol and abs(state.m_x) <= tol:
        f1 = solve_squeezed_thermal(state.n, state.m_a)
        f2 = solve_squeezed_thermal(state.n, state.m_b)
        return None if f1 is None or f2 is None else Plan("tensor", f1, f2)
    fa, fb = abs(state.m_a), abs(state.m_b)
    if abs(fa - fb) > 1e-9 * max(1.0, fa, fb):
        raise ValueError("no bs pattern: unequal per-mode squeezing magnitudes")
    theta_c = 0.5 * cmath.phase(state.m_a) if fa > tol else 0.0
    theta_d = 0.5 * cmath.phase(state.m_b) if fb > tol else 0.0
    z = state.m_c * cmath.exp(-1j * (theta_c + theta_d))
    x = state.m_x * cmath.exp(-1j * (theta_d - theta_c))
    if abs(x.imag) > 1e-9 * max(1.0, abs(x)):
        raise ValueError("no bs pattern: m_x phase incompatible with the squeezing phases")
    f = 0.5 * (fa + fb)
    f1 = solve_squeezed_thermal(state.n + x.real, f + z)
    f2 = solve_squeezed_thermal(state.n - x.real, f - z)
    if f1 is None or f2 is None:
        return None
    return Plan("bs", f1, f2, theta_c=theta_c, theta_d=theta_d)


def candidate_weight_summary(state, cutoff: int):
    """(min eigenvalue, trace deficit) of the ``plan_two_mode`` candidate at
    ``cutoff``, read off its factors' (quasi-)thermal weights; None when the
    moments admit no candidate.

    The candidate is a diagonal of weight products conjugated by exactly
    unitary factors, so its spectrum is that diagonal and its trace the
    product of the factor traces.  A negative weight certifies nonphysical
    moments at any cutoff, since truncation only drops tail entries of the
    exact spectrum.
    """
    plan = plan_two_mode(state)
    if plan is None:
        return None
    w1 = thermal_weights(plan.factor1.nbar, cutoff)
    w2 = thermal_weights(plan.factor2.nbar, cutoff)
    min_eig = min(e1 * e2 for e1 in (w1.min(), w1.max()) for e2 in (w2.min(), w2.max()))
    return float(min_eig), 1.0 - float(w1.sum() * w2.sum())


def recurrence_entries(state, cutoff: int) -> dict:
    """Every G(k) of a two-mode state with each index below ``cutoff``, keyed
    by k = (m_a, m_b, n_a, n_b), so that ρ[(m_a, m_b), (n_a, n_b)] = G(k).

    Straight from G(0) = T and G(k + e_i) = Σ_j A_ij √k_j G(k − e_j)/√(k_i + 1),
    stepping each k along its first nonzero index: lexicographic order
    meets every k − e_j first.  Γ = ⟨ζζ†⟩ for ζ = (a, b, a†, b†), lowered by
    its smallest eigenvalue when that is negative (the gate's band);
    σ_Q = Γ + diag(0, 0, 1, 1), A = X(I − σ_Q⁻¹)* with X the swap of ζ's two
    halves, and T = det(σ_Q)^(−1/2).
    """
    gamma = _moment_matrix(state)
    sigma_q = gamma - min(float(np.linalg.eigvalsh(gamma)[0]), 0.0) * np.eye(4)
    sigma_q += np.diag([0.0, 0.0, 1.0, 1.0])
    m = np.eye(4) - np.linalg.inv(sigma_q)
    a = [[complex(m[(i + 2) % 4, j]).conjugate() for j in range(4)] for i in range(4)]
    g = {}
    for k in itertools.product(range(cutoff), repeat=4):
        if not any(k):
            g[k] = complex(1.0 / math.sqrt(np.linalg.det(sigma_q).real))
            continue
        i = next(j for j, kj in enumerate(k) if kj)
        prev = list(k)
        prev[i] -= 1
        total = 0j
        for j in range(4):
            if prev[j]:
                below = list(prev)
                below[j] -= 1
                total += a[i][j] * math.sqrt(prev[j]) * g[tuple(below)]
        g[k] = total / math.sqrt(prev[i] + 1)
    return g
