"""Analytic separability and classicality criteria for two-mode families,
threshold curves for the thermal-diluted comparison, and the physicality
and separability tests for general two-mode states.  Every closed form that
takes a state, or the parameters of a cross-correlated or general-family
one, decides physicality here, by the one-mode closed form of ``states``
or by the eigensolve below.

Separability is physicality of the partial transpose, band included; the
family formulas decide it with ``_lowest_eigenvalue(n, √q) ≥ −EPS_PHYS``.
They form √q as s·√(q/s²) with s the largest of 1 and the moduli, so that
no modulus above 1 is squared; with s = 1 that is the plain form.
"""

from __future__ import annotations

import math

import numpy as np

from .states import (
    EPS_PHYS,
    GaussianMixture,
    NonPhysicalStateError,
    OneModeGaussian,
    TwoModeGaussian,
    _finite_real,
    _lowest_eigenvalue,
    _require_lowest_eigenvalue,
    state_record,
)


def epr_is_entangled(n: float, mc_abs: float) -> bool:
    """Cross-correlated family: entangled exactly when |m_c| > n, i.e. when
    |m_c|² + |m_c| > n(n+1)."""
    _require_epr_physical(n, mc_abs)
    s = max(1.0, abs(mc_abs))
    x = mc_abs / s
    return _lowest_eigenvalue(n, s * math.sqrt(x ** 2 + abs(x) / s)) < -EPS_PHYS


def bs_output_is_separable(n: float, m_abs: float, lam: float) -> bool:
    """Beam-splitter output of two equally squeezed inputs with phase λ.

    Separable exactly when q = |m|² + √((1−cos 2λ)/2)·|m| ≤ n(n+1); the
    boundary counts as separable.  At λ = 0 this is the physicality bound
    itself, so physical inputs can never entangle there; at λ = π/2 it
    tightens to |m|² + |m| ≤ n(n+1).
    """
    coefficient = math.sqrt(max(0.0, (1.0 - math.cos(2.0 * lam)) / 2.0))
    s = max(1.0, abs(m_abs))
    x = m_abs / s
    return _lowest_eigenvalue(n, s * math.sqrt(x ** 2 + coefficient * abs(x) / s)) >= -EPS_PHYS


def general_is_separable(n: float, m: float, m_c: float, lam1: float, lam2: float) -> bool:
    """Equal-magnitude squeezing with phases λ₁, λ₂ plus a real cross moment.

    Separable exactly when
    q = m² + m_c² + |m_c| √(1 + 2(1 + cos(λ₁+λ₂)) m²) ≤ n(n+1).
    With λ₁+λ₂ = π this reduces to the beam-splitter-output criterion on
    the overlapping sub-family.
    """
    s = max(1.0, abs(m), abs(m_c))
    x, y = m / s, m_c / s
    q = (
        x ** 2
        + y ** 2
        + abs(y) * math.sqrt((1.0 / s) ** 2 + 2.0 * (1.0 + math.cos(lam1 + lam2)) * x ** 2)
    )
    return _lowest_eigenvalue(n, s * math.sqrt(q)) >= -EPS_PHYS


def werner_hbt_threshold(n: float) -> float:
    """Mixing probability above which the intensity witness turns negative
    for a maximally correlated component: p > n/(n+1)."""
    if n <= 0:
        raise ValueError("threshold defined for n > 0")
    return n / (n + 1.0)


def werner_ppt_threshold(n: float) -> float:
    """The paper's published Werner PPT curve (acceptance criterion 05,
    figure 6), for a maximally correlated component:
    p* = (1 + √((1+n)/n) · (1+2n²)² / (n(1+2n)(1+n²)))⁻¹.  It is not where
    the partial transpose turns negative: the exact partial transpose of
    the mixture is negative for every p > 0, which the Fock oracle
    confirms (``tests/test_fock.py::TestWernerPartialTranspose``).  What
    p* bounds is open.

    Above n = 1e50, where n⁴ is still far from overflow, the factor is
    evaluated on u = 1/n, as √(1+u) · (2+u²)² / ((2+u)(1+u²)), so that no
    power of n overflows; it tends to 2, and p* to ⅓.  Every value up to
    1e50 keeps the form in n."""
    if n <= 0:
        raise ValueError("threshold defined for n > 0")
    if n > 1e50:
        u = 1.0 / n
        factor = math.sqrt(1.0 + u) * (2.0 + u * u) ** 2 / ((2.0 + u) * (1.0 + u * u))
    else:
        factor = (math.sqrt((1.0 + n) / n) * (1.0 + 2.0 * n ** 2) ** 2
                  / (n * (1.0 + 2.0 * n) * (1.0 + n ** 2)))
    return 1.0 / (1.0 + factor)


def _moment_matrix(state: TwoModeGaussian) -> np.ndarray:
    """⟨ζ_r ζ_s†⟩ for ζ = (a, b, a†, b†), read off the stored moments."""
    n, m_a, m_b, m_c, m_x = state.n, state.m_a, state.m_b, state.m_c, state.m_x
    return np.array([
        [n + 1.0, m_x.conjugate(), -m_a, -m_c],
        [m_x, n + 1.0, -m_c, -m_b],
        [-m_a.conjugate(), -m_c.conjugate(), n, m_x],
        [-m_c.conjugate(), -m_b.conjugate(), m_x.conjugate(), n],
    ])


def is_physical_two_mode(state) -> bool:
    """Uncertainty relation V + iΩ/2 ≥ 0 of the two-mode covariance matrix.

    For ζ = (a, b, a†, b†) every operator X = Σ c_r ζ_r has ⟨XX†⟩ ≥ 0, so
    the Hermitian matrix ⟨ζζ†⟩ must be positive semidefinite; it is the
    complex form of V + iΩ/2, which makes the condition sufficient for a
    Gaussian state as well (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)).
    The smallest eigenvalue may dip to −EPS_PHYS.  A mixture is accepted
    when all of its components are.  The verdict is kept in the state's
    record, so each state value takes one eigensolve however often it is
    gated.
    """
    if isinstance(state, GaussianMixture):
        return all(is_physical_two_mode(comp) for _, comp in state.components)
    if not isinstance(state, TwoModeGaussian):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    record = state_record(state)
    if record.physical is None:
        record.physical = _admitted(state)
    return record.physical


def _admitted(state: TwoModeGaussian) -> bool:
    """The two-mode rule: the smallest eigenvalue of ⟨ζζ†⟩, read off the
    stored moments, is at least −EPS_PHYS."""
    return bool(np.linalg.eigvalsh(_moment_matrix(state))[0] >= -EPS_PHYS)


def is_separable(state) -> bool:
    """Simon's PPT criterion, necessary and sufficient for two-mode Gaussian
    states (Simon, PRL 84, 2726 (2000)): the partial transpose, time
    reversal of mode b, must be a state.  It maps m_b → m_b*,
    m_c → −m_x* and m_x → −m_c*, and the transposed moments take the
    physicality rule, band included.  A state the gate rejects raises
    NonPhysicalStateError; a mixture or a one-mode state raises TypeError.
    """
    if not isinstance(state, TwoModeGaussian):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    _require_physical(state)
    return _admitted(TwoModeGaussian(state.n, state.m_a, state.m_b.conjugate(),
                                     -state.m_x.conjugate(), -state.m_c.conjugate()))


def _require_physical(state) -> None:
    """Raise NonPhysicalStateError unless the second moments describe a
    state: the smallest eigenvalue of ⟨ζζ†⟩ is at least −EPS_PHYS, in
    closed form for one mode and by ``is_physical_two_mode`` for two."""
    if isinstance(state, OneModeGaussian):
        _require_lowest_eigenvalue(state.n, abs(state.m))
    elif not is_physical_two_mode(state):
        raise NonPhysicalStateError("second moments do not describe a physical state")


def _require_epr_physical(n: float, mc_abs: float) -> None:
    """``_require_physical`` of ``TwoModeGaussian.epr(n, m_c)`` in closed form:
    ⟨ζζ†⟩ splits into two blocks [[n+1, −m_c], [−m_c*, n]], the one-mode
    matrix with m_c in place of m, so the one-mode rule decides it."""
    _require_lowest_eigenvalue(n, mc_abs, "m_c")


def _require_general_physical(n: float, m: float, m_c: float, lam1: float, lam2: float) -> None:
    """``_require_physical`` of the general family's state
    ``TwoModeGaussian(n, m e^{iλ₁}, m e^{iλ₂}, m_c)`` in closed form, with
    the constructor's ValueError for parameters no state takes.  The
    smallest eigenvalue of its ⟨ζζ†⟩ is n + ½ − √(¼ + q), with
    q = m² + m_c² + 2|m||m_c||cos((λ₁+λ₂)/2)|: the one-mode matrix's at
    |m| = √q, so the one-mode rule decides it.  √q is formed as s·√(q/s²),
    s = max(1, |m|, |m_c|), as in the family criteria."""
    n, m, m_c = _finite_real(n, "n"), _finite_real(m, "m"), _finite_real(m_c, "m_c")
    if n < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n}")
    if not (math.isfinite(lam1) and math.isfinite(lam2)):
        raise ValueError(f"squeezing phases must be finite, got {lam1!r} and {lam2!r}")
    s = max(1.0, abs(m), abs(m_c))
    x, y = abs(m) / s, abs(m_c) / s
    q = x ** 2 + y ** 2 + 2.0 * x * y * abs(math.cos(0.5 * (lam1 + lam2)))
    _require_lowest_eigenvalue(n, s * math.sqrt(q), "√q")


def _require_werner_weight(p: float) -> None:
    """Raise NonPhysicalStateError unless the Werner mixing probability p
    lies in [0, 1]: any other weight mixes no state."""
    if not 0.0 <= p <= 1.0:
        raise NonPhysicalStateError(f"mixing probability must lie in [0, 1], got {p}")
