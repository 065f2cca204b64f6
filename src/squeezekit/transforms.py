"""State-producing maps: amplifier chain, phase shifts, 50/50 beam splitter,
rotated quadratures, and convex mixing with thermal noise.

All maps act on the second moments in closed form; the amplifier's internal
noise mode is traced out and never represented as a state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .separability import _require_epr_physical, _require_werner_weight
from .states import (
    EPS_CLS,
    GaussianMixture,
    OneModeGaussian,
    TwoModeGaussian,
    _finite_real,
)


class UnsupportedPhaseError(ValueError):
    """Operation defined only for a real squeezing moment."""


@dataclass(frozen=True)
class AmplifierGains:
    """Phase-sensitive gain G and phase-insensitive gain H, both ≥ 1."""

    G: float
    H: float

    def __post_init__(self):
        object.__setattr__(self, "G", _finite_real(self.G, "G"))
        object.__setattr__(self, "H", _finite_real(self.H, "H"))
        if self.G < 1.0 or self.H < 1.0:
            raise ValueError(f"gains must be >= 1, got G={self.G}, H={self.H}")


def amplifier_output(gains: AmplifierGains) -> OneModeGaussian:
    """State leaving a phase-insensitive amplifier of gain H followed by a
    phase-sensitive amplifier of gains (G, 1/G), fed with vacuum.

    The output has n = ½(1/G + G)(H − ½) − ½ and real m = ½(G − 1/G)(H − ½);
    it is physical for all admissible gains and pure exactly when H = 1.
    """
    G, H = gains.G, gains.H
    n = 0.5 * (1.0 / G + G) * (H - 0.5) - 0.5
    m = 0.5 * (G - 1.0 / G) * (H - 0.5)
    return OneModeGaussian(n, complex(m))


def is_classical_threshold(gains: AmplifierGains) -> bool:
    """True iff the amplifier output is P-representable: H ≥ (G + 1)/2."""
    return gains.H >= 0.5 * (gains.G + 1.0)


def phase_shift(s: OneModeGaussian, lam: float) -> OneModeGaussian:
    """Relabel the mode as a e^{iλ}: n is unchanged, m picks up e^{2iλ}."""
    return OneModeGaussian(s.n, s.m * cmath.exp(2j * lam))


def mode_rotation(state: TwoModeGaussian, theta_a: float, theta_b: float) -> TwoModeGaussian:
    """Independent phase rotations a → a e^{iθa}, b → b e^{iθb}."""
    ea = cmath.exp(1j * theta_a)
    eb = cmath.exp(1j * theta_b)
    return TwoModeGaussian(
        state.n,
        state.m_a * ea * ea,
        state.m_b * eb * eb,
        state.m_c * ea * eb,
        state.m_x * eb / ea,
    )


def beam_splitter(sa: OneModeGaussian, sb: OneModeGaussian, lam: float) -> TwoModeGaussian:
    """50/50 beam splitter with a phase λ on mode b before the splitter.

    Output modes are c = (a + b e^{iλ})/√2 and d = (a − b e^{iλ})/√2.  Both
    outputs carry the same squeezing moment ½(⟨a²⟩ + e^{2iλ}⟨b²⟩) and the
    per-mode photon number ½(n_a + n_b); unequal inputs also generate the
    cross moment ⟨c†d⟩ = ½(n_a − n_b).
    """
    e2 = cmath.exp(2j * lam)
    m_out = 0.5 * (sa.m + e2 * sb.m)
    m_c = 0.5 * (sa.m - e2 * sb.m)
    return TwoModeGaussian(
        0.5 * (sa.n + sb.n),
        m_out,
        m_out,
        m_c,
        complex(0.5 * (sa.n - sb.n)),
    )


def beam_splitter_inverse(state: TwoModeGaussian, lam: float) -> tuple[OneModeGaussian, OneModeGaussian]:
    """Recover the beam-splitter inputs from an output state.

    Defined exactly on the image of ``beam_splitter``: equal squeezing
    moments on the two output modes and a real cross moment m_x.
    """
    if abs(state.m_a - state.m_b) > 1e-12 * max(1.0, abs(state.m_a)):
        raise ValueError("not a beam-splitter output: unequal per-mode squeezing moments")
    if abs(state.m_x.imag) > 1e-12 * max(1.0, abs(state.m_x)):
        raise ValueError("not a beam-splitter output: complex ⟨c†d⟩")
    e2 = cmath.exp(2j * lam)
    m_a_in = state.m_a + state.m_c
    m_b_in = (state.m_a - state.m_c) / e2
    n_a = state.n + state.m_x.real
    n_b = state.n - state.m_x.real
    return OneModeGaussian(n_a, m_a_in), OneModeGaussian(n_b, m_b_in)


def rotated_quadrature_variance(s: OneModeGaussian, lam: float, theta: float) -> float:
    """Variance of the θ/2-rotated quadrature of the phase-shifted mode b e^{iλ}.

    Requires a real squeezing moment; equals n + ½ − m cos(θ − 2λ), smallest
    at θ = 2λ where the squeezing of the original quadrature is preserved.
    """
    if abs(s.m.imag) > 1e-12 * max(1.0, abs(s.m)):
        raise UnsupportedPhaseError("rotated quadrature variance requires real m")
    return s.n + 0.5 - s.m.real * math.cos(theta - 2.0 * lam)


def werner_mix(epr: TwoModeGaussian, p: float) -> GaussianMixture:
    """Convex combination p·(cross-correlated state) + (1−p)·thermal⊗thermal.

    The thermal component carries the same per-mode photon number n as the
    correlated component.  Endpoints return single-component mixtures.  A
    weight outside [0, 1] or a correlated component that is no state raises
    NonPhysicalStateError.
    """
    _require_werner_weight(p)
    if abs(epr.m_a) > EPS_CLS or abs(epr.m_b) > EPS_CLS or abs(epr.m_x) > EPS_CLS:
        raise ValueError("werner mixing requires a state without single-mode squeezing")
    _require_epr_physical(epr.n, abs(epr.m_c))
    thermal = TwoModeGaussian.thermal_pair(epr.n)
    if p == 1.0:
        return GaussianMixture(((1.0, epr),))
    if p == 0.0:
        return GaussianMixture(((1.0, thermal),))
    return GaussianMixture(((p, epr), (1.0 - p, thermal)))
