"""Witness operators, each read on a stated domain.

W2 is negative exactly on the nonclassical zero-mean one-mode Gaussian
states, those without a positive P function (``w2_expectation``).  A
negative WHBT certifies nonclassicality on an uncorrelated pair and
entanglement on the cross-correlated and Werner families.  Off those
families it certifies nothing by itself: the classical bound is −½, not 0,
and split thermal light reaches it, classical and separable
(``whbt_expectation``).

Both witnesses normalize their fourth-order numerators with expectations
taken on the same state, so Tr{Wρ} reduces to a ratio of normally ordered
Wick moments.  On two modes these are ``fourth_order``'s record, the one
place that builds the fourth-order words; ``interference`` reads it too.
The record is built once per state value, after the gate, and kept with
the value's other derived data (``states.state_record``), so a fringe scan
and the witness on one state read its six words once.  The closed forms
the standard families admit are exposed separately so tests can pin their
equality.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .separability import _require_physical
from .states import (EPS_PHYS, GaussianMixture, OneModeGaussian, OperatorWord,
                     TwoModeGaussian, g2, state_record, wick_moment)

EPS_VERDICT = 1e-9

_W_ADAD_AA = OperatorWord.from_counts(create_a=2, annihilate_a=2)
_W_ADBD_AB = OperatorWord.from_counts(create_a=1, create_b=1, annihilate_a=1, annihilate_b=1)
_W_ADAD_AB = OperatorWord.from_counts(create_a=2, annihilate_a=1, annihilate_b=1)
_W_ADBD_BB = OperatorWord.from_counts(create_a=1, create_b=1, annihilate_b=2)
_W_ADAD_BB = OperatorWord.from_counts(create_a=2, annihilate_b=2)
_W_BDBD_BB = OperatorWord.from_counts(create_b=2, annihilate_b=2)


class WitnessKind(enum.Enum):
    W2 = "w2"
    WHBT = "whbt"


class Verdict(enum.Enum):
    CLASSICAL_OR_SEPARABLE = "classical-or-separable"
    BOUNDARY = "boundary"
    QUANTUM_OR_ENTANGLED = "quantum-or-entangled"


@dataclass(frozen=True)
class WitnessReport:
    """Witness expectation value plus the sign-based verdict."""

    value: float
    verdict: Verdict
    witness_kind: WitnessKind


def _verdict(value: float, tol: float = EPS_VERDICT) -> Verdict:
    if value < -tol:
        return Verdict.QUANTUM_OR_ENTANGLED
    if value > tol:
        return Verdict.CLASSICAL_OR_SEPARABLE
    return Verdict.BOUNDARY


def w2_expectation(s: OneModeGaussian) -> WitnessReport:
    """Expectation of the single-mode witness 3 − a†a†aa/⟨a†a⟩².

    Equals (n² − |m|²)/n², i.e. 3 − g⁽²⁾ with g⁽²⁾ = 2 + (|m|/n)² from
    ``g2``, nonnegative exactly for the states with a positive P function
    and −1/n on pure states.  That holds on the zero-mean one-mode
    Gaussian states this function takes; a non-Gaussian classical state
    can read below 0.  The ratio |m|/n keeps it finite where n² underflows.
    Nonphysical second moments raise NonPhysicalStateError.
    """
    _require_physical(s)
    if s.n == 0:
        raise ZeroDivisionError("witness normalization undefined at zero photon number")
    value = 3.0 - g2(s)
    return WitnessReport(value, _verdict(value), WitnessKind.W2)


class FourthOrder(NamedTuple):
    """The fourth moments behind intensity interference and its witness (a
    named tuple, built once per state value): ``i2`` = I₂ = ⟨:(I_a+I_b)²:⟩
    = ⟨a†²a²⟩ + ⟨b†²b²⟩ + 2C, zero at the vacuum and where it underflows;
    ``c`` = C = ⟨a†b†ab⟩ (real); ``t`` = ⟨a†a†ab⟩ + ⟨a†b†bb⟩;
    ``s`` = ⟨a†²b²⟩ = ⟨b†²a²⟩*."""

    i2: float
    c: float
    t: complex
    s: complex


def fourth_order(state) -> FourthOrder:
    """The fourth-order record of a physical two-mode state or mixture
    (mixtures average by weight), built once per state value, after the
    gate, and kept in the value's record.  Nonphysical second moments raise
    NonPhysicalStateError on every call, a one-mode state TypeError."""
    if isinstance(state, OneModeGaussian):
        raise TypeError("fourth-order moments need a two-mode state; build a pair first")
    record = state_record(state)
    if record.fourth is None:
        _require_physical(state)
        record.fourth = _fourth_order_words(state)
    return record.fourth


def _fourth_order_words(state) -> FourthOrder:
    """The record from its six Wick words, ungated."""
    c = wick_moment(state, _W_ADBD_AB)
    i2 = (wick_moment(state, _W_ADAD_AA) + wick_moment(state, _W_BDBD_BB) + 2.0 * c).real
    t = wick_moment(state, _W_ADAD_AB) + wick_moment(state, _W_ADBD_BB)
    return FourthOrder(i2, c.real, t, wick_moment(state, _W_ADAD_BB))


def _moment_scale(state) -> float:
    """The largest modulus among the second moments of a two-mode state,
    or of a mixture's components; zero only at the vacuum."""
    if isinstance(state, GaussianMixture):
        return max(_moment_scale(comp) for _, comp in state.components)
    return max(state.n, abs(state.m_a), abs(state.m_b), abs(state.m_c), abs(state.m_x))


def _scaled(state, scale: float):
    """The state, or mixture, whose second moments are ``state``'s over
    ``scale``; it need not be physical, and is only fed to the words."""
    if isinstance(state, GaussianMixture):
        return GaussianMixture(tuple((w, _scaled(comp, scale)) for w, comp in state.components))
    return TwoModeGaussian(state.n / scale, state.m_a / scale, state.m_b / scale,
                           state.m_c / scale, state.m_x / scale)


def whbt_expectation(state) -> WitnessReport:
    """Expectation of the intensity witness ½ − (2a†b†ab + b†²a² + a†²b²)/I₂
    = ½ − (2C + 2·Re s)/I₂ on ``fourth_order``'s record, for any physical
    two-mode state or mixture; the vacuum raises ZeroDivisionError.  Where
    I₂ underflows below the smallest normal float (every modulus below
    about 1e-154), the ratio is taken on the words of the moments over
    their largest modulus s: W is homogeneous of degree 4 in the moments,
    so it keeps its value, and √I₂ is formed as s·√I₂(moments/s).

    W·√I₂ is second order, like the gate's eigenvalue, so the verdict is
    ``boundary`` where |W| ≤ max(EPS_VERDICT, EPS_PHYS/√I₂).  The verdict
    reads the sign as the paper does on its families: a negative value
    certifies nonclassicality on an uncorrelated pair and entanglement on
    the cross-correlated and Werner families.  Off them it certifies
    nothing by itself.  Classical fields α, β have
    2C + 2·Re s = E[(2·Re αβ*)²] ≤ E[(|α|² + |β|²)²] = I₂, so the classical
    bound is W ≥ −½; W ≥ 0 needs a random relative phase.  Split thermal
    light, ``beam_splitter(OneModeGaussian.thermal(2),
    OneModeGaussian.vacuum(), 0)``, has ⟨a†b⟩ = 1 and reads W = −½, with
    the verdict ``quantum-or-entangled``, yet it is classical and
    separable.  Over half of whbt-negative random states are PPT-separable.
    """
    i2, c, _, s = fourth_order(state)
    root = math.sqrt(i2)
    if i2 < sys.float_info.min:
        scale = _moment_scale(state)
        if scale == 0.0:
            raise ZeroDivisionError("witness normalization vanishes (vacuum)")
        i2, c, _, s = _fourth_order_words(_scaled(state, scale))
        root = scale * math.sqrt(i2)
    value = 0.5 - (2.0 * c + s.conjugate().real + s.real) / i2
    band = max(EPS_VERDICT, EPS_PHYS / root if root else math.inf)
    return WitnessReport(value, _verdict(value, band), WitnessKind.WHBT)


def _over_larger(x: float, y: float) -> tuple:
    """(x, y) over the larger of their moduli |x|, |y|.  A ratio of
    quadratic forms in them keeps its value, and no square underflows, as
    in ``states.g2``; the vacuum, x = y = 0, raises ZeroDivisionError."""
    scale = abs(x) if abs(x) > abs(y) else abs(y)
    return x / scale, y / scale


def whbt_closed_form_uncorrelated(n: float, m_abs: float) -> float:
    """Closed form for an uncorrelated equal pair: (n²−|m|²) / (2(3n²+|m|²)),
    the Werner form at p = 1 with |m| in place of |m_c|."""
    return whbt_closed_form_werner(n, m_abs, 1.0)


def whbt_closed_form_epr(n: float, mc_abs: float) -> float:
    """Closed form for the cross-correlated family: (n²−|m_c|²) / (2(3n²+|m_c|²)),
    the Werner form at p = 1."""
    return whbt_closed_form_werner(n, mc_abs, 1.0)


def whbt_closed_form_werner(n: float, mc_abs: float, p: float) -> float:
    """Closed form for the thermal-diluted family,
    (n²−p|m_c|²) / (2(3n²+p|m_c|²)); sign flips when p|m_c|² > n²."""
    n, mc_abs = _over_larger(n, mc_abs)
    return (n ** 2 - p * mc_abs ** 2) / (2.0 * (3.0 * n ** 2 + p * mc_abs ** 2))
