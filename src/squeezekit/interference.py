"""Second-order (intensity) interference: correlation functions, closed-form
fringe visibilities for each state family, classical bounds, and recovery of
visibilities from sampled fringes.

Detectors see the mode combinations (a + b e^{iφᵢ})/√2, so the normally
ordered intensity correlation decomposes into a constant, an in-phase term
cos(φ₁−φ₂), an out-of-phase term cos(φ₁+φ₂+offset), and, for states with
both squeezing and cross correlation, four single-phase cosines.
``hbt_correlation`` returns the raw (unnormalized) correlation so it can be
compared against the Fock oracle exactly; the visibility records hold the
normalized fringe decomposition and ``fringe_prefactor`` exposes the
normalization separately; both read ``witnesses.fourth_order``'s record,
as the intensity witness does.  That record is built once per state value
and kept with it, so a fringe scan of any number of phase pairs reads the
state's six fourth-order Wick words once.  The closed-form records are
ratios of quadratic forms, evaluated on n and the moduli over the largest
of them, so that no square underflows.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .separability import (_require_epr_physical, _require_general_physical,
                           _require_werner_weight)
from .witnesses import _over_larger, fourth_order

_VIS_TOL = 1e-9
_COND_LIMIT = 1e6


class IllConditionedError(ValueError):
    """Fringe-sample design is rank deficient or badly conditioned."""


class InequalityContext(enum.Enum):
    """Selects the classical upper bound for the in-phase visibility."""

    UNCORRELATED_PAIR = "uncorrelated-pair"      # v_minus <= 1/3
    BEAM_SPLITTER_OUTPUT = "beam-splitter-output"  # v_minus <= 1/2


@dataclass(frozen=True)
class VisibilityRecord:
    """Fringe amplitudes (v₋, v₊, v_m) plus the out-of-phase offset.

    v_minus multiplies cos(φ₁−φ₂), v_plus multiplies
    cos(φ₁+φ₂+phase_offset_plus), and v_m multiplies the four single-phase
    cosines present only for correlated squeezed states.
    """

    v_minus: float
    v_plus: float
    v_m: float = 0.0
    phase_offset_plus: float = 0.0

    def __post_init__(self):
        v_minus = float(self.v_minus)
        if not (-_VIS_TOL <= v_minus <= 1.0 + _VIS_TOL):
            raise ValueError(f"v_minus = {v_minus} outside [0, 1]")
        v_plus = float(self.v_plus)
        if not (-_VIS_TOL <= v_plus <= 1.0 + _VIS_TOL):
            raise ValueError(f"v_plus = {v_plus} outside [0, 1]")
        v_m = float(self.v_m)
        if abs(v_m) > 1.0 + _VIS_TOL:
            raise ValueError(f"v_m = {v_m} outside [-1, 1]")
        # The frozen fields, written once as floats.
        self.__dict__.update(v_minus=v_minus, v_plus=v_plus, v_m=v_m,
                             phase_offset_plus=float(self.phase_offset_plus))

    @property
    def total(self) -> float:
        return self.v_minus + self.v_plus


@dataclass(frozen=True)
class FringeSample:
    """One sampled point of the intensity correlation at phases (φ₁, φ₂)."""

    phi1: float
    phi2: float
    value: float


def hbt_correlation(state, phi1: float, phi2: float) -> float:
    """Unnormalized correlation ⟨:I(φ₁)I(φ₂):⟩ of the two detector intensities,
    ¼[I₂ + 2C·cos(φ₁−φ₂) + 2·Re((e^{iφ₁} + e^{iφ₂})·t) + 2·Re(e^{i(φ₁+φ₂)}·s)]
    on the state's ``witnesses.fourth_order`` record; mixtures average by
    weight.  The value is real and nonnegative for physical states.
    """
    record = fourth_order(state)
    esum = cmath.exp(1j * phi1) + cmath.exp(1j * phi2)
    value = (
        record.i2
        + 2.0 * record.c * math.cos(phi1 - phi2)
        + 2.0 * (esum * record.t).real
        + 2.0 * (cmath.exp(1j * (phi1 + phi2)) * record.s).real
    )
    return 0.25 * value


def fringe_prefactor(state) -> float:
    """Constant part ¼I₂ = ¼⟨:(I_a+I_b)²:⟩ of the correlation; the visibility
    records are the fringe divided by this value."""
    return 0.25 * fourth_order(state).i2


def fringe_value(record: VisibilityRecord, phi1: float, phi2: float,
                 lam1: float = 0.0, lam2: float = 0.0) -> float:
    """Normalized fringe pattern described by a visibility record.

    λ₁ and λ₂ only matter when the record carries a nonzero mixed
    visibility; they place the four single-phase cosines.
    """
    value = (
        1.0
        + record.v_minus * math.cos(phi1 - phi2)
        + record.v_plus * math.cos(phi1 + phi2 + record.phase_offset_plus)
    )
    if record.v_m != 0.0:
        value += record.v_m * (
            math.cos(phi1 - lam1)
            + math.cos(phi2 + lam2)
            + math.cos(phi1 + lam2)
            + math.cos(phi2 - lam1)
        )
    return value


# --- closed-form visibilities -------------------------------------------------

def _require_finite(**params: float) -> None:
    """Raise ValueError naming the first parameter that is not a finite
    number, in the words of ``states._finite_real``.  The formulas below
    take any finite value, also beyond ``states.MOMENT_BOUND``."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def visibilities_uncorrelated(n: float, m_abs: float, lam: float = 0.0) -> VisibilityRecord:
    """Two independent equally populated modes whose squeezing moments differ
    by the phase λ (⟨bb⟩ = −m e^{iλ}).

    v₋ = n²/(3n²+|m|²) and v₊ = |m|²/(3n²+|m|²); the out-of-phase fringe
    sits at cos(φ₁+φ₂+λ).
    """
    _require_finite(n=n, m=m_abs, lam=lam)
    if n == 0.0 and m_abs == 0.0:
        raise ValueError("vacuum produces no fringes; visibilities are undefined")
    n, m_abs = _over_larger(n, m_abs)
    denom = 3.0 * n ** 2 + m_abs ** 2
    return VisibilityRecord(n ** 2 / denom, m_abs ** 2 / denom, 0.0, lam)


def visibility_epr(n: float, mc_abs: float) -> VisibilityRecord:
    """Cross-correlated pair without single-mode squeezing.

    v₋ = (n² + |m_c|²)/(3n² + |m_c|²); there is no out-of-phase fringe.
    Values above ½ occur exactly for entangled parameters |m_c| > n.  It is
    the Werner record at p = 1.
    """
    return visibility_werner(n, mc_abs, 1.0)


def visibility_werner(n: float, mc_abs: float, p: float) -> VisibilityRecord:
    """Thermal-diluted correlated pair: v₋ = (n² + p|m_c|²)/(3n² + p|m_c|²)."""
    _require_finite(n=n, m_c=mc_abs)
    _require_werner_weight(p)
    _require_epr_physical(n, mc_abs)
    if n == 0.0 and (p == 0.0 or mc_abs == 0.0):
        raise ValueError("vacuum produces no fringes; visibilities are undefined")
    n, mc_abs = _over_larger(n, mc_abs)
    denom = 3.0 * n ** 2 + p * mc_abs ** 2
    return VisibilityRecord((n ** 2 + p * mc_abs ** 2) / denom, 0.0, 0.0, 0.0)


def visibilities_bs_output(n: float, m_abs: float, lam: float) -> VisibilityRecord:
    """Beam-splitter output of two equally squeezed inputs with phase λ.

    v₋ = (n² + ½(1−cos 2λ)|m|²)/(3n²+|m|²) and
    v₊ = ½(1+cos 2λ)|m|²/(3n²+|m|²).  The formulas are evaluated for any
    parameter pair, physical or not; callers flag nonphysical inputs.
    """
    _require_finite(n=n, m=m_abs, lam=lam)
    if n == 0.0 and m_abs == 0.0:
        raise ValueError("vacuum produces no fringes; visibilities are undefined")
    n, m_abs = _over_larger(n, m_abs)
    denom = 3.0 * n ** 2 + m_abs ** 2
    c2 = math.cos(2.0 * lam)
    v_minus = (n ** 2 + 0.5 * (1.0 - c2) * m_abs ** 2) / denom
    v_plus = 0.5 * (1.0 + c2) * m_abs ** 2 / denom
    return VisibilityRecord(v_minus, v_plus, 0.0, 0.0)


def visibilities_general(n: float, m: float, m_c: float,
                         lam1: float, lam2: float) -> VisibilityRecord:
    """Equal-magnitude squeezing with phases λ₁, λ₂ and a real cross moment.

    All three fringe amplitudes are populated:
    v₋ = (n²+m_c²)/D, v₊ = m²/D, v_m = m·m_c/D with D = 3n²+m²+m_c²,
    the out-of-phase cosine sits at φ₁+φ₂−λ₁+λ₂ and the four single-phase
    cosines at φ₁−λ₁, φ₂+λ₂, φ₁+λ₂, φ₂−λ₁.  Physicality of the parameter
    set is checked before evaluation, by the family's closed form of the
    gate (``separability._require_general_physical``).
    """
    _require_general_physical(n, m, m_c, lam1, lam2)
    if n == 0.0 and m == 0.0 and m_c == 0.0:
        raise ValueError("vacuum produces no fringes; visibilities are undefined")
    scale = max(n, abs(m), abs(m_c))
    n, m, m_c = n / scale, m / scale, m_c / scale
    denom = 3.0 * n ** 2 + m ** 2 + m_c ** 2
    return VisibilityRecord(
        (n ** 2 + m_c ** 2) / denom,
        m ** 2 / denom,
        m * m_c / denom,
        lam2 - lam1,
    )


# --- classical bounds -----------------------------------------------------------

@dataclass(frozen=True)
class ClassicalInequalityReport:
    """Per-bound outcomes of the classical fringe inequalities.

    For uncorrelated pairs the classical window is ¼ ≤ v₋ ≤ ⅓; for
    beam-splitter outputs the upper bound relaxes to ½.  Both share
    0 ≤ v₊ ≤ ¼ and v₋ + v₊ ≤ ½.
    """

    context: InequalityContext
    v_minus_lower_ok: bool
    v_minus_upper_ok: bool
    v_plus_lower_ok: bool
    v_plus_upper_ok: bool
    sum_ok: bool

    @property
    def classical(self) -> bool:
        return (
            self.v_minus_lower_ok
            and self.v_minus_upper_ok
            and self.v_plus_lower_ok
            and self.v_plus_upper_ok
            and self.sum_ok
        )

    def violated(self) -> tuple[str, ...]:
        names = (
            ("v_minus_lower", self.v_minus_lower_ok),
            ("v_minus_upper", self.v_minus_upper_ok),
            ("v_plus_lower", self.v_plus_lower_ok),
            ("v_plus_upper", self.v_plus_upper_ok),
            ("sum", self.sum_ok),
        )
        return tuple(name for name, ok in names if not ok)


def classical_inequality_report(v: VisibilityRecord,
                                context: InequalityContext) -> ClassicalInequalityReport:
    """Check a visibility record against the classical fringe bounds."""
    tol = 1e-12
    upper = 0.5 if context is InequalityContext.BEAM_SPLITTER_OUTPUT else 1.0 / 3.0
    return ClassicalInequalityReport(
        context=context,
        v_minus_lower_ok=v.v_minus >= 0.25 - tol,
        v_minus_upper_ok=v.v_minus <= upper + tol,
        v_plus_lower_ok=v.v_plus >= -tol,
        v_plus_upper_ok=v.v_plus <= 0.25 + tol,
        sum_ok=v.v_minus + v.v_plus <= 0.5 + tol,
    )


# --- visibility recovery from sampled fringes -----------------------------------

class FitModel(enum.Enum):
    IN_PHASE_ONLY = "in-phase-only"
    IN_OUT = "in-out"
    GENERAL = "general"


@dataclass(frozen=True)
class FitResult:
    """Least-squares visibility estimates from sampled fringes."""

    record: VisibilityRecord
    amplitude: float
    residual: float
    condition_number: float


def _design_matrix(phi1: np.ndarray, phi2: np.ndarray, model: FitModel) -> np.ndarray:
    """The fringe basis of ``model``.  The single-phase term
    2·Re((e^{iφ₁} + e^{iφ₂})·t) gives φ₁ and φ₂ equal coefficients, so they
    share two columns.  No state produces sin(φ₁−φ₂) (⟨a†b†ab⟩ is real);
    its column stays as a residual check."""
    cols = [np.ones_like(phi1), np.cos(phi1 - phi2), np.sin(phi1 - phi2)]
    if model in (FitModel.IN_OUT, FitModel.GENERAL):
        cols += [np.cos(phi1 + phi2), np.sin(phi1 + phi2)]
    if model is FitModel.GENERAL:
        cols += [np.cos(phi1) + np.cos(phi2), np.sin(phi1) + np.sin(phi2)]
    return np.column_stack(cols)


def fit_visibilities(samples: Sequence[FringeSample], model: FitModel, *,
                     known_phases: tuple[float, float] | None = None) -> FitResult:
    """Recover fringe visibilities from samples by ordinary least squares.

    The fit runs on the cosine/sine basis of the fringe decomposition and
    folds each quadrature pair back into an amplitude and a phase offset,
    so it is linear, deterministic, and needs no initial guess.  The
    general model additionally needs the known squeezing phases (λ₁, λ₂)
    to convert the single-phase fringe amplitude into the mixed
    visibility; at λ₁+λ₂ = π those fringes vanish identically and v_m is
    not identifiable, which is reported as ill conditioning.
    """
    phi1 = np.array([s.phi1 for s in samples], dtype=float)
    phi2 = np.array([s.phi2 for s in samples], dtype=float)
    y = np.array([s.value for s in samples], dtype=float)
    design = _design_matrix(phi1, phi2, model)
    n_params = design.shape[1]
    if len(samples) < 2 * n_params:
        raise ValueError(
            f"need at least {2 * n_params} samples for a {n_params}-parameter model, "
            f"got {len(samples)}"
        )
    if model is FitModel.GENERAL and known_phases is None:
        raise ValueError("the general model needs known_phases=(lam1, lam2)")
    cond = float(np.linalg.cond(design))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedError(
            f"phase design condition number {cond:.3g} exceeds {_COND_LIMIT:.0e}"
        )
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    amplitude = float(coeffs[0])
    if amplitude <= 0.0:
        raise IllConditionedError("fitted fringe amplitude is not positive")
    residual = float(np.sqrt(np.mean((design @ coeffs - y) ** 2)))

    v_minus = float(np.hypot(coeffs[1], coeffs[2])) / amplitude
    v_plus = offset = v_m = 0.0
    if model in (FitModel.IN_OUT, FitModel.GENERAL):
        mag = float(np.hypot(coeffs[3], coeffs[4])) / amplitude
        if mag > 1e-12:
            v_plus = mag
            offset = math.atan2(-coeffs[4], coeffs[3])
    if model is FitModel.GENERAL:
        lam1, lam2 = known_phases
        direction = np.array([math.cos(lam1) + math.cos(lam2),
                              math.sin(lam1) - math.sin(lam2)])
        norm_sq = float(direction @ direction)  # = 4 cos²((λ₁+λ₂)/2)
        if norm_sq < 1e-12:
            raise IllConditionedError(
                "single-phase fringes vanish at lam1 + lam2 = pi; "
                "v_m is not identifiable, use the in/out model"
            )
        v_m = float(coeffs[5:7] @ direction) / norm_sq / amplitude
        if abs(v_m) < 1e-14:
            v_m = 0.0
    record = VisibilityRecord(v_minus, v_plus, v_m, offset)
    return FitResult(record, amplitude, residual, cond)
