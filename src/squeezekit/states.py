"""Zero-mean Gaussian state values and their normally ordered moment algebra.

A zero-mean Gaussian state of one bosonic mode is fixed by the pair (n, m)
with ⟨a†a⟩ = n and ⟨aa⟩ = −m.  Two modes add a second squeezing moment and
the cross correlations ⟨ab⟩ = −m_c and ⟨a†b⟩ = m_x.  Every higher normally
ordered moment of such a state factorizes into a sum over perfect pairings
of these second moments (Isserlis/Wick), which is what makes closed-form
fourth-order interference quantities possible.

``wick_moment`` never enumerates the (L−1)!! pairings of a length-L word.
Tokens of one class (a†, b†, a or b) are interchangeable in a normally
ordered word, so the moment depends only on the counts (i, j, k, l) of
a†^i b†^j a^k b^l.  Pairing the first token with each remaining class gives
a recursion on those counts: a word visits at most (i+1)(j+1)(k+1)(l+1)
count tuples, 625 for a 16-token word, with at most four terms each.  The
memo of that recursion belongs to the state value, so every word and
witness evaluated on one instance reuses the count tuples its earlier words
filled in.  It dies with the state and holds at most C(20,4) = 4845
tuples, one per count tuple of 16 tokens or fewer.  Beside it the value
keeps what the other layers derive from its fields once: the physicality
verdict and the fourth-order record behind every fringe sample and the
intensity witness.  A mixture keeps a record of its own for these, while
its components keep their Wick memos.

The fields of every value are immutable after construction and every
operation is a pure function of them.  The per-state record only ever
gains entries that any evaluation would compute bit for bit alike, so
states are safe to share between threads: a race can only repeat work.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

EPS_PHYS = 1e-9  # how far the smallest eigenvalue of <zeta zeta^dag> may dip below zero, one mode or two
EPS_CLS = 1e-9   # absolute tolerance on n - |m|
# The largest modulus a state's moments may take: fourth moments are
# quadratic in them, and stay finite, with every field the CLI prints, up
# to this power of ten; NaN and infinities fail the same comparison.
MOMENT_BOUND = 1e153

_WORD_TOKEN_LIMIT = 16
_WEIGHT_SUM_TOL = 1e-9


class NonPhysicalStateError(ValueError):
    """Second moments that violate positivity of the density operator."""


class NotPRepresentableError(ValueError):
    """Requested a Glauber P density for a state that has none."""


class WordOrderError(ValueError):
    """Operator word is not normally ordered."""


class Classification(enum.Enum):
    """P-representability verdict for a one-mode state.

    CLASSICAL states admit a regular P density, QUANTUM states do not, and
    BOUNDARY marks the line n = |m| where the two readings of the border
    (inclusive vs strict) differ.  The boundary is reported distinctly
    instead of being folded into either side.
    """

    CLASSICAL = "classical"
    BOUNDARY = "boundary"
    QUANTUM = "quantum"


def _finite_real(x: float, name: str) -> float:
    x = float(x)
    if not abs(x) <= MOMENT_BOUND:
        raise ValueError(f"{name} must be finite and at most {MOMENT_BOUND:.0e} "
                         f"in modulus, got {x!r}")
    return x


def _finite_complex(z: complex, name: str) -> complex:
    z = complex(z)
    if not (abs(z.real) <= MOMENT_BOUND and abs(z.imag) <= MOMENT_BOUND):
        raise ValueError(f"{name} must be finite and at most {MOMENT_BOUND:.0e} "
                         f"in each part, got {z!r}")
    return z


class _Record:
    """What is known about one state value beyond its fields.

    ``moments`` is (n, m_a, m_b, m_c, m_x) as the Wick recursion reads them,
    None for a mixture, whose components keep their own; ``one_mode`` marks
    a state that takes no mode-b word; ``counts`` maps each count tuple
    evaluated so far to its moment; ``physical`` holds a two-mode state's
    verdict of ``separability.is_physical_two_mode`` once it is known (a
    mixture's is read off its components'), and ``fourth`` the record of
    ``witnesses.fourth_order``, set only once the gate has accepted the
    state or mixture.
    """

    __slots__ = ("moments", "one_mode", "counts", "physical", "fourth")

    def __init__(self, moments: tuple | None, one_mode: bool):
        self.moments = moments
        self.one_mode = one_mode
        self.counts: dict = {}
        self.physical: bool | None = None
        self.fourth = None


class _RecordedState:
    """Base of the state values that carry a ``_Record`` once evaluated.

    The record is derived data, like ``OperatorWord._counts``, but not a
    dataclass field: ``fields``, ``asdict``, ``repr``, ``==`` and ``hash``
    never see it, ``dataclasses.replace`` builds a value without one, and
    pickles and copies leave it out.
    """

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_record", None)
        return state


@dataclass(frozen=True)
class OneModeGaussian(_RecordedState):
    """One-mode zero-mean Gaussian state with ⟨a†a⟩ = n and ⟨aa⟩ = −m.

    Construction only enforces n ≥ 0 and finiteness; physicality is a
    predicate because several formulas are also evaluated, flagged, for
    nonphysical parameter pairs.  As for two modes, the smallest eigenvalue
    of ⟨ζζ†⟩ (here ζ = (a, a†)) must be at least −EPS_PHYS; it is within
    EPS_PHYS of zero exactly for pure states, |m|² = n(n+1).
    """

    n: float
    m: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "n", _finite_real(self.n, "n"))
        object.__setattr__(self, "m", _finite_complex(self.m, "m"))
        if self.n < 0:
            raise ValueError(f"mean photon number must be >= 0, got {self.n}")

    @classmethod
    def vacuum(cls) -> "OneModeGaussian":
        return cls(0.0, 0j)

    @classmethod
    def thermal(cls, n: float) -> "OneModeGaussian":
        return cls(n, 0j)

    def is_physical(self) -> bool:
        return _lowest_eigenvalue(self.n, abs(self.m)) >= -EPS_PHYS

    def is_pure(self) -> bool:
        return abs(_lowest_eigenvalue(self.n, abs(self.m))) <= EPS_PHYS


@dataclass(frozen=True)
class TwoModeGaussian(_RecordedState):
    """Two-mode zero-mean Gaussian state with equal mean photon number.

    Moment conventions: ⟨a†a⟩ = ⟨b†b⟩ = n, ⟨aa⟩ = −m_a, ⟨bb⟩ = −m_b,
    ⟨ab⟩ = −m_c and ⟨a†b⟩ = m_x.  The beam splitter keeps per-mode photon
    numbers equal for any inputs, so a single n suffices; m_x is carried
    because unequal-photon-number inputs generate it.
    """

    n: float
    m_a: complex = 0j
    m_b: complex = 0j
    m_c: complex = 0j
    m_x: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "n", _finite_real(self.n, "n"))
        for name in ("m_a", "m_b", "m_c", "m_x"):
            object.__setattr__(self, name, _finite_complex(getattr(self, name), name))
        if self.n < 0:
            raise ValueError(f"mean photon number must be >= 0, got {self.n}")

    @classmethod
    def uncorrelated_pair(cls, sa: OneModeGaussian, sb: OneModeGaussian) -> "TwoModeGaussian":
        """Product state ρ(a) ⊗ ρ(b); the two modes must share the same n."""
        if abs(sa.n - sb.n) > EPS_CLS:
            raise ValueError("uncorrelated pair requires equal mean photon numbers")
        return cls(sa.n, sa.m, sb.m, 0j, 0j)

    @classmethod
    def pair_with_phase(cls, s: OneModeGaussian, lam: float) -> "TwoModeGaussian":
        """Two copies of s whose squeezing moments differ by ⟨bb⟩ = −m e^{iλ}."""
        return cls(s.n, s.m, s.m * cmath.exp(1j * lam), 0j, 0j)

    @classmethod
    def epr(cls, n: float, m_c: complex) -> "TwoModeGaussian":
        """Cross-correlated state without single-mode squeezing."""
        return cls(n, 0j, 0j, complex(m_c), 0j)

    @classmethod
    def thermal_pair(cls, n: float) -> "TwoModeGaussian":
        return cls(n, 0j, 0j, 0j, 0j)

    def marginal_a(self) -> OneModeGaussian:
        return OneModeGaussian(self.n, self.m_a)

    def marginal_b(self) -> OneModeGaussian:
        return OneModeGaussian(self.n, self.m_b)


@dataclass(frozen=True)
class GaussianMixture(_RecordedState):
    """Finite convex combination of two-mode Gaussian states.

    Weights must lie in (0, 1] and sum to one.  Moment queries on a mixture
    are the weight-averages of the component moments.
    """

    components: tuple[tuple[float, TwoModeGaussian], ...]

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        total = 0.0
        for w, s in comps:
            if not (0.0 < w <= 1.0):
                raise ValueError(f"mixture weight {w} outside (0, 1]")
            if not isinstance(s, TwoModeGaussian):
                raise TypeError("mixture components must be TwoModeGaussian values")
            total += w
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        object.__setattr__(self, "components", comps)


class Mode(enum.Enum):
    A = "a"
    B = "b"


@dataclass(frozen=True)
class LadderToken:
    mode: Mode
    daggered: bool

    def conjugate(self) -> "LadderToken":
        return LadderToken(self.mode, not self.daggered)

    def __str__(self) -> str:
        return self.mode.value + ("†" if self.daggered else "")


@dataclass(frozen=True)
class OperatorWord:
    """Normally ordered product of ladder operators, e.g. a†a†ab.

    Tokens are read left to right; every daggered token must precede every
    undaggered one, otherwise the word is rejected.  The moment of a word is
    well defined by its multiset of tokens because operators of different
    modes commute and equal-mode daggered (or undaggered) operators commute
    among themselves.
    """

    tokens: tuple[LadderToken, ...]
    _counts: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) > _WORD_TOKEN_LIMIT:
            raise ValueError(f"word length {len(tokens)} exceeds limit {_WORD_TOKEN_LIMIT}")
        counts = [0, 0, 0, 0]
        seen_undaggered = False
        for t in tokens:
            if not isinstance(t, LadderToken):
                raise TypeError("word tokens must be LadderToken values")
            if t.daggered and seen_undaggered:
                raise WordOrderError(f"word '{self._render(tokens)}' is not normally ordered")
            if not t.daggered:
                seen_undaggered = True
            counts[(0 if t.daggered else 2) + (t.mode is Mode.B)] += 1
        object.__setattr__(self, "_counts", tuple(counts))

    @staticmethod
    def _render(tokens) -> str:
        return " ".join(str(t) for t in tokens)

    @classmethod
    def from_counts(cls, create_a: int = 0, create_b: int = 0,
                    annihilate_a: int = 0, annihilate_b: int = 0) -> "OperatorWord":
        """Word ``a†^i b†^j a^k b^l`` from nonnegative exponent counts."""
        for c in (create_a, create_b, annihilate_a, annihilate_b):
            if c < 0:
                raise ValueError("exponents must be nonnegative")
        tokens = (
            [LadderToken(Mode.A, True)] * create_a
            + [LadderToken(Mode.B, True)] * create_b
            + [LadderToken(Mode.A, False)] * annihilate_a
            + [LadderToken(Mode.B, False)] * annihilate_b
        )
        return cls(tuple(tokens))

    @classmethod
    def parse(cls, text: str) -> "OperatorWord":
        """Parse a whitespace-separated word, e.g. ``"ad ad a b"`` or ``"a† b"``."""
        tokens = []
        for raw in text.split():
            name = raw.lower()
            daggered = name.endswith("†") or name.endswith("d")
            if daggered:
                name = name[:-1]
            if name == "a":
                mode = Mode.A
            elif name == "b":
                mode = Mode.B
            else:
                raise ValueError(f"unknown ladder token {raw!r}")
            tokens.append(LadderToken(mode, daggered))
        return cls(tuple(tokens))

    def conjugate(self) -> "OperatorWord":
        """Hermitian conjugate word; reversal keeps it normally ordered."""
        return OperatorWord(tuple(t.conjugate() for t in reversed(self.tokens)))

    def counts(self) -> tuple[int, int, int, int]:
        """(create_a, create_b, annihilate_a, annihilate_b) token counts."""
        return self._counts

    def uses_mode_b(self) -> bool:
        return bool(self._counts[1] or self._counts[3])

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return self._render(self.tokens)


# --- one-mode operations ----------------------------------------------------

def _lowest_eigenvalue(n: float, m_abs: float) -> float:
    """Smaller eigenvalue n + ½ − √(¼ + |m|²) of ⟨ζζ†⟩ = [[n+1, −m], [−m*, n]]
    for ζ = (a, a†), taken without cancellation.  Where n or |m| exceeds 1
    it is evaluated on the moduli over the larger of the two, so that no
    square overflows; below, the scale is 1 and every operation exact."""
    m_abs = abs(m_abs)
    scale = n if n > m_abs else m_abs
    if scale < 1.0:
        scale = 1.0
    n, m_abs, half = n / scale, m_abs / scale, 0.5 / scale
    return (scale * (n * (n + 2.0 * half) - m_abs ** 2)
            / (n + half + math.sqrt(half ** 2 + m_abs ** 2)))


def _require_lowest_eigenvalue(n: float, m_abs: float, name: str = "m") -> None:
    """Raise NonPhysicalStateError unless ``_lowest_eigenvalue`` ≥ −EPS_PHYS."""
    if _lowest_eigenvalue(n, m_abs) < -EPS_PHYS:
        raise NonPhysicalStateError(
            f"|{name}|^2 = {m_abs * m_abs:.12g} exceeds n(n+1) = {n * (n + 1):.12g}")


def is_physical_one_mode(s: OneModeGaussian) -> bool:
    """Positivity of the density operator: ``OneModeGaussian.is_physical``."""
    return s.is_physical()


def is_p_representable(s: OneModeGaussian) -> Classification:
    """Classify against the classicality line n = |m|.

    Strictly above the line the state has a regular P density (CLASSICAL),
    strictly below it does not (QUANTUM); within ±EPS_CLS of the line the
    verdict is BOUNDARY.
    """
    _require_lowest_eigenvalue(s.n, abs(s.m))
    gap = s.n - abs(s.m)
    if gap > EPS_CLS:
        return Classification.CLASSICAL
    if gap < -EPS_CLS:
        return Classification.QUANTUM
    return Classification.BOUNDARY


@dataclass(frozen=True)
class PFunctionParams:
    """Gaussian P density P(α) = exp(coeff_nn·|α|² + 2 Re(coeff_sq·α*²)) / (π√d)."""

    d: float
    coeff_nn: float
    coeff_sq: complex

    def density(self, alpha: complex) -> float:
        alpha = complex(alpha)
        quad = self.coeff_nn * abs(alpha) ** 2 + 2.0 * (self.coeff_sq * alpha.conjugate() ** 2).real
        return math.exp(quad) / (math.pi * math.sqrt(self.d))


def p_function_params(s: OneModeGaussian) -> PFunctionParams:
    """Parameters of the Glauber P density of a classical state.

    Only classical states (n > |m|) have a regular Gaussian P density, with
    width parameter d = n² − |m|².
    """
    if is_p_representable(s) is not Classification.CLASSICAL:
        raise NotPRepresentableError(
            f"state with n = {s.n:.6g}, |m| = {abs(s.m):.6g} has no regular P density"
        )
    d = s.n ** 2 - abs(s.m) ** 2
    return PFunctionParams(d=d, coeff_nn=-s.n / d, coeff_sq=-s.m / (2.0 * d))


def weyl_characteristic(s: OneModeGaussian, alpha: complex) -> complex:
    """Symmetric-order characteristic function Tr{ρ D(α)}.

    Equals exp(−(n+½)|α|² − Re(m α*²)); exactly 1 at α = 0.
    """
    _require_lowest_eigenvalue(s.n, abs(s.m))
    alpha = complex(alpha)
    quad = (s.n + 0.5) * abs(alpha) ** 2 + (s.m * alpha.conjugate() ** 2).real
    return cmath.exp(-quad)


def quadrature_variances(s: OneModeGaussian) -> tuple[float, float]:
    """Variances of X₁ = (a+a†)/√2 and X₂ = (a−a†)/(√2 i).

    A squeezing moment with Re m > 0 pushes the X₁ variance below the
    thermal value n + ½, reaching below the vacuum level ½ only for states
    that are not P-representable.
    """
    return (s.n + 0.5 - s.m.real, s.n + 0.5 + s.m.real)


def g2(s: OneModeGaussian) -> float:
    """Normalized second-order degree of coherence ⟨a†a†aa⟩ / ⟨a†a⟩².

    Equals 2 + |m|²/n²; 2 for thermal states, above 3 exactly for states
    that are not P-representable.
    """
    if s.n == 0:
        raise ZeroDivisionError("g2 undefined at zero mean photon number")
    return 2.0 + (abs(s.m) / s.n) ** 2


def purity_one_mode(s: OneModeGaussian) -> float:
    """Tr ρ² = 1 / (2ν) with ν² = (n+½)² − |m|², evaluated as
    ((n − |m|) + ½)(n + |m| + ½), which does not cancel.  A pure state has
    ν² = ¼ and purity 1; so has a state in the gate's band (ν² < ¼), whose
    density the Fock oracle builds from Γ − λI, a pure state's."""
    _require_lowest_eigenvalue(s.n, abs(s.m))
    m_abs = abs(s.m)
    nu2 = ((s.n - m_abs) + 0.5) * (s.n + m_abs + 0.5)
    return 1.0 if nu2 <= 0.25 else 1.0 / (2.0 * math.sqrt(nu2))


# --- Wick moment engine -----------------------------------------------------

def _counts_moment(moments, memo: dict, i: int, j: int, k: int, l: int) -> complex:
    """⟨a†^i b†^j a^k b^l⟩ on the state with second moments
    ``moments = (n, m_a, m_b, m_c, m_x)``, by pairing the first token.

    The first token pairs with each remaining token class; a class holding
    c tokens contributes c × the pair's second moment × the moment of the
    counts left over.  Pairs read in written (normally ordered) order:
    ⟨a†a†⟩ = −m_a*, ⟨a†b†⟩ = −m_c*, ⟨a†a⟩ = ⟨b†b⟩ = n, ⟨a†b⟩ = m_x,
    ⟨b†a⟩ = m_x*, ⟨aa⟩ = −m_a, ⟨ab⟩ = −m_c.  Vanishing second moments are
    skipped.  ``memo`` is the state's own record of count tuples (see
    ``state_record``), kept across calls: every entry is the value this
    recursion computes for its key, so a hit returns exactly what a fresh
    evaluation would.  Sub-words of length 2 are cheaper to recompute than
    to look up.
    """
    key = (i, j, k, l) if i + j + k + l > 2 else None
    if key is not None:
        value = memo.get(key)
        if value is not None:
            return value
    n, m_a, m_b, m_c, m_x = moments
    value = 0j
    if i:
        if i > 1 and m_a:
            value -= (i - 1) * m_a.conjugate() * _counts_moment(moments, memo, i - 2, j, k, l)
        if j and m_c:
            value -= j * m_c.conjugate() * _counts_moment(moments, memo, i - 1, j - 1, k, l)
        if k and n:
            value += k * n * _counts_moment(moments, memo, i - 1, j, k - 1, l)
        if l and m_x:
            value += l * m_x * _counts_moment(moments, memo, i - 1, j, k, l - 1)
    elif j:
        if j > 1 and m_b:
            value -= (j - 1) * m_b.conjugate() * _counts_moment(moments, memo, 0, j - 2, k, l)
        if k and m_x:
            value += k * m_x.conjugate() * _counts_moment(moments, memo, 0, j - 1, k - 1, l)
        if l and n:
            value += l * n * _counts_moment(moments, memo, 0, j - 1, k, l - 1)
    elif k:
        if k > 1 and m_a:
            value -= (k - 1) * m_a * _counts_moment(moments, memo, 0, 0, k - 2, l)
        if l and m_c:
            value -= l * m_c * _counts_moment(moments, memo, 0, 0, k - 1, l - 1)
    elif l:
        if l > 1 and m_b:
            value -= (l - 1) * m_b * _counts_moment(moments, memo, 0, 0, 0, l - 2)
    else:
        return 1.0 + 0j
    if key is not None:
        memo[key] = value
    return value


def state_record(state) -> _Record:
    """The record of a state value or mixture, made on first use.  A
    mixture's holds no moments and fills no memo: each component keeps
    its own."""
    record = getattr(state, "_record", None)
    if record is None:
        if isinstance(state, OneModeGaussian):
            record = _Record((state.n, state.m, 0j, 0j, 0j), True)
        elif isinstance(state, TwoModeGaussian):
            record = _Record((state.n, state.m_a, state.m_b, state.m_c, state.m_x), False)
        elif isinstance(state, GaussianMixture):
            record = _Record(None, False)
        else:
            raise TypeError(f"unsupported state type {type(state).__name__}")
        object.__setattr__(state, "_record", record)
    return record


def wick_moment(state, word: OperatorWord) -> complex:
    """Normally ordered expectation of a ladder word on a Gaussian state.

    Equals the sum over all perfect pairings of the word's tokens, each pair
    contributing its stored second moment, evaluated by the recursion on the
    word's counts in ``_counts_moment`` on the state's own memo.  Words of
    odd length vanish because the states are zero-mean.  Mixtures average
    component moments by weight.
    """
    if isinstance(state, GaussianMixture):
        return sum(w * wick_moment(s, word) for w, s in state.components)
    record = state_record(state)
    if record.one_mode and word.uses_mode_b():
        raise ValueError("one-mode state cannot take words containing mode b")
    i, j, k, l = word.counts()
    if (i + j + k + l) % 2:
        return 0j
    return _counts_moment(record.moments, record.counts, i, j, k, l)
