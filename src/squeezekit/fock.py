"""Truncated Fock-basis brute force for Gaussian states.

Densities are assembled constructively: a (quasi-)thermal diagonal is
conjugated by exactly unitary truncated squeeze, two-mode squeeze, beam
splitter and phase operators.  Within one conserved sector every
generator is tridiagonal, g[k+1, k] = z a_k and g[k, k+1] = −z̄ a_k, with
real couplings a_k fixed by the sector and only z set by the state, so
exp(g) = G V e^{−i|z|Λ} Vᵀ G* with G a diagonal of phases and (Λ, V) the
real spectrum of the couplings' symmetric tridiagonal matrix.  That
spectrum is computed once per sector and working size and cached
read-only; no state needs an eigendecomposition of its own.  The
mixer's sector blocks are cached at λ = 0, and λ enters as phases.
Correctness is defined by moment matching against the stored second
moments, not by matching any normally ordered operator expansion entrywise.

Every step works per conserved sector of the Fock basis, using the
conservation laws of the Gaussian unitaries (Weedbrook et al., RMP 84, 621
(2012), arXiv:1110.3234), with one constructive route per law:

- the squeezer conserves photon-number parity.  It is exponentiated per
  parity block; a product density is built as its four (parity of n_a,
  parity of n_b) blocks, and every density is exactly zero between states
  of different total parity;
- the two-mode squeezer conserves d = n_a − n_b.  The tms density is built
  as one block per d sector; sectors d and −d share one block.  A thermal
  pair takes this route with no squeezing, so a Werner mixture sums block
  by block.  Only the retained rows and the columns of non-negligible
  input weight of each sector exponential are formed;
- the beam splitter conserves N = n_a + n_b.  The bs route runs only the
  mixer sectors N ≤ 2(cutoff − 1), the only ones that reach the retained
  block, and builds one block per total parity.  Its input ρ₁ ⊗ ρ₂ is zero
  between states whose n_a differ in parity, since each factor conserves
  its own parity, so it is mixed as two classes, on its nonzero half only.

The tests check each route against dense exponentials of the full
truncated generator, which share no code with the sector exponentials.

Every constructor works in an enlarged space of twice the requested cutoff
and projects the result down.  Because of these conservation laws no
truncation junk can reach the retained block: the returned entries are
those of the untruncated state up to the (tiny) weight beyond the working
space, and the trace deficit measures the genuine photon-number tail of the
state.

A ``FockDensity`` is a set of Hermitian blocks on disjoint sets of basis
states; every entry outside them is a structural zero, and a dense matrix
is the one-block case.  No constructor forms a dense matrix.  Constructors
check only the trace deficit; ``FockDensity`` checks Hermiticity and sums
the trace block by block, once per block, and stores the blocks
symmetrized.  A mixture sums its components block by block when they share
their blocks, and otherwise on the two total-parity blocks, which every
route refines.

Measurements have one path: a lookup that gives, per basis state, its
block, its position in the block and the offset of its row in the packed
blocks.  The explicit ladder product a†^i a^k has a single nonzero band, at
row − column = i − k, so Tr(ρ · K_a ⊗ K_b) is an O(cutoff²) gather of ρ
along the two bands; ``moment``, ``moment_table`` (one gather per band
pair) and ``expectation_of_witness`` all read it that way.  Purity,
spectrum, trace and diagonal are read from the blocks; ``matrix`` is a
dense view built only when asked for.

The partial-transpose spectrum is taken one block at a time under the
finest grading (n_a + n_b, then total parity, then none) whose blocks hold
the whole partial transpose.  PT[x, y] = ρ[p, q] with p = (x_a, y_b) and
q = (y_a, x_b), so N_x − N_y = d_p − d_q with d = n_a − n_b; the grading is
verified on ρ's own blocks, which must join only states of equal d (of
equal d mod 2 for total parity).  Each constructor records its route on
the density.  A bs-route density R B₀(ρ₁ ⊗ ρ₂) B₀† R†, with B₀ the real
λ = 0 mixer and R = e^{iα n_a + iβ n_b} the local phases, also records
δ = θ_d − θ_c: B₀ maps the input parity (−1)^{n_a} to a signed mode swap,
so ρ commutes with T|j, k⟩ = (−1)^{j+k} e^{iδ(j−k)}|k, j⟩.  Under partial
transposition that symmetry becomes antiunitary, and with the phases
e^{iδN/2} each block is real symmetric in the basis of |j, j⟩ and the
symmetric and antisymmetric combinations of |j, k⟩ and |k, j⟩.  Its
spectrum then comes from the real eigensolver, about a quarter of the
complex cost.  The symmetry is checked on every block to the Hermiticity
tolerance; a block that fails it, and every density without δ, takes the
complex eigensolver.

None of the routines here consults the Wick engine, so moments, purities,
witness expectations and partial-transpose spectra computed from these
matrices are independent checks of every closed form in the package.

Each constructor calls ``separability._require_physical``, the gate of
every closed form, once on entry and builds every state it accepts.  The
planner keeps each factor's formal occupation n̄, negative (with
alternating-sign weights) for moments beyond the physical bound, so tests
can read physicality off it independently.  An accepted factor with n̄
just below zero (a vacuum port, a boundary state) is built pure.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from .separability import _require_physical
from .states import GaussianMixture, OneModeGaussian, OperatorWord, TwoModeGaussian
from .witnesses import WitnessKind

EPS_TR = 1e-6

_HERMITICITY_TOL = 1e-12
_WEIGHT_FLOOR = 1e-18


class ConvergenceError(RuntimeError):
    """Truncated trace has not converged at the requested cutoff."""

    def __init__(self, message: str, deficit: float):
        super().__init__(message)
        self.deficit = deficit


class UnsupportedStateError(ValueError):
    """Second-moment pattern outside the families this oracle can assemble."""


# --- ladder matrices and exact-unitary exponentials --------------------------

def annihilation(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def creation(cutoff: int) -> np.ndarray:
    return annihilation(cutoff).conj().T


def _mixer_states(cutoff: int, total: int) -> np.ndarray:
    """Mode-a photon numbers j of the retained states |j, N−j⟩ of sector N."""
    return np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)


def _sector_couplings(kind: str, size: int, sector: int) -> np.ndarray:
    """Real couplings a_k of a sector generator g[k+1, k] = z a_k,
    g[k, k+1] = −z̄ a_k, its states listed in increasing order.

    - ``squeeze``: parity ``sector`` of one mode with ``size`` states.
      ½(ξ* a² − ξ a†²) has z = −ξ/2; a†² takes |n⟩ to |n+2⟩ with
      √((n+1)(n+2)).
    - ``tms``: sector |d| = ``sector`` of two modes with cutoff ``size``,
      states |j, j−d⟩.  ξ* ab − ξ a†b† has z = −ξ; a†b† takes the k-th state
      to the next with √((k+1)(k+|d|+1)), the same for d and −d.
    - ``mixer``: sector N = ``sector`` of two modes with cutoff ``size``,
      states |j, N−j⟩.  (π/4)(e^{iλ} a†b − e^{−iλ} ab†) has z = (π/4)e^{iλ};
      a†b takes |j, N−j⟩ to |j+1, N−j−1⟩ with √((j+1)(N−j)).
    """
    if kind == "squeeze":
        n = np.arange(sector, size - 2, 2, dtype=float)
        return np.sqrt((n + 1.0) * (n + 2.0))
    if kind == "tms":
        k = np.arange(size - sector - 1, dtype=float)
        return np.sqrt((k + 1.0) * (k + sector + 1.0))
    if kind == "mixer":
        js = _mixer_states(size, sector)[:-1]
        return np.sqrt((js + 1.0) * (sector - js))
    raise ValueError(f"unknown generator kind {kind!r}")


@functools.lru_cache(maxsize=256)
def _sector_spectrum(kind: str, size: int, sector: int):
    """(Λ, V), read-only: eigendecomposition of the real symmetric
    tridiagonal matrix A with off-diagonal a_k of the sector generator.

    The bound holds every sector the concordance suite uses (cutoffs 40
    and 30: 151 entries, about 3 MB).
    """
    a = _sector_couplings(kind, size, sector)
    lam, v = np.linalg.eigh(np.diag(a, -1) + np.diag(a, 1))
    lam.flags.writeable = False
    v.flags.writeable = False
    return lam, v


def _sector_exponential(kind: str, size: int, sector: int, z: complex,
                        rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Rows ``rows`` and columns ``cols`` of exp(g) for the sector generator
    with coupling z (see ``_sector_couplings``).

    g = G (−i|z| A) G* with G = diag(e^{ik(arg z + π/2)}), so
    exp(g) = G V e^{−i|z|Λ} Vᵀ G*, exactly unitary up to round-off.  Only
    the phases depend on z, so every state shares the cached spectrum.
    """
    lam, v = _sector_spectrum(kind, size, sector)
    left = v[rows]
    angle = abs(z) * lam
    # The real and the imaginary part in one real product [V cos; V sin] Vᵀ.
    parts = np.concatenate((left * np.cos(angle), left * np.sin(angle))) @ v[cols].T
    out = parts[:left.shape[0]] - 1j * parts[left.shape[0]:]
    tilt = cmath.phase(z) + 0.5 * math.pi
    k = np.arange(lam.size)
    out *= np.exp(1j * tilt * k[rows])[:, None]
    out *= np.exp(-1j * tilt * k[cols])
    return out


def squeeze_unitary(cutoff: int, r: float, phi: float) -> np.ndarray:
    """exp(½(ξ* a² − ξ a†²)) with ξ = r e^{iφ}, truncated.

    The generator changes the photon number by two, so it is exponentiated
    on the even and the odd Fock states separately.
    """
    z = -0.5 * r * cmath.exp(1j * phi)
    u = np.zeros((cutoff, cutoff), dtype=complex)
    for parity in range(min(2, cutoff)):
        u[parity::2, parity::2] = _sector_exponential("squeeze", cutoff, parity, z)
    return u


@functools.lru_cache(maxsize=4)
def _mixer_blocks(max_total: int) -> tuple:
    """Mixer blocks at λ = 0, without the output rotation, of the sectors
    N = 0 .. max_total, untruncated: row and column j of block N belong to
    |j, N−j⟩."""
    blocks = tuple(_sector_exponential("mixer", max_total + 1, total, math.pi / 4.0)
                   for total in range(max_total + 1))
    for block in blocks:
        block.flags.writeable = False
    return blocks


# --- squeezed-thermal decompositions -----------------------------------------

@dataclass(frozen=True)
class _SqueezedThermal:
    """Factorization ρ = S(r, φ) ρ_thermal(n̄) S†; n̄ < 0 marks a quasi state."""

    nbar: float
    r: float
    phi: float


def _solve_squeezed_thermal(n: float, m: complex):
    """Solve (n̄, r, φ) from n + ½ = (n̄+½) cosh 2r and m = e^{iφ}(n̄+½) sinh 2r.

    A solution exists exactly when n + ½ > |m| (which excludes n < −½),
    else None.  n̄ is the formal one, negative beyond |m|² ≤ n(n+1).
    """
    if n + 0.5 <= abs(m):
        return None
    half_width = math.sqrt((n + 0.5) ** 2 - abs(m) ** 2)
    r = 0.5 * math.asinh(abs(m) / half_width)
    phi = cmath.phase(m) if abs(m) > 0.0 else 0.0
    return _SqueezedThermal(half_width - 0.5, r, phi)


def _thermal_weights(nbar: float, cutoff: int) -> np.ndarray:
    q = nbar / (nbar + 1.0)
    return (1.0 - q) * q ** np.arange(cutoff)


def _working_cutoff(cutoff: int) -> int:
    return 2 * cutoff


def _factor_matrix(st: _SqueezedThermal, dim: int) -> np.ndarray:
    """S ρ_thermal S† on the first ``dim`` Fock states.  S has exact zeros
    between the parities, so the product has them too.  A gated state's
    factor with n̄ just below zero is built pure."""
    w = _thermal_weights(max(st.nbar, 0.0), dim)
    if st.r == 0.0:
        return np.diag(w).astype(complex)
    s = squeeze_unitary(dim, st.r, st.phi)
    return (s * w) @ s.conj().T


def _one_mode_matrix(st: _SqueezedThermal, cutoff: int) -> np.ndarray:
    """Restricted matrix of the squeezed thermal state, assembled at twice
    the cutoff so the retained block carries no truncation junk."""
    return _factor_matrix(st, _working_cutoff(cutoff))[:cutoff, :cutoff]


def _mix_on_beam_splitter(f1: _SqueezedThermal, f2: _SqueezedThermal,
                          theta_c: float, theta_d: float, cutoff: int) -> list:
    """Blocks of the restricted density of R(θc, θd) · V₀ (ρ₁ ⊗ ρ₂) V₀† · R†,
    with V₀ the λ = 0 beam splitter of ``bs_output_density``.

    The mixer conserves N = n_a + n_b, so a retained state (both photon
    numbers below the cutoff) only receives weight from the input sectors
    N ≤ 2(cutoff − 1), which the doubled working space holds untruncated.
    The factors conserve parity, so input and output split by total
    parity, one block each.  Within one parity the output is
    Σ B_N ρ_in[N, N'] B_N'†, where B_N holds the retained rows of the
    sector-N mixer block with the rotation R folded in.

    Each factor also conserves its own parity, so the input entry
    ρ_in[(N, j), (N', j')] = ρ₁[j, j'] ρ₂[N − j, N' − j'] of the states
    |j, N − j⟩ and |j', N' − j'⟩ vanishes unless j ≡ j' (mod 2): within one
    total parity the input splits into two classes by the parity c of n_a.
    The first product runs per class.  The class's columns of ρ₁'s rows
    j ≡ c, and of ρ₂'s rows in decreasing k = N − j, are gathered once, so
    the class rows of sector N are the product of two contiguous row
    slices.  ``half`` holds B ρ_in with the class-0 columns first; the
    second product joins a sector's two class column ranges against B_N's
    columns in the same class order.
    """
    cw = _working_cutoff(cutoff)
    rho1 = _factor_matrix(f1, cw)
    rho2 = _factor_matrix(f2, cw)
    max_total = 2 * (cutoff - 1)
    blocks = _mixer_blocks(max_total)
    out_blocks = []
    for parity in (0, 1):
        totals = range(parity, max_total + 1, 2)
        # B_N with its columns j in class order: even j, then odd j.
        mixers, outs, flat = [], [], []
        n_out = 0
        for total in totals:
            js = _mixer_states(cutoff, total)
            phases = np.exp(1j * (theta_c * js + (theta_d + math.pi) * (total - js)))
            b = phases[:, None] * blocks[total][js]
            mixers.append(np.concatenate((b[:, 0::2], b[:, 1::2]), axis=1))
            flat.append(js * cutoff + (total - js))
            outs.append(slice(n_out, n_out + js.size))
            n_out += js.size
        # Class c of sector N holds the states j = c, c + 2, .., ≤ N.  Its
        # columns of ``half``: class 0's sector by sector, then class 1's.
        counts = [[len(range(c, total + 1, 2)) for total in totals] for c in (0, 1)]
        stops = np.cumsum(counts[0] + counts[1]).reshape(2, -1)
        columns = [[slice(stop - n, stop) for stop, n in zip(stops[c], counts[c])]
                   for c in (0, 1)]
        half = np.empty((n_out, int(stops[1, -1])), dtype=complex)
        for c in (0, 1):
            j_in = np.concatenate([np.arange(c, total + 1, 2) for total in totals])
            k_in = np.repeat(totals, counts[c]) - j_in
            top = totals[-1] - c
            g1 = rho1[np.ix_(np.arange(c, totals[-1] + 1, 2), j_in)]
            g2 = rho2[np.ix_(np.arange(top, -1, -2), k_in)]
            cols = slice(columns[c][0].start, columns[c][-1].stop)
            buf = np.empty((max(counts[c]), j_in.size), dtype=complex)
            for total, count, b, sl_out in zip(totals, counts[c], mixers, outs):
                if not count:
                    # Sector 0 has no odd-j state.
                    half[sl_out, cols] = 0.0
                    continue
                k0 = (top - total + c) // 2
                rho_in = np.multiply(g1[:count], g2[k0:k0 + count], out=buf[:count])
                np.matmul(b[:, :count] if c == 0 else b[:, -count:], rho_in,
                          out=half[sl_out, cols])
        out = np.empty((n_out, n_out), dtype=complex)
        joined = np.empty((n_out, totals[-1] + 1), dtype=complex)
        for b, sl_out, even, odd in zip(mixers, outs, *columns):
            n_even = even.stop - even.start
            joined[:, :n_even] = half[:, even]
            joined[:, n_even:b.shape[1]] = half[:, odd]
            np.matmul(joined[:, :b.shape[1]], b.conj().T, out=out[:, sl_out])
        out_blocks.append(_Block(np.concatenate(flat)[None, :], out))
    return out_blocks


def _two_mode_squeezed_thermal(nbar: float, r: float, phi: float, cutoff: int) -> list:
    """Blocks of the restricted density of S₂(r, φ) (ρ_th ⊗ ρ_th) S₂†, one
    per d = n_a − n_b sector pair.

    The thermal input is diagonal and S₂ conserves d, so sector d is
    C_d W_d C_d†: W_d holds the input weights of the sector's states and
    C_d the retained rows and the kept (non-negligible weight) columns of
    its block.  Swapping the modes maps sector d onto sector −d with the
    same generator block and input weights, so the two sectors share one
    block.  Sectors with |d| ≥ cutoff hold no retained state.
    """
    cw = _working_cutoff(cutoff)
    # As in ``_factor_matrix``: n̄ just below zero is built pure.
    w = _thermal_weights(max(nbar, 0.0), cw)
    z = -r * cmath.exp(1j * phi)
    out = []
    for d in range(cutoff):
        # States are listed by increasing j, so the retained ones come first.
        ja = np.arange(d, cutoff)
        members = [ja * cutoff + (ja - d)]
        if d:
            members.append((ja - d) * cutoff + ja)
        if r == 0.0:
            # A thermal pair: S₂ is the identity, and the sector is its
            # diagonal of weights, exactly as the tensor route has it.
            out.append(_Block(np.array(members), np.diag(w[ja] * w[ja - d]).astype(complex)))
            continue
        weights = w[d:] * w[:cw - d]
        keep = np.abs(weights) > _WEIGHT_FLOOR
        c_d = _sector_exponential("tms", cw, d, z, rows=slice(ja.size), cols=keep)
        out.append(_Block(np.array(members), (c_d * weights[keep]) @ c_d.conj().T))
    return out


def _tensor_blocks(f1: _SqueezedThermal, f2: _SqueezedThermal, cutoff: int) -> list:
    """Blocks of ρ₁ ⊗ ρ₂, one per class (parity of n_a, parity of n_b).

    Each factor conserves its own photon-number parity, so the product is
    exactly zero between different classes.
    """
    m1 = _one_mode_matrix(f1, cutoff)
    m2 = _one_mode_matrix(f2, cutoff)
    out = []
    for ia in (np.arange(0, cutoff, 2), np.arange(1, cutoff, 2)):
        for ib in (np.arange(0, cutoff, 2), np.arange(1, cutoff, 2)):
            members = (ia[:, None] * cutoff + ib[None, :]).reshape(1, -1)
            out.append(_Block(members, np.kron(m1[np.ix_(ia, ia)], m2[np.ix_(ib, ib)])))
    return out


# --- density container --------------------------------------------------------

class _Block(NamedTuple):
    """Hermitian block of a density on one or more disjoint sets of basis
    states that carry the same matrix.

    ``members`` has one row of flat basis indices per copy, in the order of
    the block's rows; None stands for the whole basis in its natural order.
    """

    members: np.ndarray | None
    values: np.ndarray


class _Origin(NamedTuple):
    """How a constructor of this module built a density: its route
    (``one-mode``, ``tensor``, ``tms``, ``bs`` or ``mixture``) and, for the
    bs route, the phase δ of its mode-exchange symmetry (see
    ``ppt_min_eigenvalue``); None on every other route."""

    route: str
    swap_phase: float | None = None


_TILE = 64


def _hermitian_part(mat: np.ndarray, out: np.ndarray) -> float:
    """Write (M + M†)/2, exactly Hermitian, into ``out``; return max |M − M†|.

    Works on pairs of mirrored square tiles, which stay in cache; the
    transposed reads of a whole-matrix M − M† and M + M† would not.
    """
    dim = mat.shape[0]
    deviation = 0.0
    for i in range(0, dim, _TILE):
        for j in range(i, dim, _TILE):
            upper = mat[i:i + _TILE, j:j + _TILE]
            lower_adjoint = mat[j:j + _TILE, i:i + _TILE].conj().T
            deviation = max(deviation, float(np.max(np.abs(upper - lower_adjoint))))
            tile = upper + lower_adjoint
            tile *= 0.5
            out[i:i + _TILE, j:j + _TILE] = tile
            out[j:j + _TILE, i:i + _TILE] = tile.conj().T
    return deviation


def _blocks_trace(blocks) -> float:
    """Σ Re ρ_ss over every copy of every block."""
    total = 0.0
    for members, values in blocks:
        copies = 1 if members is None else len(members)
        total += copies * float(np.trace(values).real)
    return total


class FockDensity:
    """Truncated Fock-basis density matrix with cutoff metadata.

    ``trace_deficit`` is 1 − Tr ρ, the photon-number weight of the state
    beyond the cutoff.  ``FockDensity(modes, cutoff, matrix, trace_deficit)``
    stores a dense matrix as a single block; the constructors of this module
    store only the blocks of the gradings their states conserve, and every
    entry outside the blocks is a structural zero.  Each block must be
    Hermitian to 1e-12; it is validated once (mirror copies share it) and
    stored symmetrized and read-only.  Measurements read the blocks through
    a per-state lookup; ``matrix`` is a dense read-only view built on first
    use.  A density from this module's constructors records how it was
    built (``route``); a dense one records nothing.  The value is immutable.
    """

    __slots__ = ("modes", "cutoff", "trace_deficit", "_blocks", "_values", "_copy",
                 "_row_start", "_pos", "_trace", "_matrix", "_origin")

    def __init__(self, modes: int, cutoff: int, matrix, trace_deficit: float):
        self._set(modes, cutoff, (_Block(None, matrix),), trace_deficit, None)

    @classmethod
    def _graded(cls, modes: int, cutoff: int, blocks, trace_deficit: float,
                origin: _Origin | None = None) -> "FockDensity":
        rho = cls.__new__(cls)
        rho._set(modes, cutoff, tuple(blocks), trace_deficit, origin)
        return rho

    def _set(self, modes, cutoff, blocks, trace_deficit, origin) -> None:
        for name, value in (("modes", modes), ("cutoff", cutoff), ("_blocks", blocks),
                            ("trace_deficit", trace_deficit), ("_matrix", None),
                            ("_origin", origin)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __post_init__(self):
        """Validate and symmetrize each block, pack the blocks into one
        buffer and build the lookup: per basis state its block copy (−1
        when no block covers it), the packed offset of its row and its
        position in the block."""
        if self.modes not in (1, 2):
            raise ValueError("only one- or two-mode densities are supported")
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        dim = self.cutoff ** self.modes
        raw = []
        for members, values in self._blocks:
            values = np.asarray(values, dtype=complex)
            if members is None:
                if values.shape != (dim, dim):
                    raise ValueError(
                        f"matrix shape {values.shape} does not match cutoff^modes = {dim}")
                members = np.arange(dim)[None, :]
            members = np.array(members, dtype=np.intp)
            size = members.shape[1]
            if values.shape != (size, size):
                raise ValueError(f"block shape {values.shape} does not match its {size} states")
            if members.min() < 0 or members.max() >= dim:
                raise ValueError(f"block members outside the {dim} basis states")
            members.flags.writeable = False
            raw.append((members, values))
        zero_slot = sum(m.shape[1] ** 2 for m, _ in raw)
        packed = np.empty(zero_slot + 1, dtype=complex)
        packed[zero_slot] = 0.0
        copy = np.full(dim, -1, dtype=np.intp)
        row_start = np.full(dim, zero_slot, dtype=np.intp)
        pos = np.zeros(dim, dtype=np.intp)
        blocks = []
        deviation = 0.0
        offset = copies = 0
        for members, values in raw:
            size = members.shape[1]
            sym = packed[offset:offset + size * size].reshape(size, size)
            deviation = max(deviation, _hermitian_part(values, sym))
            sym.flags.writeable = False
            blocks.append(_Block(members, sym))
            for row in members:
                copy[row] = copies
                row_start[row] = offset + size * np.arange(size)
                pos[row] = np.arange(size)
                copies += 1
            offset += size * size
        if np.count_nonzero(copy >= 0) != sum(m.size for m, _ in raw):
            raise ValueError("blocks overlap")
        if deviation > _HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {deviation:.3g})")
        packed.flags.writeable = False
        for name, value in (("_blocks", tuple(blocks)), ("_values", packed), ("_copy", copy),
                            ("_row_start", row_start), ("_pos", pos),
                            ("_trace", _blocks_trace(blocks)),
                            ("trace_deficit", float(self.trace_deficit))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    @property
    def route(self) -> str | None:
        """The constructor route that built the density (``one-mode``,
        ``tensor``, ``tms``, ``bs`` or ``mixture``); None for a dense one."""
        return None if self._origin is None else self._origin.route

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only view of the density, built on first use."""
        if self._matrix is None:
            dense = np.zeros((self.dim, self.dim), dtype=complex)
            for members, values in self._blocks:
                for row in members:
                    dense[np.ix_(row, row)] = values
            dense.flags.writeable = False
            object.__setattr__(self, "_matrix", dense)
        return self._matrix

    def trace(self) -> float:
        return self._trace

    def purity(self) -> float:
        """Tr ρ² of the trace-renormalized matrix."""
        return sum(len(members) * float(np.sum(np.abs(values / self._trace) ** 2))
                   for members, values in self._blocks)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the trace-renormalized matrix.  A basis
        state that no block covers contributes the eigenvalue 0."""
        lowest = min(float(np.linalg.eigvalsh(values / self._trace)[0])
                     for _, values in self._blocks)
        if np.any(self._copy < 0):
            lowest = min(lowest, 0.0)
        return lowest

    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.dim)
        for members, values in self._blocks:
            out[members] = values.diagonal().real
        return out


def _entries(rho: FockDensity, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """ρ[rows, cols] elementwise for flat basis indices: the packed entry
    where both states lie in the same block copy, else the trailing zero of
    the buffer."""
    index = rho._row_start.take(rows)
    index += rho._pos.take(cols)
    index[rho._copy.take(rows) != rho._copy.take(cols)] = rho._values.size - 1
    return rho._values.take(index)


def _trace_deficit(cutoff: int, blocks, eps_tr: float) -> float:
    deficit = 1.0 - _blocks_trace(blocks)
    if abs(deficit) >= eps_tr:
        raise ConvergenceError(
            f"trace deficit {deficit:.3g} at cutoff {cutoff} exceeds {eps_tr:.3g}",
            deficit,
        )
    return deficit


def _finish(modes: int, cutoff: int, blocks, eps_tr: float,
            origin: _Origin | None = None) -> FockDensity:
    return FockDensity._graded(modes, cutoff, blocks, _trace_deficit(cutoff, blocks, eps_tr),
                               origin)


# --- constructors -------------------------------------------------------------

def one_mode_density(s: OneModeGaussian, cutoff: int, *, eps_tr: float = EPS_TR) -> FockDensity:
    """Assemble a one-mode state as a squeeze-conjugated thermal diagonal.

    The second moments of the result match (n, m) up to the cutoff tail,
    and the trace deficit reports exactly that tail.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    _require_physical(s)
    st = _solve_squeezed_thermal(s.n, s.m)
    return _finish(1, cutoff, [_Block(None, _one_mode_matrix(st, cutoff))], eps_tr,
                   _Origin("one-mode"))


def bs_output_density(sa: OneModeGaussian, sb: OneModeGaussian, lam: float,
                      cutoff: int, *, eps_tr: float = EPS_TR) -> FockDensity:
    """Tensor the two input states and conjugate by the beam splitter V_λ.

    V_λ is the λ = 0 mixer between the rotations e^{iλ n_a}, followed by
    e^{i(λ+π) n_b}.  The input rotation e^{−iλ n_a} turns S(r, φ) into
    S(r, φ − 2λ), so factor 1 is squeezed at φ − 2λ, and the output
    rotations e^{iλ n_a} e^{iλ n_b} are the rotations θc = θd = λ.
    """
    for s in (sa, sb):
        _require_physical(s)
    f1 = _solve_squeezed_thermal(sa.n, sa.m)
    f2 = _solve_squeezed_thermal(sb.n, sb.m)
    f1 = _SqueezedThermal(f1.nbar, f1.r, f1.phi - 2.0 * lam)
    return _finish(2, cutoff, _mix_on_beam_splitter(f1, f2, lam, lam, cutoff), eps_tr,
                   _Origin("bs", 0.0))


@dataclass(frozen=True)
class _TwoModePlan:
    """Constructive recipe whose unitary part leaves the spectrum alone.

    route ``tensor``:  kron of the two factors.
    route ``tms``:     thermal ⊗ thermal conjugated by a two-mode squeezer;
                       a thermal pair takes it with r = 0, so that it has the
                       d blocks of the cross-correlated states it is mixed with.
    route ``bs``:      factors mixed on a 50/50 splitter, then local rotations.
    """

    route: str
    factor1: _SqueezedThermal
    factor2: _SqueezedThermal
    tms_r: float = 0.0
    tms_phi: float = 0.0
    theta_c: float = 0.0
    theta_d: float = 0.0


def _plan_two_mode(state: TwoModeGaussian):
    """Pick a constructive route for the state's moment pattern.

    The factors keep their formal n̄.  Returns None when one has no
    squeezed-thermal solution, which no gated state lacks.  Raises
    UnsupportedStateError for patterns outside the supported families:
    unequal |⟨aa⟩| and |⟨bb⟩| alongside cross correlations, or a cross
    moment ⟨a†b⟩ whose phase is incompatible with the per-mode squeezing
    phases.
    """
    scale = 1.0 + state.n + abs(state.m_a) + abs(state.m_b) + abs(state.m_c) + abs(state.m_x)
    tol = 1e-12 * scale
    if abs(state.m_a) <= tol and abs(state.m_b) <= tol and abs(state.m_x) <= tol:
        st = _solve_squeezed_thermal(state.n, state.m_c)
        if st is None:
            return None
        thermal = _SqueezedThermal(st.nbar, 0.0, 0.0)
        return _TwoModePlan("tms", thermal, thermal, tms_r=st.r, tms_phi=st.phi)
    if abs(state.m_c) <= tol and abs(state.m_x) <= tol:
        f1 = _solve_squeezed_thermal(state.n, state.m_a)
        f2 = _solve_squeezed_thermal(state.n, state.m_b)
        if f1 is None or f2 is None:
            return None
        return _TwoModePlan("tensor", f1, f2)
    fa, fb = abs(state.m_a), abs(state.m_b)
    if abs(fa - fb) > 1e-9 * max(1.0, fa, fb):
        raise UnsupportedStateError(
            "general construction needs equal per-mode squeezing magnitudes"
        )
    f = 0.5 * (fa + fb)
    theta_c = 0.5 * cmath.phase(state.m_a) if fa > tol else 0.0
    theta_d = 0.5 * cmath.phase(state.m_b) if fb > tol else 0.0
    z = state.m_c * cmath.exp(-1j * (theta_c + theta_d))
    x = state.m_x * cmath.exp(-1j * (theta_d - theta_c))
    if abs(x.imag) > 1e-9 * max(1.0, abs(x)):
        raise UnsupportedStateError(
            "cross moment ⟨a†b⟩ phase is incompatible with the squeezing phases"
        )
    f1 = _solve_squeezed_thermal(state.n + x.real, f + z)
    f2 = _solve_squeezed_thermal(state.n - x.real, f - z)
    if f1 is None or f2 is None:
        return None
    return _TwoModePlan("bs", f1, f2, theta_c=theta_c, theta_d=theta_d)


def _assemble_two_mode(plan: _TwoModePlan, cutoff: int):
    """The plan's blocks and its record; the bs route's symmetry phase is
    δ = θ_d − θ_c."""
    if plan.route == "tensor":
        return _tensor_blocks(plan.factor1, plan.factor2, cutoff), _Origin("tensor")
    if plan.route == "tms":
        return (_two_mode_squeezed_thermal(plan.factor1.nbar, plan.tms_r, plan.tms_phi, cutoff),
                _Origin("tms"))
    return (_mix_on_beam_splitter(plan.factor1, plan.factor2, plan.theta_c, plan.theta_d,
                                  cutoff),
            _Origin("bs", plan.theta_d - plan.theta_c))


def _on_total_parity(blocks, cutoff: int) -> list:
    """The same density as two blocks, one per total parity of n_a + n_b.

    Every route's blocks refine total parity, so each copy lands inside one
    of the two.
    """
    na, nb = np.divmod(np.arange(cutoff * cutoff), cutoff)
    parity = (na + nb) % 2
    groups = [np.flatnonzero(parity == p) for p in (0, 1)]
    position = np.empty(cutoff * cutoff, dtype=np.intp)
    for group in groups:
        position[group] = np.arange(group.size)
    out = [np.zeros((group.size, group.size), dtype=complex) for group in groups]
    for members, values in blocks:
        for row in members:
            at = position[row]
            out[parity[row[0]]][np.ix_(at, at)] = values
    return [_Block(group[None, :], mat) for group, mat in zip(groups, out)]


def _two_mode_blocks(state, cutoff: int, eps_tr: float):
    """Assembled, not yet validated blocks of a two-mode state or mixture,
    and the record of how they were built.

    A mixture is the weighted sum of its components, each of which must
    meet the trace tolerance on its own.  Components with the same blocks
    are summed block by block; otherwise every component is first put on
    the two total-parity blocks.
    """
    if isinstance(state, GaussianMixture):
        parts = []
        for w, comp in state.components:
            blocks, _ = _two_mode_blocks(comp, cutoff, eps_tr)
            _trace_deficit(cutoff, blocks, eps_tr)
            parts.append((w, blocks))
        first = parts[0][1]
        shared = all(len(blocks) == len(first)
                     and all(np.array_equal(b.members, f.members) for b, f in zip(blocks, first))
                     for _, blocks in parts)
        if not shared:
            parts = [(w, _on_total_parity(blocks, cutoff)) for w, blocks in parts]
        summed = [_Block(b.members, b.values * parts[0][0]) for b in parts[0][1]]
        for w, blocks in parts[1:]:
            for (_, acc), b in zip(summed, blocks):
                acc += b.values * w
        return summed, _Origin("mixture")
    if not isinstance(state, TwoModeGaussian):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    return _assemble_two_mode(_plan_two_mode(state), cutoff)


def two_mode_density(state, cutoff: int, *, eps_tr: float = EPS_TR) -> FockDensity:
    """Assemble a two-mode state or mixture in the truncated Fock basis.

    Dispatches on the moment pattern: product states are tensored,
    cross-correlated unsqueezed states go through the two-mode squeezer,
    and states with both per-mode squeezing and cross correlations are
    realized as a rotated beam-splitter image of two factor states (every
    such state with equal per-mode squeezing magnitudes is one).  Mixtures
    are weighted sums, validated once.
    """
    _require_physical(state)
    blocks, origin = _two_mode_blocks(state, cutoff, eps_tr)
    return _finish(2, cutoff, blocks, eps_tr, origin)


# --- measurements -------------------------------------------------------------

@functools.lru_cache(maxsize=512)
def _ladder_band(cutoff: int, n_create: int, n_annihilate: int) -> np.ndarray:
    """The one nonzero band of the explicit product a†^i a^k: its entries
    (s + i − k, s) in order of s."""
    ad = creation(cutoff)
    a = annihilation(cutoff)
    product = np.linalg.matrix_power(ad, n_create) @ np.linalg.matrix_power(a, n_annihilate)
    band = np.diagonal(product, n_annihilate - n_create).copy()
    band.flags.writeable = False
    return band


@functools.lru_cache(maxsize=1024)
def _band_indices(ca: int, cb: int, da: int, db: int):
    """Flat indices of the states (s_a, s_b) and (s_a + δa, s_b + δb), both
    retained, as (s_a, s_b) grids; ``cb`` is 1 on one mode."""
    sa = np.arange(max(0, -da), ca - max(0, da))
    sb = np.arange(max(0, -db), cb - max(0, db))
    rows = sa[:, None] * cb + sb[None, :]
    cols = rows + (da * cb + db)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _mode_b_cutoff(rho: FockDensity) -> int:
    return rho.cutoff if rho.modes == 2 else 1


def _band_gather(rho: FockDensity, da: int, db: int) -> np.ndarray:
    """The entries ρ[(s_a, s_b), (s_a + δa, s_b + δb)] with both ends
    retained, as an (s_a, s_b) grid."""
    return _entries(rho, *_band_indices(rho.cutoff, _mode_b_cutoff(rho), da, db))


def _band_trace(rho: FockDensity, gathered: np.ndarray, counts) -> complex:
    """Tr{ρ · a†^i a^k ⊗ b†^j b^l} for counts (i, j, k, l), from the band
    gather at (δa, δb) = (i − k, j − l).

    The explicit product a†^i a^k is nonzero only on the band of entries
    (s + δ, s) with δ = i − k, so the trace only reads the entries
    ρ[(s_a, s_b), (s_a + δ_a, s_b + δ_b)], weighted by the two bands: an
    O(cutoff²) contraction.
    """
    i, j, k, l = counts
    return complex(_ladder_band(rho.cutoff, i, k) @ gathered
                   @ _ladder_band(_mode_b_cutoff(rho), j, l))


def moment(rho: FockDensity, word: OperatorWord) -> complex:
    """Tr{ρ · a†^i b†^j a^k b^l} from explicit ladder-matrix products."""
    if len(word) > rho.cutoff // 2:
        raise ValueError(
            f"word of length {len(word)} is truncation-unsafe at cutoff {rho.cutoff}"
        )
    counts = word.counts()
    if rho.modes == 1 and (counts[1] or counts[3]):
        raise ValueError("one-mode density cannot take words containing mode b")
    i, j, k, l = counts
    return _band_trace(rho, _band_gather(rho, i - k, j - l), counts)


def moment_table(rho: FockDensity, max_len: int) -> dict:
    """All normally ordered ladder moments with total length 1 .. max_len.

    Keys are exponent tuples (i, j, k, l) for a†^i b†^j a^k b^l (j = l = 0
    on one-mode densities).  Each value is read like a single ``moment``;
    words with the same (i − k, j − l) share one band gather.
    """
    if max_len > rho.cutoff // 2:
        raise ValueError(
            f"words of length {max_len} are truncation-unsafe at cutoff {rho.cutoff}"
        )
    two_mode = rho.modes == 2
    gathered = {}
    out = {}
    for i in range(max_len + 1):
        for k in range(max_len + 1 - i):
            for j in range(max_len + 1 - i - k if two_mode else 1):
                for l in range(max_len + 1 - i - k - j if two_mode else 1):
                    if i + j + k + l >= 1:
                        shift = (i - k, j - l)
                        if shift not in gathered:
                            gathered[shift] = _band_gather(rho, *shift)
                        out[(i, j, k, l)] = _band_trace(rho, gathered[shift], (i, j, k, l))
    return out


def _partial_transpose_block(rho: FockDensity, members: np.ndarray) -> np.ndarray:
    """Rows and columns ``members`` (flat two-mode indices) of the partial
    transpose, PT[(x_a, x_b), (y_a, y_b)] = ρ[(x_a, y_b), (y_a, x_b)]."""
    na, nb = np.divmod(members, rho.cutoff)
    rows = na[:, None] * rho.cutoff + nb[None, :]
    return _entries(rho, rows, rows.T)


def _partial_transpose_labels(rho: FockDensity) -> np.ndarray:
    """Per basis state, its label in the finest grading among n_a + n_b,
    total parity and none whose blocks hold the whole partial transpose.

    PT[x, y] = ρ[p, q] with p = (x_a, y_b) and q = (y_a, x_b), so
    N_x − N_y = d_p − d_q with d = n_a − n_b: the partial transpose is block
    diagonal in N (in N mod 2) exactly when every nonzero entry of ρ's
    blocks joins states of equal d (of equal d mod 2).  That is checked on
    the density itself.
    """
    c = rho.cutoff
    na, nb = np.divmod(np.arange(c * c), c)
    d = na - nb

    def holds(key) -> bool:
        for members, values in rho._blocks:
            k = key[members]    # one row per copy of the block
            if np.any((values != 0) & (k[:, :, None] != k[:, None])):
                return False
        return True

    if holds(d):
        return na + nb
    if holds(d % 2):
        return (na + nb) % 2
    return np.zeros(c * c, dtype=int)


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _symmetric_block_min(rho: FockDensity, members: np.ndarray, swap_phase: float):
    """Smallest eigenvalue of the partial-transpose block on ``members`` (a
    set closed under the mode swap s), from a real symmetric form; None when
    the block lacks the symmetry.

    A density that commutes with T|j, k⟩ = e^{iδ(j−k)}|k, j⟩ (with or
    without the sign (−1)^{j+k}: it conserves total parity) has
    PT[sx, sy] = e^{iδ(N_y − N_x)} conj(PT[x, y]), so M = D PT D† with
    D = diag(e^{iδN/2}) has M[sx, sy] = conj(M[x, y]) and is real in the
    basis {|j, j⟩, (|j, k⟩ + |k, j⟩)/√2, i(|j, k⟩ − |k, j⟩)/√2 : j < k}.
    The block is gathered in the order (diagonal, upper j < k, their swap
    images), and the symmetry is checked on its quadrants to the density's
    Hermiticity tolerance; the complex block is released before the
    eigensolve.
    """
    na, nb = np.divmod(members, rho.cutoff)
    upper = na < nb
    order = np.concatenate((members[na == nb], members[upper], nb[upper] * rho.cutoff + na[upper]))
    m = _partial_transpose_block(rho, order)
    if swap_phase:
        phase = np.exp(0.5j * swap_phase * np.add(*np.divmod(order, rho.cutoff)))
        m *= phase[:, None]
        m *= phase.conj()
    n_pairs = int(np.count_nonzero(upper))
    n_diag = order.size - 2 * n_pairs
    dg, up, lo = slice(n_diag), slice(n_diag, n_diag + n_pairs), slice(n_diag + n_pairs, None)
    residual = max(_max_abs(m[dg, dg].imag), _max_abs(m[dg, lo] - m[dg, up].conj()),
                   _max_abs(m[lo, lo] - m[up, up].conj()), _max_abs(m[lo, up] - m[up, lo].conj()))
    if residual > _HERMITICITY_TOL:
        return None
    real = np.empty(m.shape)
    real[dg, dg] = m[dg, dg].real
    real[dg, up] = math.sqrt(2.0) * m[dg, up].real
    real[dg, lo] = -math.sqrt(2.0) * m[dg, up].imag
    real[up, up] = m[up, up].real + m[up, lo].real
    real[up, lo] = m[up, lo].imag - m[up, up].imag
    real[lo, lo] = m[up, up].real - m[up, lo].real
    for rows, cols in ((up, dg), (lo, dg), (lo, up)):
        real[rows, cols] = real[cols, rows].T
    del m
    real /= rho.trace()
    return float(np.linalg.eigvalsh(real)[0])


def ppt_min_eigenvalue(rho: FockDensity) -> float:
    """Smallest eigenvalue after transposing the second mode's indices.

    Nonnegative (up to truncation noise) for separable states; strictly
    negative values certify entanglement.

    The spectrum is the union of the spectra of the blocks of the finest
    grading, among n_a + n_b, total parity and none, whose blocks hold the
    whole partial transpose (see ``_partial_transpose_labels``), taken one
    block at a time.  A bs-route density commutes with a phased mode swap,
    which makes each block real symmetric up to known phases
    (``_symmetric_block_min``); a block that fails that check, and every
    other density, takes the complex Hermitian eigensolver.
    """
    if rho.modes != 2:
        raise ValueError("partial transpose needs a two-mode density")
    labels = _partial_transpose_labels(rho)
    swap_phase = None if rho._origin is None else rho._origin.swap_phase
    trace = rho.trace()
    lowest = math.inf
    for g in np.unique(labels):
        members = np.flatnonzero(labels == g)
        value = None if swap_phase is None else _symmetric_block_min(rho, members, swap_phase)
        if value is None:
            value = float(np.linalg.eigvalsh(_partial_transpose_block(rho, members) / trace)[0])
        lowest = min(lowest, value)
    return lowest


def expectation_of_witness(rho: FockDensity, kind: WitnessKind) -> float:
    """Witness expectation from ladder-matrix moments of this density alone.

    Both witnesses read words of length at most 4: W2 from one band gather
    (n and ⟨a†²a²⟩ lie on the diagonal), WHBT from three, at
    (δa, δb) = (0, 0), (−2, 2) and (2, −2).
    """
    if kind is WitnessKind.W2:
        if rho.modes != 1:
            raise ValueError("single-mode witness needs a one-mode density")
    elif kind is WitnessKind.WHBT:
        if rho.modes != 2:
            raise ValueError("intensity witness needs a two-mode density")
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    if 4 > rho.cutoff // 2:
        raise ValueError(f"word of length 4 is truncation-unsafe at cutoff {rho.cutoff}")
    diagonal = _band_gather(rho, 0, 0)
    if kind is WitnessKind.W2:
        n1 = _band_trace(rho, diagonal, (1, 0, 1, 0)).real
        if abs(n1) < 1e-12:
            raise ZeroDivisionError("witness normalization vanishes (vacuum)")
        n2 = _band_trace(rho, diagonal, (2, 0, 2, 0)).real
        return 3.0 - n2 / n1 ** 2
    cross = _band_trace(rho, diagonal, (1, 1, 1, 1)).real
    i2a = _band_trace(rho, diagonal, (2, 0, 2, 0)).real
    i2b = _band_trace(rho, diagonal, (0, 2, 0, 2)).real
    denominator = i2a + i2b + 2.0 * cross
    if abs(denominator) < 1e-12:
        raise ZeroDivisionError("witness normalization vanishes (vacuum)")
    sq_ba = _band_trace(rho, _band_gather(rho, -2, 2), (0, 2, 2, 0))
    sq_ab = _band_trace(rho, _band_gather(rho, 2, -2), (2, 0, 0, 2))
    numerator = 2.0 * cross + (sq_ba + sq_ab).real
    return 0.5 - numerator / denominator
