"""Truncated Fock-basis brute force for Gaussian states.

Every density comes from one construction, the Gaussian recurrence for
Fock entries (Hamilton et al., PRL 119, 170501 (2017); Miatto & Quesada,
Quantum 4, 366 (2020), arXiv:2004.11002).  With Γ = ⟨ζζ†⟩ for
ζ = (a, b, a†, b†) (one mode: ζ = (a, a†)), read off the stored moments
by ``separability._moment_matrix``, and K = [ζ, ζ†] = diag(I, −I),
N = Γ − (I + K)/2 the normally ordered moments, σ_Q = N + I,
A = X(N·σ_Q⁻¹)* = X(I − σ_Q⁻¹)* with X the swap of ζ's two halves, and
T = det(σ_Q)^(−1/2), the entries ρ[m, n] = G(m, n) obey G(0) = T and
G(k + e_i) = Σ_j A_ij √k_j G(k − e_j)/√(k_i + 1).  Every entry is that of
the untruncated state, so the recurrence needs no working space beyond
the cutoff.  Three writers lay its entries out by the grading the state
conserves:

- kron: a product state's two factors, each a one-mode density (route
  ``tensor``); the one-mode density is the one-factor case;
- d-graded: a tms pattern, cross correlations without local squeezing (a
  thermal pair included), whose A couples only a with b and a†, and b†
  with b and a†, and so keeps d = n_a − n_b at every step (route
  ``tms``).  It runs the recurrence on the d sectors alone, one block per
  sector pair d and −d, so a Werner mixture sums block by block;
- parity-graded: every other two-mode state, in its two total-parity
  blocks (route ``recurrence``).  It computes only the entries of even
  total parity, in a layout that stores no other (``_parity_slabs``).

Correctness is defined by moment matching against the stored second
moments, not by matching any normally ordered operator expansion entrywise.
The tests check every route against dense exponentials of the full
truncated generators, which share no code with the recurrence, the
parity-graded writer entry by entry against a plain recurrence over a
dict, and the d-graded writer against the parity-graded one.

A ``FockDensity`` is a set of Hermitian blocks whose copies partition the
basis states; every entry between two copies is a structural zero, and a
dense matrix is the one-block case.  No constructor forms a dense matrix.
Every route writes the entries of its blocks, exactly Hermitian, into one
packed buffer (``_Written``), which ``FockDensity`` adopts as it is.  A state of
zero mean conserves total parity, so every two-mode density is exactly
zero between states of different total parity.  Each route checks its
blocks to be Hermitian where the data is small, and writes what it checks
symmetrized, all through one routine (``_hermitian_mean``):

- the parity-graded writer checks the n_a = m_a squares, which it
  computes twice: at an even cutoff all the squares of a block in one
  call, at an odd one per slab;
- the d-graded writer checks every d sector, in one call;
- the tensor route checks its two factors, the one-mode route its one;
- a mixture checks nothing of its own: its components take one writer,
  that of their common moment pattern, else the parity-graded one, whose
  two blocks every route refines, and are summed into the first
  component's buffer; real weights keep the sum exactly Hermitian;
- ``FockDensity(modes, cutoff, matrix, trace_deficit)`` checks the dense
  matrix.

The parity-graded writer writes only the upper triangles, n_a ≥ m_a, in
slices with no gather, and no one writes its lower triangles: a block's
lower triangle is the adjoint of its upper one, a rule that only readers
apply, in one place (``_from_upper``).  Moments, the witnesses, the
trace, the diagonal and the partial transpose read no lower triangle;
``matrix``, ``purity``, the density's spectrum and a pickle read each
block through ``_from_upper``, a copy.  The packed buffer is read-only
from adoption on, so no read writes a density.

Constructors check the cutoff on entry and the trace deficit, summed block
by block, at the end.

Measurements have one path: a lookup of two keys per basis state, whose
sum is the packed offset of an entry between two states of one block
copy, and falls off the ends of the packed buffer, onto a zero, for any
other pair.  The explicit ladder product a†^i a^k has a single nonzero band, at
row − column = i − k, so Tr(ρ · K_a ⊗ K_b) is an O(cutoff²) gather of ρ
along the two bands.  Each band comes in closed form, with no ladder
matrix formed: its entry at column s is R[s − k, k]·R[s − k, i] with
R[b, p] = √(b+1)···√(b+p), read off one table per cutoff
(``_ladder_weights``).  ``moment``, ``moment_table`` and
``expectation_of_witness`` read it through one contraction
(``_moments``), which alone checks the words: every band shift they need
in one gather, but for the shifts the density's grading makes structural
zeros, and all words in one batched product.  Only the shifts on or above the diagonal are
gathered: a word W whose entries lie below it takes conj Tr(ρW†), equal
to Tr(ρW) for Hermitian ρ, so a moment table reads half the bands and
no lower triangle.  Purity, spectrum, trace and diagonal are read from
the blocks; ``matrix`` is a dense view built only when asked for.

The partial-transpose spectrum is taken one block at a time under the
finest grading (n_a + n_b, then total parity, then none) whose blocks hold
the whole partial transpose.  PT[x, y] = ρ[p, q] with p = (x_a, y_b) and
q = (y_a, x_b), so N_x − N_y = d_p − d_q with d = n_a − n_b; the grading is
read once, when the density is made, off its block members: blocks that
each join states of one d give n_a + n_b, of one d mod 2 total parity.
Each constructor records its route on the density.  A recurrence-route
state with |m_a| = |m_b| and m_x e^{−iδ} real, δ = ½(arg m_b − arg m_a),
such as every rotated beam-splitter image, also records δ: its moments,
and so ρ, are invariant under T|j, k⟩ = (−1)^{j+k} e^{iδ(j−k)}|k, j⟩.
Under partial transposition that symmetry becomes antiunitary, and with
the phases e^{iδN/2} each block is real symmetric in the basis of |j, j⟩
and the symmetric and antisymmetric combinations of |j, k⟩ and |k, j⟩,
and is decided in real arithmetic, at about a quarter of the complex
cost.  The symmetry is checked on every block to the Hermiticity
tolerance; a block that fails it, and every density without δ, is
gathered complex.  A density in the parity layout, the ``recurrence``
route and the mixtures it writes, is read from its written band alone
(``_parity_bands``): in block g of the partial transpose, sub-block
(x_a, y_a) is ρ's sub-block (x_a, y_a) of total parity
(x_a − y_a + g) mod 2, transposed, read where y_a ≥ x_a and as the
conjugate of sub-block (y_a, x_a) where y_a < x_a, in strided slices and
with no index arrays; every entry is the one ``matrix`` holds, bit for
bit.  Densities of other layouts, which store both triangles, gather
their rows through ``_lookup`` (``_partial_transpose_rows``).

A block need not be diagonalized to be decided
(``_block_lowest_eigenvalue``).  With h the block divided by the trace,
δ = dim·ε·‖h‖_F (ε the float64 machine epsilon) and t the smallest
diagonal entry of h, a block with t ≤ δ whose shift h + δI has a
Cholesky factorization contributes t; every other block, an entangled one
among them, contributes the smallest eigenvalue ``np.linalg.eigvalsh``
finds in the unchanged block.  A diagonal entry is a Rayleigh quotient,
so t ≥ λ_min always.  The computed factorization shows only that
h + δI + E is positive semidefinite for its backward error E (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 10), so
λ_min ≥ −δ − ‖E‖₂.  In the worst case ‖E‖₂ is bounded only by about
dim²·ε·‖h‖₂, up to dim times δ, and the solve against the leading factor
adds an error that grows with that factor's condition number.  So no
proof puts a certified t within 2δ of λ_min, the eigensolver's own error
scale; the tests pin that margin on planted blocks instead: one with
λ_min = −2δ, its negative direction on two states or spread over all of
them, is rejected (``tests/test_fock.py``).  A truncated separable
state's partial transpose is positive semidefinite, so its blocks pass
wherever their smallest corner weights lie below δ; at cutoff 40 the
factorization takes about half the time of a real 800-state spectrum and
a quarter of a complex one.  It runs in two halves on the block's own
storage (``_shifted_factorizes``), so no second array of the block's size
is made; the panel between the halves is solved against the leading
factor in place, by halving into matmul updates and LU solves, each of at
most 100 rows (``_solve_lower``), not by one pivoted LU solve.
``FockDensity.min_eigenvalue`` decides each density block the same way.

None of the routines here consults the Wick engine, so moments, purities,
witness expectations and partial-transpose spectra computed from these
matrices are independent checks of every closed form in the package.

Two constructors build every density: ``one_mode_density`` and
``two_mode_density``, for a state or a mixture.  A beam-splitter output
is built like any other state, ``two_mode_density(beam_splitter(sa, sb,
λ), cutoff)``.  Each calls ``separability._require_physical``, the gate of
every closed form, once on entry and builds every state it accepts.  A
gated state in the gate's band, the smallest eigenvalue λ of Γ in
[−EPS_PHYS, 0), is built with n raised by |λ|, from Γ − λI, so that its
density stays positive.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import FrozenInstanceError
from typing import NamedTuple

import numpy as np

from .separability import _moment_matrix, _require_physical
from .states import GaussianMixture, OneModeGaussian, OperatorWord, TwoModeGaussian
from .witnesses import WitnessKind

EPS_TR = 1e-6

_HERMITICITY_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Truncated trace has not converged at the requested cutoff."""

    def __init__(self, message: str, deficit: float):
        super().__init__(message)
        self.deficit = deficit


# --- the Gaussian recurrence --------------------------------------------------

def _recurrence_start(gamma: np.ndarray):
    """(A, T) of the recurrence for the state with ⟨ζζ†⟩ = Γ (see the
    module docstring); X swaps the two row halves of N·σ_Q⁻¹.  N's ⟨aa†⟩ − I
    block is the transpose of its ⟨a†a⟩ block, which Γ holds unrounded, so
    that a small n keeps its relative precision.  A state in the gate's
    band, smallest eigenvalue λ of Γ below zero, is built from Γ − λI, which
    keeps its density positive."""
    half = gamma.shape[0] // 2
    normal = gamma - min(float(np.linalg.eigvalsh(gamma)[0]), 0.0) * np.eye(2 * half)
    normal[:half, :half] = normal[half:, half:].T
    sigma_q = normal + np.eye(2 * half)
    a = np.roll(normal @ np.linalg.inv(sigma_q), half, axis=0).conj()
    return a, 1.0 / math.sqrt(np.linalg.det(sigma_q).real)


def _parity_slabs(a: np.ndarray, t: float, cutoff: int):
    """Yield, for m_a = 0 .. cutoff − 1, the entries of even total parity
    of G(m_a, n_a, m_b, n_b), with A in that order of indices, as a flat
    C-ordered array over (n_a, m_b, q) with n_b = 2q + (m_a + n_a + m_b)
    mod 2; ``cutoff`` is even, so q runs below cutoff / 2.  A zero-mean
    state's entries of odd total parity vanish, and none is computed.

    Slab 0 is the even entries of the three-index recurrence
    (``_recurrence_entries``).  Slab m_a holds only the entries with
    n_a ≥ m_a, which read no others; the rest of its buffer holds stale
    values, which nothing reads.  A step back along n_a or m_b, or to the
    previous slab, keeps q: a flat shift by its stride.  A step back
    along n_b flips r = (m_a + n_a + m_b) mod 2: an entry with r = 1 reads
    the entry at its own q, one with r = 0 the entry at q − 1.  That is two
    flat shifts, by 0 and 1, each weighted by A_03 √n_b on the entries of
    its r and by 0 on the others, so that the one that does not apply adds
    an exact zero; √n_b = 0 cancels the entry the shift by 1 wraps.
    Three buffers take turns, so a yielded slab is overwritten two steps
    later.
    """
    c, h = cutoff, cutoff // 2
    size = c * c * h
    na, mb, q = (x.ravel() for x in np.indices((c, c, h)))
    offset = (na + mb) % 2
    slab = _recurrence_entries(a[1:, 1:], t, c)[(na * c + mb) * c + 2 * q + offset]
    roots = np.sqrt(np.arange(c))
    # (A_0j √k_j at every flat position, flat shift) of each step back, for
    # a slab m_a of either parity; r = 1 where the offset differs from m_a's.
    along = [(a[0, 1] * roots[na], c * h), (a[0, 2] * roots[mb], h)]
    steps = [along + [(np.where(offset != parity, a[0, 3] * roots[2 * q + 1], 0.0), 0),
                      (np.where(offset == parity, a[0, 3] * roots[2 * q], 0.0), 1)]
             for parity in (0, 1)]
    del na, mb, q, offset
    previous, spare, term = (np.zeros(size, dtype=complex) for _ in range(3))
    for k in range(c):
        yield slab
        if k + 1 == c:
            return
        lo = (k + 1) * c * h
        part = spare[lo:]
        np.multiply(previous[lo:], a[0, 0] * roots[k], out=part)
        for weight, shift in steps[(k + 1) % 2]:
            np.multiply(weight[lo:], slab[lo - shift:size - shift], out=term[lo:])
            part += term[lo:]
        part *= 1.0 / roots[k + 1]
        previous, slab, spare = slab, spare, previous


def _recurrence_entries(a: np.ndarray, t: float, cutoff: int) -> np.ndarray:
    """Every G(k) with each index below ``cutoff``, flat in C order.

    On one index G(k + 1) = A_00 √(k/(k + 1)) G(k − 1), so the even entries
    are a running product and the odd ones vanish.  On more, slab 0 (k_0 = 0)
    is the recurrence on the other indices, and slab k + 1 is written in
    place from slabs k and k − 1: a step back along an index is a flat
    shift by its stride, and √k_j = 0 cancels every entry the shift wraps.
    The one-mode density and the first slab of ``_parity_slabs`` run it.
    """
    if a.shape[0] == 1:
        out = np.zeros(cutoff, dtype=complex)
        out[0] = t
        odd = np.arange(1, cutoff - 1, 2)
        out[2::2] = t * np.cumprod(a[0, 0] * np.sqrt(odd / (odd + 1.0)))
        return out
    rest = a.shape[0] - 1
    size = cutoff ** rest
    out = np.empty((cutoff, size), dtype=complex)
    out[0] = _recurrence_entries(a[1:, 1:], t, cutoff)
    roots = np.sqrt(np.arange(cutoff))
    strides = [cutoff ** (rest - 1 - j) for j in range(rest)]
    # A_0j √k_j at every flat position, one array per remaining index j.
    weights = [a[0, j + 1] * np.tile(np.repeat(roots, s), size // (s * cutoff))
               for j, s in enumerate(strides)]
    before, term = np.zeros(size, dtype=complex), np.empty(size, dtype=complex)  # G(−1, ·) = 0
    for k in range(cutoff - 1):
        step = out[k + 1]
        np.multiply(out[k - 1] if k else before, a[0, 0] * roots[k], out=step)
        for j, s in enumerate(strides):
            np.multiply(weights[j][s:], out[k, :size - s], out=term[s:])
            step[s:] += term[s:]
        step *= 1.0 / roots[k + 1]
    return out.ravel()


def _one_mode_matrix(n: float, m: complex, cutoff: int) -> np.ndarray:
    """The one-mode density with ⟨a†a⟩ = n and ⟨aa⟩ = −m on the first
    ``cutoff`` Fock states, from the recurrence, checked and written
    symmetrized (``_hermitian_mean``).  Its Γ is the (a, a†) block of a
    product state's."""
    gamma = _moment_matrix(TwoModeGaussian(n, m))[np.ix_([0, 2], [0, 2])]
    mat = _recurrence_entries(*_recurrence_start(gamma), cutoff).reshape(cutoff, cutoff)
    return _hermitian_mean(mat, mat.T)


def _recurrence_blocks(state: TwoModeGaussian, cutoff: int) -> "_Written":
    """Blocks of the restricted density of a two-mode state, one per total
    parity, each listing its states in increasing flat index.  Only the
    entries with n_a ≥ m_a are written, exactly Hermitian on the squares
    n_a = m_a; the lower triangles stay unwritten (``_from_upper``).

    The slabs run along m_a over (n_a, m_b, q) (``_parity_slabs``), at the
    even cutoff c or c + 1: the entries do not depend on the cutoff.  The
    rows m_b < c of slab m_a of one parity are the block's row band m_a,
    and each n_a < c gives its columns n_b < c in member order, the first
    ⌈c/2⌉ or ⌊c/2⌋ entries of a run of q.  The n_a = m_a square of each
    band is computed twice; it is checked and written symmetrized
    (``_hermitian_mean``).

    At an even cutoff every run has c/2 entries, so a block is the array
    (m_a, m_b/2, n_a, n_b/2) and the slab's rows of one parity, transposed,
    are its band m_a: one slice copy per band, and all the squares of a
    block in one call.  At an odd cutoff the runs alternate between ⌈c/2⌉
    and ⌊c/2⌋ entries: two consecutive n_a give c columns, so the band's
    columns with n_a > m_a are pairs of runs, two slice copies, and an
    unpaired last run, and each band's square is checked on its own.
    """
    a, t = _recurrence_start(_moment_matrix(state))
    order = [0, 2, 1, 3]
    a = a[np.ix_(order, order)]
    c, even = cutoff, cutoff + cutoff % 2
    out = _Written([members[None, :] for members in _parity_members(c)])
    if c % 2:
        # An odd cutoff stops before the last slab of the even one.
        for m_a, slab in zip(range(c), _parity_slabs(a, t, even)):
            slab = slab.reshape(even, even, even // 2)
            for parity, (members, values) in enumerate(out):
                r0, r1 = np.searchsorted(members[0], [m_a * c, (m_a + 1) * c])
                band = slab[:, (parity - m_a) % 2:c:2].transpose(1, 0, 2)
                square = band[:, m_a, :r1 - r0]
                values[r0:r1, r0:r1] = _hermitian_mean(square, square.T)
                # Runs of n_a = m_a + 1, m_a + 3, ... (width w) and of the
                # n_a between them (c − w), c columns per pair.
                w = (c + (parity - m_a) % 2) // 2
                pairs = (c - 1 - m_a) // 2
                paired = values[r0:r1, r1:r1 + pairs * c].reshape(r1 - r0, pairs, c)
                paired[:, :, :w] = band[:, m_a + 1:c - 1:2, :w]
                paired[:, :, w:] = band[:, m_a + 2:c:2, :c - w]
                if (c - 1 - m_a) % 2:
                    values[r0:r1, r1 + pairs * c:] = band[:, c - 1, :w]
        return out
    h = c // 2
    blocks = [values.reshape(c, h, c, h) for _, values in out]
    for m_a, slab in enumerate(_parity_slabs(a, t, c)):
        slab = slab.reshape(c, c, h)
        for parity, block in enumerate(blocks):
            block[m_a, :, m_a:] = slab[m_a:, (parity - m_a) % 2::2].transpose(1, 0, 2)
    diagonal = np.arange(c)
    for block in blocks:
        squares = block[diagonal, :, diagonal]  # (m_a, m_b/2, n_b/2), a copy
        block[diagonal, :, diagonal] = _hermitian_mean(squares, squares.transpose(0, 2, 1))
    return out


def _parity_members(cutoff: int) -> list:
    """The flat two-mode states of even and of odd total parity, each in
    increasing flat index: the members of the two blocks of the parity
    layout (``_recurrence_blocks``)."""
    na, nb = np.divmod(np.arange(cutoff * cutoff), cutoff)
    return [np.flatnonzero((na + nb) % 2 == parity) for parity in (0, 1)]


def _pattern_tolerance(state: TwoModeGaussian) -> float:
    """A moment of modulus up to this counts as zero in a moment pattern."""
    return 1e-12 * (1.0 + state.n + abs(state.m_a) + abs(state.m_b) + abs(state.m_c)
                    + abs(state.m_x))


def _swap_phase(state: TwoModeGaussian) -> float | None:
    """δ = ½(arg m_b − arg m_a) when |m_a| = |m_b| and m_x e^{−iδ} is real,
    else None.  A vanishing m_a or m_b counts as phase 0.  Such a state's
    density commutes with T|j, k⟩ = (−1)^{j+k} e^{iδ(j−k)}|k, j⟩ (see
    ``_symmetric_form``)."""
    fa, fb = abs(state.m_a), abs(state.m_b)
    if abs(fa - fb) > 1e-9 * max(1.0, fa, fb):
        return None
    tol = _pattern_tolerance(state)
    delta = 0.5 * ((cmath.phase(state.m_b) if fb > tol else 0.0)
                   - (cmath.phase(state.m_a) if fa > tol else 0.0))
    x = state.m_x * cmath.exp(-1j * delta)
    return delta if abs(x.imag) <= 1e-9 * max(1.0, abs(x)) else None


# --- the d-graded and kron writers --------------------------------------------

def _sector_slabs(a: np.ndarray, t: float, cutoff: int) -> np.ndarray:
    """V_j[m_b, n_a] = G(j, m_b, n_a, n_a − j + m_b) for j = 0 .. cutoff − 1,
    stacked along j into one cutoff³ array, with A and G in ζ's order
    (m_a, m_b, n_a, n_b) (``_recurrence_start``), for a state whose A couples
    only m_a with m_b and n_a, and n_b with m_b and n_a (a tms pattern, the
    thermal pair included): every step then keeps d = m_a − m_b =
    n_a − n_b, and V_j holds the rows m_a = j of every sector.

    On m_a = 0 the recurrence has the closed form
    V_0[m_b, n_a] = T A_23^n_a A_13^m_b √C(n_a + m_b, m_b), and a step along
    m_a reads V_{j+1}[m_b, n_a] = (A_01 √m_b V_j[m_b − 1, n_a]
    + A_02 √n_a V_j[m_b, n_a − 1]) / √(j + 1).  The entries with n_b < 0,
    n_a < j − m_b, come out zero.
    """
    k = np.arange(cutoff)
    # C(n_a + m_b, m_b) as a running product over m_b of (n_a + m_b)/m_b.
    ratios = (k[None, :] + k[:, None]) / np.maximum(k[:, None], 1)
    ratios[0] = 1.0
    out = np.zeros((cutoff, cutoff, cutoff), dtype=complex)
    out[0] = t * np.outer(a[1, 3] ** k, a[2, 3] ** k) * np.sqrt(np.cumprod(ratios, axis=0))
    roots = np.sqrt(k)
    along_m, along_n = a[0, 1] * roots[1:, None], a[0, 2] * roots[1:]
    for j in range(cutoff - 1):
        scale = 1.0 / roots[j + 1]
        np.multiply(out[j, :, :-1], along_n * scale, out=out[j + 1, :, 1:])
        out[j + 1, 1:] += out[j, :-1] * (along_m * scale)
    return out


@functools.lru_cache(maxsize=8)
def _sector_plan(cutoff: int):
    """The d-graded layout at one cutoff: per sector d its members, the
    states |j, j−d⟩ and their mirrors; per packed entry its flat place in
    the stacked slabs (``_sector_slabs``) and the packed place of its
    transpose.  Sector d's entry at (row i, column p) is
    ρ[(d + i, i), (d + p, p)] = V_{d+i}[i, d + p], at flat place
    (d + i)·c² + i·c + (d + p); the sectors lie back to back in d, each
    row-major."""
    c = cutoff
    members, source, adjoint = [], [], []
    offset = 0
    for d in range(c):
        ja = np.arange(d, c)
        members.append(np.array([ja * c + (ja - d), (ja - d) * c + ja]) if d
                       else (ja * c + ja)[None, :])
        i, p = np.divmod(np.arange((c - d) ** 2), c - d)
        source.append((d + i) * c * c + i * c + d + p)
        adjoint.append(offset + p * (c - d) + i)
        offset += (c - d) ** 2
    plan = tuple(members), np.concatenate(source), np.concatenate(adjoint)
    for arr in (*plan[0], *plan[1:]):
        arr.flags.writeable = False
    return plan


def _tms_blocks(state: TwoModeGaussian, cutoff: int) -> "_Written":
    """Blocks of the restricted density of a tms-pattern state, one per
    d = n_a − n_b sector pair, checked and written exactly Hermitian.

    Sector d holds ρ[(j, j−d), (k, k−d)] = V_j[j − d, k] (``_sector_slabs``).
    Swapping the modes maps sector d onto sector −d with the same entries,
    so the two share one block.  Sectors with |d| ≥ cutoff hold no retained
    state.  Every sector is filled in one gather from the stacked slabs
    (``_sector_plan``), and all of them are checked and written symmetrized
    in one call (``_hermitian_mean``), on the packed entries and their
    transposes.
    """
    members, source, adjoint = _sector_plan(cutoff)
    out = _Written(members)
    values = out.buffer[1:-1]
    np.take(_sector_slabs(*_recurrence_start(_moment_matrix(state)), cutoff), source, out=values)
    values[...] = _hermitian_mean(values, values[adjoint])
    return out


def _write_kron(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write a ⊗ b of two exactly Hermitian matrices into ``out``, one
    broadcast product.  It is exactly Hermitian: conj(x)·conj(y) rounds to
    conj(x·y), so a_ij b_kl is the conjugate of a_ji b_lk bit for bit."""
    na, nb = a.shape[0], b.shape[0]
    np.multiply(a[:, None, :, None], b[None, :, None, :], out=out.reshape(na, nb, na, nb))


def _tensor_blocks(state: TwoModeGaussian, cutoff: int) -> "_Written":
    """Blocks of ρ₁ ⊗ ρ₂ of a product state, one per class (parity of n_a,
    parity of n_b), written exactly Hermitian from the two checked factors
    (``_one_mode_matrix``).

    Each factor conserves its own photon-number parity, so the product is
    exactly zero between different classes.
    """
    m1 = _one_mode_matrix(state.n, state.m_a, cutoff)
    m2 = _one_mode_matrix(state.n, state.m_b, cutoff)
    classes = [(ia, ib) for ia in (np.arange(0, cutoff, 2), np.arange(1, cutoff, 2))
               for ib in (np.arange(0, cutoff, 2), np.arange(1, cutoff, 2))]
    out = _Written([(ia[:, None] * cutoff + ib[None, :]).reshape(1, -1) for ia, ib in classes])
    for (ia, ib), block in zip(classes, out):
        _write_kron(m1[np.ix_(ia, ia)], m2[np.ix_(ib, ib)], block.values)
    return out


# --- density container --------------------------------------------------------

class _Block(NamedTuple):
    """Hermitian block of a density on one or more disjoint sets of basis
    states that carry the same matrix.

    ``members`` has one row of flat basis indices per copy, in the order of
    the block's rows.
    """

    members: np.ndarray
    values: np.ndarray


class _Origin(NamedTuple):
    """How a constructor of this module built a density: its route
    (``one-mode``, ``tensor``, ``tms``, ``recurrence`` or ``mixture``) and,
    for the recurrence route, the phase δ of its mode-exchange symmetry
    when it has one (``_swap_phase``); None otherwise."""

    route: str
    swap_phase: float | None = None


class _Written(list):
    """Blocks (``_Block``) on ``members`` whose values lie back to back in
    one buffer, between two zeros: the entries the lookup reads for a pair
    of states in different block copies.  The values start uninitialised; a
    route writes at least each block's upper triangle, exactly Hermitian
    where it writes both, and ``FockDensity`` adopts the buffer as its
    packed values.  A writer that leaves the lower triangles unwritten (the
    parity layout) lists each block's members in increasing flat index."""

    def __init__(self, members):
        self.buffer = np.empty(sum(m.shape[1] ** 2 for m in members) + 2, dtype=complex)
        self.buffer[0] = self.buffer[-1] = 0.0
        offset = 1
        for m in members:
            size = m.shape[1]
            self.append(_Block(m, self.buffer[offset:offset + size * size].reshape(size, size)))
            offset += size * size


def _require_dims(modes: int, cutoff: int) -> None:
    if modes not in (1, 2):
        raise ValueError("only one- or two-mode densities are supported")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")


def _hermitian_mean(mat: np.ndarray, transposed: np.ndarray) -> np.ndarray:
    """conj((Mᵀ + M*)/2), exactly Hermitian, for M = ``mat`` and Mᵀ =
    ``transposed``, M's entries in transposed order: a matrix and its
    ``.T``, a stack of squares with its last two axes swapped, or packed
    sectors and their gather.  Raises unless max |M* − Mᵀ| is within the
    Hermiticity tolerance.  Every block this module makes Hermitian is
    made so here, in this arithmetic: entry (i, j) rounds as
    conj((M_ji + conj M_ij)/2), the conjugate of entry (j, i) up to the
    sign of a zero imaginary part."""
    out = mat.conj()
    deviation = float(np.max(np.abs(out - transposed)))
    if deviation > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {deviation:.3g})")
    out += transposed
    out *= 0.5
    return np.conjugate(out, out=out)


def _from_upper(values: np.ndarray) -> np.ndarray:
    """A Hermitian copy of a block, or of a stack of squares, built from its
    upper triangle: the strict lower one is the adjoint of the upper.  The
    entries below the diagonal of ``values`` are copied over, never used."""
    out = values.copy()
    np.conjugate(values.swapaxes(-1, -2), out=out,
                 where=np.tri(values.shape[-1], k=-1, dtype=bool))
    return out


def _blocks_trace(blocks) -> float:
    """Σ Re ρ_ss over every copy of every block."""
    return sum(len(members) * float(np.trace(values).real) for members, values in blocks)


class FockDensity:
    """Truncated Fock-basis density matrix with cutoff metadata.

    ``trace_deficit`` is 1 − Tr ρ, the photon-number weight of the state
    beyond the cutoff.  Every density is a set of blocks written into one
    packed buffer (``_Written``), each exactly Hermitian, whose copies
    partition the basis states; every entry between two copies is a
    structural zero.  The constructors of this module write only the
    blocks of the gradings their states conserve;
    ``FockDensity(modes, cutoff, matrix, trace_deficit)`` checks a dense
    matrix to be Hermitian to 1e-12 and writes it symmetrized as a single
    block.  The blocks are stored read-only, mirror copies sharing one.
    The parity layout (the ``recurrence`` route and its mixtures) leaves
    the lower triangles unwritten, and no reader reads one: the moments and
    the partial transpose read the upper triangles alone, and ``matrix``,
    ``purity``, ``min_eigenvalue`` and a pickle read each block through
    ``_from_upper``, on every layout alike.
    Measurements read the blocks through a per-state lookup; ``matrix`` is
    a dense read-only view built on first use.  A density from this
    module's constructors records how it was built (``route``); a dense one
    records nothing.  Every density records its grading once, from its
    block members alone: the modulus k such that each block copy joins
    states of one d = n_a − n_b mod k (see ``__post_init__``); a dense one
    has k = 1, no grading.  The value is immutable; a copy or a pickle
    rebuilds it with every entry written (``__reduce__``).
    """

    __slots__ = ("modes", "cutoff", "trace_deficit", "_blocks", "_packed",
                 "_row_key", "_col_key", "_trace", "_matrix", "_origin", "_d_modulus")

    def __init__(self, modes: int, cutoff: int, matrix, trace_deficit: float):
        _require_dims(modes, cutoff)
        dim = cutoff ** modes
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match cutoff^modes = {dim}")
        blocks = _Written([np.arange(dim)[None, :]])
        blocks[0].values[...] = _hermitian_mean(matrix, matrix.T)
        self.__post_init__(modes, cutoff, blocks, trace_deficit, _blocks_trace(blocks), None)

    @classmethod
    def _graded(cls, modes: int, cutoff: int, blocks: _Written, trace_deficit: float,
                trace: float, origin: _Origin | None = None) -> "FockDensity":
        """The density of written ``blocks``, whose ``trace`` the caller
        has summed with ``_blocks_trace``."""
        rho = cls.__new__(cls)
        rho.__post_init__(modes, cutoff, blocks, trace_deficit, trace, origin)
        return rho

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copies and pickles rebuild the density through ``_graded`` from
        each block's members and the packed values, each block read through
        ``_from_upper``, so that no pickle holds unwritten memory.  The trace
        deficit, the trace and the origin, swap phase included, are kept as
        they are."""
        packed = np.concatenate([self._packed[:1],
                                 *(_from_upper(values).ravel() for _, values in self._blocks),
                                 self._packed[-1:]])
        return (_rebuilt, (self.modes, self.cutoff, [members for members, _ in self._blocks],
                           packed, self.trace_deficit, self._origin, self._trace))

    def __post_init__(self, modes: int, cutoff: int, written: _Written, trace_deficit: float,
                      trace: float, origin: _Origin | None) -> None:
        """Adopt the packed buffer of the ``written`` blocks, read-only for
        good, and build the lookup from each basis state's block copy, the
        packed offset of its row and its position in the block (see
        ``_lookup``).  The block copies must partition the basis states.
        The buffer itself is made read-only, and the density keeps views of
        it alone, which cannot be made writable again.  The callers have
        checked ``modes`` and ``cutoff`` and summed ``trace`` with
        ``_blocks_trace``."""
        dim = cutoff ** modes
        blocks = tuple(written)
        flat = np.concatenate([members.ravel() for members, _ in blocks])
        if not np.array_equal(np.sort(flat), np.arange(dim)):
            raise ValueError(f"block members do not partition the {dim} basis states")
        written.buffer.flags.writeable = False
        packed = written.buffer.view()
        for members, values in blocks:
            members.flags.writeable = False
            values.flags.writeable = False
        # Per block copy (one row of members): its size, the packed offset
        # of its block and the place of its first state in ``flat``; per
        # state of ``flat``: its copy and its position in the block.
        copies, sizes = np.array([members.shape for members, _ in blocks]).T
        size = np.repeat(sizes, copies)
        base = np.repeat(np.cumsum(sizes * sizes) - sizes * sizes + 1, copies)
        first = np.cumsum(size) - size
        row = np.repeat(np.arange(size.size), size)
        at = np.arange(flat.size) - first[row]
        # The grading: the largest modulus k among 2·cutoff, 2 and 1 such
        # that every block copy joins states of one d = n_a − n_b mod k (−n
        # on one mode).  No two states differ in d by 2·cutoff, so that k is
        # d itself; k = 2 is total parity, and k = 1 no grading.
        d = np.subtract(*np.divmod(flat, cutoff))
        d -= d[first][row]
        modulus = next(k for k in (2 * cutoff, 2, 1) if np.all(d % k == 0))
        # Keys whose sum is the packed offset of ρ[x, y] when x and y lie in
        # the same block copy, and off the buffer's ends otherwise: a
        # different copy shifts it by a multiple of the buffer's size.
        span = packed.size
        row_keys, col_keys = base[row] + size[row] * at + row * span, at - row * span
        # Freed before the keys, which live as long as the density, are
        # allocated: keys above these in the heap left it fragmented, and a
        # later density's buffer took fresh memory, up to 14 MB of peak RSS.
        del size, base, first, row, at, d
        row_key, col_key = np.empty((2, dim), dtype=np.intp)
        row_key[flat], col_key[flat] = row_keys, col_keys
        for name, value in (("modes", modes), ("cutoff", cutoff),
                            ("_matrix", None), ("_origin", origin),
                            ("_blocks", blocks), ("_packed", packed),
                            ("_row_key", row_key), ("_col_key", col_key),
                            ("_trace", trace), ("trace_deficit", float(trace_deficit)),
                            ("_d_modulus", modulus)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    @property
    def nbytes(self) -> int:
        """Bytes of the packed block values, one per block: mirror copies
        share theirs, and structural zeros take none."""
        return sum(values.nbytes for _, values in self._blocks)

    @property
    def route(self) -> str | None:
        """The constructor route that built the density (``one-mode``,
        ``tensor``, ``tms``, ``recurrence`` or ``mixture``); None for a dense one."""
        return None if self._origin is None else self._origin.route

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only view of the density, built on first use."""
        if self._matrix is None:
            dense = np.zeros((self.dim, self.dim), dtype=complex)
            for members, values in self._blocks:
                values = _from_upper(values)
                for row in members:
                    dense[np.ix_(row, row)] = values
            dense.flags.writeable = False
            object.__setattr__(self, "_matrix", dense)
        return self._matrix

    def trace(self) -> float:
        return self._trace

    def purity(self) -> float:
        """Tr ρ² of the trace-renormalized matrix."""
        return sum(len(members) * float(np.sum(np.abs(_from_upper(values) / self._trace) ** 2))
                   for members, values in self._blocks)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the trace-renormalized matrix, each block
        decided by ``_block_lowest_eigenvalue`` (see the module docstring)."""
        return min(_block_lowest_eigenvalue(_from_upper(values) / self._trace)
                   for _, values in self._blocks)

    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.dim)
        for members, values in self._blocks:
            out[members] = values.diagonal().real
        return out


def _rebuilt(modes, cutoff, members, packed, trace_deficit, origin, trace) -> FockDensity:
    """The density ``FockDensity.__reduce__`` describes, in a buffer of its
    own."""
    blocks = _Written(members)
    blocks.buffer[...] = packed
    return FockDensity._graded(modes, cutoff, blocks, trace_deficit, trace, origin)


def _lookup(rho: FockDensity, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """ρ's packed entry of (rows, cols) elementwise for flat basis indices:
    the packed entry where both states lie in the same block copy, else,
    for states in different copies, one of the zeros at the ends of the
    buffer, where the clipped sum of their keys lands.  On the parity
    layout an entry below a block's diagonal is unwritten: its callers
    there read none."""
    return rho._packed.take(rho._row_key.take(rows) + rho._col_key.take(cols), mode="clip")


def _trace_deficit(cutoff: int, trace: float, eps_tr: float) -> float:
    deficit = 1.0 - trace
    if abs(deficit) >= eps_tr:
        raise ConvergenceError(
            f"trace deficit {deficit:.3g} at cutoff {cutoff} exceeds {eps_tr:.3g}",
            deficit,
        )
    return deficit


def _finish(modes: int, cutoff: int, blocks, eps_tr: float,
            origin: _Origin | None = None) -> FockDensity:
    """The density of written ``blocks``, whose trace is summed once, for
    the deficit and the density alike."""
    trace = _blocks_trace(blocks)
    return FockDensity._graded(modes, cutoff, blocks, _trace_deficit(cutoff, trace, eps_tr),
                               trace, origin)


# --- constructors -------------------------------------------------------------

def one_mode_density(s: OneModeGaussian, cutoff: int, *, eps_tr: float = EPS_TR) -> FockDensity:
    """Assemble a one-mode state by the recurrence.

    The second moments of the result match (n, m) up to the cutoff tail,
    and the trace deficit reports exactly that tail.
    """
    _require_dims(1, cutoff)
    _require_physical(s)
    if not isinstance(s, OneModeGaussian):
        raise TypeError(f"unsupported state type {type(s).__name__}")
    blocks = _Written([np.arange(cutoff)[None, :]])
    blocks[0].values[...] = _one_mode_matrix(s.n, s.m, cutoff)
    return _finish(1, cutoff, blocks, eps_tr, _Origin("one-mode"))


def _writer(state: TwoModeGaussian):
    """The writer of a two-mode state's blocks and its route, by moment
    pattern: a cross-correlated state without local squeezing (a thermal
    pair included) on its d sectors, a product state as the kron of its
    factors, every other state on its total parities."""
    if not isinstance(state, TwoModeGaussian):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    tol = _pattern_tolerance(state)
    if abs(state.m_a) <= tol and abs(state.m_b) <= tol and abs(state.m_x) <= tol:
        return _tms_blocks, "tms"
    if abs(state.m_c) <= tol and abs(state.m_x) <= tol:
        return _tensor_blocks, "tensor"
    return _recurrence_blocks, "recurrence"


def two_mode_density(state, cutoff: int, *, eps_tr: float = EPS_TR) -> FockDensity:
    """Assemble a two-mode state or mixture in the truncated Fock basis.

    Every state the gate accepts is built by the recurrence, laid out by
    the writer of its moment pattern (``_writer``): product states are
    tensored, cross-correlated unsqueezed states graded by d = n_a − n_b,
    and every other state by total parity.  A mixture's components are all
    written by one writer, their common pattern's, else the total-parity
    writer, whose two blocks every route refines; each component must meet
    the trace tolerance on its own, is weighted in its own buffer and added
    into the first one's, which the mixture adopts: two buffers at a time.
    Real weights keep the sum exactly Hermitian.  The total-parity writer
    leaves its lower triangles unwritten, so there only the upper
    triangles are weighted and summed: no arithmetic reads unwritten memory.
    """
    _require_dims(2, cutoff)
    _require_physical(state)
    if not isinstance(state, GaussianMixture):
        write, route = _writer(state)
        origin = _Origin(route, _swap_phase(state) if route == "recurrence" else None)
        return _finish(2, cutoff, write(state, cutoff), eps_tr, origin)
    writers = {_writer(comp)[0] for _, comp in state.components}
    write = writers.pop() if len(writers) == 1 else _recurrence_blocks
    summed = True if write is not _recurrence_blocks else np.concatenate(
        [np.tri(m.size, dtype=bool).T.ravel() for m in _parity_members(cutoff)])
    out = None
    for w, comp in state.components:
        blocks = write(comp, cutoff)
        _trace_deficit(cutoff, _blocks_trace(blocks), eps_tr)
        values = blocks.buffer[1:-1]
        # In place: no temporary of the buffer's size.
        np.multiply(values, w, out=values, where=summed)
        if out is None:
            out = blocks
        else:
            np.add(out.buffer[1:-1], values, out=out.buffer[1:-1], where=summed)
    return _finish(2, cutoff, out, eps_tr, _Origin("mixture"))


# --- measurements -------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _ladder_weights(cutoff: int) -> np.ndarray:
    """R[b, p] = √(b+1)···√(b+p) for b < ``cutoff`` and p ≤ cutoff // 2,
    multiplied from the lowest factor up, as the truncated matrix powers
    form it; read-only."""
    weights = np.ones((cutoff, cutoff // 2 + 1))
    np.cumprod(np.sqrt(np.arange(cutoff)[:, None] + np.arange(1.0, cutoff // 2 + 1)), axis=1,
               out=weights[:, 1:])
    weights.flags.writeable = False
    return weights


def _band_rows(cutoff: int, shift: int, size: int) -> np.ndarray:
    """``size`` × ``cutoff``: row t holds the one nonzero band of a†^i a^k
    with i − k = ``shift`` and k = t + max(0, −shift), its entry at the
    photon number s of its gather row (see ``_band_plan``):
    R[s − k, k]·R[s − k, i] (``_ladder_weights``) for k ≤ s and
    s − k + i < cutoff, else 0.  Rows past the words of length
    cutoff // 2 are zero."""
    out = np.zeros((size, cutoff))
    weights = _ladder_weights(cutoff)
    k0 = max(0, -shift)
    for t in range(size):
        k = k0 + t
        i = k + shift
        if i + k > cutoff // 2:
            break
        width = cutoff - max(i, k)
        out[t, k:k + width] = weights[:width, k] * weights[:width, i]
    return out


class _BandPlan(NamedTuple):
    """One gather and one contraction for the band shifts (δa, δb)."""

    rows: np.ndarray     # flat basis indices (s_a, s_b) of every gathered entry
    cols: np.ndarray     # and (s_a + δa, s_b + δb)
    slots: np.ndarray    # their places in the zero-padded grid (shift, s_a, s_b)
    mode_a: np.ndarray   # (shift, band, s_a): a-bands, as ``_band_rows``
    mode_b: np.ndarray   # (shift, 2 s_b + part, 2 band + part): b-bands, acting
                         # on the real and the imaginary part alike


@functools.lru_cache(maxsize=64)
def _band_plan(ca: int, cb: int, shifts: tuple) -> _BandPlan:
    """The gather and the band matrices of ``_moments`` for ``shifts`` on
    cutoffs (ca, cb); cb is 1 on one mode.  Each shift gets every band a
    truncation-safe word can use (i + k ≤ ca // 2), so its slice of the
    contraction does not depend on the other shifts.  Every gathered
    entry (s, s + δ) has a column of flat index at least its row's, so
    it lies on or above the diagonal of a block whose members increase."""
    size_a = ca // 4 + 1
    size_b = cb // 4 + 1
    rows, cols, slots = [], [], []
    mode_a = np.zeros((len(shifts), size_a, ca))
    mode_b = np.zeros((len(shifts), 2 * cb, 2 * size_b))
    for n, (da, db) in enumerate(shifts):
        if da * cb + db < 0:
            raise ValueError(f"band shift {(da, db)} reads below the diagonal")
        sa = np.arange(max(0, -da), ca - max(0, da))
        sb = np.arange(max(0, -db), cb - max(0, db))
        grid = sa[:, None] * cb + sb[None, :]
        rows.append(grid.ravel())
        cols.append(grid.ravel() + (da * cb + db))
        slots.append(n * ca * cb + grid.ravel())
        mode_a[n] = _band_rows(ca, da, size_a)
        b = _band_rows(cb, db, size_b)
        for part in (0, 1):
            mode_b[n, part::2, part::2] = b.T
    plan = _BandPlan(*(np.concatenate(x) for x in (rows, cols, slots)), mode_a, mode_b)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _moments(rho: FockDensity, words) -> list:
    """Tr{ρ · a†^i a^k ⊗ b†^j b^l} for each counts tuple (i, j, k, l) in
    ``words``.  Here alone words are checked: ValueError names the longest
    when it is longer than cutoff // 2, or a one-mode density given mode b.

    The explicit product a†^i a^k is nonzero only on the band of entries
    (s + δ, s) with δ = i − k, so a word reads only the entries
    ρ[(s_a, s_b), (s_a + δa, s_b + δb)], weighted by its two bands.  Every
    band the words need is gathered in one lookup, into a zero-padded grid
    per shift (δa, δb), and contracted with that shift's bands in two
    batched real products: the a-bands with the real view of the grid, then
    the b-bands.  A word's value depends only on its own shift's slice, so
    ``moment``, ``moment_table`` and ``expectation_of_witness`` agree bit
    for bit.

    Only shifts on or above the diagonal are gathered, δa·c_b + δb ≥ 0
    (c_b = 1 on one mode): a word W below it takes the conjugate of its
    adjoint's value, Tr(ρW) = conj Tr(ρW†) for Hermitian ρ, so that
    moment(ρ, W†) = conj(moment(ρ, W)) exactly.  That halves the gather and
    the contraction, and reads no entry below a block's diagonal, which the
    parity layout leaves unwritten.

    One grading rule skips the shifts that read only structural zeros.
    Entry (s, s + δ) joins states whose d = n_a − n_b differ by δa − δb,
    and every block copy joins states of one d mod k, the density's grading
    modulus (see ``FockDensity``).  A shift is gathered only when
    (δa − δb) mod k = 0; a word of any other shift has the value exactly 0.
    On a total-parity grading (k = 2) that skips the words of odd length;
    on the d-graded one (k = 2·cutoff, tms and Werner) every shift with
    δa ≠ δb; a one-mode density and a dense one (k = 1) keep every shift.
    """
    longest = max(map(sum, words), default=0)
    if longest > rho.cutoff // 2:
        raise ValueError(f"word of length {longest} is truncation-unsafe at cutoff {rho.cutoff}")
    if rho.modes == 1 and any(j or l for _, j, _, l in words):
        raise ValueError("one-mode density cannot take words containing mode b")
    ca, cb = rho.cutoff, rho.cutoff if rho.modes == 2 else 1
    # (counts read, conjugate?) per word: W itself, or W† = a†^k b†^l a^i b^j
    # where W's entries lie below the diagonal.
    folded = [((i, j, k, l), False) if (i - k) * cb + (j - l) >= 0 else ((k, l, i, j), True)
              for i, j, k, l in words]
    shifts = tuple(sorted({(i - k, j - l) for (i, j, k, l), _ in folded
                           if (i - k - j + l) % rho._d_modulus == 0}))
    if not shifts:
        return [0j] * len(words)
    plan = _band_plan(ca, cb, shifts)
    grid = np.zeros((len(shifts), ca, cb), dtype=complex)
    grid.ravel()[plan.slots] = _lookup(rho, plan.rows, plan.cols)
    half = np.matmul(plan.mode_a, grid.view(float))
    full = np.matmul(half, plan.mode_b).view(complex)
    index = {shift: n for n, shift in enumerate(shifts)}
    values = []
    for (i, j, k, l), adjoint in folded:
        if (i - k, j - l) not in index:
            values.append(0j)
            continue
        value = complex(full[index[(i - k, j - l)], min(i, k), min(j, l)])
        values.append(value.conjugate() if adjoint else value)
    return values


def moment(rho: FockDensity, word: OperatorWord) -> complex:
    """Tr{ρ · a†^i b†^j a^k b^l}, checked and read by ``_moments``."""
    return _moments(rho, [word.counts()])[0]


def moment_table(rho: FockDensity, max_len: int) -> dict:
    """All normally ordered ladder moments with total length 1 .. max_len.

    Keys are exponent tuples (i, j, k, l) for a†^i b†^j a^k b^l (j = l = 0
    on one-mode densities).  One checked gather and batched contraction
    (``_moments``) give every value, each equal to its ``moment``.
    """
    two_mode = rho.modes == 2
    words = [(i, j, k, l)
             for i in range(max_len + 1)
             for k in range(max_len + 1 - i)
             for j in range(max_len + 1 - i - k if two_mode else 1)
             for l in range(max_len + 1 - i - k - j if two_mode else 1)
             if i + j + k + l >= 1]
    return dict(zip(words, _moments(rho, words)))


_PANEL = 32  # rows per gathered panel of a partial-transpose block


def _partial_transpose_rows(rho: FockDensity, order: np.ndarray, start: int,
                            stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the partial transpose on the flat two-mode
    states ``order`` through ``_lookup``, PT[(x_a, x_b), (y_a, y_b)] =
    ρ[(x_a, y_b), (y_a, x_b)].  It reads both triangles, so it serves only
    the layouts that store both: ``_partial_transpose_block`` sends the
    parity layout to its bands."""
    c = rho.cutoff
    ra, rb = np.divmod(order[start:stop], c)
    ca, cb = np.divmod(order, c)
    return _lookup(rho, ra[:, None] * c + cb, ca * c + rb[:, None])


def _partial_transpose_block(rho: FockDensity, members: np.ndarray,
                             bands: np.ndarray | None = None) -> np.ndarray:
    """Rows and columns ``members`` of the partial transpose.  A density in
    the parity layout, whose partial-transpose blocks are its two total
    parities, is read from its written ``bands``, taken here unless given
    (``_parity_bands``, ``_band_partial_transpose``); any other is gathered
    through ``_lookup`` in panels of ``_PANEL`` rows, so that the lookup's
    index arrays stay a panel's size."""
    bands = _parity_bands(rho) if bands is None else bands
    if bands is not None:
        return _band_partial_transpose(bands, _parity_of(members, rho.cutoff), members,
                                       rho.cutoff)
    out = np.empty((members.size, members.size), dtype=complex)
    for start in range(0, members.size, _PANEL):
        out[start:start + _PANEL] = _partial_transpose_rows(rho, members, start, start + _PANEL)
    return out


def _parity_of(members: np.ndarray, cutoff: int) -> int:
    """The total parity of the first of the flat two-mode states ``members``."""
    return int(sum(divmod(int(members[0]), cutoff)) % 2)


def _parity_bands(rho: FockDensity) -> np.ndarray | None:
    """The two blocks of a density in the parity layout
    (``_recurrence_blocks``) as one array B[p, m_a, m_b // 2, n_a, n_b // 2]
    of ρ[(m_a, m_b), (n_a, n_b)] in block p; None for any other layout.
    Band m_a of block p holds the states (m_a, m_b) with m_b of parity
    p − m_a.  Only the sub-blocks with n_a ≥ m_a are written, and the
    readers here read no other, and of the n_a = m_a squares only the upper
    triangles (``_band_squares``).  At an even cutoff the two blocks are
    equal in size and B is a view of the packed buffer; at an odd one B is
    a copy padded with zeros to the next even cutoff, made once per partial
    transpose (``ppt_min_eigenvalue``)."""
    c = rho.cutoff
    if rho.modes != 2 or len(rho._blocks) != 2 or not all(
            m.shape[0] == 1 and np.array_equal(m[0], ref)
            for (m, _), ref in zip(rho._blocks, _parity_members(c))):
        return None
    e, h = c + c % 2, (c + 1) // 2
    if c % 2 == 0:
        return rho._packed[1:-1].reshape(2, e, h, e, h)
    out = np.zeros((2, e * h, e * h), dtype=complex)
    for block, (members, values) in zip(out, rho._blocks):
        na, nb = np.divmod(members[0], c)
        at = na * h + nb // 2
        block[at[:, None], at] = values
    return out.reshape(2, e, h, e, h)


def _band_squares(bands: np.ndarray, g: int) -> np.ndarray:
    """The n_a = m_a squares of block g, S[m_a, m_b // 2, n_b // 2], read
    from their upper triangles (``_from_upper``)."""
    return _from_upper(np.diagonal(bands[g], axis1=0, axis2=2).transpose(2, 0, 1))


# Partial transpose from the bands.  In block g of the partial transpose,
# sub-block (x_a, y_a) is ρ's sub-block (x_a, y_a) transposed, in block
# p = (x_a − y_a + g) mod 2: PT_g[x_a, i, y_a, j] = B[p, x_a, j, y_a, i].
# Where y_a < x_a it is read instead as the conjugate of
# B[p, y_a, i, x_a, j], and where y_a = x_a from the squares read through
# ``_from_upper``, so every entry is the one ``matrix`` holds, bit for bit.

def _band_partial_transpose(bands: np.ndarray, g: int, members: np.ndarray,
                            cutoff: int) -> np.ndarray:
    """Block g of the partial transpose on ``members``, its total parity g,
    from the bands alone, one band of rows at a time (``_band_pt_rows``)."""
    e, h = bands.shape[1:3]
    squares = _band_squares(bands, g)
    out = np.empty((e, h, e, h), dtype=complex)
    for xa in range(cutoff):
        _band_pt_rows(bands, squares, g, xa, out[xa, :(cutoff - (g - xa) % 2 + 1) // 2])
    out = out.reshape(e * h, e * h)
    if cutoff % 2:
        na, nb = np.divmod(members, cutoff)
        at = na * h + nb // 2
        out = out[np.ix_(at, at)]
    return out


def _band_pt_rows(bands: np.ndarray, squares: np.ndarray, g: int, xa: int,
                  out: np.ndarray) -> None:
    """Write into ``out``, (width, y_a, y_b // 2), the first width rows
    (x_a, x_b) of band x_a of block g of the partial transpose,
    x_b = 2i + (g − x_a) mod 2: per parity of y_a one strided copy of the
    sub-blocks right of the square and one of those left of it, which are
    then conjugated in place, and the square from ``squares``."""
    e, width = bands.shape[1], out.shape[0]
    for ys in (0, 1):
        block = bands[(xa - ys + g) % 2]
        right, left = slice(xa + 1 + (ys - xa - 1) % 2, e, 2), slice(ys, xa, 2)
        out[:, right] = block[xa, :, right, :width].transpose(2, 1, 0)
        out[:, left] = block[left, :width, xa, :].transpose(1, 0, 2)
    np.conjugate(out[:, :xa], out=out[:, :xa])
    out[:, xa] = squares[xa, :, :width].T


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _symmetric_form(rho: FockDensity, members: np.ndarray, swap_phase: float,
                    bands: np.ndarray | None = None):
    """The partial-transpose block on ``members`` (one total parity of a
    density in the parity layout, closed under the mode swap s) in a real
    symmetric form of the same spectrum, divided by the trace, read from
    the density's ``bands``, taken here unless given (``_parity_bands``);
    None when the block lacks the symmetry.

    A density that commutes with T|j, k⟩ = e^{iδ(j−k)}|k, j⟩ (with or
    without the sign (−1)^{j+k}: it conserves total parity) has
    PT[sx, sy] = e^{iδ(N_y − N_x)} conj(PT[x, y]), so M = D PT D† with
    D = diag(e^{iδN/2}) has M[sx, sy] = conj(M[x, y]) and is real in the
    basis {|j, j⟩, (|j, k⟩ + |k, j⟩)/√2, i(|j, k⟩ − |k, j⟩)/√2 : j < k}.
    The states are ordered (diagonal, upper j < k, their swap images).

    The rows of M are read one band x_a at a time from the written bands
    (``_band_pt_rows``), so no lower triangle is read.  A band's
    diagonal row and upper rows (x_a, x_b > x_a) fill the real form; its
    rows (x_a, x_b < x_a) are the images of the upper rows (x_b, x_a) of
    earlier bands.  Each upper row x leaves Re M[x, y] ± Re M[x, sy] and
    Im M[x, sy] − Im M[x, y] in the real form and Im M[x, y] in its image's
    row, among the columns the final transposes overwrite, so M[x, ·] is
    recovered there and M[sx, sy] = conj(M[x, y]) checked on every
    quadrant of the image row, to the density's Hermiticity tolerance; a
    diagonal row checks its own quadrants.  No complex block is formed;
    the real one, half its size, is the only array of the block's size.
    A density in any other layout returns None.
    """
    c = rho.cutoff
    bands = _parity_bands(rho) if bands is None else bands
    if bands is None:
        return None
    g = _parity_of(members, c)
    squares = _band_squares(bands, g)
    e, h = bands.shape[1:3]
    na, nb = np.divmod(members, c)
    upper = na < nb
    order = np.concatenate((members[na == nb], members[upper], nb[upper] * c + na[upper]))
    phase = np.exp(0.5j * swap_phase * np.add(*np.divmod(order, c))) if swap_phase else None
    conj_phase = None if phase is None else phase.conj()
    oa, ob = np.divmod(order, c)
    columns = oa * h + ob // 2  # each state of ``order`` among a band row's columns
    place = np.empty(e * h, dtype=np.intp)
    place[columns] = np.arange(order.size)  # and its place in ``order``
    n_pairs = int(np.count_nonzero(upper))
    n_diag = order.size - 2 * n_pairs
    dg, up, lo = slice(n_diag), slice(n_diag, n_diag + n_pairs), slice(n_diag + n_pairs, None)
    real = np.empty((order.size, order.size))
    residual = 0.0
    gathered = np.empty(((c + 1) // 2, e, h), dtype=complex)
    band = np.empty(((c + 1) // 2, order.size), dtype=complex)
    for xa in range(c):
        s = (g - xa) % 2
        first, width = (xa - s + 1) // 2, (c - s + 1) // 2  # x_b ≥ x_a from ``first``
        at = place[xa * h:xa * h + width]  # each row's place in ``order``
        _band_pt_rows(bands, squares, g, xa, gathered[:width])
        m = np.take(gathered[:width].reshape(width, e * h), columns, axis=1, out=band[:width])
        if phase is not None:
            m *= phase[at, None]
            m *= conj_phase
        if g == 0:  # the diagonal row (x_a, x_a)
            md = m[first]
            residual = max(residual, _max_abs(md[dg].imag), _max_abs(md[lo] - md[up].conj()))
            real[xa, dg] = md[dg].real
            np.multiply(md[up].real, math.sqrt(2.0), out=real[xa, up])
            np.multiply(md[up].imag, -math.sqrt(2.0), out=real[xa, lo])
        if first + 1 - g < width:
            mu = m[first + 1 - g:]
            rows = slice(int(at[first + 1 - g]), int(at[-1]) + 1)
            images = slice(rows.start + n_pairs, rows.stop + n_pairs)
            np.add(mu[:, up].real, mu[:, lo].real, out=real[rows, up])
            np.subtract(mu[:, lo].imag, mu[:, up].imag, out=real[rows, lo])
            np.subtract(mu[:, up].real, mu[:, lo].real, out=real[images, lo])
            real[images, up] = mu[:, up].imag
        if first:
            # Images (x_a, x_b), x_b < x_a, of the upper rows x = (x_b, x_a)
            # of earlier bands: M[x, y] = up_re + i·up_im and
            # M[x, sy] = lo_re + i·lo_im, recovered from x's entries, and
            # their conjugates against the image's lower and upper columns.
            ml, images = m[:first], at[:first]
            up_re = real[images - n_pairs, up]
            lo_re = up_re - real[images, lo]
            up_re += real[images, lo]
            up_re *= 0.5
            lo_re *= 0.5
            up_im = real[images, up]
            lo_im = real[images - n_pairs, lo]
            lo_im += up_im
            for mi, re, im in ((ml[:, lo], up_re, up_im), (ml[:, up], lo_re, lo_im)):
                np.subtract(mi.real, re, out=re)
                np.add(mi.imag, im, out=im)
                re *= re
                im *= im
                re += im
                residual = max(residual, math.sqrt(float(np.max(re, initial=0.0))))
    if residual > _HERMITICITY_TOL:
        return None
    for rows, cols in ((up, dg), (lo, dg), (lo, up)):
        real[rows, cols] = real[cols, rows].T
    real /= rho.trace()
    return real


def _block_lowest_eigenvalue(block: np.ndarray) -> float:
    """Smallest eigenvalue of a trace-normalized Hermitian block, or the
    upper bound on it that one factorization certifies; the module
    docstring states the rule and its accuracy.  The block leaves
    unchanged."""
    lowest = float(block.diagonal().real.min())
    delta = block.shape[0] * np.finfo(float).eps * math.sqrt(np.vdot(block, block).real)
    if lowest <= delta and _shifted_factorizes(block, delta):
        return lowest
    return float(np.linalg.eigvalsh(block)[0])


_SOLVE_BASE = 100  # rows of a leading factor that ``_solve_lower`` solves by LU


def _solve_lower(lower: np.ndarray, panel: np.ndarray) -> None:
    """Overwrite ``panel`` with L⁻¹·panel for the lower-triangular factor
    L = ``lower``, by halving: the leading rows are solved, the trailing
    ones take the product of L's lower-left quarter with them off, in
    matmuls of ``_SOLVE_BASE`` rows each, so that no product is larger,
    and are solved in turn.  A factor of at most ``_SOLVE_BASE`` rows is
    solved by ``np.linalg.solve``."""
    n = lower.shape[0]
    if n <= _SOLVE_BASE:
        panel[...] = np.linalg.solve(lower, panel)
        return
    k = n // 2
    _solve_lower(lower[:k, :k], panel[:k])
    for i in range(k, n, _SOLVE_BASE):
        panel[i:i + _SOLVE_BASE] -= lower[i:i + _SOLVE_BASE, :k] @ panel[:k]
    _solve_lower(lower[k:, k:], panel[k:])


def _shifted_factorizes(block: np.ndarray, delta: float) -> bool:
    """Whether block + δI has a Cholesky factorization, with temporaries of
    a quarter of the block each: the leading half is factorized as L, the
    panel W = L⁻¹·block[lead, trail] solved in place (``_solve_lower``),
    and the Schur complement block[trail, trail] + δI − WᴴW factorized.
    The shift is written on the block's diagonal and the diagonal restored
    after, so the block leaves unchanged, bit for bit."""
    n = block.shape[0]
    lead, trail = slice(n // 2), slice(n // 2, n)
    diagonal = block.diagonal().copy()
    np.fill_diagonal(block, diagonal + delta)
    try:
        lower = np.linalg.cholesky(block[lead, lead])
        panel = block[lead, trail].copy()
        _solve_lower(lower, panel)
        del lower
        schur = panel.conj().T @ panel
        del panel
        np.subtract(block[trail, trail], schur, out=schur)
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(block, diagonal)
    return True


def ppt_min_eigenvalue(rho: FockDensity) -> float:
    """Smallest eigenvalue after transposing the second mode's indices.

    Nonnegative (up to truncation noise) for separable states; strictly
    negative values certify entanglement.

    The spectrum is the union of the spectra of the blocks of N = n_a + n_b
    modulo the density's grading modulus k, taken one block at a time.
    PT[x, y] = ρ[p, q] with p = (x_a, y_b) and q = (y_a, x_b), so
    N_x − N_y = d_p − d_q with d = n_a − n_b, and ρ joins only states of
    equal d mod k: the partial transpose joins only states of equal N mod
    k.  A density that records a swap phase (``_swap_phase``) commutes
    with a phased mode swap, which makes each block real symmetric up to
    known phases (``_symmetric_form``); a block that fails that check, and
    every other density, is gathered complex.  A density in the parity
    layout is read from its written band alone (``_parity_bands``, taken
    once for both blocks); any other through ``_lookup``.

    Each block, divided by the trace, is decided by
    ``_block_lowest_eigenvalue``: by one factorization where that is
    enough, else by the eigensolver (see the module docstring).
    """
    if rho.modes != 2:
        raise ValueError("partial transpose needs a two-mode density")
    labels = np.add(*np.divmod(np.arange(rho.dim), rho.cutoff)) % rho._d_modulus
    swap_phase = None if rho._origin is None else rho._origin.swap_phase
    bands = _parity_bands(rho)
    lowest = math.inf
    for g in np.unique(labels):
        members = np.flatnonzero(labels == g)
        block = None if swap_phase is None else _symmetric_form(rho, members, swap_phase, bands)
        if block is None:
            block = _partial_transpose_block(rho, members, bands)
            block /= rho.trace()
        lowest = min(lowest, _block_lowest_eigenvalue(block))
        del block
    return lowest


def expectation_of_witness(rho: FockDensity, kind: WitnessKind) -> float:
    """Witness expectation from ladder moments of this density alone.

    Both witnesses read words of length at most 4 through ``_moments``: W2
    from one band shift (n and ⟨a†²a²⟩ lie on the diagonal), WHBT from
    two, (δa, δb) = (0, 0) and (2, −2): ⟨b†²a²⟩ is the conjugate of
    ⟨a†²b²⟩, read on the same shift.  ZeroDivisionError names the vacuum
    where the normalization, ⟨a†a⟩² or WHBT's denominator, is not normal.
    """
    if kind is WitnessKind.W2:
        if rho.modes != 1:
            raise ValueError("single-mode witness needs a one-mode density")
        n1, n2 = (value.real for value in _moments(rho, [(1, 0, 1, 0), (2, 0, 2, 0)]))
        if n1 ** 2 < sys.float_info.min:
            raise ZeroDivisionError("witness normalization vanishes (vacuum)")
        return 3.0 - n2 / n1 ** 2
    if kind is not WitnessKind.WHBT:
        raise ValueError(f"unknown witness kind {kind!r}")
    if rho.modes != 2:
        raise ValueError("intensity witness needs a two-mode density")
    cross, i2a, i2b, sq_ba, sq_ab = _moments(
        rho, [(1, 1, 1, 1), (2, 0, 2, 0), (0, 2, 0, 2), (0, 2, 2, 0), (2, 0, 0, 2)])
    denominator = i2a.real + i2b.real + 2.0 * cross.real
    if denominator < sys.float_info.min:
        raise ZeroDivisionError("witness normalization vanishes (vacuum)")
    numerator = 2.0 * cross.real + (sq_ba + sq_ab).real
    return 0.5 - numerator / denominator
