"""Cross-module concordance suite: every closed form against the Fock-space
brute force.

The suite draws random physical states, assembles their truncated densities,
and compares their moments, taken on ladder bands formed in closed form,
their witness expectations and purity against the Wick-engine closed forms,
then brackets the partial-transpose sign flip of the cross-correlated family
around its analytic boundary.

Sampling stays within the oracle's truncation envelope.  The photon-number
tail of a squeezed thermal state decays like ((2V−1)/(2V+1))^k with
V = n + ½ + |m| the variance of the hottest quadrature, and length-six
moments weight that tail by k³, so meeting 10⁻⁴ at cutoff 40 requires
V ≲ 2.2.  The samplers therefore draw n up to N_MAX = 1.5 but cap squeezing and
cross-correlation magnitudes at V = 2.1, additionally staying below 90%
of the positivity boundary; boundary-pure states are covered by dedicated
lower-order and entrywise checks in the test suite instead.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import fock
from .states import (
    OneModeGaussian,
    OperatorWord,
    TwoModeGaussian,
    purity_one_mode,
    wick_moment,
)
from .transforms import beam_splitter, mode_rotation, werner_mix
from .witnesses import WitnessKind, w2_expectation, whbt_expectation

DEFAULT_SEED = 20240117
MOMENT_RTOL = 1e-4
PPT_WINDOW = 0.02
VARIANCE_CAP = 2.1  # hottest-quadrature variance the cutoff-40 oracle resolves
BOUNDARY_FRACTION = 0.9
N_MAX = 1.5  # largest mean photon number a sampler draws


def relative_error(oracle_value, reference) -> float:
    """|oracle − reference| / (1 + |reference|)."""
    return abs(oracle_value - reference) / (1.0 + abs(reference))


def _magnitude_cap(n: float) -> float:
    return min(BOUNDARY_FRACTION * math.sqrt(n * (n + 1.0)), VARIANCE_CAP - n - 0.5)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    ok: bool
    worst: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckRecord, ...]
    elapsed_seconds: float
    cutoff: int
    n_states: int
    seed: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def random_one_mode(rng: np.random.Generator) -> OneModeGaussian:
    """Random physical one-mode state inside the truncation envelope."""
    n = float(rng.uniform(0.05, N_MAX))
    m_abs = float(rng.uniform(0.0, 1.0)) * _magnitude_cap(n)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return OneModeGaussian(n, m_abs * cmath.exp(1j * phase))


def random_two_mode(rng: np.random.Generator):
    """Random physical two-mode state, of one of four families drawn at random.

    Families: product pairs with a relative squeezing phase, cross-correlated
    unsqueezed pairs, their thermal-diluted mixtures, and locally rotated
    beam-splitter images of (possibly unequal) one-mode inputs.
    """
    family = rng.integers(0, 4)
    if family == 0:
        s = random_one_mode(rng)
        return TwoModeGaussian.pair_with_phase(s, float(rng.uniform(0.0, 2.0 * math.pi)))
    if family == 1:
        n = float(rng.uniform(0.05, N_MAX))
        mc_abs = float(rng.uniform(0.0, 1.0)) * _magnitude_cap(n)
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        return TwoModeGaussian.epr(n, mc_abs * cmath.exp(1j * phase))
    if family == 2:
        n = float(rng.uniform(0.05, N_MAX))
        mc_abs = float(rng.uniform(0.1, 1.0)) * _magnitude_cap(n)
        p = float(rng.uniform(0.05, 0.95))
        return werner_mix(TwoModeGaussian.epr(n, complex(mc_abs)), p)
    sa = random_one_mode(rng)
    sb = random_one_mode(rng)
    out = beam_splitter(sa, sb, float(rng.uniform(0.0, 2.0 * math.pi)))
    return mode_rotation(
        out,
        float(rng.uniform(0.0, math.pi)),
        float(rng.uniform(0.0, math.pi)),
    )


@dataclass
class _Worst:
    err: float = 0.0
    detail: str = ""

    def update(self, err: float, detail: Callable[[], str]):
        """Keep ``err`` if it is the new worst.  ``detail`` describes it and
        is only called then, so most comparisons format no string."""
        if err > self.err:
            self.err = err
            self.detail = detail()


def run_concordance_suite(n_states: int = 50, cutoff: int = 40, max_word_len: int = 6,
                          seed: int = DEFAULT_SEED, ppt_cutoff: int = 30) -> SuiteReport:
    """Run the full closed-form vs oracle comparison.

    Half the states are one-mode (moments, purity, single-mode witness) and
    half are two-mode across all families (moments, intensity witness); the
    partial-transpose check brackets the entanglement boundary of the
    cross-correlated family at ±0.02 around m_c = n.

    One density is alive at a time: each state's density and moment table
    are released before the next state is assembled, so the suite's peak
    memory is one density and its assembly temporaries: at cutoff 40 a
    recurrence-route density is 20.48 MB of packed blocks, and its assembly
    temporaries about 5.2 MB more (``tests/test_memory.py``).  No check
    reads below a block's diagonal, so no recurrence-route density has its
    lower triangles written (see ``fock._Written.complete``).

    Raises ValueError for fewer than 2 states, where one half holds no
    state, and for words shorter than 2, of which none is even: either
    check would compare nothing and pass.
    """
    if n_states < 2:
        raise ValueError(f"n_states must be at least 2, got {n_states}")
    if max_word_len < 2:
        raise ValueError(f"max_word_len must be at least 2, got {max_word_len}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    # The word of each moment-table key, built once per call.
    word = functools.cache(lambda counts: OperatorWord.from_counts(*counts))
    n_one = n_states // 2
    n_two = n_states - n_one

    mom1 = _Worst()
    purity_worst = _Worst()
    w2_worst = _Worst()
    for _ in range(n_one):
        s = random_one_mode(rng)
        rho = fock.one_mode_density(s, cutoff)
        table = fock.moment_table(rho, max_word_len)
        for counts, oracle_val in table.items():
            err = relative_error(oracle_val, wick_moment(s, word(counts)))
            mom1.update(err, lambda: f"word a†^{counts[0]}a^{counts[2]} on n={s.n:.4f}, m={s.m:.4f}")
        purity_err = relative_error(rho.purity(), purity_one_mode(s))
        purity_worst.update(purity_err, lambda: f"n={s.n:.4f}, |m|={abs(s.m):.4f}")
        w2_err = relative_error(
            fock.expectation_of_witness(rho, WitnessKind.W2), w2_expectation(s).value
        )
        w2_worst.update(w2_err, lambda: f"n={s.n:.4f}, |m|={abs(s.m):.4f}")
        del rho, table

    mom2 = _Worst()
    whbt_worst = _Worst()
    for _ in range(n_two):
        state = random_two_mode(rng)
        rho = fock.two_mode_density(state, cutoff)
        table = fock.moment_table(rho, max_word_len)
        for counts, oracle_val in table.items():
            err = relative_error(oracle_val, wick_moment(state, word(counts)))
            mom2.update(err, lambda: f"word {counts} on {state}")
        whbt_err = relative_error(
            fock.expectation_of_witness(rho, WitnessKind.WHBT), whbt_expectation(state).value
        )
        whbt_worst.update(whbt_err, lambda: f"{state}")
        del rho, table

    checks = [
        CheckRecord(name, worst.err < MOMENT_RTOL, worst.err, MOMENT_RTOL, worst.detail)
        for name, worst in (("one-mode moments", mom1), ("one-mode purity", purity_worst),
                            ("single-mode witness", w2_worst), ("two-mode moments", mom2),
                            ("intensity witness", whbt_worst))
    ]

    n_ref = 1.0
    eig_below, eig_above = (
        fock.ppt_min_eigenvalue(fock.two_mode_density(TwoModeGaussian.epr(n_ref, mc), ppt_cutoff))
        for mc in (n_ref - PPT_WINDOW, n_ref + PPT_WINDOW))
    ok = eig_below >= -1e-6 and eig_above < -1e-6
    checks.append(CheckRecord(
        "partial-transpose boundary",
        ok,
        max(abs(min(eig_below, 0.0)), 0.0),
        1e-6,
        f"min eig at m_c = n∓{PPT_WINDOW}: {eig_below:.3g} / {eig_above:.3g}",
    ))

    elapsed = time.perf_counter() - start
    return SuiteReport(tuple(checks), elapsed, cutoff, n_states, seed)
