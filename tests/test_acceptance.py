"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured values once its assertions hold.  Tolerances are pinned here
and nowhere else.
"""

import cmath
import math
import time

import numpy as np
import pytest

from squeezekit import (
    AmplifierGains,
    FitModel,
    FringeSample,
    OneModeGaussian,
    TwoModeGaussian,
    amplifier_output,
    beam_splitter,
    bs_output_is_separable,
    classical_inequality_report,
    fit_visibilities,
    g2,
    general_is_separable,
    hbt_correlation,
    InequalityContext,
    purity_one_mode,
    visibilities_bs_output,
    visibilities_general,
    visibilities_uncorrelated,
    visibility_epr,
    visibility_werner,
    w2_expectation,
    werner_hbt_threshold,
    werner_mix,
    werner_ppt_threshold,
    whbt_expectation,
)
from squeezekit import fock, oracle_check

from conftest import parity_graded_density

SQRT2 = math.sqrt(2.0)
GAINS = AmplifierGains(1.65, 1.05)


def _report(number: int, message: str) -> None:
    print(f"criterion {number}: PASS  ({message})")


def test_criterion_01_amplifier_reproduction():
    state = amplifier_output(GAINS)
    assert state.n == pytest.approx(0.120, abs=0.005)
    assert abs(state.m) == pytest.approx(0.287, abs=0.005)
    assert g2(state) == pytest.approx(7.68, abs=0.05)
    assert purity_one_mode(state) == pytest.approx(0.909, abs=0.003)

    def evaluate():
        s = amplifier_output(GAINS)
        return s.n, abs(s.m), g2(s), purity_one_mode(s)

    evaluate()  # warm up
    best = min(
        (lambda t0=time.perf_counter(): (evaluate(), time.perf_counter() - t0))()[1]
        for _ in range(200)
    )
    assert best < 1e-3
    _report(1, f"n={state.n:.4f}, |m|={abs(state.m):.4f}, g2={g2(state):.3f}, "
               f"purity={purity_one_mode(state):.4f}, runtime={best * 1e6:.1f}us")


def test_criterion_02_witness_values():
    state = amplifier_output(GAINS)
    w2 = w2_expectation(state).value
    assert w2 == pytest.approx(-4.68, abs=0.05)

    pair = TwoModeGaussian.pair_with_phase(state, 0.0)
    whbt = whbt_expectation(pair).value
    assert whbt == pytest.approx(-0.27, abs=0.01)

    vis = visibilities_uncorrelated(state.n, abs(state.m))
    assert vis.v_minus == pytest.approx(0.11, abs=0.01)
    assert vis.v_plus == pytest.approx(0.66, abs=0.01)
    assert vis.total == pytest.approx(0.77, abs=0.01)
    _report(2, f"W2={w2:.3f}, WHBT={whbt:.4f}, v-={vis.v_minus:.4f}, "
               f"v+={vis.v_plus:.4f}, sum={vis.total:.4f}")


def test_criterion_03_landmark_visibilities():
    thermal = visibilities_uncorrelated(1.0, 0.0)
    assert abs(thermal.v_minus - 1.0 / 3.0) <= 1e-12
    assert thermal.v_plus == 0.0

    border = visibilities_uncorrelated(1.0, 1.0)
    assert abs(border.v_minus - 0.25) <= 1e-12
    assert abs(border.v_plus - 0.25) <= 1e-12

    epr = visibility_epr(1.0, SQRT2)
    assert abs(epr.v_minus - 0.6) <= 1e-12
    _report(3, "v-(1,0)=1/3, v-=v+=1/4 at |m|=n, v-(EPR, sqrt2)=0.6, all to 1e-12")


def test_criterion_04_classical_inequality_suite():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(1000):
        n = float(rng.uniform(1e-3, 2.0))
        m = float(rng.uniform(0.0, 1.0)) * n
        report = classical_inequality_report(
            visibilities_uncorrelated(n, m), InequalityContext.UNCORRELATED_PAIR)
        assert report.classical
    for _ in range(1000):
        n = float(rng.uniform(1e-3, 2.0))
        hi = math.sqrt(n * (n + 1.0))
        m = float(rng.uniform(n * (1 + 1e-9) + 1e-12, hi)) if hi > n else n
        vis = visibilities_uncorrelated(n, m)
        report = classical_inequality_report(vis, InequalityContext.UNCORRELATED_PAIR)
        assert not report.classical
        assert vis.v_minus <= vis.v_plus
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, f"2000 states, zero counterexamples, {elapsed * 1e3:.0f}ms")


def test_criterion_05_threshold_curves():
    assert werner_hbt_threshold(1.0) == pytest.approx(0.5, abs=1e-12)
    ppt_at_one = werner_ppt_threshold(1.0)
    assert ppt_at_one == pytest.approx(0.320, abs=1e-3)

    ns = np.linspace(0.05, 5.0, 400)
    hbt = np.array([werner_hbt_threshold(float(n)) for n in ns])
    ppt = np.array([werner_ppt_threshold(float(n)) for n in ns])
    # Empirical ordering: the partial-transpose curve lies strictly below,
    # i.e. it flags entanglement at smaller mixing probability everywhere
    # on the grid; the curves never cross.
    margin = float(np.min(hbt - ppt))
    assert margin > 0.0
    _report(5, f"hbt(1)=0.5, ppt(1)={ppt_at_one:.4f}, "
               f"min gap over n in [0.05,5]: {margin:.4f} (no crossing)")


def test_criterion_06_general_boundary():
    n = 1.0
    lam1, lam2 = 0.0, math.pi / 2.0

    def excess(mc):
        m = SQRT2 - mc
        return (m * m + mc * mc + mc * math.sqrt(1.0 + 2.0 * m * m)) - n * (n + 1.0)

    lo, hi = 0.3, 0.9
    assert excess(lo) < 0.0 < excess(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - 1.0 / SQRT2) <= 1e-10

    assert general_is_separable(n, SQRT2 - (crossing - 1e-9), crossing - 1e-9, lam1, lam2)
    assert not general_is_separable(n, SQRT2 - (crossing + 1e-6), crossing + 1e-6, lam1, lam2)

    vis = visibilities_general(n, SQRT2 - 1.0 / SQRT2, 1.0 / SQRT2, lam1, lam2)
    assert abs(vis.v_minus - 3.0 / 8.0) <= 1e-12
    assert abs(vis.v_plus - 1.0 / 8.0) <= 1e-12
    assert abs(vis.v_m - 1.0 / 8.0) <= 1e-12
    _report(6, f"crossing at mc={crossing:.12f} (1/sqrt2 ± 1e-10), "
               "visibilities (3/8, 1/8, 1/8) to 1e-12")


def test_criterion_07_oracle_concordance():
    report = oracle_check.run_concordance_suite(
        n_states=50, cutoff=40, max_word_len=6, ppt_cutoff=30)
    for check in report.checks:
        assert check.ok, f"{check.name}: worst {check.worst:.3g} ({check.detail})"
    assert report.elapsed_seconds < 120.0
    worst = max(check.worst for check in report.checks[:5])
    _report(7, f"50 states, words to length 6 at cutoff 40, worst rel err {worst:.2e}, "
               f"ppt flip bracketed at 1 ± 0.02, {report.elapsed_seconds:.0f}s")


def test_criterion_08_beam_splitter_identities():
    pure = OneModeGaussian(1.0, complex(SQRT2))
    # Built by the total-parity writer, so that the EPR state's d-graded
    # density is checked against a second writer.
    rho_bs = parity_graded_density(beam_splitter(pure, pure, math.pi / 2.0), 40)
    rho_epr = fock.two_mode_density(TwoModeGaussian.epr(1.0, complex(SQRT2)), 40)
    entrywise = float(np.max(np.abs(rho_bs.matrix - rho_epr.matrix)))
    assert entrywise <= 1e-6

    rng = np.random.default_rng(7)
    lams = np.linspace(0.0, 2.0 * math.pi, 20)
    for _ in range(200):
        n = float(rng.uniform(1e-3, 2.0))
        m = float(rng.uniform(0.0, 1.0)) * n
        for lam in lams:
            assert bs_output_is_separable(n, m, float(lam))
    _report(8, f"entrywise |BS(pi/2) - EPR| = {entrywise:.2e} at cutoff 40; "
               "200 classical inputs x 20 phases all separable")


def _fit_case_samples(state):
    phases = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    return [
        FringeSample(float(p1), float(p2), hbt_correlation(state, float(p1), float(p2)))
        for p1 in phases
        for p2 in phases
    ]


def _sample_general_state(rng):
    for _ in range(100):
        n = float(rng.uniform(0.2, 1.2))
        cap = 0.45 * math.sqrt(n * (n + 1.0))
        m = float(rng.uniform(0.05, 1.0)) * cap
        mc = float(rng.uniform(0.05, 1.0)) * cap
        lam1 = float(rng.uniform(0.0, 0.45 * math.pi))
        lam2 = float(rng.uniform(0.0, 0.45 * math.pi))
        state = TwoModeGaussian(
            n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2), complex(mc))
        try:
            record = visibilities_general(n, m, mc, lam1, lam2)
        except Exception:
            continue
        return state, record, (lam1, lam2)
    raise RuntimeError("could not sample a physical general state")


def test_criterion_09_fringe_fit_roundtrip():
    rng = np.random.default_rng(11)
    checked = 0
    worst = 0.0
    for _ in range(20):
        # uncorrelated pair with a relative phase
        n = float(rng.uniform(0.1, 1.4))
        m = float(rng.uniform(0.0, 0.9)) * math.sqrt(n * (n + 1.0))
        lam = float(rng.uniform(0.0, 2.0 * math.pi))
        pair = TwoModeGaussian.pair_with_phase(OneModeGaussian(n, complex(m)), lam)
        record = visibilities_uncorrelated(n, m, lam)
        fit = fit_visibilities(_fit_case_samples(pair), FitModel.IN_OUT)
        worst = max(worst, abs(fit.record.v_minus - record.v_minus),
                    abs(fit.record.v_plus - record.v_plus))
        checked += 1

        # cross-correlated state
        mc = float(rng.uniform(0.0, 0.95)) * math.sqrt(n * (n + 1.0))
        epr = TwoModeGaussian.epr(n, complex(mc))
        record = visibility_epr(n, mc)
        fit = fit_visibilities(_fit_case_samples(epr), FitModel.IN_PHASE_ONLY)
        worst = max(worst, abs(fit.record.v_minus - record.v_minus))
        checked += 1

        # thermal-diluted mixture
        p = float(rng.uniform(0.0, 1.0))
        mixture = werner_mix(epr, p)
        record = visibility_werner(n, mc, p)
        fit = fit_visibilities(_fit_case_samples(mixture), FitModel.IN_PHASE_ONLY)
        worst = max(worst, abs(fit.record.v_minus - record.v_minus))
        checked += 1

        # beam-splitter output
        s_in = OneModeGaussian(n, complex(m))
        out = beam_splitter(s_in, s_in, lam)
        record = visibilities_bs_output(n, m, lam)
        fit = fit_visibilities(_fit_case_samples(out), FitModel.IN_OUT)
        worst = max(worst, abs(fit.record.v_minus - record.v_minus),
                    abs(fit.record.v_plus - record.v_plus))
        checked += 1

        # general correlated squeezed state
        state, record, phases = _sample_general_state(rng)
        fit = fit_visibilities(_fit_case_samples(state), FitModel.GENERAL,
                               known_phases=phases)
        worst = max(worst, abs(fit.record.v_minus - record.v_minus),
                    abs(fit.record.v_plus - record.v_plus),
                    abs(fit.record.v_m - record.v_m))
        checked += 1

    assert checked == 100
    assert worst <= 1e-8
    _report(9, f"100 noiseless round trips across all families, worst error {worst:.2e}")
