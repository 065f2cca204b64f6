import cmath
import dataclasses
import math

import numpy as np
import pytest

from squeezekit import (
    FitModel,
    FringeSample,
    GaussianMixture,
    IllConditionedError,
    InequalityContext,
    NonPhysicalStateError,
    OneModeGaussian,
    TwoModeGaussian,
    VisibilityRecord,
    classical_inequality_report,
    fit_visibilities,
    fringe_prefactor,
    fringe_value,
    hbt_correlation,
    visibilities_bs_output,
    visibilities_general,
    visibilities_uncorrelated,
    visibility_epr,
    visibility_werner,
    werner_mix,
    whbt_closed_form_uncorrelated,
)

from conftest import random_physical_one_mode

SQRT2 = math.sqrt(2.0)


class TestClosedFormVisibilities:
    def test_thermal_pair(self):
        vis = visibilities_uncorrelated(1.0, 0.0)
        assert vis.v_minus == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert vis.v_plus == 0.0

    def test_border_pair(self):
        vis = visibilities_uncorrelated(1.0, 1.0)
        assert vis.v_minus == pytest.approx(0.25, abs=1e-15)
        assert vis.v_plus == pytest.approx(0.25, abs=1e-15)

    def test_experimental_pair(self):
        vis = visibilities_uncorrelated(0.12041666666666662, 0.28708333333333336)
        assert vis.v_minus == pytest.approx(0.11, abs=0.01)
        assert vis.v_plus == pytest.approx(0.66, abs=0.01)
        assert vis.total == pytest.approx(0.77, abs=0.01)

    def test_phase_offset_is_stored(self):
        assert visibilities_uncorrelated(1.0, 0.5, 0.7).phase_offset_plus == 0.7

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            visibilities_uncorrelated(0.0, 0.0)

    def test_epr_landmarks(self):
        assert visibility_epr(1.0, 0.0).v_minus == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert visibility_epr(1.0, 1.0).v_minus == pytest.approx(0.5, abs=1e-15)
        assert visibility_epr(1.0, SQRT2).v_minus == pytest.approx(0.6, abs=1e-12)

    def test_epr_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            visibility_epr(1.0, 1.5)

    def test_werner_endpoints(self):
        assert visibility_werner(1.0, SQRT2, 1.0).v_minus == pytest.approx(0.6, abs=1e-12)
        assert visibility_werner(1.0, SQRT2, 0.0).v_minus == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_werner_threshold_point(self):
        # p = n/(n+1) puts the visibility exactly at 1/2.
        assert visibility_werner(1.0, SQRT2, 0.5).v_minus == pytest.approx(0.5, abs=1e-12)

    def test_werner_p_validation(self):
        with pytest.raises(ValueError):
            visibility_werner(1.0, 1.0, 1.5)

    def test_bs_output_zero_phase_matches_uncorrelated(self, rng):
        for _ in range(50):
            s = random_physical_one_mode(rng)
            a = visibilities_bs_output(s.n, abs(s.m), 0.0)
            b = visibilities_uncorrelated(s.n, abs(s.m))
            assert a.v_minus == pytest.approx(b.v_minus, rel=1e-13)
            assert a.v_plus == pytest.approx(b.v_plus, rel=1e-13, abs=1e-15)

    def test_bs_output_border_input(self, rng):
        for lam in np.linspace(0, math.pi, 9):
            vis = visibilities_bs_output(1.0, 1.0, float(lam))
            c2 = math.cos(2 * lam)
            assert vis.v_minus == pytest.approx((3.0 - c2) / 8.0, rel=1e-13)
            assert vis.v_plus == pytest.approx((1.0 + c2) / 8.0, rel=1e-13, abs=1e-15)

    def test_bs_output_pure_state_half_pi(self):
        vis = visibilities_bs_output(1.0, SQRT2, math.pi / 2)
        assert vis.v_minus == pytest.approx(0.6, abs=1e-12)
        assert vis.v_plus == pytest.approx(0.0, abs=1e-15)

    def test_bs_output_matches_epr_at_half_pi(self, rng):
        for _ in range(25):
            s = random_physical_one_mode(rng)
            a = visibilities_bs_output(s.n, abs(s.m), math.pi / 2)
            b = visibility_epr(s.n, abs(s.m))
            assert a.v_minus == pytest.approx(b.v_minus, rel=1e-13)
            assert a.v_plus == pytest.approx(0.0, abs=1e-15)

    def test_bs_output_accepts_nonphysical_parameters(self):
        # Formulas evaluate even for flagged-nonphysical inputs.
        vis = visibilities_bs_output(1.0, 2.0, math.pi / 2)
        assert vis.v_minus == pytest.approx(5.0 / 7.0, rel=1e-13)

    def test_general_landmark(self):
        vis = visibilities_general(1.0, SQRT2 - 1.0 / SQRT2, 1.0 / SQRT2, 0.0, math.pi / 2)
        assert vis.v_minus == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert vis.v_plus == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert vis.v_m == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert vis.phase_offset_plus == pytest.approx(math.pi / 2)

    def test_general_reduces_to_uncorrelated(self):
        vis = visibilities_general(1.0, 0.6, 0.0, 0.0, 0.9)
        ref = visibilities_uncorrelated(1.0, 0.6, 0.9)
        assert vis.v_minus == pytest.approx(ref.v_minus, rel=1e-13)
        assert vis.v_plus == pytest.approx(ref.v_plus, rel=1e-13)
        assert vis.v_m == 0.0

    def test_general_nonphysical_rejected(self):
        # Pure marginals cannot support extra cross correlation.
        with pytest.raises(NonPhysicalStateError):
            visibilities_general(1.0, SQRT2, 0.5, 0.0, math.pi / 2)


class TestEprIsWernerAtPOne:
    def test_records_and_errors_match_bit_for_bit(self, rng):
        # visibility_epr is visibility_werner at p = 1: the same record,
        # v₋ = (n² + |m_c|²)/(3n² + |m_c|²) on the moduli over the larger,
        # and the same error on a nonphysical or vacuum input.
        for _ in range(500):
            n = float(rng.uniform(0.0, 3.0))
            mc = float(rng.uniform(0.0, 1.2)) * math.sqrt(n * (n + 1.0))
            outcomes = []
            for record in (visibility_epr, lambda n, mc: visibility_werner(n, mc, 1.0)):
                try:
                    outcomes.append(record(n, mc))
                except ValueError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], (n, mc)
            if isinstance(outcomes[0], tuple):
                continue
            a, b = n / max(n, mc), mc / max(n, mc)
            assert outcomes[0].v_minus == (a ** 2 + b ** 2) / (3.0 * a ** 2 + b ** 2)
        for n, mc in ((0.0, 0.0), (1.0, 1.5)):
            with pytest.raises(ValueError) as epr:
                visibility_epr(n, mc)
            with pytest.raises(ValueError) as werner:
                visibility_werner(n, mc, 1.0)
            assert (epr.type, str(epr.value)) == (werner.type, str(werner.value))


class TestUnderflowingMoments:
    """Every closed-form record is a ratio of quadratic forms in n and the
    squeezing moduli; squares that underflow on their own must not turn
    it into a division by zero."""

    def test_records_keep_their_values_at_an_underflowing_scale(self):
        scale = 1e-170
        cases = ((visibilities_uncorrelated, (1.0, 0.5), (0.3,)),
                 (visibility_epr, (1.0, 0.5), ()),
                 (visibility_werner, (1.0, 0.5), (0.6,)),
                 (visibilities_bs_output, (1.0, 0.5), (0.3,)))
        for record, moduli, rest in cases:
            expected = record(*moduli, *rest)
            got = record(*(x * scale for x in moduli), *rest)
            for name in ("v_minus", "v_plus", "v_m"):
                assert getattr(got, name) == pytest.approx(getattr(expected, name), rel=1e-15,
                                                           abs=1e-300), (record.__name__, name)

    def test_a_negative_photon_number_is_scaled_by_its_modulus(self):
        # The uncorrelated and bs-output formulas evaluate any input: n < 0
        # is scaled by the larger modulus, not divided by the smaller value.
        assert visibilities_uncorrelated(-1.0, 0.0).v_minus == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert whbt_closed_form_uncorrelated(-1.0, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        for record in (visibilities_uncorrelated(-1e200, 1e-200),
                       visibilities_bs_output(-1e200, 1e-200, 0.3)):
            assert record.v_minus == pytest.approx(1.0 / 3.0, rel=1e-15)
            assert all(math.isfinite(v) for v in dataclasses.astuple(record))
        assert whbt_closed_form_uncorrelated(-1e200, 1e-200) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_one_photon_scale_state_is_a_thermal_record(self):
        assert visibilities_uncorrelated(1e-170, 0.0).v_minus == pytest.approx(1.0 / 3.0)
        assert visibility_epr(1e-170, 0.0).v_minus == pytest.approx(1.0 / 3.0)
        assert visibility_werner(1e-170, 0.0, 0.5).v_minus == pytest.approx(1.0 / 3.0)
        assert visibilities_bs_output(1e-170, 0.0, 0.3).v_minus == pytest.approx(1.0 / 3.0)
        assert visibilities_general(1e-170, 0.0, 0.0, 0.0, 0.0).v_minus == pytest.approx(1.0 / 3.0)


class TestNonFiniteParameters:
    """A parameter that is not a finite number is named in the error, not
    carried into a visibility that no bound then accepts."""

    @pytest.mark.parametrize("record, args, name", [
        (visibilities_uncorrelated, (math.nan, 0.5, 0.3), "n"),
        (visibilities_uncorrelated, (1.0, math.inf, 0.3), "m"),
        (visibilities_uncorrelated, (1.0, 0.5, -math.inf), "lam"),
        (visibility_epr, (math.nan, 0.5), "n"),
        (visibility_epr, (1.0, math.inf), "m_c"),
        (visibility_werner, (-math.inf, 0.5, 0.6), "n"),
        (visibility_werner, (1.0, math.nan, 0.6), "m_c"),
        (visibilities_bs_output, (1.0, math.inf, 0.3), "m"),
        (visibilities_bs_output, (math.nan, 0.5, 0.3), "n"),
        (visibilities_bs_output, (1.0, 0.5, math.nan), "lam"),
    ])
    def test_the_parameter_is_named(self, record, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
            record(*args)


class TestHbtCorrelation:
    def test_fringe_on_one_state_takes_one_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(matrix):
            calls.append(matrix)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        state = TwoModeGaussian(1.0, 0.4 + 0j, 0.3j, 0.5 + 0j, 0.1 + 0j)
        phases = np.linspace(0.0, 2.0 * math.pi, 5)
        values = [hbt_correlation(state, p1, p2) for p1 in phases for p2 in phases]
        assert len(values) == 25 and len(calls) == 1
        fresh = TwoModeGaussian(1.0, 0.4 + 0j, 0.3j, 0.5 + 0j, 0.1 + 0j)
        assert hbt_correlation(fresh, phases[3], phases[1]) == values[16]

    def test_nonphysical_state_raises_on_every_call(self):
        state = TwoModeGaussian.epr(1.0, 1.5 + 0j)
        for _ in range(3):
            with pytest.raises(NonPhysicalStateError):
                hbt_correlation(state, 0.3, 1.1)
        mix = GaussianMixture(((0.5, state), (0.5, TwoModeGaussian.thermal_pair(1.0))))
        for _ in range(3):
            with pytest.raises(NonPhysicalStateError):
                hbt_correlation(mix, 0.3, 1.1)

    def test_thermal_pair_equal_phases(self):
        pair = TwoModeGaussian.pair_with_phase(OneModeGaussian(1.0, 0j), 0.0)
        assert hbt_correlation(pair, 0.3, 0.3) == pytest.approx(2.0, rel=1e-12)

    def test_epr_antiphase(self):
        state = TwoModeGaussian.epr(1.0, complex(SQRT2))
        assert hbt_correlation(state, math.pi, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_pi_periodicity(self):
        state = TwoModeGaussian.epr(1.0, 1.2 + 0j)
        a = hbt_correlation(state, 0.0, 0.0)
        b = hbt_correlation(state, 2 * math.pi, 2 * math.pi)
        assert a == pytest.approx(b, rel=1e-12)

    def test_swap_symmetry(self, rng):
        s = random_physical_one_mode(rng)
        pair = TwoModeGaussian.pair_with_phase(s, 1.3)
        for _ in range(10):
            p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
            assert hbt_correlation(pair, p1, p2) == pytest.approx(
                hbt_correlation(pair, p2, p1), rel=1e-12
            )

    def test_nonphysical_state_rejected(self):
        bad = TwoModeGaussian.epr(1.0, 1.6 + 0j)
        with pytest.raises(NonPhysicalStateError):
            hbt_correlation(bad, 0.0, 0.0)
        with pytest.raises(NonPhysicalStateError):
            fringe_prefactor(bad)

    def test_matches_uncorrelated_closed_form(self, rng):
        for _ in range(20):
            s = random_physical_one_mode(rng)
            lam = float(rng.uniform(0, 2 * math.pi))
            pair = TwoModeGaussian.pair_with_phase(s, lam)
            record = visibilities_uncorrelated(s.n, abs(s.m), lam)
            pref = fringe_prefactor(pair)
            for _ in range(5):
                p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
                direct = hbt_correlation(pair, p1, p2)
                closed = pref * fringe_value(record, p1, p2)
                assert direct == pytest.approx(closed, rel=1e-11, abs=1e-12)

    def test_matches_epr_closed_form(self, rng):
        state = TwoModeGaussian.epr(0.8, 0.9 * cmath.exp(0j))
        record = visibility_epr(0.8, 0.9)
        pref = fringe_prefactor(state)
        assert pref == pytest.approx(0.5 * (3 * 0.64 + 0.81), rel=1e-13)
        for _ in range(10):
            p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
            assert hbt_correlation(state, p1, p2) == pytest.approx(
                pref * fringe_value(record, p1, p2), rel=1e-11
            )

    def test_matches_werner_closed_form(self, rng):
        mixture = werner_mix(TwoModeGaussian.epr(1.0, 1.3 + 0j), 0.6)
        record = visibility_werner(1.0, 1.3, 0.6)
        pref = fringe_prefactor(mixture)
        for _ in range(10):
            p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
            assert hbt_correlation(mixture, p1, p2) == pytest.approx(
                pref * fringe_value(record, p1, p2), rel=1e-11
            )

    def test_matches_bs_output_closed_form(self, rng):
        from squeezekit import beam_splitter
        for lam in (0.0, 0.5, math.pi / 4, math.pi / 2, 2.2):
            s = OneModeGaussian(0.9, complex(0.8))
            out = beam_splitter(s, s, lam)
            record = visibilities_bs_output(0.9, 0.8, lam)
            pref = fringe_prefactor(out)
            for _ in range(4):
                p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
                assert hbt_correlation(out, p1, p2) == pytest.approx(
                    pref * fringe_value(record, p1, p2), rel=1e-11
                )

    def test_matches_general_closed_form_on_grid(self):
        # Full three-visibility fringe formula against the moment engine at
        # sixteen phase pairs.
        n, m, mc, lam1, lam2 = 1.0, 0.2, 1.1, 0.0, 0.0
        state = TwoModeGaussian(n, complex(m), complex(m), complex(mc))
        record = visibilities_general(n, m, mc, lam1, lam2)
        pref = fringe_prefactor(state)
        phases = np.linspace(0.0, 2 * math.pi, 4, endpoint=False)
        for p1 in phases:
            for p2 in phases:
                direct = hbt_correlation(state, float(p1), float(p2))
                closed = pref * fringe_value(record, float(p1), float(p2), lam1, lam2)
                assert direct == pytest.approx(closed, rel=1e-11, abs=1e-12)

    def test_general_with_distinct_phases(self):
        n, m, mc, lam1, lam2 = 1.0, 0.5, 0.4, 0.6, 2.0
        state = TwoModeGaussian(
            n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2), complex(mc))
        record = visibilities_general(n, m, mc, lam1, lam2)
        pref = fringe_prefactor(state)
        for p1, p2 in [(0.1, 0.7), (1.9, 5.1), (3.0, 0.2), (2.5, 2.5)]:
            direct = hbt_correlation(state, p1, p2)
            closed = pref * fringe_value(record, p1, p2, lam1, lam2)
            assert direct == pytest.approx(closed, rel=1e-11, abs=1e-12)

    def test_fringes_nonnegative_on_grid(self, rng):
        # Nonnegativity of the intensity correlation over a 64x64 phase grid
        # for physical states of every family.
        phases = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        p1, p2 = np.meshgrid(phases, phases)
        records = []
        for _ in range(5):
            s = random_physical_one_mode(rng)
            lam = float(rng.uniform(0, 2 * math.pi))
            records.append((visibilities_uncorrelated(s.n, abs(s.m), lam), 0.0, lam))
            n = float(rng.uniform(0.05, 1.5))
            mc = float(rng.uniform(0, 1.0)) * math.sqrt(n * (n + 1))
            records.append((visibility_epr(n, mc), 0.0, 0.0))
            records.append((visibilities_bs_output(s.n, abs(s.m), lam), 0.0, 0.0))
        records.append((visibilities_general(1.0, 0.5, 0.5, 0.3, 1.1), 0.3, 1.1))
        for record, lam1, lam2 in records:
            values = (
                1.0
                + record.v_minus * np.cos(p1 - p2)
                + record.v_plus * np.cos(p1 + p2 + record.phase_offset_plus)
                + record.v_m * (np.cos(p1 - lam1) + np.cos(p2 + lam2)
                                + np.cos(p1 + lam2) + np.cos(p2 - lam1))
            )
            assert values.min() >= -1e-12


class TestClassicalInequalities:
    def test_thermal_satisfies_all(self):
        report = classical_inequality_report(
            visibilities_uncorrelated(1.0, 0.0), InequalityContext.UNCORRELATED_PAIR)
        assert report.classical
        assert report.violated() == ()

    def test_experimental_violations(self):
        report = classical_inequality_report(
            VisibilityRecord(0.11, 0.66), InequalityContext.UNCORRELATED_PAIR)
        assert not report.classical
        assert "v_plus_upper" in report.violated()
        assert "sum" in report.violated()

    def test_pure_boundary_violations(self):
        vis = visibilities_uncorrelated(1.0, SQRT2)
        assert vis.v_minus == pytest.approx(0.2, abs=1e-12)
        assert vis.v_plus == pytest.approx(0.4, abs=1e-12)
        report = classical_inequality_report(vis, InequalityContext.UNCORRELATED_PAIR)
        assert not report.v_minus_lower_ok
        assert not report.v_plus_upper_ok

    def test_context_selects_upper_bound(self):
        record = VisibilityRecord(0.45, 0.0)
        pair = classical_inequality_report(record, InequalityContext.UNCORRELATED_PAIR)
        split = classical_inequality_report(record, InequalityContext.BEAM_SPLITTER_OUTPUT)
        assert not pair.v_minus_upper_ok
        assert split.v_minus_upper_ok


class TestVisibilityRecordValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            VisibilityRecord(1.2, 0.0)
        with pytest.raises(ValueError):
            VisibilityRecord(0.2, -0.1)
        with pytest.raises(ValueError):
            VisibilityRecord(0.2, 0.1, 1.5)


def _samples_from(state, grid_size=8):
    phases = np.linspace(0.0, 2 * math.pi, grid_size, endpoint=False)
    out = []
    for p1 in phases:
        for p2 in phases:
            out.append(FringeSample(float(p1), float(p2), hbt_correlation(state, float(p1), float(p2))))
    return out


class TestFitVisibilities:
    def test_epr_roundtrip(self):
        state = TwoModeGaussian.epr(1.0, complex(SQRT2))
        fit = fit_visibilities(_samples_from(state), FitModel.IN_PHASE_ONLY)
        assert fit.record.v_minus == pytest.approx(0.6, abs=1e-10)
        assert fit.amplitude == pytest.approx(fringe_prefactor(state), rel=1e-10)
        assert fit.residual < 1e-10

    def test_thermal_roundtrip(self):
        state = TwoModeGaussian.pair_with_phase(OneModeGaussian(1.0, 0j), 0.0)
        fit = fit_visibilities(_samples_from(state), FitModel.IN_PHASE_ONLY)
        assert fit.record.v_minus == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_uncorrelated_offset_recovery(self):
        s = OneModeGaussian(0.5, 0.6 + 0j)
        lam = 1.1
        pair = TwoModeGaussian.pair_with_phase(s, lam)
        fit = fit_visibilities(_samples_from(pair), FitModel.IN_OUT)
        ref = visibilities_uncorrelated(0.5, 0.6, lam)
        assert fit.record.v_minus == pytest.approx(ref.v_minus, abs=1e-10)
        assert fit.record.v_plus == pytest.approx(ref.v_plus, abs=1e-10)
        assert fit.record.phase_offset_plus == pytest.approx(lam, abs=1e-8)

    def test_general_roundtrip_with_sign(self):
        n, m, mc, lam1, lam2 = 1.0, 0.45, 0.5, 0.4, 1.2
        state = TwoModeGaussian(
            n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2), complex(mc))
        ref = visibilities_general(n, m, mc, lam1, lam2)
        fit = fit_visibilities(_samples_from(state), FitModel.GENERAL,
                               known_phases=(lam1, lam2))
        assert fit.record.v_minus == pytest.approx(ref.v_minus, abs=1e-10)
        assert fit.record.v_plus == pytest.approx(ref.v_plus, abs=1e-10)
        assert fit.record.v_m == pytest.approx(ref.v_m, abs=1e-10)

    def test_general_model_takes_fourteen_samples(self):
        # Seven columns: φ₁ and φ₂ share the single-phase pair.
        n, m, mc, lam1, lam2 = 1.0, 0.45, 0.5, 0.4, 1.2
        state = TwoModeGaussian(
            n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2), complex(mc))
        phases = [(2.0 * math.pi * ((0.618034 * k) % 1.0), 2.0 * math.pi * ((0.414214 * k) % 1.0))
                  for k in range(14)]
        samples = [FringeSample(p1, p2, hbt_correlation(state, p1, p2)) for p1, p2 in phases]
        fit = fit_visibilities(samples, FitModel.GENERAL, known_phases=(lam1, lam2))
        ref = visibilities_general(n, m, mc, lam1, lam2)
        assert fit.record.v_m == pytest.approx(ref.v_m, abs=1e-10)
        assert fit.residual < 1e-10
        with pytest.raises(ValueError, match="need at least 14 samples"):
            fit_visibilities(samples[:13], FitModel.GENERAL, known_phases=(lam1, lam2))

    def test_underdetermined_rejected(self):
        samples = [FringeSample(0.0, 0.0, 1.0), FringeSample(1.0, 0.5, 1.1)]
        with pytest.raises(ValueError):
            fit_visibilities(samples, FitModel.IN_PHASE_ONLY)

    def test_rank_deficient_rejected(self):
        samples = [FringeSample(0.0, 0.0, 1.0)] * 12
        with pytest.raises(IllConditionedError):
            fit_visibilities(samples, FitModel.IN_PHASE_ONLY)

    def test_general_needs_known_phases(self):
        state = TwoModeGaussian.epr(1.0, 1.0 + 0j)
        with pytest.raises(ValueError):
            fit_visibilities(_samples_from(state), FitModel.GENERAL)

    def test_general_degenerate_phase_sum_rejected(self):
        state = TwoModeGaussian.epr(1.0, 1.0 + 0j)
        with pytest.raises(IllConditionedError):
            fit_visibilities(_samples_from(state), FitModel.GENERAL,
                             known_phases=(0.4, math.pi - 0.4))
