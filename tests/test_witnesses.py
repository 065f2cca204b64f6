import cmath
import math

import pytest

from squeezekit import (
    AmplifierGains,
    Classification,
    GaussianMixture,
    NonPhysicalStateError,
    OneModeGaussian,
    TwoModeGaussian,
    Verdict,
    amplifier_output,
    g2,
    is_p_representable,
    w2_expectation,
    werner_mix,
    whbt_closed_form_epr,
    whbt_closed_form_uncorrelated,
    whbt_closed_form_werner,
    whbt_expectation,
    wick_moment,
)
from squeezekit.states import OperatorWord
from squeezekit.witnesses import intensity_square_moment

from conftest import random_physical_one_mode


class TestW2:
    def test_thermal_is_classical(self):
        report = w2_expectation(OneModeGaussian(1.0, 0j))
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert report.verdict is Verdict.CLASSICAL_OR_SEPARABLE

    def test_pure_states_give_minus_one_over_n(self, rng):
        for _ in range(25):
            n = float(rng.uniform(0.1, 2.0))
            m = math.sqrt(n * (n + 1.0)) * cmath.exp(1j * float(rng.uniform(0, 7)))
            report = w2_expectation(OneModeGaussian(n, m))
            assert report.value == pytest.approx(-1.0 / n, rel=1e-10)
            assert report.verdict is Verdict.QUANTUM_OR_ENTANGLED

    def test_amplifier_state_value(self):
        s = amplifier_output(AmplifierGains(1.65, 1.05))
        assert w2_expectation(s).value == pytest.approx(3.0 - g2(s), rel=1e-12)
        assert w2_expectation(s).value == pytest.approx(-4.68, abs=0.05)

    def test_equals_three_minus_g2(self, rng):
        for _ in range(100):
            s = random_physical_one_mode(rng, frac_max=1.0)
            assert w2_expectation(s).value == pytest.approx(3.0 - g2(s), rel=1e-12)

    def test_vacuum_raises(self):
        with pytest.raises(ZeroDivisionError):
            w2_expectation(OneModeGaussian(0.0, 0j))

    def test_nonphysical_state_rejected(self):
        # |m|^2 = 25 > n(n+1) = 2 would read -24, "quantum".  At n = 0 the
        # gate speaks before the normalization does.
        for s in (OneModeGaussian(1.0, 5.0 + 0j), OneModeGaussian(0.0, 0.5 + 0j)):
            with pytest.raises(NonPhysicalStateError):
                w2_expectation(s)

    def test_sign_matches_classification(self, rng):
        for _ in range(200):
            s = random_physical_one_mode(rng, frac_max=1.0)
            verdict = w2_expectation(s).verdict
            cls = is_p_representable(s)
            if cls is Classification.CLASSICAL:
                assert verdict is Verdict.CLASSICAL_OR_SEPARABLE
            elif cls is Classification.QUANTUM:
                assert verdict is Verdict.QUANTUM_OR_ENTANGLED


class TestWhbtClosedForms:
    def test_uncorrelated_matches_generic(self, rng):
        for _ in range(100):
            s = random_physical_one_mode(rng, frac_max=1.0)
            lam = float(rng.uniform(0, 2 * math.pi))
            # The closed form assumes aligned squeezing phases; the generic
            # path must match it there and stay phase-insensitive in |m|.
            pair = TwoModeGaussian.pair_with_phase(OneModeGaussian(s.n, abs(s.m)), 0.0)
            generic = whbt_expectation(pair).value
            closed = whbt_closed_form_uncorrelated(s.n, abs(s.m))
            assert generic == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_epr_matches_generic(self, rng):
        for _ in range(100):
            n = float(rng.uniform(0.05, 1.5))
            mc = float(rng.uniform(0, 1.0)) * math.sqrt(n * (n + 1.0))
            phase = float(rng.uniform(0, 2 * math.pi))
            state = TwoModeGaussian.epr(n, mc * cmath.exp(1j * phase))
            generic = whbt_expectation(state).value
            assert generic == pytest.approx(whbt_closed_form_epr(n, mc), rel=1e-12, abs=1e-12)

    def test_werner_matches_generic(self, rng):
        for _ in range(50):
            n = float(rng.uniform(0.1, 1.5))
            mc = float(rng.uniform(0.1, 1.0)) * math.sqrt(n * (n + 1.0))
            p = float(rng.uniform(0.0, 1.0))
            mixture = werner_mix(TwoModeGaussian.epr(n, complex(mc)), p)
            generic = whbt_expectation(mixture).value
            closed = whbt_closed_form_werner(n, mc, p)
            assert generic == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_epr_single_mode_squeeze_terms_vanish(self, rng):
        # The two squeezing terms of the witness contribute nothing on the
        # cross-correlated family.
        for _ in range(50):
            n = float(rng.uniform(0.05, 1.5))
            mc = float(rng.uniform(0, 1.0)) * math.sqrt(n * (n + 1.0))
            state = TwoModeGaussian.epr(n, mc * cmath.exp(1j * float(rng.uniform(0, 7))))
            sq = wick_moment(state, OperatorWord.from_counts(create_b=2, annihilate_a=2))
            assert abs(sq) < 1e-14


class TestWhbtVerdicts:
    def test_experimental_pair_value(self):
        s = amplifier_output(AmplifierGains(1.65, 1.05))
        pair = TwoModeGaussian.pair_with_phase(s, 0.0)
        assert whbt_expectation(pair).value == pytest.approx(-0.27, abs=0.01)

    def test_epr_boundary(self):
        report = whbt_expectation(TwoModeGaussian.epr(1.0, 1.0 + 0j))
        assert report.value == pytest.approx(0.0, abs=1e-12)
        assert report.verdict is Verdict.BOUNDARY

    def test_werner_above_threshold_is_negative(self):
        mixture = werner_mix(TwoModeGaussian.epr(1.0, complex(math.sqrt(2.0))), 0.75)
        report = whbt_expectation(mixture)
        assert report.value < 0
        assert report.verdict is Verdict.QUANTUM_OR_ENTANGLED

    def test_werner_below_threshold_is_positive(self):
        mixture = werner_mix(TwoModeGaussian.epr(1.0, complex(math.sqrt(2.0))), 0.25)
        assert whbt_expectation(mixture).value > 0

    def test_epr_sign_tracks_entanglement(self, rng):
        for _ in range(200):
            n = float(rng.uniform(0.05, 1.5))
            mc = float(rng.uniform(0, 1.0)) * math.sqrt(n * (n + 1.0))
            if abs(mc - n) < 1e-6:
                continue
            value = whbt_expectation(TwoModeGaussian.epr(n, complex(mc))).value
            assert (value < 0) == (mc > n)

    def test_uncorrelated_sign_tracks_classification(self, rng):
        for _ in range(200):
            s = random_physical_one_mode(rng, frac_max=1.0)
            if abs(abs(s.m) - s.n) < 1e-6:
                continue
            pair = TwoModeGaussian.pair_with_phase(s, 0.0)
            value = whbt_expectation(pair).value
            assert (value < 0) == (is_p_representable(s) is Classification.QUANTUM)

    def test_one_mode_input_rejected(self):
        with pytest.raises(TypeError):
            whbt_expectation(OneModeGaussian(1.0, 0j))

    def test_vacuum_pair_rejected(self):
        with pytest.raises(ZeroDivisionError):
            whbt_expectation(TwoModeGaussian.thermal_pair(0.0))

    def test_nonphysical_states_rejected(self):
        bad = TwoModeGaussian.epr(1.0, 1.5 + 0j)
        mixture = GaussianMixture(((0.5, bad), (0.5, TwoModeGaussian.thermal_pair(1.0))))
        for state in (bad, mixture,
                      TwoModeGaussian.pair_with_phase(OneModeGaussian(1.0, 1.5 + 0j), 0.3)):
            with pytest.raises(NonPhysicalStateError):
                whbt_expectation(state)


class TestMixtureAffinity:
    def test_numerator_and_denominator_are_affine(self):
        epr = TwoModeGaussian.epr(1.0, 1.2 + 0j)
        thermal = TwoModeGaussian.thermal_pair(1.0)
        for p in (0.2, 0.5, 0.9):
            mixture = werner_mix(epr, p)
            mixed = intensity_square_moment(mixture)
            expected = p * intensity_square_moment(epr) + (1 - p) * intensity_square_moment(thermal)
            assert mixed == pytest.approx(expected, rel=1e-13)
