import cmath
import math

import numpy as np
import pytest

from squeezekit import (
    AmplifierGains,
    Classification,
    NonPhysicalStateError,
    OneModeGaussian,
    TwoModeGaussian,
    UnsupportedPhaseError,
    amplifier_output,
    beam_splitter,
    beam_splitter_inverse,
    is_classical_threshold,
    is_p_representable,
    mode_rotation,
    phase_shift,
    purity_one_mode,
    quadrature_variances,
    rotated_quadrature_variance,
    werner_mix,
)
from squeezekit import fock, oracle_check

from _fock_reference import quadrature_second_moment
from conftest import random_physical_one_mode

SQRT2 = math.sqrt(2.0)


class TestAmplifier:
    def test_unit_gains_give_vacuum(self):
        s = amplifier_output(AmplifierGains(1.0, 1.0))
        assert s.n == pytest.approx(0.0, abs=1e-15)
        assert abs(s.m) == pytest.approx(0.0, abs=1e-15)

    def test_reported_experimental_gains(self):
        s = amplifier_output(AmplifierGains(1.65, 1.05))
        assert s.n == pytest.approx(0.120, abs=5e-3)
        assert abs(s.m) == pytest.approx(0.287, abs=5e-3)

    def test_phase_insensitive_only_gives_thermal(self):
        s = amplifier_output(AmplifierGains(1.0, 2.0))
        assert s.n == pytest.approx(1.0, abs=1e-15)
        assert abs(s.m) == pytest.approx(0.0, abs=1e-15)
        assert purity_one_mode(s) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_purity_depends_only_on_h(self, rng):
        for _ in range(50):
            G = float(rng.uniform(1.0, 3.0))
            H = float(rng.uniform(1.0, 2.0))
            s = amplifier_output(AmplifierGains(G, H))
            assert purity_one_mode(s) == pytest.approx(1.0 / (2.0 * H - 1.0), rel=1e-10)

    def test_output_always_physical_and_pure_iff_h_one(self, rng):
        for _ in range(200):
            G = float(rng.uniform(1.0, 4.0))
            H = float(rng.uniform(1.0, 3.0))
            s = amplifier_output(AmplifierGains(G, H))
            assert s.is_physical()
            assert s.is_pure() == (abs(H - 1.0) < 1e-10)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            AmplifierGains(0.9, 1.0)
        with pytest.raises(ValueError):
            AmplifierGains(1.0, 0.5)


class TestClassicalThreshold:
    def test_experimental_point_is_quantum(self):
        assert not is_classical_threshold(AmplifierGains(1.65, 1.05))
        # 20% below threshold: H/(0.5(G+1)) = 1.05/1.325
        assert 1.05 / (0.5 * (1.65 + 1.0)) == pytest.approx(0.79, abs=0.01)

    def test_unit_gains_boundary(self):
        assert is_classical_threshold(AmplifierGains(1.0, 1.0))

    def test_equality_point(self):
        assert is_classical_threshold(AmplifierGains(2.0, 1.5))

    def test_agrees_with_classification_of_output(self, rng):
        for _ in range(200):
            G = float(rng.uniform(1.0, 3.0))
            H = float(rng.uniform(1.0, 2.5))
            if abs(H - 0.5 * (G + 1.0)) < 1e-6:
                continue
            gains = AmplifierGains(G, H)
            verdict = is_p_representable(amplifier_output(gains))
            assert is_classical_threshold(gains) == (verdict is Classification.CLASSICAL)


class TestPhaseShift:
    def test_identity(self):
        s = OneModeGaussian(1.0, 0.3 + 0.4j)
        assert phase_shift(s, 0.0) == s

    def test_half_pi_flips_sign(self):
        s = OneModeGaussian(1.0, 0.7 + 0j)
        assert phase_shift(s, math.pi / 2).m == pytest.approx(-0.7 + 0j)

    def test_quarter_pi_gives_imaginary(self):
        s = OneModeGaussian(1.0, 1.0 + 0j)
        assert phase_shift(s, math.pi / 4).m == pytest.approx(1j)

    def test_preserves_invariants(self, rng):
        for _ in range(100):
            s = random_physical_one_mode(rng)
            lam = float(rng.uniform(0, 2 * math.pi))
            out = phase_shift(s, lam)
            assert out.n == s.n
            assert abs(out.m) == pytest.approx(abs(s.m), rel=1e-12)
            assert is_p_representable(out) is is_p_representable(s)
            assert purity_one_mode(out) == pytest.approx(purity_one_mode(s), rel=1e-12)


class TestBeamSplitter:
    def test_zero_phase_is_separable_output(self):
        s = OneModeGaussian(1.0, 0.8 + 0j)
        out = beam_splitter(s, s, 0.0)
        assert out.m_c == pytest.approx(0j, abs=1e-15)
        assert out.m_a == pytest.approx(0.8 + 0j)

    def test_half_pi_gives_pure_cross_correlation(self):
        s = OneModeGaussian(1.0, complex(SQRT2))
        out = beam_splitter(s, s, math.pi / 2)
        assert out.m_a == pytest.approx(0j, abs=1e-15)
        assert out.m_c == pytest.approx(complex(SQRT2), rel=1e-15)

    def test_quarter_pi_split(self):
        s = OneModeGaussian(1.0, complex(SQRT2))
        out = beam_splitter(s, s, math.pi / 4)
        assert out.m_a == pytest.approx(0.5 * SQRT2 * (1 + 1j), rel=1e-14)
        assert out.m_c == pytest.approx(0.5 * SQRT2 * (1 - 1j), rel=1e-14)

    def test_photon_number_conservation(self, rng):
        for _ in range(100):
            sa = random_physical_one_mode(rng)
            sb = random_physical_one_mode(rng)
            lam = float(rng.uniform(0, 2 * math.pi))
            out = beam_splitter(sa, sb, lam)
            assert 2.0 * out.n == pytest.approx(sa.n + sb.n, rel=1e-12)
            assert out.m_x == pytest.approx(0.5 * (sa.n - sb.n), abs=1e-12)

    def test_squeezing_weight_split(self, rng):
        # |m̃|² + |m_c|² = |m|² for equal inputs.
        for _ in range(100):
            s = random_physical_one_mode(rng)
            lam = float(rng.uniform(0, 2 * math.pi))
            out = beam_splitter(s, s, lam)
            assert abs(out.m_a) ** 2 + abs(out.m_c) ** 2 == pytest.approx(
                abs(s.m) ** 2, rel=1e-12, abs=1e-12
            )

    def test_inverse_recovers_inputs(self, rng):
        for _ in range(100):
            sa = random_physical_one_mode(rng)
            sb = random_physical_one_mode(rng)
            lam = float(rng.uniform(0, 2 * math.pi))
            back_a, back_b = beam_splitter_inverse(beam_splitter(sa, sb, lam), lam)
            assert back_a.n == pytest.approx(sa.n, rel=1e-12)
            assert back_b.n == pytest.approx(sb.n, rel=1e-12)
            assert back_a.m == pytest.approx(sa.m, rel=1e-10, abs=1e-12)
            assert back_b.m == pytest.approx(sb.m, rel=1e-10, abs=1e-12)

    def test_inverse_rejects_non_image_states(self):
        st = TwoModeGaussian(1.0, 0.2 + 0j, 0.3 + 0j, 0.1 + 0j, 0j)
        with pytest.raises(ValueError):
            beam_splitter_inverse(st, 0.0)


class TestModeRotation:
    def test_moment_transformation(self):
        st = TwoModeGaussian(1.0, 0.2 + 0j, 0.3 + 0j, 0.1 + 0j, 0.05 + 0j)
        out = mode_rotation(st, 0.4, -0.7)
        assert out.m_a == pytest.approx(st.m_a * cmath.exp(0.8j), rel=1e-14)
        assert out.m_b == pytest.approx(st.m_b * cmath.exp(-1.4j), rel=1e-14)
        assert out.m_c == pytest.approx(st.m_c * cmath.exp(1j * (0.4 - 0.7)), rel=1e-14)
        assert out.m_x == pytest.approx(st.m_x * cmath.exp(1j * (-0.7 - 0.4)), rel=1e-14)

    def test_inverse_rotation(self):
        st = TwoModeGaussian(1.0, 0.2 + 0.1j, 0.3 - 0.2j, 0.1 + 0.05j, 0j)
        back = mode_rotation(mode_rotation(st, 0.9, 0.3), -0.9, -0.3)
        assert back.m_a == pytest.approx(st.m_a, rel=1e-14)
        assert back.m_c == pytest.approx(st.m_c, rel=1e-14)


class TestRotatedQuadrature:
    def test_aligned_angle_keeps_squeezing(self):
        s = OneModeGaussian(1.0, 0.8 + 0j)
        assert rotated_quadrature_variance(s, 0.3, 0.6) == pytest.approx(1.5 - 0.8, rel=1e-14)

    def test_orthogonal_angle_gives_symmetric_variance(self):
        s = OneModeGaussian(1.0, 0.8 + 0j)
        got = rotated_quadrature_variance(s, 0.3, 0.6 + math.pi / 2)
        assert got == pytest.approx(1.5, rel=1e-14)

    def test_pure_state_quarter_rotation(self):
        s = OneModeGaussian(1.0, complex(SQRT2))
        assert rotated_quadrature_variance(s, math.pi / 4, 0.0) == pytest.approx(1.5, abs=1e-12)

    def test_matches_phase_shift_variance(self, rng):
        # Independent route: the same variance is the first quadrature
        # variance of the state phase shifted by λ − θ/2.
        for _ in range(100):
            n = float(rng.uniform(0.0, 1.5))
            m = float(rng.uniform(-1, 1)) * math.sqrt(n * (n + 1.0))
            s = OneModeGaussian(n, complex(m))
            lam = float(rng.uniform(0, 2 * math.pi))
            theta = float(rng.uniform(0, 2 * math.pi))
            direct = rotated_quadrature_variance(s, lam, theta)
            via_shift = quadrature_variances(phase_shift(s, lam - theta / 2.0))[0]
            assert direct == pytest.approx(via_shift, rel=1e-12, abs=1e-12)

    def test_matches_the_oracle(self):
        # Independent oracle: the quadrature of b = a e^{iλ} rotated by θ/2,
        # X = (b e^{−iθ/2} + b† e^{iθ/2})/√2, read off the dense cutoff-40
        # density with the tests' own ladder matrix; m real, of either sign.
        draws = np.random.default_rng(5)
        for _ in range(10):
            drawn = oracle_check.random_one_mode(draws)
            s = OneModeGaussian(drawn.n, complex(abs(drawn.m) * draws.choice((-1.0, 1.0))))
            lam, theta = draws.uniform(0.0, 2.0 * math.pi, 2)
            rho = fock.one_mode_density(s, 40)
            oracle = quadrature_second_moment(rho, cmath.exp(1j * (lam - theta / 2.0)))
            assert rotated_quadrature_variance(s, lam, theta) == pytest.approx(oracle, abs=1e-6)

    def test_complex_m_rejected(self):
        with pytest.raises(UnsupportedPhaseError):
            rotated_quadrature_variance(OneModeGaussian(1.0, 0.5j), 0.0, 0.0)


class TestWernerMix:
    def test_endpoints_are_single_component(self):
        epr = TwoModeGaussian.epr(1.0, 1.2 + 0j)
        assert len(werner_mix(epr, 1.0).components) == 1
        assert werner_mix(epr, 1.0).components[0][1] == epr
        lone = werner_mix(epr, 0.0).components[0][1]
        assert lone == TwoModeGaussian.thermal_pair(1.0)

    def test_weights(self):
        epr = TwoModeGaussian.epr(1.0, 1.2 + 0j)
        mix = werner_mix(epr, 0.6)
        assert [w for w, _ in mix.components] == pytest.approx([0.6, 0.4])
        assert mix.components[1][1].n == pytest.approx(1.0)

    def test_p_out_of_range(self):
        epr = TwoModeGaussian.epr(1.0, 1.0 + 0j)
        with pytest.raises(ValueError):
            werner_mix(epr, 1.2)
        with pytest.raises(ValueError):
            werner_mix(epr, -0.1)

    def test_squeezed_component_rejected(self):
        st = TwoModeGaussian(1.0, 0.5 + 0j, 0.5 + 0j, 0.5 + 0j, 0j)
        with pytest.raises(ValueError):
            werner_mix(st, 0.5)

    def test_nonphysical_component_rejected(self):
        with pytest.raises(ValueError):
            werner_mix(TwoModeGaussian.epr(1.0, 1.5 + 0j), 0.5)

    def test_nonphysical_component_is_a_nonphysical_state(self):
        with pytest.raises(NonPhysicalStateError, match=r"\|m_c\|\^2 = 2.25 exceeds n\(n\+1\) = 2"):
            werner_mix(TwoModeGaussian.epr(1.0, 1.5 + 0j), 0.5)
