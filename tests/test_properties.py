"""Property-based invariants across the closed-form modules."""

import cmath
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from squeezekit import (
    Classification,
    OneModeGaussian,
    OperatorWord,
    TwoModeGaussian,
    beam_splitter,
    beam_splitter_inverse,
    classical_inequality_report,
    epr_is_entangled,
    g2,
    InequalityContext,
    is_p_representable,
    phase_shift,
    purity_one_mode,
    quadrature_variances,
    visibilities_uncorrelated,
    visibility_epr,
    visibility_werner,
    werner_hbt_threshold,
    weyl_characteristic,
    whbt_closed_form_werner,
    wick_moment,
)

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def physical_one_mode(draw, n_min=0.0, n_max=2.0, frac_max=1.0):
    n = draw(st.floats(min_value=n_min, max_value=n_max, **finite))
    frac = draw(st.floats(min_value=0.0, max_value=frac_max, **finite))
    phase = draw(st.floats(min_value=0.0, max_value=2 * math.pi, **finite))
    m = frac * math.sqrt(n * (n + 1.0)) * cmath.exp(1j * phase)
    return OneModeGaussian(n, m)


@st.composite
def quantum_one_mode(draw, n_min=1e-3, n_max=2.0):
    """Physical state below the classicality line: |m|/√(n(n+1)) is drawn
    from (√(n/(n+1)), 1], where √(n/(n+1)) is where |m| = n."""
    n = draw(st.floats(min_value=n_min, max_value=n_max, **finite))
    lo = math.sqrt(n / (n + 1.0))
    u = draw(st.floats(min_value=1e-6, max_value=1.0, **finite))
    phase = draw(st.floats(min_value=0.0, max_value=2 * math.pi, **finite))
    m = (lo + u * (1.0 - lo)) * math.sqrt(n * (n + 1.0)) * cmath.exp(1j * phase)
    return OneModeGaussian(n, m)


@st.composite
def word_counts(draw):
    counts = [draw(st.integers(min_value=0, max_value=2)) for _ in range(4)]
    assume(sum(counts) >= 1)
    return tuple(counts)


class TestOneModeInvariants:
    @given(physical_one_mode())
    def test_purity_in_unit_interval(self, s):
        p = purity_one_mode(s)
        assert 0.0 < p <= 1.0 + 1e-12

    @given(physical_one_mode())
    def test_purity_one_exactly_on_boundary(self, s):
        p = purity_one_mode(s)
        on_boundary = abs(abs(s.m) ** 2 - s.n * (s.n + 1.0)) <= 1e-9
        assert (p >= 1.0 - 1e-7) == on_boundary or abs(s.m) ** 2 > s.n * (s.n + 1.0) - 1e-6

    @given(physical_one_mode(n_min=1e-3))
    def test_g2_at_least_two(self, s):
        assert g2(s) >= 2.0 - 1e-12

    @given(physical_one_mode(n_min=1e-3))
    def test_g2_above_three_iff_quantum(self, s):
        assume(abs(s.n - abs(s.m)) > 1e-6)
        quantum = is_p_representable(s) is Classification.QUANTUM
        assert (g2(s) > 3.0) == quantum

    @given(physical_one_mode())
    def test_weyl_at_origin_is_one(self, s):
        assert weyl_characteristic(s, 0j) == 1.0

    @given(physical_one_mode(),
           st.floats(min_value=-2, max_value=2, **finite),
           st.floats(min_value=-2, max_value=2, **finite))
    def test_weyl_bounded_by_one(self, s, re, im):
        assert abs(weyl_characteristic(s, complex(re, im))) <= 1.0 + 1e-12

    @given(physical_one_mode())
    def test_variance_product_bound(self, s):
        dx1, dx2 = quadrature_variances(s)
        assert dx1 * dx2 >= 0.25 - 1e-9

    @given(physical_one_mode(), st.floats(min_value=0, max_value=2 * math.pi, **finite))
    def test_phase_shift_preserves_structure(self, s, lam):
        out = phase_shift(s, lam)
        assert out.n == s.n
        assert abs(out.m) == pytest.approx(abs(s.m), rel=1e-10, abs=1e-12)
        assert purity_one_mode(out) == pytest.approx(purity_one_mode(s), rel=1e-10)


class TestWickInvariants:
    @given(physical_one_mode(n_min=0.01), word_counts())
    def test_conjugate_word_gives_conjugate_value(self, s, counts):
        state = TwoModeGaussian.pair_with_phase(s, 1.1)
        word = OperatorWord.from_counts(*counts)
        a = wick_moment(state, word)
        b = wick_moment(state, word.conjugate())
        assert a.real == pytest.approx(b.real, rel=1e-10, abs=1e-10)
        assert a.imag == pytest.approx(-b.imag, rel=1e-10, abs=1e-10)

    @given(physical_one_mode(n_min=0.01))
    def test_cross_intensity_moment_nonnegative(self, s):
        # ⟨a†b†ab⟩ = ⟨(ab)†(ab)⟩ must be nonnegative.
        state = TwoModeGaussian.pair_with_phase(s, 0.7)
        value = wick_moment(state, OperatorWord.from_counts(1, 1, 1, 1))
        assert value.real >= -1e-12
        assert abs(value.imag) < 1e-12


class TestBeamSplitterInvariants:
    @given(physical_one_mode(), physical_one_mode(),
           st.floats(min_value=0, max_value=2 * math.pi, **finite))
    def test_photon_conservation(self, sa, sb, lam):
        out = beam_splitter(sa, sb, lam)
        assert 2.0 * out.n == pytest.approx(sa.n + sb.n, rel=1e-12, abs=1e-12)

    @given(physical_one_mode(), st.floats(min_value=0, max_value=2 * math.pi, **finite))
    def test_squeezing_weight_split(self, s, lam):
        out = beam_splitter(s, s, lam)
        assert abs(out.m_a) ** 2 + abs(out.m_c) ** 2 == pytest.approx(
            abs(s.m) ** 2, rel=1e-10, abs=1e-12
        )

    @given(physical_one_mode(), physical_one_mode(),
           st.floats(min_value=0, max_value=2 * math.pi, **finite))
    def test_involution(self, sa, sb, lam):
        back_a, back_b = beam_splitter_inverse(beam_splitter(sa, sb, lam), lam)
        assert back_a.m == pytest.approx(sa.m, rel=1e-9, abs=1e-10)
        assert back_b.m == pytest.approx(sb.m, rel=1e-9, abs=1e-10)


class TestVisibilityInvariants:
    @given(physical_one_mode(n_min=1e-3))
    def test_classical_states_obey_all_bounds(self, s):
        assume(abs(s.m) <= s.n)
        report = classical_inequality_report(
            visibilities_uncorrelated(s.n, abs(s.m)), InequalityContext.UNCORRELATED_PAIR)
        assert report.classical

    @given(quantum_one_mode())
    def test_quantum_states_violate_and_order(self, s):
        vis = visibilities_uncorrelated(s.n, abs(s.m))
        report = classical_inequality_report(vis, InequalityContext.UNCORRELATED_PAIR)
        assert not report.classical
        assert vis.v_minus <= vis.v_plus
        assert vis.v_minus < 0.25 < vis.v_plus
        assert vis.total > 0.5

    @given(st.floats(min_value=1e-3, max_value=2.0, **finite),
           st.floats(min_value=0.0, max_value=1.0, **finite))
    def test_epr_visibility_tracks_entanglement(self, n, frac):
        mc = frac * math.sqrt(n * (n + 1.0))
        assume(abs(mc - n) > 1e-9)
        assert (visibility_epr(n, mc).v_minus > 0.5) == epr_is_entangled(n, mc)

    @given(st.floats(min_value=0.05, max_value=2.0, **finite),
           st.floats(min_value=0.0, max_value=1.0, **finite))
    def test_werner_witness_sign_flips_at_threshold(self, n, p):
        mc_sq = n * (n + 1.0)
        threshold = werner_hbt_threshold(n)
        assume(abs(p - threshold) > 1e-9)
        value = whbt_closed_form_werner(n, math.sqrt(mc_sq), p)
        assert (value < 0) == (p > threshold)
        vis = visibility_werner(n, math.sqrt(mc_sq), p)
        assert (vis.v_minus > 0.5) == (p > threshold)

    @given(st.floats(min_value=1e-3, max_value=2.0, **finite))
    def test_pure_uncorrelated_states_always_violate(self, n):
        m = math.sqrt(n * (n + 1.0))
        vis = visibilities_uncorrelated(n, m)
        assert vis.total > 0.5
        assert vis.total == pytest.approx(
            (2 * n ** 2 + n) / (4 * n ** 2 + n), rel=1e-10
        )
