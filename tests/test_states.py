import cmath
import copy
import dataclasses
import itertools
import math
import pickle
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from squeezekit import (
    Classification,
    GaussianMixture,
    LadderToken,
    Mode,
    NonPhysicalStateError,
    NotPRepresentableError,
    OneModeGaussian,
    OperatorWord,
    TwoModeGaussian,
    WordOrderError,
    g2,
    hbt_correlation,
    is_p_representable,
    is_physical_one_mode,
    p_function_params,
    purity_one_mode,
    quadrature_variances,
    weyl_characteristic,
    wick_moment,
)
from squeezekit import fock, is_physical_two_mode, oracle_check
from squeezekit.states import MOMENT_BOUND, _counts_moment, _lowest_eigenvalue, state_record

from _fock_reference import displacement_unitary, quadrature_second_moment
from conftest import random_physical_one_mode

SQRT2 = math.sqrt(2.0)


def _pair_value(state: TwoModeGaussian, t1: LadderToken, t2: LadderToken) -> complex:
    """Second moment ⟨t1 t2⟩ for tokens in written (normally ordered) order."""
    same = t1.mode is t2.mode
    if t1.daggered and t2.daggered:
        if same:
            m = state.m_a if t1.mode is Mode.A else state.m_b
        else:
            m = state.m_c
        return -m.conjugate()
    if not t1.daggered and not t2.daggered:
        if same:
            m = state.m_a if t1.mode is Mode.A else state.m_b
        else:
            m = state.m_c
        return -m
    # Mixed pair; the daggered token comes first in a normally ordered word.
    if same:
        return complex(state.n)
    if t1.mode is Mode.A:
        return state.m_x
    return state.m_x.conjugate()


def _pairings_sum(tokens, state: TwoModeGaussian) -> complex:
    """Isserlis' theorem read literally: the sum over all (L−1)!! perfect
    pairings of the tokens.  The reference for the count recursion."""
    if not tokens:
        return 1.0 + 0j
    first = tokens[0]
    rest = tokens[1:]
    total = 0j
    for idx, other in enumerate(rest):
        v = _pair_value(state, first, other)
        if v != 0:
            total += v * _pairings_sum(rest[:idx] + rest[idx + 1:], state)
    return total


def _reference_moment(state, word: OperatorWord) -> complex:
    if isinstance(state, GaussianMixture):
        return sum(w * _reference_moment(s, word) for w, s in state.components)
    if isinstance(state, OneModeGaussian):
        state = TwoModeGaussian(state.n, state.m, 0j, 0j, 0j)
    return _pairings_sum(word.tokens, state)


def _even_words(max_len: int, modes: int = 2):
    """Every normally ordered word of even length 2..max_len."""
    for length in range(2, max_len + 1, 2):
        for i in range(length + 1):
            if modes == 1:
                yield OperatorWord.from_counts(create_a=i, annihilate_a=length - i)
                continue
            for j in range(length + 1 - i):
                for k in range(length + 1 - i - j):
                    yield OperatorWord.from_counts(i, j, k, length - i - j - k)


def _random_two_mode(rng, m_x: bool = True) -> TwoModeGaussian:
    n = float(rng.uniform(0.1, 2.0))
    bound = math.sqrt(n * (n + 1.0))
    m_a, m_b, m_c = (float(rng.uniform(0.1, 0.9)) * bound
                     * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(3))
    m_x = float(rng.uniform(0.1, 0.5)) * n * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) if m_x else 0j
    return TwoModeGaussian(n, m_a, m_b, m_c, m_x)


# Every word of even length ≤ 10 on these states takes the pairing sum
# about 1.5 s in all, so the table is computed once per session.
_WICK_RNG = np.random.default_rng(1516)
_WICK_STATES = (_random_two_mode(_WICK_RNG), _random_two_mode(_WICK_RNG),
                _random_two_mode(_WICK_RNG, m_x=False))
_REFERENCE_TABLES: dict = {}


def _reference_table(index: int) -> dict:
    if index not in _REFERENCE_TABLES:
        state = _WICK_STATES[index]
        _REFERENCE_TABLES[index] = {w: _reference_moment(state, w) for w in _even_words(10)}
    return _REFERENCE_TABLES[index]


def _assert_close(got: complex, expected: complex, word) -> None:
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), (str(word), got, expected)


class TestPhysicality:
    def test_boundary_pure_state(self):
        assert is_physical_one_mode(OneModeGaussian(1.0, complex(SQRT2)))

    def test_vacuum(self):
        assert is_physical_one_mode(OneModeGaussian(0.0, 0j))

    def test_overshooting_m_is_nonphysical(self):
        # 1.0^2 > 0.5 * 1.5
        assert not is_physical_one_mode(OneModeGaussian(0.5, 1.0 + 0j))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            OneModeGaussian(-0.1, 0j)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            OneModeGaussian(float("nan"), 0j)
        with pytest.raises(ValueError):
            OneModeGaussian(1.0, complex(float("inf"), 0.0))

    def test_pure_detection(self):
        assert OneModeGaussian(1.0, complex(SQRT2)).is_pure()
        assert not OneModeGaussian(1.0, 1.0 + 0j).is_pure()

    def test_moments_are_bounded_where_they_enter(self):
        # Fourth moments are quadratic in the stored ones; past 1e153 they
        # would overflow, so a value beyond it is rejected on entry.
        assert MOMENT_BOUND == 1e153
        OneModeGaussian(MOMENT_BOUND, complex(-MOMENT_BOUND, MOMENT_BOUND))
        TwoModeGaussian(MOMENT_BOUND, m_x=complex(MOMENT_BOUND, -MOMENT_BOUND))
        for build in (lambda: OneModeGaussian(1e154),
                      lambda: OneModeGaussian(1.0, complex(0.0, -2e153)),
                      lambda: TwoModeGaussian(1.0, m_c=complex(1e170, 0.0)),
                      lambda: TwoModeGaussian.epr(1e170, 5e169)):
            with pytest.raises(ValueError, match=r"must be finite and at most 1e\+153"):
                build()

    def test_lowest_eigenvalue_below_unit_moduli_is_the_unscaled_form(self, rng):
        # At scale 1 every operation of the scaled form is exact.
        for _ in range(2000):
            n, m = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
            unscaled = (n * (n + 1.0) - m ** 2) / (n + 0.5 + math.sqrt(0.25 + m ** 2))
            assert _lowest_eigenvalue(n, m) == unscaled, (n, m)

    @pytest.mark.parametrize("scale", [1e100, 1e170, 1e300])
    def test_lowest_eigenvalue_survives_huge_moduli(self, scale):
        # n + ½ − √(¼ + |m|²) is n − |m| to within ½ here.
        assert _lowest_eigenvalue(scale, 0.5 * scale) == pytest.approx(0.5 * scale, rel=1e-15)
        assert _lowest_eigenvalue(scale, 1.5 * scale) == pytest.approx(-0.5 * scale, rel=1e-15)


class TestClassification:
    def test_thermal_dominated_is_classical(self):
        assert is_p_representable(OneModeGaussian(1.0, 0.5 + 0j)) is Classification.CLASSICAL

    def test_line_is_boundary(self):
        assert is_p_representable(OneModeGaussian(1.0, 1.0 + 0j)) is Classification.BOUNDARY

    def test_squeezing_dominated_is_quantum(self):
        assert is_p_representable(OneModeGaussian(0.12, 0.29 + 0j)) is Classification.QUANTUM

    def test_phase_of_m_is_irrelevant(self):
        s = OneModeGaussian(1.0, 0.5 * cmath.exp(2.1j))
        assert is_p_representable(s) is Classification.CLASSICAL

    def test_nonphysical_input_raises(self):
        with pytest.raises(NonPhysicalStateError):
            is_p_representable(OneModeGaussian(0.5, 1.0 + 0j))

    @pytest.mark.parametrize("n, m_abs", [(1.0, 0.8), (1.0, 1.2), (0.5, 0.3), (0.5, 0.7),
                                          (0.3, 0.5)])
    def test_verdict_matches_the_oracle_quadratures(self, n, m_abs):
        # Independent oracle: a Gaussian state has a regular P density iff
        # no quadrature variance falls below the vacuum level ½.  The
        # smallest variance over a grid of angles is read off the cutoff-60
        # density, not from the closed form's n ≥ |m| rule.
        s = OneModeGaussian(n, m_abs * cmath.exp(0.7j))
        rho = fock.one_mode_density(s, 60)
        lowest = min(quadrature_second_moment(rho, cmath.exp(-1j * angle))
                     for angle in np.linspace(0.0, math.pi, 181))
        assert abs(lowest - 0.5) > 0.1
        expected = Classification.CLASSICAL if lowest > 0.5 else Classification.QUANTUM
        assert is_p_representable(s) is expected


class TestPFunction:
    def test_thermal_width(self):
        params = p_function_params(OneModeGaussian(1.0, 0j))
        assert params.d == pytest.approx(1.0, abs=1e-15)
        assert params.coeff_nn == pytest.approx(-1.0, abs=1e-15)

    def test_squeezed_thermal_width(self):
        params = p_function_params(OneModeGaussian(2.0, 1.0 + 0j))
        assert params.d == pytest.approx(3.0, abs=1e-15)

    def test_quantum_state_rejected(self):
        with pytest.raises(NotPRepresentableError):
            p_function_params(OneModeGaussian(0.12, 0.29 + 0j))

    def test_boundary_state_rejected(self):
        with pytest.raises(NotPRepresentableError):
            p_function_params(OneModeGaussian(1.0, 1.0 + 0j))

    @pytest.mark.parametrize("n,m", [(1.0, 0.0), (2.0, 1.0 + 0.5j), (0.7, 0.3j)])
    def test_density_normalization_and_moments_by_quadrature(self, n, m):
        # Independent oracle: brute-force 2D quadrature over the complex plane.
        params = p_function_params(OneModeGaussian(n, complex(m)))
        half = 6.0 * math.sqrt(n + 1.0)
        grid = np.linspace(-half, half, 601)
        dx = grid[1] - grid[0]
        re, im = np.meshgrid(grid, grid)
        alpha = re + 1j * im
        dens = (
            np.exp(params.coeff_nn * np.abs(alpha) ** 2
                   + 2.0 * (params.coeff_sq * np.conj(alpha) ** 2).real)
            / (math.pi * math.sqrt(params.d))
        )
        weight = dens * dx * dx
        assert weight.sum() == pytest.approx(1.0, abs=1e-6)
        assert (weight * np.abs(alpha) ** 2).sum() == pytest.approx(n, abs=1e-6)
        mean_sq = (weight * alpha ** 2).sum()
        assert mean_sq == pytest.approx(-m, abs=1e-6)

    def test_density_method_matches_formula(self):
        params = p_function_params(OneModeGaussian(1.5, 0.4 + 0.2j))
        alpha = 0.3 - 0.7j
        expected = math.exp(
            params.coeff_nn * abs(alpha) ** 2
            + 2.0 * (params.coeff_sq * alpha.conjugate() ** 2).real
        ) / (math.pi * math.sqrt(params.d))
        assert params.density(alpha) == pytest.approx(expected, rel=1e-15)


class TestWeylCharacteristic:
    def test_normalization_is_exact(self):
        assert weyl_characteristic(OneModeGaussian(0.7, 0.3 + 0.1j), 0j) == 1.0

    def test_vacuum(self):
        assert weyl_characteristic(OneModeGaussian(0, 0j), 1.0 + 0j) == pytest.approx(
            math.exp(-0.5), rel=1e-14
        )

    def test_squeezed_value(self):
        got = weyl_characteristic(OneModeGaussian(1.0, 1.0 + 0j), 1.0 + 0j)
        assert got == pytest.approx(math.exp(-2.5), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5 + 0j, 0.3 - 0.4j, 1j])
    def test_against_displacement_trace(self, alpha):
        # Independent oracle: Tr{ρ D(α)} with explicit matrices at cutoff 40.
        s = OneModeGaussian(0.8, 0.6 * cmath.exp(0.9j))
        rho = fock.one_mode_density(s, 40)
        disp = displacement_unitary(40, alpha)
        oracle = np.trace(rho.matrix @ disp)
        assert weyl_characteristic(s, alpha) == pytest.approx(oracle, abs=1e-8)

    def test_nonphysical_raises(self):
        with pytest.raises(NonPhysicalStateError):
            weyl_characteristic(OneModeGaussian(0.5, 1.0 + 0j), 0.1 + 0j)


class TestQuadratures:
    def test_vacuum(self):
        assert quadrature_variances(OneModeGaussian(0, 0j)) == (0.5, 0.5)

    def test_boundary_classical_reaches_vacuum_level(self):
        dx1, dx2 = quadrature_variances(OneModeGaussian(1.0, 1.0 + 0j))
        assert dx1 == pytest.approx(0.5, abs=1e-15)
        assert dx2 == pytest.approx(2.5, abs=1e-15)

    def test_pure_state_squeezes_below_vacuum(self):
        dx1, dx2 = quadrature_variances(OneModeGaussian(1.0, complex(SQRT2)))
        assert dx1 == pytest.approx(1.5 - SQRT2, abs=1e-15)
        assert dx2 == pytest.approx(1.5 + SQRT2, abs=1e-15)
        assert dx1 < 0.5

    def test_product_bound(self, rng):
        for _ in range(200):
            s = random_physical_one_mode(rng, frac_max=1.0)
            dx1, dx2 = quadrature_variances(s)
            assert dx1 * dx2 >= 0.25 - 1e-9

    def test_variances_match_the_oracle(self):
        # Independent oracle: ⟨X₁²⟩ and ⟨X₂²⟩ from the dense cutoff-40
        # density and the tests' own ladder matrix, on the suite's draws.
        draws = np.random.default_rng(5)
        for _ in range(30):
            s = oracle_check.random_one_mode(draws)
            rho = fock.one_mode_density(s, 40)
            oracle = [quadrature_second_moment(rho, mode) for mode in (1.0, -1j)]
            assert quadrature_variances(s) == pytest.approx(oracle, abs=1e-6), s


class TestG2AndPurity:
    def test_thermal_g2(self):
        assert g2(OneModeGaussian(1.0, 0j)) == pytest.approx(2.0, abs=1e-15)

    def test_border_g2(self):
        assert g2(OneModeGaussian(1.0, 1.0 + 0j)) == pytest.approx(3.0, abs=1e-15)

    def test_g2_formula(self):
        assert g2(OneModeGaussian(0.12, 0.29 + 0j)) == pytest.approx(
            2.0 + (0.29 / 0.12) ** 2, rel=1e-14
        )

    def test_g2_vacuum_raises(self):
        with pytest.raises(ZeroDivisionError):
            g2(OneModeGaussian(0.0, 0j))

    def test_quantum_band(self, rng):
        for _ in range(100):
            s = random_physical_one_mode(rng, frac_max=1.0)
            if is_p_representable(s) is Classification.QUANTUM:
                assert 3.0 < g2(s) <= 3.0 + 1.0 / s.n + 1e-9

    def test_vacuum_purity(self):
        assert purity_one_mode(OneModeGaussian(0, 0j)) == pytest.approx(1.0, abs=1e-15)

    def test_thermal_purity(self):
        assert purity_one_mode(OneModeGaussian(1.0, 0j)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_purity_is_within_two_ulp_of_the_exact_value(self, rng):
        # ((n − |m|) + ½)(n + |m| + ½) does not cancel; (n + ½)² − |m|²
        # strayed up to 10 ulp from the exact value on these draws.
        with localcontext() as context:
            context.prec = 50
            for _ in range(2000):
                s = random_physical_one_mode(rng, n_max=100.0)
                nu2 = (Fraction(s.n) + Fraction(1, 2)) ** 2 - Fraction(abs(s.m)) ** 2
                nu = (Decimal(nu2.numerator) / Decimal(nu2.denominator)).sqrt()
                exact = float(1 / (2 * nu))
                assert abs(purity_one_mode(s) - exact) <= 2 * math.ulp(exact), s

    def test_band_and_huge_states_have_a_purity(self):
        # In the gate's band above n(n+1) the state is built from Γ − λI,
        # a pure state; at 1e153 the squares no longer cancel to 0.
        assert purity_one_mode(OneModeGaussian(1e9, 1000000000.5 + 0j)) == 1.0
        assert purity_one_mode(OneModeGaussian(1e153, cmath.rect(1e153, 0.3))) == (
            pytest.approx(0.5 / math.sqrt(1e153), rel=1e-15))

    def test_pure_states_have_unit_purity(self, rng):
        for _ in range(50):
            n = float(rng.uniform(0.05, 2.0))
            s = OneModeGaussian(n, math.sqrt(n * (n + 1.0)) * cmath.exp(1j * rng.uniform(0, 7)))
            assert purity_one_mode(s) == pytest.approx(1.0, abs=1e-9)


class TestOperatorWord:
    def test_parse_and_render(self):
        word = OperatorWord.parse("ad bd a b")
        assert str(word) == "a† b† a b"
        assert word.counts() == (1, 1, 1, 1)

    def test_parse_dagger_symbol(self):
        assert OperatorWord.parse("a† a").counts() == (1, 0, 1, 0)

    def test_normal_order_enforced(self):
        with pytest.raises(WordOrderError):
            OperatorWord.parse("a ad")
        with pytest.raises(WordOrderError):
            OperatorWord.parse("a b bd")

    def test_conjugate_is_normally_ordered(self):
        word = OperatorWord.parse("ad ad b b")
        conj = word.conjugate()
        assert conj.counts() == (0, 2, 2, 0)

    def test_length_limit(self):
        with pytest.raises(ValueError):
            OperatorWord.from_counts(create_a=9, annihilate_a=9)

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            OperatorWord.parse("c")


class TestWickMoment:
    def test_second_moment_is_stored_field(self):
        s = TwoModeGaussian(1.0, 0.2 + 0.1j, 0.3 + 0j, 0.1 - 0.2j, 0.05 + 0j)
        assert wick_moment(s, OperatorWord.parse("ad a")) == pytest.approx(1.0)
        assert wick_moment(s, OperatorWord.parse("a a")) == pytest.approx(-s.m_a)
        assert wick_moment(s, OperatorWord.parse("b b")) == pytest.approx(-s.m_b)
        assert wick_moment(s, OperatorWord.parse("a b")) == pytest.approx(-s.m_c)
        assert wick_moment(s, OperatorWord.parse("ad b")) == pytest.approx(s.m_x)
        assert wick_moment(s, OperatorWord.parse("bd a")) == pytest.approx(s.m_x.conjugate())

    def test_fourth_order_closed_forms(self, rng):
        # Hand-enumerated pairing sums for the standard fourth and sixth
        # order words.
        for _ in range(25):
            s = random_physical_one_mode(rng, frac_max=1.0)
            n, m = s.n, s.m
            got = wick_moment(s, OperatorWord.parse("ad ad a a"))
            assert got == pytest.approx(2.0 * n ** 2 + abs(m) ** 2, rel=1e-12)
            got6 = wick_moment(s, OperatorWord.parse("ad ad ad a a a"))
            assert got6 == pytest.approx(6.0 * n ** 3 + 9.0 * n * abs(m) ** 2, rel=1e-12)
            gota6 = wick_moment(s, OperatorWord.parse("a a a a a a"))
            assert gota6 == pytest.approx(15.0 * (-m) ** 3, rel=1e-12)

    def test_epr_cross_moment(self):
        s = TwoModeGaussian.epr(1.0, 1.3 + 0j)
        got = wick_moment(s, OperatorWord.parse("ad bd a b"))
        assert got == pytest.approx(1.0 + 1.69, rel=1e-14)

    def test_eight_token_word(self):
        # Thermal factorial moment ⟨a†⁴a⁴⟩ = 4!·n⁴, a sum of 105 pairings.
        s = OneModeGaussian(1.3, 0j)
        got = wick_moment(s, OperatorWord.from_counts(create_a=4, annihilate_a=4))
        assert got == pytest.approx(24.0 * 1.3 ** 4, rel=1e-12)

    def test_sixteen_token_words(self):
        # 15!! = 2 027 025 pairings each; closed forms pin the recursion.
        thermal = OneModeGaussian(1.7, 0j)
        got = wick_moment(thermal, OperatorWord.from_counts(create_a=8, annihilate_a=8))
        assert got == pytest.approx(math.factorial(8) * 1.7 ** 8, rel=1e-12)
        squeezed = OneModeGaussian(0.8, 0.6 * cmath.exp(0.9j))
        got = wick_moment(squeezed, OperatorWord.from_counts(annihilate_a=16))
        assert got == pytest.approx(2027025 * (-squeezed.m) ** 8, rel=1e-12)
        got = wick_moment(squeezed, OperatorWord.from_counts(create_a=16))
        assert got == pytest.approx(2027025 * (-squeezed.m.conjugate()) ** 8, rel=1e-12)

    @pytest.mark.parametrize("index", range(len(_WICK_STATES)))
    def test_matches_pairing_sum_on_two_mode_states(self, index):
        state = _WICK_STATES[index]
        for word, expected in _reference_table(index).items():
            _assert_close(wick_moment(state, word), expected, word)

    def test_matches_pairing_sum_on_mixture(self):
        mix = GaussianMixture(((0.3, _WICK_STATES[0]), (0.7, _WICK_STATES[1])))
        tables = _reference_table(0), _reference_table(1)
        for word in tables[0]:
            expected = 0.3 * tables[0][word] + 0.7 * tables[1][word]
            _assert_close(wick_moment(mix, word), expected, word)

    def test_matches_pairing_sum_on_one_mode_states(self, rng):
        for _ in range(5):
            s = random_physical_one_mode(rng, n_max=2.0, frac_max=1.0)
            for word in _even_words(10, modes=1):
                _assert_close(wick_moment(s, word), _reference_moment(s, word), word)
        thermal = OneModeGaussian(0.9, 0j)
        for word in _even_words(10, modes=1):
            _assert_close(wick_moment(thermal, word), _reference_moment(thermal, word), word)

    def test_odd_words_vanish(self):
        s = TwoModeGaussian(1.0, 0.4 + 0j, 0.4 + 0j, 0.2 + 0j, 0j)
        assert wick_moment(s, OperatorWord.parse("ad a a")) == 0
        assert wick_moment(s, OperatorWord.parse("b")) == 0

    def test_conjugate_words_are_conjugate_values(self, rng):
        s = TwoModeGaussian(0.9, 0.5 * cmath.exp(0.7j), 0.5 * cmath.exp(2.0j),
                            0.3 * cmath.exp(-1.1j), 0.1 * cmath.exp(0.4j))
        for counts in [(2, 0, 0, 2), (1, 1, 2, 0), (2, 1, 1, 2), (3, 0, 1, 2)]:
            word = OperatorWord.from_counts(*counts)
            left = wick_moment(s, word)
            right = wick_moment(s, word.conjugate())
            assert left == pytest.approx(right.conjugate(), rel=1e-12, abs=1e-12)

    def test_general_state_cross_squeeze_moment(self):
        # ⟨a†²b²⟩ = m² e^{i(λ2−λ1)} for the equal-magnitude family, checked
        # against the Fock oracle.
        state = TwoModeGaussian(1.0, 1.0 + 0j, 1.0 * cmath.exp(1j * math.pi / 2),
                                0.5 + 0j, 0j)
        word = OperatorWord.from_counts(create_a=2, annihilate_b=2)
        got = wick_moment(state, word)
        # two pairings: ⟨a†b⟩² (zero here) + ⟨a†²⟩⟨b²⟩
        expected = cmath.exp(1j * math.pi / 2)
        assert got == pytest.approx(expected, rel=1e-14)
        # This state's hot quadrature needs a slightly relaxed trace gate at
        # cutoff 30; the moment tolerance stays at 1e-4.
        rho = fock.two_mode_density(state, 30, eps_tr=1e-5)
        oracle = fock.moment(rho, word)
        assert abs(oracle - got) / (1 + abs(got)) < 1e-4

    def test_one_mode_rejects_mode_b(self):
        with pytest.raises(ValueError):
            wick_moment(OneModeGaussian(1.0, 0j), OperatorWord.parse("bd b"))

    def test_mixture_moments_are_affine(self):
        epr = TwoModeGaussian.epr(1.0, 1.2 + 0j)
        thermal = TwoModeGaussian.thermal_pair(1.0)
        word = OperatorWord.parse("ad bd a b")
        for p in (0.25, 0.5, 0.8):
            mix = GaussianMixture(((p, epr), (1.0 - p, thermal)))
            expected = p * wick_moment(epr, word) + (1 - p) * wick_moment(thermal, word)
            assert wick_moment(mix, word) == pytest.approx(expected, rel=1e-14)


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        epr = TwoModeGaussian.epr(1.0, 1.0 + 0j)
        with pytest.raises(ValueError):
            GaussianMixture(((0.5, epr), (0.4, epr)))

    def test_weights_must_be_positive(self):
        epr = TwoModeGaussian.epr(1.0, 1.0 + 0j)
        with pytest.raises(ValueError):
            GaussianMixture(((1.5, epr), (-0.5, epr)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(())


class TestTwoModeConstructors:
    def test_uncorrelated_pair_requires_equal_n(self):
        with pytest.raises(ValueError):
            TwoModeGaussian.uncorrelated_pair(OneModeGaussian(1.0, 0j), OneModeGaussian(0.5, 0j))

    def test_pair_with_phase(self):
        s = OneModeGaussian(1.0, 0.5 + 0j)
        pair = TwoModeGaussian.pair_with_phase(s, math.pi / 2)
        assert pair.m_a == pytest.approx(0.5)
        assert pair.m_b == pytest.approx(0.5j)

    def test_marginals(self):
        st = TwoModeGaussian(0.8, 0.1 + 0j, 0.2j, 0.3 + 0j, 0j)
        assert st.marginal_a() == OneModeGaussian(0.8, 0.1 + 0j)
        assert st.marginal_b() == OneModeGaussian(0.8, 0.2j)


def _bits(z: complex) -> tuple[str, str]:
    return float(z.real).hex(), float(z.imag).hex()


def _fresh_moment(state, counts) -> complex:
    """The moment from an empty memo, as if the state had never been asked."""
    if sum(counts) % 2:
        return 0j
    if isinstance(state, GaussianMixture):
        return sum(w * _fresh_moment(s, counts) for w, s in state.components)
    if isinstance(state, OneModeGaussian):
        moments = (state.n, state.m, 0j, 0j, 0j)
    else:
        moments = (state.n, state.m_a, state.m_b, state.m_c, state.m_x)
    return _counts_moment(moments, {}, *counts)


def _shuffled_counts(max_len: int, seed: int, modes: int = 2):
    counts = [c for c in itertools.product(range(max_len + 1), repeat=4)
              if sum(c) <= max_len and (modes == 2 or not (c[1] or c[3]))]
    np.random.default_rng(seed).shuffle(counts)
    return counts


class TestStateRecord:
    """The count memo and the physicality verdict belong to the state value."""

    @pytest.mark.parametrize("make", [
        lambda: OneModeGaussian(0.8, 0.6 * cmath.exp(0.9j)),
        lambda: TwoModeGaussian(0.9, 0.5 * cmath.exp(0.7j), 0.4 * cmath.exp(2.0j),
                                0.3 * cmath.exp(-1.1j), 0.1 * cmath.exp(0.4j)),
        lambda: GaussianMixture(((0.35, TwoModeGaussian.epr(1.0, 1.3 + 0j)),
                                 (0.65, _random_two_mode(np.random.default_rng(7))))),
    ], ids=["one-mode", "two-mode", "mixture"])
    def test_shuffled_words_match_an_empty_memo_bitwise(self, make):
        state = make()
        modes = 1 if isinstance(state, OneModeGaussian) else 2
        for seed in (1, 2):   # the second pass reads every tuple from the memo
            for counts in _shuffled_counts(12, seed, modes):
                got = wick_moment(state, OperatorWord.from_counts(*counts))
                assert _bits(got) == _bits(_fresh_moment(state, counts)), counts

    def test_memo_is_bounded_by_the_word_limit(self):
        state = TwoModeGaussian(0.9, 0.5 + 0j, 0.4j, 0.3 + 0j, 0.1j)
        for counts in _shuffled_counts(16, 3):
            wick_moment(state, OperatorWord.from_counts(*counts))
        # Every key has more than two tokens, and at most 16.
        assert 0 < len(state_record(state).counts) <= math.comb(20, 4)
        assert all(2 < sum(key) <= 16 for key in state_record(state).counts)

    @pytest.mark.parametrize("a, b", [
        (TwoModeGaussian.epr(1.0, 1.2 + 0j), TwoModeGaussian(1.0, m_c=1.2 + 0j)),
        (TwoModeGaussian.thermal_pair(0.7), TwoModeGaussian(0.7)),
        (TwoModeGaussian.uncorrelated_pair(OneModeGaussian(0.8, 0.3j), OneModeGaussian(0.8, 0.5)),
         TwoModeGaussian(0.8, 0.3j, 0.5 + 0j)),
        (OneModeGaussian.thermal(0.9), OneModeGaussian(0.9)),
        (TwoModeGaussian(0.8, 0.1 + 0j, 0.2j).marginal_b(), OneModeGaussian(0.8, 0.2j)),
    ])
    def test_equal_states_from_different_constructors_agree(self, a, b):
        assert a == b and hash(a) == hash(b)
        modes = 1 if isinstance(a, OneModeGaussian) else 2
        words = [OperatorWord.from_counts(*c) for c in _shuffled_counts(8, 4, modes)]
        first = [wick_moment(a, w) for w in words]
        assert state_record(a) is not state_record(b)
        assert [_bits(wick_moment(b, w)) for w in words] == [_bits(v) for v in first]
        assert [_bits(wick_moment(a, w)) for w in words] == [_bits(v) for v in first]

    @pytest.mark.parametrize("make", [
        lambda: OneModeGaussian(0.8, 0.6 * cmath.exp(0.9j)),
        lambda: TwoModeGaussian(0.9, 0.5 + 0j, 0.4j, 0.3 + 0j, 0.1j),
    ], ids=["one-mode", "two-mode"])
    def test_value_semantics_survive_evaluation(self, make):
        state, twin = make(), make()
        before = (repr(state), hash(state), dataclasses.asdict(state),
                  [f.name for f in dataclasses.fields(state)], pickle.dumps(state))
        modes = 1 if isinstance(state, OneModeGaussian) else 2
        for counts in _shuffled_counts(10, 5, modes):
            wick_moment(state, OperatorWord.from_counts(*counts))
        if modes == 2:
            is_physical_two_mode(state)
        after = (repr(state), hash(state), dataclasses.asdict(state),
                 [f.name for f in dataclasses.fields(state)], pickle.dumps(state))
        assert after == before
        assert state == twin and hash(state) == hash(twin)
        for clone in (pickle.loads(before[-1]), pickle.loads(after[-1]),
                      copy.copy(state), copy.deepcopy(state), dataclasses.replace(state)):
            assert clone == state and "_record" not in vars(clone)
        changed = dataclasses.replace(state, n=state.n + 1.0)
        word = OperatorWord.from_counts(create_a=1, annihilate_a=1)
        assert wick_moment(changed, word) == pytest.approx(state.n + 1.0)

    def test_one_mode_state_still_rejects_mode_b_after_evaluation(self):
        s = OneModeGaussian(1.0, 0.3 + 0j)
        wick_moment(s, OperatorWord.parse("ad ad a a"))
        for _ in range(2):
            with pytest.raises(ValueError, match="mode b"):
                wick_moment(s, OperatorWord.parse("bd b"))

    def test_unsupported_state_is_a_type_error(self):
        for bad in (object(), 1.0, (1.0, 0j)):
            with pytest.raises(TypeError, match="unsupported state type"):
                wick_moment(bad, OperatorWord.parse("ad a"))

    def test_threads_sharing_one_state_see_fresh_values(self):
        state = TwoModeGaussian(1.1, 0.6 * cmath.exp(0.3j), 0.5 * cmath.exp(1.7j),
                                0.4 * cmath.exp(-0.8j), 0.2 * cmath.exp(2.2j))
        expected = {c: _bits(_fresh_moment(state, c)) for c in _shuffled_counts(10, 0)}
        # The fourth-order record the fringe reads is kept with the value too.
        fringe = {seed: hbt_correlation(dataclasses.replace(state), 0.1 * seed, 0.7).hex()
                  for seed in range(6)}
        mismatches = []

        def evaluate(seed):
            for counts in _shuffled_counts(10, seed):
                if _bits(wick_moment(state, OperatorWord.from_counts(*counts))) != expected[counts]:
                    mismatches.append(counts)
                if hbt_correlation(state, 0.1 * seed, 0.7).hex() != fringe[seed]:
                    mismatches.append(("fringe", seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
