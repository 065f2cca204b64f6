import ast
import cmath
import copy
import functools
import inspect
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from squeezekit import (
    GaussianMixture,
    NonPhysicalStateError,
    OneModeGaussian,
    OperatorWord,
    TwoModeGaussian,
    WitnessKind,
    beam_splitter,
    bs_output_is_separable,
    is_separable,
    mode_rotation,
    purity_one_mode,
    w2_expectation,
    werner_mix,
    whbt_closed_form_epr,
    wick_moment,
)
from squeezekit import cli, fock
from squeezekit.oracle_check import (
    DEFAULT_SEED,
    MOMENT_RTOL,
    relative_error,
    run_concordance_suite,
)
from squeezekit.separability import _moment_matrix

import _fock_reference
from _fock_reference import (
    annihilation,
    beam_splitter_unitary,
    candidate_weight_summary,
    displacement_unitary,
    expm_antihermitian,
    plan_two_mode,
    recurrence_entries,
    solve_squeezed_thermal,
    squeeze_unitary,
    thermal_weights,
    two_mode_squeeze_unitary,
)
from conftest import parity_graded_density, random_physical_one_mode

SQRT2 = math.sqrt(2.0)


def _expm_taylor(g, scalings=12, terms=40):
    # Independent matrix exponential: scaling and squaring with a plain
    # Taylor series.
    m = g / (2.0 ** scalings)
    out = np.eye(g.shape[0], dtype=complex)
    term = np.eye(g.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    for _ in range(scalings):
        out = out @ out
    return out


class TestLadderOperators:
    """The reference's truncated ladder matrix, and the oracle's closed-form
    bands against its products."""

    def test_annihilation_matrix(self):
        a = annihilation(4)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2.0))
        assert a[2, 3] == pytest.approx(math.sqrt(3.0))
        assert np.count_nonzero(a) == 3

    def test_commutator_on_retained_block(self):
        a = annihilation(30)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[:29, :29], np.eye(29)[:29, :29] * 1.0)

    def test_closed_form_bands_are_the_matrix_products(self):
        # Every band a truncation-safe word can use, i + k ≤ cutoff/2, at
        # cutoffs 2–80 is the band of the truncated product (a†)^i a^k of
        # the reference's matrix powers, bit for bit: row min(i, k) of the
        # band rows of shift i − k, at the columns s whose entry
        # (s + i − k, s) lies in the matrix, and zero elsewhere.
        for cutoff in range(2, 81):
            a = annihilation(cutoff).real
            powers = [np.eye(cutoff)]
            for _ in range(cutoff // 2):
                powers.append(powers[-1] @ a)
            for i in range(cutoff // 2 + 1):
                for k in range(cutoff // 2 + 1 - i):
                    expected = np.diagonal(powers[i].T @ powers[k], k - i)
                    row = fock._band_rows(cutoff, i - k, min(i, k) + 1)[min(i, k)]
                    inside = slice(max(0, k - i), cutoff - max(0, i - k))
                    got = row[inside]
                    assert got.shape == expected.shape, (cutoff, i, k)
                    assert got.tobytes() == expected.tobytes(), (cutoff, i, k)
                    row[inside] = 0.0
                    assert not np.any(row), (cutoff, i, k)


class TestUnitaries:
    """The dense reference unitaries of ``_fock_reference`` against an
    independent exponential."""

    def test_squeeze_is_exactly_unitary(self):
        u = squeeze_unitary(40, 0.7, 0.8)
        assert np.max(np.abs(u.conj().T @ u - np.eye(40))) < 1e-12

    def test_squeeze_matches_taylor_series(self):
        cutoff, r, phi = 14, 0.35, 1.1
        a = annihilation(cutoff)
        xi = r * cmath.exp(1j * phi)
        g = 0.5 * (np.conj(xi) * (a @ a) - xi * (a.conj().T @ a.conj().T))
        assert np.max(np.abs(squeeze_unitary(cutoff, r, phi) - _expm_taylor(g))) < 1e-10

    def test_beam_splitter_matches_taylor_series(self):
        # The dense 50/50 mixer with its output rotation e^{i(λ+π) n_b}.
        cutoff, lam = 8, 0.9
        a = annihilation(cutoff)
        ad = a.conj().T
        phase = cmath.exp(1j * lam)
        g = (math.pi / 4.0) * (phase * np.kron(ad, a) - np.conj(phase) * np.kron(a, ad))
        _, nb = _labels(cutoff)
        expected = np.exp(1j * (lam + math.pi) * nb)[:, None] * _expm_taylor(g)
        assert np.max(np.abs(beam_splitter_unitary(cutoff, lam) - expected)) < 1e-9

    def test_two_mode_squeeze_matches_taylor_series(self):
        # The reference of ``test_tms_matches_dense_reference``.
        cutoff, r, phi = 8, 0.4, -0.7
        a = annihilation(cutoff)
        ad = a.conj().T
        xi = r * cmath.exp(1j * phi)
        g = np.conj(xi) * np.kron(a, a) - xi * np.kron(ad, ad)
        got = two_mode_squeeze_unitary(cutoff, r, phi)
        assert np.max(np.abs(got - _expm_taylor(g))) < 1e-10


class TestOneModeDensity:
    def test_vacuum(self):
        rho = fock.one_mode_density(OneModeGaussian(0.0, 0j), 10)
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-14)

    def test_thermal_geometric_law(self):
        rho = fock.one_mode_density(OneModeGaussian(1.0, 0j), 40)
        diag = rho.diagonal()
        ks = np.arange(40)
        assert np.allclose(diag, 0.5 * 0.5 ** ks, atol=1e-12)
        n1 = fock.moment(rho, OperatorWord.parse("ad a"))
        assert n1.real == pytest.approx(1.0, abs=1e-6)

    def test_second_moments_match_parameters(self, rng):
        for _ in range(10):
            s = random_physical_one_mode(rng, n_max=1.2, frac_max=0.9)
            rho = fock.one_mode_density(s, 40)
            assert fock.moment(rho, OperatorWord.parse("ad a")) == pytest.approx(s.n, abs=1e-6)
            assert fock.moment(rho, OperatorWord.parse("a a")) == pytest.approx(-s.m, abs=1e-6)

    def test_g2_of_experimental_state(self):
        s = OneModeGaussian(0.12041666666666662, 0.28708333333333336 + 0j)
        rho = fock.one_mode_density(s, 40)
        n1 = fock.moment(rho, OperatorWord.parse("ad a")).real
        n2 = fock.moment(rho, OperatorWord.parse("ad ad a a")).real
        assert n2 / n1 ** 2 == pytest.approx(7.68, abs=1e-2)
        assert n2 / n1 ** 2 == pytest.approx(7.683851965373983, abs=1e-4)

    def test_purity_matches_closed_form(self, rng):
        for _ in range(10):
            s = random_physical_one_mode(rng, n_max=1.2, frac_max=0.9)
            rho = fock.one_mode_density(s, 40)
            assert rho.purity() == pytest.approx(purity_one_mode(s), abs=1e-6)

    def test_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            fock.one_mode_density(OneModeGaussian(0.5, 1.0 + 0j), 20)

    def test_convergence_error_carries_deficit(self):
        with pytest.raises(fock.ConvergenceError) as err:
            fock.one_mode_density(OneModeGaussian(2.5, 0j), 15)
        assert err.value.deficit > 1e-6

    def test_deficit_decreases_with_cutoff(self):
        s = OneModeGaussian(1.4, 0.5 + 0j)
        deficits = [
            fock.one_mode_density(s, cutoff, eps_tr=1.0).trace_deficit
            for cutoff in (15, 25, 40)
        ]
        assert deficits[0] > deficits[1] > deficits[2] >= 0.0

    def test_diagonal_entries_nonnegative_for_physical_states(self, rng):
        for _ in range(5):
            s = random_physical_one_mode(rng, n_max=1.0, frac_max=0.9)
            rho = fock.one_mode_density(s, 30)
            assert rho.diagonal().min() >= -1e-8
        two = fock.two_mode_density(TwoModeGaussian.epr(1.0, 1.2 + 0j), 25)
        assert two.diagonal().min() >= -1e-8


class TestTwoModeDensity:
    def test_thermal_product(self):
        rho = fock.two_mode_density(TwoModeGaussian.thermal_pair(0.5), 25)
        one = fock.one_mode_density(OneModeGaussian(0.5, 0j), 25)
        assert np.allclose(rho.matrix, np.kron(one.matrix, one.matrix), atol=1e-12)

    def test_epr_boundary_state_is_pure(self):
        rho = fock.two_mode_density(TwoModeGaussian.epr(1.0, complex(SQRT2)), 40)
        assert rho.purity() >= 1.0 - 1e-4

    def test_bs_route_equals_tms_route(self):
        # The same cross-correlated state assembled through the two-mode
        # squeezer and as a beam-splitter image of opposite squeezed states.
        mc = 0.9
        tms = fock.two_mode_density(TwoModeGaussian.epr(1.0, complex(mc)), 30)
        bs = parity_graded_density(beam_splitter(OneModeGaussian(1.0, complex(mc)),
                                                 OneModeGaussian(1.0, complex(-mc)), 0.0), 30)
        assert np.max(np.abs(tms.matrix - bs.matrix)) < 1e-8

    def test_bs_output_matches_epr_entrywise(self):
        s = OneModeGaussian(1.0, complex(SQRT2))
        rho_bs = parity_graded_density(beam_splitter(s, s, math.pi / 2), 40)
        rho_epr = fock.two_mode_density(TwoModeGaussian.epr(1.0, complex(SQRT2)), 40)
        assert np.max(np.abs(rho_bs.matrix - rho_epr.matrix)) < 1e-6

    def test_second_moments_match_fields(self, rng):
        words = {
            "n_a": OperatorWord.parse("ad a"),
            "n_b": OperatorWord.parse("bd b"),
            "m_a": OperatorWord.parse("a a"),
            "m_b": OperatorWord.parse("b b"),
            "m_c": OperatorWord.parse("a b"),
            "m_x": OperatorWord.parse("ad b"),
        }
        for _ in range(5):
            sa = random_physical_one_mode(rng, n_max=1.0, frac_max=0.8)
            sb = random_physical_one_mode(rng, n_max=1.0, frac_max=0.8)
            state = beam_splitter(sa, sb, float(rng.uniform(0, 2 * math.pi)))
            rho = fock.two_mode_density(state, 40)
            assert fock.moment(rho, words["n_a"]) == pytest.approx(state.n, abs=1e-4)
            assert fock.moment(rho, words["n_b"]) == pytest.approx(state.n, abs=1e-4)
            assert fock.moment(rho, words["m_a"]) == pytest.approx(-state.m_a, abs=1e-4)
            assert fock.moment(rho, words["m_b"]) == pytest.approx(-state.m_b, abs=1e-4)
            assert fock.moment(rho, words["m_c"]) == pytest.approx(-state.m_c, abs=1e-4)
            assert fock.moment(rho, words["m_x"]) == pytest.approx(state.m_x, abs=1e-4)

    def test_werner_mixture_density(self):
        mixture = werner_mix(TwoModeGaussian.epr(0.8, 0.9 + 0j), 0.6)
        rho = fock.two_mode_density(mixture, 30)
        epr = fock.two_mode_density(TwoModeGaussian.epr(0.8, 0.9 + 0j), 30)
        thermal = fock.two_mode_density(TwoModeGaussian.thermal_pair(0.8), 30)
        assert np.allclose(rho.matrix, 0.6 * epr.matrix + 0.4 * thermal.matrix, atol=1e-12)

    def test_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            fock.two_mode_density(TwoModeGaussian.epr(1.0, 1.5 + 0j), 25)

    def test_generic_pattern_builds(self):
        # Unequal squeezing magnitudes beside a cross correlation: no
        # product, tms or beam-splitter pattern, and no mode-swap symmetry.
        state = TwoModeGaussian(1.0, 0.5 + 0j, 0.1 + 0j, 0.2 + 0j, 0.1j)
        rho = fock.two_mode_density(state, 40)
        assert rho.route == "recurrence" and rho._origin.swap_phase is None
        for text, expected in (("ad a", state.n), ("bd b", state.n), ("a a", -state.m_a),
                               ("b b", -state.m_b), ("a b", -state.m_c), ("ad b", state.m_x)):
            assert fock.moment(rho, OperatorWord.parse(text)) == pytest.approx(expected, abs=1e-6)
        assert rho.min_eigenvalue() >= -1e-14

    @pytest.mark.parametrize("cutoff", [0, 1])
    def test_cutoff_is_checked_on_entry(self, cutoff):
        # Every route, the bs output included, rejects the cutoff before it
        # assembles anything.
        builds = [lambda c: fock.one_mode_density(OneModeGaussian(0.5, 0.2j), c),
                  lambda c: fock.two_mode_density(beam_splitter(*_BS_OUTPUT_INPUTS), c),
                  *(lambda c, s=s: fock.two_mode_density(s, c) for s in _ROUTE_STATES.values())]
        for build in builds:
            with pytest.raises(ValueError, match="cutoff must be at least 2"):
                build(cutoff)

    def test_wrong_state_type_is_named(self):
        # Each constructor names a state it does not build, after the gate,
        # which still rejects an unphysical one first.
        wrong = [(fock.one_mode_density, TwoModeGaussian(0.5, 0.2 + 0j)),
                 (fock.one_mode_density, _ROUTE_STATES["werner"]),
                 (fock.two_mode_density, OneModeGaussian(0.5, 0.2 + 0j))]
        for build, state in wrong:
            with pytest.raises(TypeError, match=f"unsupported state type {type(state).__name__}$"):
                build(state, 20)
        with pytest.raises(NonPhysicalStateError):
            fock.one_mode_density(TwoModeGaussian.epr(1.0, 1.5 + 0j), 20)


def _band_constructors(delta):
    """Each constructor route on a state whose squeezing (or cross
    correlation) has |m|² = n(n+1) + delta at n = 0.5."""
    n = 0.5
    m = math.sqrt(n * (n + 1.0) + delta)
    s = OneModeGaussian(n, m * cmath.exp(0.4j))
    epr = TwoModeGaussian.epr(n, m * cmath.exp(-0.2j))
    # The Werner mixture at p = 0.5, built directly so that the oracle's
    # gate, not werner_mix's, decides it.
    werner = GaussianMixture(((0.5, epr), (0.5, TwoModeGaussian.thermal_pair(n))))
    bs = mode_rotation(beam_splitter(s, OneModeGaussian(n, m * cmath.exp(1.1j)), 0.7), 0.2, -0.5)
    return {
        "one-mode": lambda c: fock.one_mode_density(s, c),
        "tensor": lambda c: fock.two_mode_density(TwoModeGaussian.pair_with_phase(s, 0.3), c),
        "tms": lambda c: fock.two_mode_density(epr, c),
        "mixture": lambda c: fock.two_mode_density(werner, c),
        "bs": lambda c: fock.two_mode_density(bs, c),
        "bs-output": lambda c: fock.two_mode_density(
            beam_splitter(s, OneModeGaussian(0.3, 0.2j), 0.7), c),
    }


class TestGateBand:
    # At n = 0.5 the gate admits |m|² − n(n+1) up to about 2·EPS_PHYS, one
    # mode or two (the smallest eigenvalue of ⟨ζζ†⟩ is about a half of the
    # excess); 5e-10 lies inside, 4e-9 outside.
    @pytest.mark.parametrize("route", sorted(_band_constructors(0.0)))
    def test_the_gate_band_decides(self, route):
        rho = _band_constructors(5e-10)[route](30)
        recurrence = {"bs": "recurrence", "bs-output": "recurrence"}
        assert rho.route == recurrence.get(route, route)
        assert rho.min_eigenvalue() >= -1e-12
        gate_messages = r"exceeds n\(n\+1\)|second moments do not describe a physical state"
        with pytest.raises(NonPhysicalStateError, match=gate_messages):
            _band_constructors(4e-9)[route](30)

    def test_one_mode_band_at_n_one(self):
        # 2e-9 and 4e-9 over n(n+1) = 2; the smallest eigenvalue of ⟨ζζ†⟩ is
        # a third of the excess, inside EPS_PHYS and outside it.
        rho = fock.one_mode_density(OneModeGaussian(1.0, 1.414213563080202 + 0j), 40)
        assert rho.min_eigenvalue() >= -1e-12
        with pytest.raises(NonPhysicalStateError, match=r"\|m\|\^2 = 2.000000004 exceeds"):
            fock.one_mode_density(OneModeGaussian(1.0, 1.4142135637873086 + 0j), 40)


class TestBeamSplitterOutputs:
    """A beam-splitter output is built like any other state: its moments
    choose the writer."""

    @pytest.mark.parametrize("inputs, lam, route", [
        ((OneModeGaussian(1.0, 0.9 + 0j),) * 2, math.pi / 2, "tms"),
        ((OneModeGaussian(0.5, 0j),) * 2, 0.3, "tms"),
        ((OneModeGaussian(0.6, 0.3 + 0.4j),) * 2, 0.0, "tensor"),
        ((OneModeGaussian(0.6, 0.5 + 0j), OneModeGaussian(0.4, 0.2j)), 0.9, "recurrence"),
    ])
    def test_the_moment_pattern_picks_the_writer(self, inputs, lam, route):
        # Each density equals the total-parity writer's to 1e-14, and the
        # recurrence route's is that writer's, swap phase included.
        state = beam_splitter(*inputs, lam)
        rho = fock.two_mode_density(state, 30)
        exact = parity_graded_density(state, 30)
        assert rho.route == route
        assert np.max(np.abs(rho.matrix - exact.matrix)) <= 1e-14
        if route == "recurrence":
            assert rho._origin == exact._origin
            assert np.array_equal(rho.matrix.view(np.uint64), exact.matrix.view(np.uint64))


class TestVacuumPorts:
    def test_rotated_bs_outputs_with_a_vacuum_input_build(self):
        # A vacuum input leaves Γ's smallest eigenvalue at about −1e-16;
        # the gate accepts every such state, and so must the assembly.
        draws = np.random.default_rng(5)
        vacuum = OneModeGaussian(0.0, 0j)
        word = functools.cache(lambda counts: OperatorWord.from_counts(*counts))
        for k in range(100):
            n = float(draws.uniform(0.1, 1.0))
            m = (float(draws.uniform(0.0, 0.9)) * math.sqrt(n * (n + 1.0))
                 * cmath.exp(1j * draws.uniform(0.0, 2.0 * math.pi)))
            lam, theta_a, theta_b = draws.uniform(0.0, 2.0 * math.pi, 3)
            s = OneModeGaussian(n, m)
            sa, sb = (s, vacuum) if k % 2 == 0 else (vacuum, s)
            state = mode_rotation(beam_splitter(sa, sb, lam), theta_a, theta_b)
            rho = fock.two_mode_density(state, 40)
            assert rho.route == "recurrence", state
            for counts, value in fock.moment_table(rho, 6).items():
                err = relative_error(value, wick_moment(state, word(counts)))
                assert err < MOMENT_RTOL, (state, counts, err)


class TestMoments:
    def test_epr_pair_moment(self):
        # ⟨a²b²⟩ = 2⟨ab⟩² on the cross-correlated family; the daggered
        # variant ⟨a†²b²⟩ vanishes there (no pairing connects it).
        rho = fock.two_mode_density(TwoModeGaussian.epr(1.0, 1.0 + 0j), 30)
        got = fock.moment(rho, OperatorWord.from_counts(annihilate_a=2, annihilate_b=2))
        assert got == pytest.approx(2.0, abs=1e-3)
        crossed = fock.moment(rho, OperatorWord.from_counts(create_a=2, annihilate_b=2))
        assert abs(crossed) < 1e-6

    def test_experimental_fourth_moment(self):
        s = OneModeGaussian(0.12041666666666662, 0.28708333333333336 + 0j)
        rho = fock.one_mode_density(s, 40)
        got = fock.moment(rho, OperatorWord.parse("ad ad a a")).real
        assert got == pytest.approx(2 * s.n ** 2 + abs(s.m) ** 2, abs=1e-4)

    def test_truncation_unsafe_word_rejected(self):
        rho = fock.one_mode_density(OneModeGaussian(0.5, 0j), 10, eps_tr=1.0)
        with pytest.raises(ValueError):
            fock.moment(rho, OperatorWord.from_counts(create_a=3, annihilate_a=3))

    @pytest.mark.parametrize("read, length", [
        (lambda rho: fock.moment(rho, OperatorWord.from_counts(2, 0, 2, 0)), 4),
        (lambda rho: fock.moment_table(rho, 5), 5),
        (lambda rho: fock.expectation_of_witness(
            rho, WitnessKind.W2 if rho.modes == 1 else WitnessKind.WHBT), 4),
    ], ids=["moment", "moment_table", "expectation_of_witness"])
    def test_every_reader_names_the_longest_word(self, read, length):
        # One rule, in ``_moments``: a word longer than cutoff // 2 = 3.
        one = fock.one_mode_density(OneModeGaussian(0.5, 0.2j), 7, eps_tr=1.0)
        two = fock.two_mode_density(_TMS_STATE, 7, eps_tr=1.0)
        for rho in (one, two):
            with pytest.raises(ValueError) as exc:
                read(rho)
            assert str(exc.value) == f"word of length {length} is truncation-unsafe at cutoff 7"

    def test_moment_table_matches_single_queries(self, rng):
        s = random_physical_one_mode(rng, n_max=0.8, frac_max=0.8)
        pair = TwoModeGaussian.pair_with_phase(s, 0.9)
        rho = fock.two_mode_density(pair, 25)
        table = fock.moment_table(rho, 4)
        for counts in [(1, 0, 1, 0), (2, 0, 0, 2), (1, 1, 1, 1), (0, 0, 2, 2)]:
            word = OperatorWord.from_counts(*counts)
            assert table[counts] == pytest.approx(fock.moment(rho, word), rel=1e-10, abs=1e-12)

    def test_mode_b_word_on_one_mode_density_rejected(self):
        rho = fock.one_mode_density(OneModeGaussian(0.5, 0j), 10, eps_tr=1.0)
        with pytest.raises(ValueError):
            fock.moment(rho, OperatorWord.parse("bd b"))


class TestPartialTranspose:
    def test_product_state_is_ppt(self):
        rho = fock.two_mode_density(TwoModeGaussian.thermal_pair(0.8), 25)
        assert fock.ppt_min_eigenvalue(rho) >= -1e-10

    def test_entangled_epr_is_npt(self):
        rho = fock.two_mode_density(TwoModeGaussian.epr(1.0, 1.3 + 0j), 30)
        assert fock.ppt_min_eigenvalue(rho) < -1e-3

    def test_separable_epr_is_ppt(self):
        rho = fock.two_mode_density(TwoModeGaussian.epr(1.0, 0.8 + 0j), 30)
        assert fock.ppt_min_eigenvalue(rho) >= -1e-6

    def test_one_mode_rejected(self):
        rho = fock.one_mode_density(OneModeGaussian(0.5, 0j), 10, eps_tr=1.0)
        with pytest.raises(ValueError):
            fock.ppt_min_eigenvalue(rho)

    def test_bs_output_ppt_crossing_matches_analytic_boundary(self):
        # Analytic boundary at λ=π/2: m² + m = n(n+1); for n=1 that is
        # m* = 1. The partial-transpose sign flip lands within 0.01 of it.
        n = 1.0
        m_star = 0.5 * (math.sqrt(1.0 + 4.0 * n * (n + 1.0)) - 1.0)
        assert m_star == pytest.approx(1.0, abs=1e-12)
        s_below = OneModeGaussian(n, complex(m_star - 0.01))
        s_above = OneModeGaussian(n, complex(m_star + 0.01))
        rho_below = parity_graded_density(beam_splitter(s_below, s_below, math.pi / 2), 30)
        rho_above = parity_graded_density(beam_splitter(s_above, s_above, math.pi / 2), 30)
        assert fock.ppt_min_eigenvalue(rho_below) >= -1e-6
        assert fock.ppt_min_eigenvalue(rho_above) < -1e-6
        assert bs_output_is_separable(n, m_star - 0.01, math.pi / 2)
        assert not bs_output_is_separable(n, m_star + 0.01, math.pi / 2)


def _werner_pt_minimum(n, p, cutoff):
    """Exact smallest eigenvalue of the truncated, renormalized partial
    transpose of p·EPR(n, √(n(n+1))) + (1−p)·thermal⊗thermal.  The pure
    part's transpose is Σ c_j c_k |jk⟩⟨kj|, and the thermal part is
    diagonal, so the spectrum splits into the pairs {|jk⟩, |kj⟩}, j ≠ k,
    and the states |jj⟩."""
    q = n / (n + 1.0)
    j = np.arange(cutoff)
    w = (1.0 - q) * q ** j
    c = math.sqrt(1.0 - q) * q ** (0.5 * j)
    trace = (1.0 - p) * w.sum() ** 2 + p * np.sum(c ** 2)
    pairs = (1.0 - p) * np.outer(w, w) - p * np.outer(c, c)
    pairs[j, j] = (1.0 - p) * w ** 2 + p * c ** 2
    return float(pairs.min()) / trace


class TestWernerPartialTranspose:
    """The Werner mixture's partial transpose against its exact spectrum."""

    @pytest.mark.parametrize("cutoff", [30, 40])
    @pytest.mark.parametrize("n", [0.3, 1.0])
    def test_matches_the_exact_truncated_minimum(self, n, cutoff):
        for p in (0.05, 0.2, 0.5, 0.9):
            state = werner_mix(TwoModeGaussian.epr(n, complex(math.sqrt(n * (n + 1.0)))), p)
            rho = fock.two_mode_density(state, cutoff)
            assert fock.ppt_min_eigenvalue(rho) == pytest.approx(
                _werner_pt_minimum(n, p, cutoff), abs=1e-14), p

    def test_infimum_is_reached_only_on_the_grid(self):
        # The pair {|jk⟩, |kj⟩} gives (1−p)x² − p·x with x = q^{(j+k)/2}/(n+1),
        # whose infimum −p²/(4(1−p)) sits at x* = p/(2(1−p)).  At n = 1,
        # x* = 1/8 is on the grid for p = 0.2 (j + k = 4) but not for p = 0.05.
        for p, on_grid in ((0.2, True), (0.05, False)):
            state = werner_mix(TwoModeGaussian.epr(1.0, complex(math.sqrt(2.0))), p)
            value = fock.ppt_min_eigenvalue(fock.two_mode_density(state, 40))
            infimum = -p * p / (4.0 * (1.0 - p))
            if on_grid:
                assert value == pytest.approx(infimum, abs=1e-9)
            else:
                assert value == pytest.approx(-6.4099e-4, abs=1e-8)
                assert value > infimum + 1e-5


class TestWitnessExpectations:
    def test_w2_of_experimental_state(self):
        s = OneModeGaussian(0.12041666666666662, 0.28708333333333336 + 0j)
        rho = fock.one_mode_density(s, 40)
        got = fock.expectation_of_witness(rho, WitnessKind.W2)
        assert got == pytest.approx(-4.68, abs=1e-2)
        assert got == pytest.approx(w2_expectation(s).value, abs=1e-3)

    def test_whbt_of_experimental_pair(self):
        s = OneModeGaussian(0.12041666666666662, 0.28708333333333336 + 0j)
        pair = TwoModeGaussian.pair_with_phase(s, 0.0)
        rho = fock.two_mode_density(pair, 40)
        got = fock.expectation_of_witness(rho, WitnessKind.WHBT)
        assert got == pytest.approx(-0.27, abs=5e-3)

    def test_whbt_of_separable_epr(self):
        rho = fock.two_mode_density(TwoModeGaussian.epr(1.0, 0.5 + 0j), 30)
        got = fock.expectation_of_witness(rho, WitnessKind.WHBT)
        assert got == pytest.approx(whbt_closed_form_epr(1.0, 0.5), abs=1e-3)
        assert got == pytest.approx(0.75 / 6.5, abs=1e-3)

    def test_vacuum_normalization_rejected(self):
        rho = fock.one_mode_density(OneModeGaussian(0.0, 0j), 10)
        with pytest.raises(ZeroDivisionError):
            fock.expectation_of_witness(rho, WitnessKind.W2)

    def test_mode_count_validation(self):
        one = fock.one_mode_density(OneModeGaussian(0.5, 0j), 10, eps_tr=1.0)
        two = fock.two_mode_density(TwoModeGaussian.thermal_pair(0.5), 10, eps_tr=1.0)
        with pytest.raises(ValueError):
            fock.expectation_of_witness(one, WitnessKind.WHBT)
        with pytest.raises(ValueError):
            fock.expectation_of_witness(two, WitnessKind.W2)


class TestCandidateWeightSummary:
    """The test reference ``candidate_weight_summary``, which test_separability reads."""

    def test_matches_unprojected_candidate_spectrum(self):
        # Rebuild the unprojected working candidate explicitly and compare
        # its dense spectrum with the weight summary.
        state = TwoModeGaussian(0.9, 0.5 * cmath.exp(0.3j), 0.5 * cmath.exp(1.2j),
                                0.4 * cmath.exp(-0.5j), 0j)
        cutoff = 12
        plan = plan_two_mode(state)
        made = []
        for factor in (plan.factor1, plan.factor2):
            w = thermal_weights(factor.nbar, cutoff)
            u = squeeze_unitary(cutoff, factor.r, factor.phi)
            made.append((u * w) @ u.conj().T)
        mixer = beam_splitter_unitary(cutoff, 0.0)
        candidate = mixer @ np.kron(made[0], made[1]) @ mixer.conj().T
        d = _rotation_phases(cutoff, plan.theta_c, plan.theta_d)
        candidate = d[:, None] * candidate * d.conj()[None, :]
        dense_min = float(np.linalg.eigvalsh((candidate + candidate.conj().T) / 2)[0])
        summary_min, deficit = candidate_weight_summary(state, cutoff)
        assert summary_min == pytest.approx(dense_min, abs=1e-12)
        assert deficit == pytest.approx(1.0 - float(np.trace(candidate).real), abs=1e-12)

    def test_none_for_wildly_nonphysical_moments(self):
        state = TwoModeGaussian.epr(0.5, 2.0 + 0j)
        assert candidate_weight_summary(state, 15) is None

    def test_negative_weight_for_slightly_nonphysical(self):
        state = TwoModeGaussian.epr(1.0, 1.43 + 0j)
        min_eig, _ = candidate_weight_summary(state, 15)
        assert min_eig < -1e-8


def _labels(cutoff):
    return np.divmod(np.arange(cutoff * cutoff), cutoff)


def _rotation_phases(cutoff, theta_a, theta_b):
    # Diagonal of exp(i(θ_a n_a + θ_b n_b)) on the two-mode basis.
    na, nb = _labels(cutoff)
    return np.exp(1j * (theta_a * na + theta_b * nb))


def _dense_factor(factor, dim):
    # Squeezed thermal factor from one dense exponential of the full
    # generator, without the per-parity split.
    a = annihilation(dim)
    xi = factor.r * cmath.exp(1j * factor.phi)
    g = 0.5 * (np.conj(xi) * (a @ a) - xi * (a.conj().T @ a.conj().T))
    s = expm_antihermitian(g)
    return (s * thermal_weights(factor.nbar, dim)) @ s.conj().T


def _restrict(rho, cutoff, working):
    na, nb = _labels(cutoff)
    keep = na * working + nb
    return rho[np.ix_(keep, keep)]


def _dense_partial_transpose_min(rho):
    c = rho.cutoff
    pt = rho.matrix.reshape(c, c, c, c).transpose(0, 3, 2, 1).reshape(c * c, c * c)
    return float(np.linalg.eigvalsh(pt / rho.trace())[0])


_BS_STATE = mode_rotation(
    beam_splitter(OneModeGaussian(0.7, 0.4 + 0.2j), OneModeGaussian(0.5, -0.1 + 0.3j), 0.0),
    0.4, 1.1,
)
_TMS_STATE = TwoModeGaussian.epr(0.8, 0.7 * cmath.exp(0.4j))
_BS_OUTPUT_INPUTS = (OneModeGaussian(0.6, 0.5 + 0j), OneModeGaussian(0.4, 0.2j), 0.9)
# Their components have different patterns, so both mixtures write every
# component on total parity, by the recurrence.
_BS_TMS_MIXTURE = GaussianMixture(((0.3, _BS_STATE), (0.7, _TMS_STATE)))
_BS_TENSOR_MIXTURE = GaussianMixture((
    (0.4, _BS_STATE),
    (0.6, TwoModeGaussian.pair_with_phase(OneModeGaussian(0.6, 0.3 + 0.4j), 0.8)),
))


def _graded_densities(cutoff):
    return {
        "tensor": fock.two_mode_density(
            TwoModeGaussian.pair_with_phase(OneModeGaussian(0.6, 0.3 + 0.4j), 0.8), cutoff,
            eps_tr=1.0),
        "tms": fock.two_mode_density(_TMS_STATE, cutoff, eps_tr=1.0),
        "bs": fock.two_mode_density(_BS_STATE, cutoff, eps_tr=1.0),
        "bs-output": fock.two_mode_density(beam_splitter(*_BS_OUTPUT_INPUTS), cutoff, eps_tr=1.0),
        "mixture": fock.two_mode_density(werner_mix(TwoModeGaussian.epr(0.8, 0.9 + 0j), 0.6),
                                         cutoff, eps_tr=1.0),
        "bs+tms mixture": fock.two_mode_density(_BS_TMS_MIXTURE, cutoff, eps_tr=1.0),
    }


class TestGradedAssembly:
    def test_off_parity_entries_are_exactly_zero(self):
        na, nb = _labels(12)
        parity = (na + nb) % 2
        off = parity[:, None] != parity[None, :]
        for name, rho in _graded_densities(12).items():
            assert np.all(rho.matrix[off] == 0.0), name

    def test_tms_density_vanishes_outside_difference_blocks(self):
        na, nb = _labels(12)
        d = na - nb
        rho = _graded_densities(12)["tms"]
        assert np.all(rho.matrix[d[:, None] != d[None, :]] == 0.0)
        assert np.count_nonzero(rho.matrix[d[:, None] == d[None, :]]) > 0

    def test_tms_matches_dense_reference(self):
        cutoff, working = 10, 20
        state = TwoModeGaussian.epr(0.8, 0.7 * cmath.exp(0.4j))
        plan = plan_two_mode(state)
        w = thermal_weights(plan.factor1.nbar, working)
        u = two_mode_squeeze_unitary(working, plan.tms_r, plan.tms_phi)
        dense = u @ np.diag(np.kron(w, w)) @ u.conj().T
        got = fock.two_mode_density(state, cutoff, eps_tr=1.0).matrix
        assert np.max(np.abs(got - _restrict(dense, cutoff, working))) < 1e-13

    @pytest.mark.parametrize("cutoff", [2, 10, 20, 30, 40])
    def test_tms_route_matches_the_recurrence(self, cutoff):
        # The d-graded writer against the parity-graded one, on a hot
        # state, the pure boundary state, a state inside the gate's band
        # (|m_c|² = n(n+1) + 5e-10 at n = 0.5) and a thermal pair.
        band = math.sqrt(0.75 + 5e-10) * cmath.exp(-0.2j)
        for state in (TwoModeGaussian.epr(1.5, 1.8 + 0j), TwoModeGaussian.epr(1.0, SQRT2 + 0j),
                      TwoModeGaussian.epr(0.5, band), TwoModeGaussian.thermal_pair(0.8),
                      _TMS_STATE):
            rho = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            assert rho.route == "tms" and len(rho._blocks) == cutoff
            exact = _scatter(_upper_read(fock._recurrence_blocks(state, cutoff)), cutoff)
            assert np.max(np.abs(rho.matrix - exact)) <= 1e-14, state

    @pytest.mark.parametrize("cutoff", [2, 3, 10, 12, 40])
    def test_mixture_is_the_weighted_sum_of_one_writers_blocks(self, cutoff):
        # A mixture writes all its components with one writer, that of
        # their common pattern (tms on a Werner mixture), else the
        # total-parity recurrence, and sums w · blocks in component order:
        # bit for bit the same sum taken here, on the upper triangles alone
        # for the total-parity writer, which leaves its lower ones unwritten.
        werner = werner_mix(TwoModeGaussian.epr(0.8, 0.9 + 0j), 0.6)
        other_tms = GaussianMixture(((0.3, _BS_STATE),
                                     (0.7, TwoModeGaussian.epr(0.8, 0.7 + 0.2j))))
        for mixture, write in ((_BS_TMS_MIXTURE, fock._recurrence_blocks),
                               (other_tms, fock._recurrence_blocks),
                               (_BS_TENSOR_MIXTURE, fock._recurrence_blocks),
                               (werner, fock._tms_blocks)):
            rho = fock.two_mode_density(mixture, cutoff, eps_tr=1.0)
            parts = [(w, _upper_read(write(comp, cutoff))) for w, comp in mixture.components]
            assert rho.route == "mixture" and len(rho._blocks) == len(parts[0][1])
            for k, (members, values) in enumerate(rho._blocks):
                expected = np.zeros_like(values)
                for w, blocks in parts:
                    assert np.array_equal(blocks[k].members, members)
                    expected += blocks[k].values * w
                got = values if write is fock._tms_blocks else fock._from_upper(values)
                assert np.array_equal(got, expected), (write.__name__, k)

    # The dense beam-splitter references work at 32 states per mode, where
    # their own truncation is 2.6e-15 (bs) and 1.6e-14 (bs output) against
    # the exact entries; at 20 states it was 7.9e-8.
    def test_bs_route_matches_dense_reference(self):
        cutoff, working = 10, 32
        plan = plan_two_mode(_BS_STATE)
        assert plan.route == "bs"
        mixer = beam_splitter_unitary(working, 0.0)
        rho_in = np.kron(_dense_factor(plan.factor1, working), _dense_factor(plan.factor2, working))
        dense = _restrict(mixer @ rho_in @ mixer.conj().T, cutoff, working)
        d = _rotation_phases(cutoff, plan.theta_c, plan.theta_d)
        dense = d[:, None] * dense * d.conj()[None, :]
        got = fock.two_mode_density(_BS_STATE, cutoff, eps_tr=1.0).matrix
        assert np.max(np.abs(got - dense)) < 1e-13

    def test_bs_output_matches_dense_reference(self):
        cutoff, working, lam = 10, 32, 0.9
        sa, sb = OneModeGaussian(0.6, 0.5 + 0j), OneModeGaussian(0.4, 0.2j)
        factors = [solve_squeezed_thermal(s.n, s.m) for s in (sa, sb)]
        mixer = beam_splitter_unitary(working, lam)
        rho_in = np.kron(_dense_factor(factors[0], working), _dense_factor(factors[1], working))
        dense = _restrict(mixer @ rho_in @ mixer.conj().T, cutoff, working)
        got = fock.two_mode_density(beam_splitter(sa, sb, lam), cutoff, eps_tr=1.0).matrix
        assert np.max(np.abs(got - dense)) < 1e-13


class TestRecurrenceRoute:
    """The parity-graded writer against ``recurrence_entries``, a plain
    recurrence over a dict, and against itself at the next cutoff."""

    _NO_FAMILY = TwoModeGaussian(1.0, 0.5, 0.2, 1.0)

    @staticmethod
    def _band_state():
        # Two inputs with |m|² = n(n+1) + 5e-10 at n = 0.5: Γ's smallest
        # eigenvalue lies in the gate's band, below zero.
        m = math.sqrt(0.75 + 5e-10)
        return mode_rotation(beam_splitter(OneModeGaussian(0.5, m * cmath.exp(0.4j)),
                                           OneModeGaussian(0.5, m * cmath.exp(1.1j)), 0.7),
                             0.2, -0.5)

    @pytest.mark.parametrize("cutoff", [2, 3, 5, 8])
    def test_every_entry_matches_the_plain_recurrence(self, cutoff):
        band = self._band_state()
        assert np.linalg.eigvalsh(_moment_matrix(band))[0] < 0.0
        for state in (self._NO_FAMILY, _BS_STATE, band):
            rho = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            assert rho.route == "recurrence", state
            g = recurrence_entries(state, cutoff)
            expected = np.array([[g[(ma, mb, na, nb)] for na in range(cutoff)
                                  for nb in range(cutoff)]
                                 for ma in range(cutoff) for mb in range(cutoff)])
            assert np.max(np.abs(rho.matrix - expected)) <= 1e-14, state

    @pytest.mark.parametrize("cutoff", [11, 39, 40])
    def test_a_density_is_the_next_cutoff_restricted(self, cutoff):
        # The entries do not depend on the cutoff, odd or even, so each
        # block is the next cutoff's block on the retained states, bit for
        # bit.
        small, big = (fock.two_mode_density(self._NO_FAMILY, c, eps_tr=1.0)
                      for c in (cutoff, cutoff + 1))
        assert small.route == big.route == "recurrence"
        assert len(small._blocks) == len(big._blocks) == 2
        for (members, values), (big_members, big_values) in zip(small._blocks, big._blocks):
            x_a, x_b = np.divmod(big_members[0], cutoff + 1)
            keep = np.flatnonzero((x_a < cutoff) & (x_b < cutoff))
            assert np.array_equal(members[0], x_a[keep] * cutoff + x_b[keep])
            assert np.array_equal(fock._from_upper(values),
                                  fock._from_upper(big_values[np.ix_(keep, keep)]))


class TestBandMeasurement:
    def test_moment_matches_dense_trace(self, rng):
        cutoff = 12
        a = annihilation(cutoff)
        ad = a.conj().T

        def ladder(n_create, n_annihilate):
            return np.linalg.matrix_power(ad, n_create) @ np.linalg.matrix_power(a, n_annihilate)

        one = fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), cutoff, eps_tr=1.0)
        for rho in (*_graded_densities(cutoff).values(), one):
            for _ in range(12):
                length = int(rng.integers(1, cutoff // 2 + 1))
                slots = 4 if rho.modes == 2 else 2
                cuts = np.sort(rng.integers(0, length + 1, size=slots - 1))
                parts = np.diff(np.concatenate([[0], cuts, [length]]))
                if rho.modes == 2:
                    i, j, k, l = (int(p) for p in parts)
                    op = np.kron(ladder(i, k), ladder(j, l))
                else:
                    i, k = (int(p) for p in parts)
                    j = l = 0
                    op = ladder(i, k)
                expected = np.trace(rho.matrix @ op)
                got = fock.moment(rho, OperatorWord.from_counts(i, j, k, l))
                assert abs(got - expected) < 1e-12 * (1.0 + abs(expected))


class TestBlockPartialTranspose:
    def test_grading_is_the_finest_the_entries_allow(self):
        # The modulus read off the block members equals the finest one that
        # the nonzero entries of the dense matrix allow.
        cutoff = 10
        na, nb = _labels(cutoff)
        d = na - nb
        expected = {"tensor": 2, "tms": 2 * cutoff, "bs": 2, "bs-output": 2,
                    "mixture": 2 * cutoff, "bs+tms mixture": 2}
        for name, rho in _graded_densities(cutoff).items():
            joined = rho.matrix != 0.0
            finest = next(k for k in (2 * cutoff, 2, 1)
                          if np.all(((d[:, None] - d[None, :]) % k == 0)[joined]))
            assert rho._d_modulus == finest == expected[name], name

    def test_graded_densities_match_dense_spectrum(self):
        for name, rho in _graded_densities(12).items():
            assert fock.ppt_min_eigenvalue(rho) == pytest.approx(
                _dense_partial_transpose_min(rho), abs=1e-13), name

    def test_non_graded_density_gets_full_spectrum(self):
        # Local displacements keep the entanglement of the pair but break
        # every photon-number grading, so no block split is exact.
        cutoff = 10
        epr = fock.two_mode_density(TwoModeGaussian.epr(0.5, 0.6 + 0j), cutoff, eps_tr=1.0)
        u = np.kron(displacement_unitary(cutoff, 0.3 + 0.1j),
                    displacement_unitary(cutoff, -0.2j))
        mat = u @ epr.matrix @ u.conj().T
        mat = (mat + mat.conj().T) / 2.0
        rho = fock.FockDensity(2, cutoff, mat, 1.0 - float(np.trace(mat).real))
        na, nb = _labels(cutoff)
        parity = (na + nb) % 2
        assert np.any(rho.matrix[parity[:, None] != parity[None, :]] != 0.0)
        dense = _dense_partial_transpose_min(rho)
        assert dense < -1e-3
        assert fock.ppt_min_eigenvalue(rho) == pytest.approx(dense, abs=1e-13)


def _swap_operator(cutoff, delta):
    # T|j, k⟩ = (−1)^{j+k} e^{iδ(j−k)} |k, j⟩ on the truncated basis.
    t = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for j in range(cutoff):
        for k in range(cutoff):
            t[k * cutoff + j, j * cutoff + k] = (-1.0) ** (j + k) * cmath.exp(1j * delta * (j - k))
    return t


def _swap_phase(state):
    # δ = θ_b − θ_a of the local rotations that take a state with equal
    # squeezing moments on both modes to this one: half the phase gap of m_b
    # and m_a.  It is fixed mod π only; δ + π flips the sign of T on odd
    # total parity, which the state does not mix with even.
    return 0.5 * (cmath.phase(state.m_b) - cmath.phase(state.m_a))


def _seeded_bs_route(cutoff, seed=20261018):
    """(name, density, δ) of seeded beam-splitter states, all through
    ``two_mode_density``: rotated beam-splitter images and unrotated outputs
    of equal inputs, every splitter phase λ ≠ 0."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(8):
        n = float(rng.uniform(0.2, 0.7))
        m = float(rng.uniform(0.6, 0.95)) * math.sqrt(n * (n + 1.0))
        lam = float(rng.uniform(0.15, 0.85)) * math.pi
        if k % 2:
            sa = OneModeGaussian(n, m * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi))))
            state = beam_splitter(sa, sa, lam)
            rho = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            out.append((f"bs-output {k}", rho, _swap_phase(state)))
        else:
            sa = OneModeGaussian(n, complex(m))
            sb = random_physical_one_mode(rng, n_max=0.7)
            state = mode_rotation(beam_splitter(sa, sb if k % 4 else sa, lam),
                                  *rng.uniform(-math.pi, math.pi, size=2))
            rho = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            out.append((f"bs {k}", rho, _swap_phase(state)))
    return out


class TestParityGradedMoments:
    """A density graded by total parity gathers only the even band shifts,
    and one graded by d = n_a − n_b (tms, Werner) only the shifts with
    δa = δb; the words of every other shift are exact zeros."""

    def test_constructors_grade_by_total_parity(self):
        for name, rho in _graded_densities(10).items():
            assert rho._d_modulus % 2 == 0, name
        bs = _graded_densities(10)["bs"]
        dense = fock.FockDensity(2, 10, bs.matrix, bs.trace_deficit)
        one = fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), 10, eps_tr=1.0)
        assert dense._d_modulus == 1
        assert one._d_modulus == 1

    def test_tables_equal_the_dense_copy_and_skip_odd_shifts(self, monkeypatch):
        original = fock._band_plan
        seen = []

        def spy(ca, cb, shifts):
            seen.append(shifts)
            return original(ca, cb, shifts)

        monkeypatch.setattr(fock, "_band_plan", spy)
        for name, rho in _graded_densities(12).items():
            dense = fock.FockDensity(2, 12, rho.matrix, rho.trace_deficit)
            seen.clear()
            table = fock.moment_table(rho, 6)
            assert seen and all((da + db) % 2 == 0 for da, db in seen[0]), name
            if name in ("tms", "mixture"):
                assert rho._d_modulus == 24, name
                assert all(da == db for da, db in seen[0]), name
            seen.clear()
            dense_table = fock.moment_table(dense, 6)
            assert any((da + db) % 2 for da, db in seen[0]), name
            # Bit for bit: the even words read the same entries, and the
            # odd ones are zero on both.
            assert table == dense_table, name
            odd = [value for counts, value in table.items() if sum(counts) % 2]
            assert odd and all(value == 0j for value in odd), name

    def test_single_odd_word_is_zero(self):
        rho = _graded_densities(10)["bs"]
        assert fock.moment(rho, OperatorWord.from_counts(1, 0, 0, 0)) == 0j
        assert fock.moment(rho, OperatorWord.from_counts(1, 1, 1, 0)) == 0j


class TestPackedSize:
    def test_packed_bytes_per_route_at_cutoff_40(self):
        mb = {route: fock.two_mode_density(state, 40).nbytes / 1e6
              for route, state in (("tms", _TMS_STATE), ("bs", _BS_STATE),
                                   ("tensor", _ROUTE_STATES["tensor"]))}
        assert mb == {"tms": 0.35424, "tensor": 10.24, "bs": 20.48}

    def test_dense_and_one_mode(self):
        one = fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), 10, eps_tr=1.0)
        assert one.nbytes == 10 * 10 * 16
        bs = _graded_densities(6)["bs"]
        assert fock.FockDensity(2, 6, bs.matrix, bs.trace_deficit).nbytes == 36 * 36 * 16
        # Mirror copies share one block: the tms blocks of d and −d.
        tms = _graded_densities(6)["tms"]
        assert tms.nbytes == 16 * sum(k * k for k in range(1, 7))


class _BlockSolverSpy:
    """The dtype of every block handed to the routine that decides it, by
    factorization or eigensolve (``fock._block_lowest_eigenvalue``)."""

    def __init__(self, monkeypatch):
        self.dtypes = []
        original = fock._block_lowest_eigenvalue

        def spy(block):
            self.dtypes.append(block.dtype)
            return original(block)

        monkeypatch.setattr(fock, "_block_lowest_eigenvalue", spy)


class TestSwapSymmetricPartialTranspose:
    """A beam-splitter image R B₀(ρ₁ ⊗ ρ₂)B₀† R† commutes with a phased
    mode swap, so each of its partial-transpose blocks is real symmetric up
    to known phases and is decided in real arithmetic."""

    def test_bs_densities_commute_with_the_phased_swap(self):
        cutoff = 12
        for name, rho, delta in _seeded_bs_route(cutoff):
            assert rho.route == "recurrence", name
            assert rho._origin.swap_phase == pytest.approx(delta, abs=1e-15), name
            t = _swap_operator(cutoff, delta)
            assert np.max(np.abs(t @ rho.matrix - rho.matrix @ t)) < 1e-14, name
            # The phase is pinned: a wrong one breaks the symmetry.
            t = _swap_operator(cutoff, delta + 0.3)
            assert np.max(np.abs(t @ rho.matrix - rho.matrix @ t)) > 1e-6, name

    @pytest.mark.parametrize("cutoff", [12, 30])
    def test_matches_the_dense_spectrum(self, cutoff):
        values = []
        for name, rho, _ in _seeded_bs_route(cutoff):
            dense = _dense_partial_transpose_min(rho)
            assert fock.ppt_min_eigenvalue(rho) == pytest.approx(dense, abs=1e-13), name
            values.append(dense)
        assert sum(v < -1e-4 for v in values) >= 3

    def test_wrong_phase_takes_the_complex_path(self, monkeypatch):
        spy = _BlockSolverSpy(monkeypatch)
        for name, rho, _ in _seeded_bs_route(12)[:4]:
            blocks = _written(rho._blocks)
            wrong = fock.FockDensity._graded(2, 12, blocks, rho.trace_deficit,
                                             fock._blocks_trace(blocks),
                                             fock._Origin("recurrence",
                                                          rho._origin.swap_phase + 0.3))
            spy.dtypes.clear()
            assert fock.ppt_min_eigenvalue(wrong) == pytest.approx(
                _dense_partial_transpose_min(rho), abs=1e-13), name
            assert spy.dtypes and all(dt == np.complex128 for dt in spy.dtypes), name

    @pytest.mark.parametrize("kick", [1e-9, 1e-9j])
    def test_one_broken_entry_loses_the_real_form(self, kick):
        # One written entry ρ[A, B] (B after A) moved by a real or an
        # imaginary 1e-9, where the mode swap s maps the pair to neither
        # itself nor (B, A), breaks the swap symmetry in the
        # partial-transpose block of parity a_1 + b_2 alone, wherever the
        # entry falls: in a diagonal row, an upper row or the image rows
        # checked against it.
        c = 8
        state = _BS_STATE
        origin = fock._Origin("recurrence", fock._swap_phase(state))
        parity = np.add(*np.divmod(np.arange(c * c), c)) % 2
        members = [np.flatnonzero(parity == g) for g in (0, 1)]
        rng = np.random.default_rng(31)
        swap = np.arange(c * c).reshape(c, c).T.ravel()
        tried = 0
        while tried < 24:
            p = int(rng.integers(2))
            row, col = sorted(rng.choice(members[p].size, 2, replace=False))
            a, b = members[p][row], members[p][col]
            if {(swap[a], swap[b])} & {(a, b), (b, a)}:
                continue
            tried += 1
            blocks = fock._recurrence_blocks(state, c)
            blocks[p].values[row, col] += kick
            rho = fock._finish(2, c, blocks, 1.0, origin)
            broken = (a // c + b % c) % 2
            forms = [fock._symmetric_form(rho, m, origin.swap_phase) for m in members]
            assert forms[broken] is None and forms[1 - broken] is not None, (p, row, col)

    def test_eigensolver_input_type_per_route(self, monkeypatch):
        spy = _BlockSolverSpy(monkeypatch)
        for name, rho in _graded_densities(12).items():
            spy.dtypes.clear()
            fock.ppt_min_eigenvalue(rho)
            expected = np.float64 if name in ("bs", "bs-output") else np.complex128
            assert spy.dtypes and all(dt == expected for dt in spy.dtypes), name

    def test_bs_output_and_general_families_take_the_real_solver(self, monkeypatch):
        # The CLI's bs-output and general families, through the recurrence:
        # the swap phase read off their moments gives every block its real
        # form, and the value is the dense one.
        s = OneModeGaussian(1.0, 0.6 + 0j)
        general = TwoModeGaussian(1.0, 0.3 + 0j, 0.3 * cmath.exp(0.5j), 0.9 * cmath.exp(0.25j), 0j)
        densities = [fock.two_mode_density(beam_splitter(s, s, 0.3), 20, eps_tr=1.0),
                     fock.two_mode_density(general, 20, eps_tr=1.0)]
        dense = [_dense_partial_transpose_min(rho) for rho in densities]
        spy = _BlockSolverSpy(monkeypatch)
        for rho, expected in zip(densities, dense):
            assert rho.route == "recurrence"
            spy.dtypes.clear()
            assert fock.ppt_min_eigenvalue(rho) == pytest.approx(expected, abs=1e-13)
            assert spy.dtypes and all(dt == np.float64 for dt in spy.dtypes)


def _shift(block):
    # δ = dim·ε·‖block‖_F, the margin of ``fock._block_lowest_eigenvalue``.
    return block.shape[0] * np.finfo(float).eps * float(np.linalg.norm(block))


def _planted_density(lowest, cutoff=10, x=3, y=77, seed=11):
    """A dense two-mode density whose partial transpose, one block of
    cutoff² states under no grading, is P = [[0, b], [b, c]] on states x
    (leading half) and y (trailing half), with smallest eigenvalue
    ``lowest`` < 0, beside a random positive definite part on the rest:
    every diagonal entry of P is positive but P[x, x] = 0."""
    dim = cutoff * cutoff
    rng = np.random.default_rng(seed)
    rest = np.setdiff1d(np.arange(dim), [x, y])
    z = rng.standard_normal((rest.size, rest.size)) + 1j * rng.standard_normal((rest.size,) * 2)
    q, _ = np.linalg.qr(z)
    c = 0.01
    pt = np.zeros((dim, dim), dtype=complex)
    positive = (q * rng.uniform(0.5, 1.5, rest.size) * (1.0 - c) / rest.size) @ q.conj().T
    pt[np.ix_(rest, rest)] = (positive + positive.conj().T) / 2.0
    pt[y, y] = c
    pt[x, y] = pt[y, x] = math.sqrt(-lowest * (c - lowest))
    matrix = pt.reshape((cutoff,) * 4).transpose(0, 3, 2, 1).reshape(dim, dim)
    return fock.FockDensity(2, cutoff, matrix, 0.0)


class TestFactorizationCertificate:
    """Each block is decided by one factorization where that is enough: with
    δ = dim·ε·‖block‖_F and t its smallest diagonal entry, a block with
    t ≤ δ whose shift by δI factorizes contributes t; every other block
    contributes the eigensolver's value, bit for bit.  A block planted with
    λ_min = −2δ is rejected, which pins the 2δ margin on these blocks."""

    @pytest.mark.parametrize("planted", ["2 delta", "10 delta", "1e-12"])
    def test_a_planted_negative_eigenvalue_takes_the_eigensolver(self, planted):
        # δ is read off the block with no planted entry, whose norm the
        # planted pair changes far below δ's own precision.
        delta = _shift(fock._partial_transpose_block(_planted_density(-1e-300), np.arange(100)))
        lowest = {"2 delta": -2.0 * delta, "10 delta": -10.0 * delta, "1e-12": -1e-12}[planted]
        rho = _planted_density(lowest)
        block = fock._partial_transpose_block(rho, np.arange(100))
        block /= rho.trace()
        assert rho._d_modulus == 1
        assert block.diagonal().real.min() <= _shift(block)
        expected = float(np.linalg.eigvalsh(block)[0])
        assert expected == pytest.approx(lowest, rel=1e-3)
        assert fock.ppt_min_eigenvalue(rho) == expected

    def test_a_planted_eigenvalue_inside_the_margin_is_certified(self):
        delta = _shift(fock._partial_transpose_block(_planted_density(-1e-300), np.arange(100)))
        rho = _planted_density(-0.1 * delta)
        block = fock._partial_transpose_block(rho, np.arange(100)) / rho.trace()
        value = fock.ppt_min_eigenvalue(rho)
        assert value == block.diagonal().real.min() == 0.0
        assert abs(value - float(np.linalg.eigvalsh(block)[0])) <= 2.0 * _shift(block)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("margins", [0.5, 2.0])
    def test_a_spread_negative_direction_is_pinned_at_the_margin(self, dtype, margins):
        # An 800-state block h = [[0, b·vᴴ], [b·v, C]] with C positive
        # definite and v spread over every other state, so the negative
        # direction crosses both halves of the split factorization.  b is
        # set so that λ_min = −margins·δ exactly, from the secular equation
        # λ = b²·Σ|w_k|²/(λ − μ_k), w = Qᴴv, over C's spectrum μ.
        n, x = 800, 257
        rng = np.random.default_rng(23)
        z = rng.standard_normal((n - 1, n - 1))
        v = rng.standard_normal(n - 1)
        if dtype is np.complex128:
            z = z + 1j * rng.standard_normal((n - 1, n - 1))
            v = v + 1j * rng.standard_normal(n - 1)
        q, _ = np.linalg.qr(z)
        mu = rng.uniform(0.5, 1.5, n - 1) / n
        v /= np.linalg.norm(v)
        w2 = np.abs(q.conj().T @ v) ** 2
        rest = np.delete(np.arange(n), x)
        block = np.zeros((n, n), dtype=dtype)
        c = (q * mu) @ q.conj().T
        block[np.ix_(rest, rest)] = (c + c.conj().T) / 2.0
        delta = _shift(block)
        lowest = -margins * delta
        b = math.sqrt(-lowest / float(np.sum(w2 / (mu - lowest))))
        block[rest, x] = b * v
        block[x, rest] = b * v.conj()
        assert _shift(block) == pytest.approx(delta, rel=1e-9)
        expected = float(np.linalg.eigvalsh(block)[0])
        assert expected == pytest.approx(lowest, rel=1e-3)
        before = block.copy()
        got = fock._block_lowest_eigenvalue(block)
        assert np.array_equal(block, before)
        if margins < 1.0:
            assert got == block.diagonal().real.min() == 0.0
            assert abs(got - expected) <= 2.0 * _shift(block)
        else:
            assert got == expected

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [7, 100, 257, 400])
    def test_blocked_solve_matches_the_lu_solve(self, n, dtype):
        # The panel solve of the factorization, W = L⁻¹·B by halving with LU
        # solves of at most ``_SOLVE_BASE`` rows, against one LU solve, on
        # the Cholesky factor of a seeded positive definite matrix with
        # eigenvalues in [0.1, 1.1], so κ(L) ≤ √11.  The forward error of
        # either solve is of order n·ε·κ(L)·‖W‖, below 1e-12 here.
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n // 2 + 1))
        if dtype is np.complex128:
            z = z + 1j * rng.standard_normal((n, n))
            b = b + 1j * rng.standard_normal(b.shape)
        q, _ = np.linalg.qr(z)
        lower = np.linalg.cholesky((q * rng.uniform(0.1, 1.1, n)) @ q.conj().T)
        expected = np.linalg.solve(lower, b)
        panel = b.copy()
        fock._solve_lower(lower, panel)
        assert panel.dtype == dtype
        assert np.linalg.norm(panel - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("family", ["bs-output", "general"])
    def test_separable_recurrence_densities_need_no_eigensolve(self, family, monkeypatch):
        # The CLI's bs-output and general families at its default cutoff.
        s = OneModeGaussian(1.0, 0.6 + 0j)
        state = {"bs-output": beam_splitter(s, s, 0.3),
                 "general": TwoModeGaussian(1.0, 0.3 + 0j, 0.3 * cmath.exp(0.5j),
                                            0.9 * cmath.exp(0.25j), 0j)}[family]
        assert is_separable(state)
        rho = fock.two_mode_density(state, 40)
        assert rho.route == "recurrence" and rho._origin.swap_phase is not None
        eigvalsh, decide = np.linalg.eigvalsh, fock._block_lowest_eigenvalue
        decided, solved = [], []

        def spy(block):
            value = decide(block)
            decided.append((block.copy(), value))
            return value

        def no_eigensolve(a, *args, **kwargs):
            solved.append(np.asarray(a).shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(fock, "_block_lowest_eigenvalue", spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        value = fock.ppt_min_eigenvalue(rho)
        monkeypatch.undo()
        assert solved == []
        assert [block.shape for block, _ in decided] == [(800, 800)] * 2
        for block, got in decided:
            assert block.dtype == np.float64
            assert got == block.diagonal().min() <= _shift(block)
            assert abs(got - float(np.linalg.eigvalsh(block)[0])) <= 2.0 * _shift(block)
        assert value == min(got for _, got in decided) >= 0.0

    def test_an_entangled_state_takes_the_eigensolver(self):
        # A generic state, gathered complex, and a rotated beam-splitter
        # image, decided in its real form: each value is the eigensolver's
        # on the block, bit for bit.
        generic = fock.two_mode_density(
            TwoModeGaussian(1.0, 0.5 + 0j, 0.1 + 0j, 0.9 + 0j, 0.1j), 30)
        assert generic._origin.swap_phase is None
        parity = np.add(*np.divmod(np.arange(900), 30)) % 2
        blocks = [fock._partial_transpose_block(generic, np.flatnonzero(parity == p))
                  for p in (0, 1)]
        expected = min(float(np.linalg.eigvalsh(b / generic.trace())[0]) for b in blocks)
        assert expected < -1e-3
        assert fock.ppt_min_eigenvalue(generic) == expected
        name, bs, phase = next((name, rho, phase) for name, rho, phase in _seeded_bs_route(30)
                               if _dense_partial_transpose_min(rho) < -1e-4)
        forms = [fock._symmetric_form(bs, np.flatnonzero(parity == p), phase) for p in (0, 1)]
        expected = min(float(np.linalg.eigvalsh(form)[0]) for form in forms)
        assert fock.ppt_min_eigenvalue(bs) == expected, name

    def test_the_density_spectrum_reads_the_same_rule(self, monkeypatch):
        # FockDensity.min_eigenvalue decides each block of the density
        # through the same routine.
        rho = fock.two_mode_density(_BS_STATE, 40)
        decide = fock._block_lowest_eigenvalue
        decided = []

        def spy(block):
            value = decide(block)
            decided.append((block.copy(), value))
            return value

        monkeypatch.setattr(fock, "_block_lowest_eigenvalue", spy)
        value = rho.min_eigenvalue()
        assert len(decided) == len(rho._blocks) == 2
        for block, got in decided:
            assert abs(got - float(np.linalg.eigvalsh(block)[0])) <= 2.0 * _shift(block)
        assert value == min(got for _, got in decided) >= -1e-14


class TestRoute:
    def test_each_constructor_records_its_route(self):
        routes = {"bs": "recurrence", "bs-output": "recurrence", "bs+tms mixture": "mixture"}
        for name, rho in _graded_densities(8).items():
            expected = routes.get(name, name)
            assert rho.route == expected, name
        assert fock.one_mode_density(OneModeGaussian(0.3, 0.1j), 8, eps_tr=1.0).route == "one-mode"
        thermal = fock.two_mode_density(TwoModeGaussian.thermal_pair(0.3), 8, eps_tr=1.0)
        assert thermal.route == "tms"

    def test_only_the_bs_route_records_a_swap_phase(self):
        # Only the beam-splitter images: a recurrence state without the
        # symmetry, unequal squeezing magnitudes here, records None.
        for name, rho in _graded_densities(8).items():
            assert (rho._origin.swap_phase is not None) == (name in ("bs", "bs-output")), name
        assert _graded_densities(8)["bs-output"]._origin.swap_phase == 0.0
        generic = TwoModeGaussian(0.5, 0.3 + 0j, 0.1j, 0.2 + 0j, 0j)
        rho = fock.two_mode_density(generic, 8, eps_tr=1.0)
        assert rho.route == "recurrence" and rho._origin.swap_phase is None

    def test_dense_density_records_none(self):
        rho = fock.FockDensity(1, 3, np.diag([0.5, 0.3, 0.2]), 0.0)
        assert rho.route is None and rho._origin is None


class TestValidation:
    def _skewed(self):
        rho = fock.two_mode_density(TwoModeGaussian.thermal_pair(0.3), 8, eps_tr=1.0)
        mat = np.array(rho.matrix)
        mat[0, 1] += 1e-9
        return mat

    def test_density_rejects_non_hermitian_matrix(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            fock.FockDensity(2, 8, self._skewed(), 0.0)

    def test_stored_matrix_is_exactly_hermitian_and_read_only(self):
        rng = np.random.default_rng(3)
        noise = 1e-14 * (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
        mat = np.diag(np.full(64, 1.0 / 64)) + noise
        rho = fock.FockDensity(2, 8, mat, 0.0)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.allclose(rho.matrix, (mat + mat.conj().T) / 2.0, rtol=0.0, atol=1e-30)
        assert not rho.matrix.flags.writeable


def _written(blocks):
    # (members, values) pairs written into one packed buffer, as a route
    # writes its blocks.
    out = fock._Written([np.asarray(members) for members, _ in blocks])
    for block, (_, values) in zip(out, blocks):
        block.values[...] = values
    return out


def _upper_read(blocks):
    # A writer's blocks as every reader takes them, each built from its
    # upper triangle.
    return [fock._Block(members, fock._from_upper(values)) for members, values in blocks]


def _scatter(blocks, cutoff):
    dense = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for members, values in blocks:
        for row in members:
            dense[np.ix_(row, row)] = values
    return dense


def _symmetrized(mat):
    return (mat + mat.conj().T) / 2.0


def _dense_assembly(state, cutoff, route=None):
    # Dense matrix of a state or mixture, scattered from the same factor,
    # sector and recurrence products as the graded routes, a mixture's
    # components summed entrywise, each written as its route writes it:
    # the reference for the block bookkeeping.  A mixture's components all
    # take their common route, else the recurrence.  A recurrence state
    # takes every entry of the full recurrence, with no working space and
    # no truncation, in the routes' order of indices (m_a, n_a, m_b, n_b);
    # the entries with n_a ≥ m_a are kept, the rest mirrored, and the
    # blocks of n_a = m_a symmetrized.
    if isinstance(state, GaussianMixture):
        routes = {plan_two_mode(comp).route for _, comp in state.components}
        route = routes.pop() if len(routes) == 1 else "bs"
        return sum(w * _symmetrized(_dense_assembly(comp, cutoff, route))
                   for w, comp in state.components)
    route = route or plan_two_mode(state).route
    if route == "tensor":
        return np.kron(fock._one_mode_matrix(state.n, state.m_a, cutoff),
                       fock._one_mode_matrix(state.n, state.m_b, cutoff))
    if route == "bs":
        order = [0, 2, 1, 3]
        a, t = fock._recurrence_start(_moment_matrix(state))
        full = fock._recurrence_entries(a[np.ix_(order, order)], t, cutoff)
        g = full.reshape((cutoff,) * 4).transpose(0, 2, 1, 3).reshape(cutoff ** 2, cutoff ** 2)
        na, _ = _labels(cutoff)
        below = na[:, None] > na[None, :]
        same = na[:, None] == na[None, :]
        return np.where(below, g.conj().T, np.where(same, _symmetrized(g), g))
    # A tms state takes the rows of the d-graded recurrence: slab j gives
    # row (j, j − d) of sector d and row (j − d, j) of its mirror −d.
    dense = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    a, t = fock._recurrence_start(_moment_matrix(state))
    for j, slab in enumerate(fock._sector_slabs(a, t, cutoff)):
        for m_b in range(j + 1):
            k = np.arange(j - m_b, cutoff)
            dense[j * cutoff + m_b, k * cutoff + k - j + m_b] = slab[m_b, j - m_b:]
            dense[m_b * cutoff + j, (k - j + m_b) * cutoff + k] = slab[m_b, j - m_b:]
    return dense


_ROUTE_STATES = {
    "tensor": TwoModeGaussian.pair_with_phase(OneModeGaussian(0.6, 0.3 + 0.4j), 0.8),
    "tms": _TMS_STATE,
    "bs": _BS_STATE,
    "werner": werner_mix(TwoModeGaussian.epr(0.8, 0.9 + 0j), 0.6),
    "bs+tms mixture": _BS_TMS_MIXTURE,
    "bs+tensor mixture": _BS_TENSOR_MIXTURE,
}


def _all_words(max_len):
    return [(i, j, k, l)
            for i in range(max_len + 1) for j in range(max_len + 1)
            for k in range(max_len + 1) for l in range(max_len + 1)
            if 1 <= i + j + k + l <= max_len]


class TestGradedStorage:
    @pytest.mark.parametrize("cutoff", [10, 40])
    def test_dense_view_equals_dense_assembly(self, cutoff):
        # Symmetrizing entrywise is exact arithmetic on mirrored pairs, so
        # the graded density must reproduce the dense assembly bit for bit.
        blocks = {"tensor": 4, "tms": cutoff, "bs": 2, "werner": cutoff, "bs+tms mixture": 2,
                  "bs+tensor mixture": 2}
        for name, state in _ROUTE_STATES.items():
            rho = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            dense = _dense_assembly(state, cutoff)
            assert len(rho._blocks) == blocks[name], name
            assert np.array_equal(rho.matrix, _symmetrized(dense)), name
            assert rho.trace() == pytest.approx(float(np.trace(dense).real), abs=1e-14), name

    def test_mirror_sectors_share_one_block(self):
        rho = fock.two_mode_density(_TMS_STATE, 12, eps_tr=1.0)
        copies = sorted(len(members) for members, _ in rho._blocks)
        assert copies == [1] + [2] * 11

    def test_rebuilding_a_state_is_bit_identical(self):
        # No route keeps state between builds: a state built before and
        # after another one comes out the same, bit for bit.
        other_bs = mode_rotation(
            beam_splitter(OneModeGaussian(0.3, -0.2j), OneModeGaussian(0.9, 0.6 + 0j), 0.0),
            1.3, -0.2)
        pairs = {
            "tms": (lambda s: fock.two_mode_density(s, 12, eps_tr=1.0),
                    _TMS_STATE, TwoModeGaussian.epr(1.1, 0.4 - 0.9j)),
            "bs": (lambda s: fock.two_mode_density(s, 12, eps_tr=1.0), _BS_STATE, other_bs),
            "tensor": (lambda s: fock.two_mode_density(s, 12, eps_tr=1.0),
                       _ROUTE_STATES["tensor"],
                       TwoModeGaussian.pair_with_phase(OneModeGaussian(0.9, -0.5j), 2.0)),
            "bs-output": (lambda lam: fock.two_mode_density(
                beam_splitter(*_BS_OUTPUT_INPUTS[:2], lam), 12, eps_tr=1.0), 0.9, -2.3),
        }
        for name, (build, first, second) in pairs.items():
            before = build(first)
            build(second)
            after = build(first)
            assert len(before._blocks) == len(after._blocks), name
            for b1, b2 in zip(_upper_read(before._blocks), _upper_read(after._blocks)):
                assert np.array_equal(b1.members, b2.members), name
                assert np.array_equal(b1.values, b2.values), name

    def test_moments_match_dense_trace_on_every_short_word(self):
        cutoff = 12
        a = annihilation(cutoff)
        ad = a.conj().T

        def ladder(n_create, n_annihilate):
            return np.linalg.matrix_power(ad, n_create) @ np.linalg.matrix_power(a, n_annihilate)

        one = fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), cutoff, eps_tr=1.0)
        for name, rho in (*_graded_densities(cutoff).items(), ("one-mode", one)):
            assert fock.moment_table(rho, 0) == {}, name
            table = fock.moment_table(rho, 6)
            words = _all_words(6) if rho.modes == 2 else [
                (i, 0, k, 0) for i in range(7) for k in range(7) if 1 <= i + k <= 6]
            assert sorted(table) == sorted(words), name
            for i, j, k, l in words:
                op = np.kron(ladder(i, k), ladder(j, l)) if rho.modes == 2 else ladder(i, k)
                expected = np.trace(rho.matrix @ op)
                got = fock.moment(rho, OperatorWord.from_counts(i, j, k, l))
                assert abs(got - expected) < 1e-12 * (1.0 + abs(expected)), (name, i, j, k, l)
                assert table[(i, j, k, l)] == got, (name, i, j, k, l)

    def test_measurements_never_build_the_dense_view(self):
        for rho in _graded_densities(10).values():
            fock.moment_table(rho, 4)
            fock.expectation_of_witness(rho, WitnessKind.WHBT)
            fock.ppt_min_eigenvalue(rho)
            rho.purity(), rho.min_eigenvalue(), rho.diagonal(), rho.trace()
            assert rho._matrix is None

    def test_spectral_measurements_match_dense(self):
        for name, rho in _graded_densities(10).items():
            dense = rho.matrix / rho.trace()
            assert rho.purity() == pytest.approx(float(np.sum(np.abs(dense) ** 2)), abs=1e-14)
            assert rho.min_eigenvalue() == pytest.approx(
                float(np.linalg.eigvalsh(dense)[0]), abs=1e-14), name
            assert np.array_equal(rho.diagonal(), rho.matrix.diagonal().real), name

    def test_a_block_set_with_a_gap_is_rejected(self):
        # A writer that drops a basis state fails loudly, instead of
        # reading zeros there and a smallest eigenvalue of 0.
        block = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        blocks = _written([([[0, 1]], block)])
        covered = fock.FockDensity._graded(1, 2, blocks, 0.0, fock._blocks_trace(blocks))
        assert covered.min_eigenvalue() > 0.3
        with pytest.raises(ValueError, match="do not partition the 3 basis states"):
            fock.FockDensity._graded(1, 3, blocks, 0.0, fock._blocks_trace(blocks))

    def test_lookup_reads_every_entry_of_the_dense_view(self):
        # Pairs in one block copy, in two copies of one block and in two
        # blocks, on every route at an even and an odd cutoff, the dense
        # and one-mode densities included.  The parity layout writes its
        # upper triangles alone, x ≤ y in flat index: only those are read.
        densities = []
        for cutoff in (6, 7):
            graded = _graded_densities(cutoff)
            bs = graded["bs"]
            densities += [*graded.values(),
                          fock.two_mode_density(_BS_TENSOR_MIXTURE, cutoff, eps_tr=1.0),
                          fock.FockDensity(2, cutoff, bs.matrix, bs.trace_deficit),
                          fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), cutoff,
                                                eps_tr=1.0)]
        for rho in densities:
            x, y = np.divmod(np.arange(rho.dim ** 2), rho.dim)
            if rho.modes == 2 and fock._parity_bands(rho) is not None:
                x, y = x[x <= y], y[x <= y]
            got = fock._lookup(rho, x, y)
            assert np.array_equal(got, rho.matrix[x, y])

    def test_non_hermitian_block_is_rejected_with_its_deviation(self):
        rho = fock.two_mode_density(_TMS_STATE, 8, eps_tr=1.0)
        mat = np.array(rho.matrix)
        row = rho._blocks[3].members[0]
        mat[row[0], row[1]] += 3e-9
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation 3e-09\)"):
            fock.FockDensity(2, 8, mat, 0.0)

    def test_overlapping_or_foreign_members_are_rejected(self):
        eye = np.eye(2, dtype=complex) / 2.0
        # An overlap, a foreign member and a gap.
        for members in ([[[0, 1]], [[1, 2]]], [[[0, 1]], [[2, 3]]], [[[0, 1]]]):
            blocks = _written([(m, eye) for m in members])
            with pytest.raises(ValueError, match="do not partition the 3 basis states"):
                fock.FockDensity._graded(1, 3, blocks, 0.0, fock._blocks_trace(blocks))

    def test_dense_view_is_read_only(self):
        rho = fock.two_mode_density(_BS_STATE, 8, eps_tr=1.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
        assert rho.matrix is rho.matrix

    def test_witnesses_match_the_five_moment_formula(self):
        def moment(rho, *counts):
            return fock.moment(rho, OperatorWord.from_counts(*counts))

        for name, rho in _graded_densities(12).items():
            cross = moment(rho, 1, 1, 1, 1).real
            numerator = 2.0 * cross + (moment(rho, 0, 2, 2, 0) + moment(rho, 2, 0, 0, 2)).real
            denominator = (moment(rho, 2, 0, 2, 0).real + moment(rho, 0, 2, 0, 2).real
                           + 2.0 * cross)
            expected = 0.5 - numerator / denominator
            got = fock.expectation_of_witness(rho, WitnessKind.WHBT)
            assert abs(got - expected) < 1e-14, name
        for s in (OneModeGaussian(0.6, 0.3 - 0.4j), OneModeGaussian(0.12, 0.29 + 0j)):
            rho = fock.one_mode_density(s, 12, eps_tr=1.0)
            expected = 3.0 - moment(rho, 2, 0, 2, 0).real / moment(rho, 1, 0, 1, 0).real ** 2
            assert abs(fock.expectation_of_witness(rho, WitnessKind.W2) - expected) < 1e-14

    def test_witnesses_reject_truncation_unsafe_cutoffs(self):
        one = fock.one_mode_density(OneModeGaussian(0.5, 0.2j), 7, eps_tr=1.0)
        two = fock.two_mode_density(_TMS_STATE, 7, eps_tr=1.0)
        for rho, kind in ((one, WitnessKind.W2), (two, WitnessKind.WHBT)):
            with pytest.raises(ValueError, match="truncation-unsafe at cutoff 7"):
                fock.expectation_of_witness(rho, kind)


class _HermitianMeanSpy:
    def __init__(self, monkeypatch):
        self.shapes = []
        original = fock._hermitian_mean

        def spy(mat, transposed):
            self.shapes.append(mat.shape)
            return original(mat, transposed)

        monkeypatch.setattr(fock, "_hermitian_mean", spy)


class TestWrittenBlocks:
    """Every route writes its blocks exactly Hermitian and checks what it
    writes where the data is small; ``FockDensity`` adopts the written
    blocks unchecked, so these pin the checks."""

    @pytest.mark.parametrize("size", [20, 80])
    def test_factor_matrix_is_exactly_zero_between_parities(self, size, rng):
        # The tensor route writes the kron of its factors as four class
        # blocks, (parity of n_a, parity of n_b), with nothing between them.
        parity = np.arange(size) % 2
        off = parity[:, None] != parity[None, :]
        for _ in range(6):
            s = random_physical_one_mode(rng, n_max=2.0)
            mat = fock._one_mode_matrix(s.n, s.m, size)
            assert np.all(mat[off] == 0.0)
            assert np.count_nonzero(mat[~off]) > size

    def test_constructor_blocks_are_exactly_hermitian(self):
        # Every entry a writer writes on both sides of a block's diagonal:
        # the whole block, but for the parity layout, which writes both
        # triangles of its n_a = m_a squares alone, and its mixtures, which
        # sum the upper triangles alone.
        one = fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), 12, eps_tr=1.0)
        for name, rho in (*_graded_densities(12).items(), ("one-mode", one)):
            bands = fock._parity_bands(rho) if rho.modes == 2 else None
            if bands is not None and rho.route == "mixture":
                continue
            squares = [values for _, values in rho._blocks] if bands is None else [
                np.diagonal(block, axis1=0, axis2=2).T for block in bands]
            for values in squares:
                assert np.array_equal(values, values.conj().swapaxes(-1, -2)), name

    def test_only_written_blocks_skip_the_output_check(self, monkeypatch):
        # Every check goes through one routine, and each call's shape pins
        # what a route checks.  The tensor route checks its two factors,
        # the one-mode route its factor and a mixture nothing of its own:
        # its components take one writer.  The tms route checks all its d
        # sectors in one call, on their 650 packed entries at cutoff 12.
        # The recurrence route checks the n_a = m_a squares only: at an
        # even cutoff all the squares of a block in one call, as a stack
        # (m_a, m_b/2, n_b/2), and at an odd one the two squares of each
        # slab, one per total parity, of 6 and 5 states at cutoff 11, so
        # the bs+tms mixture checks the slabs of both its components.
        # Only a dense matrix is checked by ``FockDensity``.
        spy = _HermitianMeanSpy(monkeypatch)
        sectors, squares = [(650,)], [(12, 6, 6), (12, 6, 6)]
        expected = {"tensor": [(12, 12), (12, 12)], "tms": sectors, "bs": squares,
                    "werner": sectors * 2, "bs+tms mixture": squares * 2,
                    "bs+tensor mixture": squares * 2}
        for name, state in _ROUTE_STATES.items():
            spy.shapes.clear()
            fock.two_mode_density(state, 12, eps_tr=1.0)
            assert spy.shapes == expected[name], name
        slabs = [(6, 6), (5, 5), (5, 5), (6, 6)] * 5 + [(6, 6), (5, 5)]
        for name, calls in (("bs", slabs), ("bs+tms mixture", slabs + slabs)):
            spy.shapes.clear()
            fock.two_mode_density(_ROUTE_STATES[name], 11, eps_tr=1.0)
            assert spy.shapes == calls, name
        spy.shapes.clear()
        rho = fock.two_mode_density(beam_splitter(*_BS_OUTPUT_INPUTS), 12, eps_tr=1.0)
        assert spy.shapes == squares
        spy.shapes.clear()
        fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), 12, eps_tr=1.0)
        assert spy.shapes == [(12, 12)]
        spy.shapes.clear()
        fock.FockDensity(2, 12, rho.matrix, rho.trace_deficit)
        assert spy.shapes == [(144, 144)]

    def test_each_written_block_set_is_summed_once(self, monkeypatch):
        # One trace per block set a writer fills: one per mixture component
        # and one for their sum, which the deficit and the density share.
        # The address of a set's first block tells the components apart; the
        # sum lives in the first component's buffer.
        summed = []
        original = fock._blocks_trace

        def spy(blocks):
            summed.append(next(iter(blocks)).values.ctypes.data)
            return original(blocks)

        monkeypatch.setattr(fock, "_blocks_trace", spy)
        for name, state in _ROUTE_STATES.items():
            summed.clear()
            rho = fock.two_mode_density(state, 12, eps_tr=1.0)
            if isinstance(state, GaussianMixture):
                components = len(state.components)
                assert len(summed) == components + 1 and summed[-1] == summed[0], name
                assert len(set(summed)) == components, name
            else:
                assert len(summed) == 1, name
            assert rho.trace() == original(rho._blocks), name
            assert rho.trace_deficit == 1.0 - rho.trace(), name
        for build in (lambda: fock.two_mode_density(beam_splitter(*_BS_OUTPUT_INPUTS), 12,
                                                    eps_tr=1.0),
                      lambda: fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), 12,
                                                    eps_tr=1.0)):
            summed.clear()
            rho = build()
            assert len(summed) == 1 and rho.trace() == original(rho._blocks)
        summed.clear()
        dense = fock.FockDensity(2, 12, np.eye(144) / 144, 0.0)
        assert len(summed) == 1 and dense.trace() == original(dense._blocks)

    def test_skewed_factor_is_rejected_on_both_routes(self, monkeypatch):
        # A skew of 1e-9 in ρ[0, 2] of a one-mode factor (the tensor and
        # one-mode routes), in ρ[(0, 0), (0, 2)] of the first slab of the
        # recurrence route, whose n_a = m_a squares are checked, all of a
        # block in one step at an even cutoff and one per slab at an odd
        # one: flat entry 1 of that slab, (n_a, m_b, q) = (0, 0, 1) with
        # n_b = 2q, and in
        # ρ[(0, 0), (1, 1)] of the tms route, V_0[0, 1] of its first sector
        # slab, on an EPR state and on both components of a Werner mixture.
        entries, slabs, sectors = fock._recurrence_entries, fock._parity_slabs, fock._sector_slabs

        def skewed_factor(a, t, cutoff):
            out = entries(a, t, cutoff)
            if a.shape == (2, 2):
                out[2] += 1e-9
            return out

        def skewed_slabs(a, t, cutoff):
            for k, slab in enumerate(slabs(a, t, cutoff)):
                if k == 0:
                    slab[1] += 1e-9
                yield slab

        def skewed_sectors(a, t, cutoff):
            out = sectors(a, t, cutoff)
            out[0, 0, 1] += 1e-9
            return out

        for name, patched, builds in (
                ("_recurrence_entries", skewed_factor,
                 (lambda: fock.two_mode_density(_ROUTE_STATES["tensor"], 10, eps_tr=1.0),
                  lambda: fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), 10,
                                                eps_tr=1.0))),
                ("_parity_slabs", skewed_slabs,
                 (lambda: fock.two_mode_density(_BS_STATE, 10, eps_tr=1.0),
                  lambda: fock.two_mode_density(_BS_STATE, 9, eps_tr=1.0),
                  lambda: fock.two_mode_density(beam_splitter(*_BS_OUTPUT_INPUTS), 10,
                                                eps_tr=1.0))),
                ("_sector_slabs", skewed_sectors,
                 (lambda: fock.two_mode_density(_TMS_STATE, 10, eps_tr=1.0),
                  lambda: fock.two_mode_density(_ROUTE_STATES["werner"], 10, eps_tr=1.0)))):
            monkeypatch.setattr(fock, name, patched)
            for build in builds:
                with pytest.raises(ValueError, match=r"not Hermitian \(deviation 1e-09\)"):
                    build()
            monkeypatch.undo()


def _nan_below(blocks):
    # NaN in every entry below each block's diagonal: the entries a lazy
    # writer leaves unwritten, or writes twice on its n_a = m_a squares.
    for _, values in blocks:
        values[np.tril_indices(values.shape[0], -1)] = np.nan
    return blocks


def _every_reader(rho):
    # Every reader of a density, each value as it is read.
    values = {"table": fock.moment_table(rho, 6), "trace": rho.trace(),
              "diagonal": rho.diagonal(), "matrix": rho.matrix, "purity": rho.purity(),
              "min_eigenvalue": rho.min_eigenvalue(), "nbytes": rho.nbytes}
    if rho.modes == 2:
        values["whbt"] = fock.expectation_of_witness(rho, WitnessKind.WHBT)
        values["ppt"] = fock.ppt_min_eigenvalue(rho)
    else:
        values["w2"] = fock.expectation_of_witness(rho, WitnessKind.W2)
    return values


def _assert_same_reads(got, expected, name):
    # Bit for bit, but for the signs of zeros in the dense view.
    assert got.keys() == expected.keys(), name
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got[key], value), (name, key)
        else:
            assert got[key] == value, (name, key)
        if key not in ("matrix", "table"):
            assert np.array_equal(np.array([got[key]]).view(np.uint8),
                                  np.array([value]).view(np.uint8)), (name, key)


class TestUnwrittenLowerTriangles:
    """The recurrence route writes each block's upper triangle only, and no
    one writes its lower triangles: every reader either reads none of them
    or takes each block through ``_from_upper``."""

    _STATES = {"bs": _BS_STATE, "bs-output": beam_splitter(*_BS_OUTPUT_INPUTS),
               "no family": TwoModeGaussian(1.0, 0.5, 0.2, 1.0)}

    @pytest.mark.parametrize("cutoff", [12, 13, 40])
    def test_upper_readers_never_read_below_the_diagonal(self, cutoff):
        # NaN in every unwritten entry reaches no reader: each equals its
        # value on the density as built, bit for bit.
        for name, state in self._STATES.items():
            origin = fock._Origin("recurrence", fock._swap_phase(state))
            lazy = fock._finish(2, cutoff, _nan_below(fock._recurrence_blocks(state, cutoff)),
                                1.0, origin)
            built = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            _assert_same_reads(_every_reader(lazy), _every_reader(built), name)
            assert not np.isnan(lazy.matrix).any(), name

    def test_one_mode_moments_read_the_upper_triangle(self):
        # Every one-mode word a†^i a^k with i < k takes its adjoint's
        # value, so W2 and the table read the upper triangle alone.
        s = OneModeGaussian(0.6, 0.3 - 0.4j)
        built = fock.one_mode_density(s, 12, eps_tr=1.0)
        blocks = fock._Written([np.arange(12)[None, :]])
        blocks[0].values[...] = fock._one_mode_matrix(s.n, s.m, 12)
        lazy = fock._finish(1, 12, _nan_below(blocks), 1.0, fock._Origin("one-mode"))
        assert fock.moment_table(lazy, 6) == fock.moment_table(built, 6)
        assert (fock.expectation_of_witness(lazy, WitnessKind.W2)
                == fock.expectation_of_witness(built, WitnessKind.W2))
        assert np.array_equal(lazy.matrix, built.matrix)

    def test_the_suite_reads_no_lower_triangle(self, monkeypatch):
        # At the default seed, 16 states give two recurrence-route states;
        # NaN below each of their diagonals would fail the suite.
        written = []
        original = fock._recurrence_blocks

        def recurrence_blocks(state, cutoff):
            written.append(state)
            return _nan_below(original(state, cutoff))

        monkeypatch.setattr(fock, "_recurrence_blocks", recurrence_blocks)
        assert run_concordance_suite(n_states=16, seed=DEFAULT_SEED).ok
        assert len(written) >= 2

    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_the_band_partial_transpose_is_the_dense_one(self, cutoff, capsys):
        # Every block read from the written bands is the block the lookup
        # gathers from a dense density of the same matrix: bit for bit from
        # one that stores ``matrix`` as it is, and but for the signs of
        # zeros from ``FockDensity(2, c, matrix, …)``, whose Hermitian mean
        # writes both zero imaginary parts of a real pair as −0.  The real
        # form reads the same each time.
        for name, state in self._STATES.items():
            rho = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            stored = _written([([np.arange(rho.dim)], rho.matrix)])
            dense = [fock.FockDensity._graded(2, cutoff, stored, rho.trace_deficit, rho.trace()),
                     fock.FockDensity(2, cutoff, rho.matrix, rho.trace_deficit)]
            parity = np.add(*np.divmod(np.arange(rho.dim), cutoff)) % 2
            members = [np.flatnonzero(parity == g) for g in (0, 1)]
            value = fock.ppt_min_eigenvalue(rho)
            assert fock.ppt_min_eigenvalue(rho) == value, name
            blocks = [fock._partial_transpose_block(rho, m) for m in members]
            phase = rho._origin.swap_phase
            forms = [None if phase is None else fock._symmetric_form(rho, m, phase)
                     for m in members]
            for block, m in zip(blocks, members):
                as_is, meaned = (fock._partial_transpose_rows(d, m, 0, m.size) for d in dense)
                assert np.array_equal(block.view(np.uint64), as_is.view(np.uint64)), name
                assert np.array_equal(block, meaned), name
            if phase is not None:
                assert [form is not None for form in forms] == [True, True], name
                assert all(np.array_equal(a, fock._symmetric_form(rho, m, phase))
                           for a, m in zip(forms, members)), name
        args = ["classify", "bs-output", "--n", "0.1", "--m", "0.08", "--lam", "0.3",
                "--oracle", "--cutoff", str(cutoff), "--format", "json"]
        assert cli.main(args) == 0
        assert "oracle_ppt_min_eig" in capsys.readouterr().out


def _copied_densities(cutoff):
    """Builders of a fresh density of each route, the recurrence route's
    (``bs``, with a swap phase) lower triangles unwritten, and of a dense
    one."""
    builders = {name: functools.partial(fock.two_mode_density, state, cutoff, eps_tr=1.0)
                for name, state in _ROUTE_STATES.items()}
    bs = builders["bs"]()
    builders["one-mode"] = functools.partial(
        fock.one_mode_density, OneModeGaussian(0.6, 0.3 - 0.4j), cutoff, eps_tr=1.0)
    builders["dense"] = functools.partial(fock.FockDensity, 2, cutoff, bs.matrix,
                                          bs.trace_deficit)
    return builders


_CLONES = pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda rho: pickle.loads(pickle.dumps(rho))],
    ids=["copy", "deepcopy", "pickle"])


class TestCopies:
    @_CLONES
    def test_a_copy_is_the_density_bit_for_bit(self, clone):
        for name, build in _copied_densities(12).items():
            rho = build()
            twin = clone(rho)
            assert twin is not rho, name
            assert np.array_equal(twin.matrix, rho.matrix), name
            assert fock.moment_table(twin, 6) == fock.moment_table(rho, 6), name
            if rho.modes == 2:
                assert fock.ppt_min_eigenvalue(twin) == fock.ppt_min_eigenvalue(rho), name
            assert (twin.route, twin._origin, twin.trace_deficit, twin.trace(), twin.nbytes) == (
                rho.route, rho._origin, rho.trace_deficit, rho.trace(), rho.nbytes), name
            with pytest.raises(FrozenInstanceError):
                twin.cutoff = 3

    @_CLONES
    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_a_copy_holds_no_unwritten_memory(self, clone, cutoff):
        # A density built over NaN below every diagonal copies into a
        # buffer with none, and its twin reads as it does on every reader.
        for name, state in TestUnwrittenLowerTriangles._STATES.items():
            origin = fock._Origin("recurrence", fock._swap_phase(state))
            rho = fock._finish(2, cutoff, _nan_below(fock._recurrence_blocks(state, cutoff)),
                               1.0, origin)
            assert np.isnan(rho._packed).any(), name
            twin = clone(rho)
            assert not np.isnan(twin._packed).any(), name
            _assert_same_reads(_every_reader(twin), _every_reader(rho), name)


class TestReadOnlyStorage:
    def test_no_write_reaches_a_density(self):
        # The packed buffer is read-only from adoption on, on its base
        # array: neither it nor any block view takes a write, or can be
        # made writable again.
        for name, build in _copied_densities(7).items():
            rho = build()
            assert not rho._packed.base.flags.writeable, name
            for array in (rho._packed, rho._packed.view(),
                          *(values for _, values in rho._blocks)):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0.0
                with pytest.raises(ValueError):
                    array.flags.writeable = True


class TestAdjointWords:
    def test_adjoint_words_take_conjugate_values_on_every_route(self):
        # moment(ρ, W†) = conj(moment(ρ, W)) exactly, and the table, the
        # single moment and the witnesses agree bit for bit.  A word and
        # its adjoint read one band, so no summation order can part them
        # (at cutoff 40 they did on one mode, by an ulp).
        densities = dict(_graded_densities(12))
        for cutoff in (12, 40):
            densities[f"one-mode {cutoff}"] = fock.one_mode_density(
                OneModeGaussian(0.6, 0.3 - 0.4j), cutoff, eps_tr=1.0)
        bs = densities["bs"]
        densities["dense"] = fock.FockDensity(2, 12, bs.matrix, bs.trace_deficit)
        for name, rho in densities.items():
            table = fock.moment_table(rho, 6)
            for (i, j, k, l), value in table.items():
                got = fock.moment(rho, OperatorWord.from_counts(i, j, k, l))
                adjoint = fock.moment(rho, OperatorWord.from_counts(k, l, i, j))
                assert got == value and table[(k, l, i, j)] == adjoint, (name, i, j, k, l)
                assert adjoint == value.conjugate(), (name, i, j, k, l)
            if rho.modes == 1:
                expected = 3.0 - table[(2, 0, 2, 0)].real / table[(1, 0, 1, 0)].real ** 2
                assert fock.expectation_of_witness(rho, WitnessKind.W2) == expected, name
                continue
            cross = table[(1, 1, 1, 1)].real
            numerator = 2.0 * cross + (table[(0, 2, 2, 0)] + table[(2, 0, 0, 2)]).real
            denominator = table[(2, 0, 2, 0)].real + table[(0, 2, 0, 2)].real + 2.0 * cross
            assert fock.expectation_of_witness(rho, WitnessKind.WHBT) == (
                0.5 - numerator / denominator), name


def _imports(module):
    """(module imported from, names) of every import statement of ``module``."""
    tree = ast.parse(inspect.getsource(module))
    return tree, [("." * node.level + (node.module or ""), {a.name for a in node.names})
                  if isinstance(node, ast.ImportFrom) else ("", {a.name for a in node.names})
                  for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_fock_imports_only_states_the_gate_and_the_witness_kind():
    # A beam-splitter output is built from its moments, so ``fock`` needs
    # nothing of ``transforms``.
    _, imports = _imports(fock)
    internal = dict(imp for imp in imports if imp[0].startswith("."))
    assert set(internal) == {".separability", ".states", ".witnesses"}
    assert internal[".witnesses"] == {"WitnessKind"}
    assert not any("transforms" in source or any("transforms" in name for name in names)
                   for source, names in imports)


def test_reference_unitaries_share_no_ladder_matrix_with_fock():
    # The dense references build their own truncated ladder matrix, so a
    # fault in the oracle's band weights cannot reach them.
    tree, imports = _imports(_fock_reference)
    assert not any(isinstance(node, ast.Attribute) and node.attr == "annihilation"
                   and isinstance(node.value, ast.Name) and node.value.id == "fock"
                   for node in ast.walk(tree))
    assert not any("fock" in names or "squeezekit.fock" in names for _, names in imports)


def test_fock_imports_no_wick_symbols():
    tree = ast.parse(inspect.getsource(fock))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & {"wick_moment", "_counts_moment", "LadderToken"}
