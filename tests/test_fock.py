import ast
import cmath
import inspect
import math

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
    mode_rotation,
    purity_one_mode,
    w2_expectation,
    werner_mix,
    whbt_closed_form_epr,
)
from squeezekit import fock

from conftest import random_physical_one_mode

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
    def test_annihilation_matrix(self):
        a = fock.annihilation(4)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(math.sqrt(2.0))
        assert a[2, 3] == pytest.approx(math.sqrt(3.0))
        assert np.count_nonzero(a) == 3

    def test_commutator_on_retained_block(self):
        a = fock.annihilation(30)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[:29, :29], np.eye(29)[:29, :29] * 1.0)


class TestUnitaries:
    def test_squeeze_is_exactly_unitary(self):
        u = fock.squeeze_unitary(40, 0.7, 0.8)
        assert np.max(np.abs(u.conj().T @ u - np.eye(40))) < 1e-12

    def test_squeeze_matches_taylor_series(self):
        cutoff, r, phi = 14, 0.35, 1.1
        a = fock.annihilation(cutoff)
        xi = r * cmath.exp(1j * phi)
        g = 0.5 * (np.conj(xi) * (a @ a) - xi * (a.conj().T @ a.conj().T))
        assert np.max(np.abs(fock.squeeze_unitary(cutoff, r, phi) - _expm_taylor(g))) < 1e-10

    def test_beam_splitter_matches_taylor_series(self):
        cutoff, lam = 8, 0.9
        a = fock.annihilation(cutoff)
        ad = a.conj().T
        eye = np.eye(cutoff)
        phase = cmath.exp(1j * lam)
        g = (math.pi / 4.0) * (phase * np.kron(ad, a) - np.conj(phase) * np.kron(a, ad))
        nb = np.kron(eye, np.diag(np.arange(cutoff)))
        rot = _expm_taylor(1j * (lam + math.pi) * nb)
        expected = rot @ _expm_taylor(g)
        assert np.max(np.abs(fock.beam_splitter_unitary(cutoff, lam).dense() - expected)) < 1e-9

    def test_two_mode_squeeze_matches_taylor_series(self):
        cutoff, r, phi = 8, 0.4, -0.7
        a = fock.annihilation(cutoff)
        ad = a.conj().T
        xi = r * cmath.exp(1j * phi)
        g = np.conj(xi) * np.kron(a, a) - xi * np.kron(ad, ad)
        got = fock.two_mode_squeeze_unitary(cutoff, r, phi).dense()
        assert np.max(np.abs(got - _expm_taylor(g))) < 1e-10

    def test_truncated_unitarity_on_retained_block(self):
        # Unitarity defect below 1e-8 away from the truncation boundary
        # (the construction is exactly unitary everywhere, so this holds
        # with a wide margin).
        for u in (fock.beam_splitter_unitary(20, 1.3).dense(),
                  fock.two_mode_squeeze_unitary(20, 0.5, 0.2).dense()):
            defect = u.conj().T @ u - np.eye(u.shape[0])
            keep = int(0.8 * u.shape[0])
            assert np.max(np.abs(defect[:keep, :keep])) < 1e-8

    def test_block_conjugate_matches_dense(self):
        u = fock.beam_splitter_unitary(8, 0.6)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        rho = m @ m.conj().T
        dense = u.dense()
        assert np.allclose(u.conjugate(rho), dense @ rho @ dense.conj().T, atol=1e-9)

    def test_block_column_extraction(self):
        u = fock.two_mode_squeeze_unitary(10, 0.3, 0.4)
        dense = u.dense()
        for idx in (0, 7, 55, 99):
            assert np.allclose(u.column(idx), dense[:, idx], atol=1e-12)


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
        bs = fock.bs_output_density(OneModeGaussian(1.0, complex(mc)),
                                    OneModeGaussian(1.0, complex(-mc)), 0.0, 30)
        assert np.max(np.abs(tms.matrix - bs.matrix)) < 1e-8

    def test_bs_output_matches_epr_entrywise(self):
        s = OneModeGaussian(1.0, complex(SQRT2))
        rho_bs = fock.bs_output_density(s, s, math.pi / 2, 40)
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

    def test_unsupported_pattern_raises(self):
        bad = TwoModeGaussian(1.0, 0.5 + 0j, 0.1 + 0j, 0.2 + 0j, 0j)
        with pytest.raises(fock.UnsupportedStateError):
            fock.two_mode_density(bad, 20)


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
        rho_below = fock.bs_output_density(s_below, s_below, math.pi / 2, 30)
        rho_above = fock.bs_output_density(s_above, s_above, math.pi / 2, 30)
        assert fock.ppt_min_eigenvalue(rho_below) >= -1e-6
        assert fock.ppt_min_eigenvalue(rho_above) < -1e-6
        assert bs_output_is_separable(n, m_star - 0.01, math.pi / 2)
        assert not bs_output_is_separable(n, m_star + 0.01, math.pi / 2)


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


class TestPhysicalitySummary:
    def test_matches_unprojected_candidate_spectrum(self):
        # Rebuild the unprojected working candidate explicitly and compare
        # its dense spectrum with the closed-form summary.
        state = TwoModeGaussian(0.9, 0.5 * cmath.exp(0.3j), 0.5 * cmath.exp(1.2j),
                                0.4 * cmath.exp(-0.5j), 0j)
        cutoff = 12
        plan = fock._plan_two_mode(state)
        made = []
        for factor in (plan.factor1, plan.factor2):
            w = fock._thermal_weights(factor.nbar, cutoff)
            u = fock.squeeze_unitary(cutoff, factor.r, factor.phi)
            made.append((u * w) @ u.conj().T)
        candidate = np.kron(made[0], made[1])
        mixer = fock.beam_splitter_unitary(cutoff, 0.0)
        candidate = mixer.conjugate(candidate)
        d = fock.rotation_phases(cutoff, plan.theta_c, plan.theta_d)
        candidate = d[:, None] * candidate * d.conj()[None, :]
        dense_min = float(np.linalg.eigvalsh((candidate + candidate.conj().T) / 2)[0])
        summary_min, deficit = fock.physicality_summary(state, cutoff)
        assert summary_min == pytest.approx(dense_min, abs=1e-12)
        assert deficit == pytest.approx(1.0 - float(np.trace(candidate).real), abs=1e-12)

    def test_none_for_wildly_nonphysical_moments(self):
        state = TwoModeGaussian.epr(0.5, 2.0 + 0j)
        assert fock.physicality_summary(state, 15) is None

    def test_negative_weight_for_slightly_nonphysical(self):
        state = TwoModeGaussian.epr(1.0, 1.43 + 0j)
        min_eig, _ = fock.physicality_summary(state, 15)
        assert min_eig < -1e-8


class TestDump:
    def test_round_trip(self, tmp_path):
        rho = fock.two_mode_density(TwoModeGaussian.epr(0.7, 0.6 + 0.2j), 12, eps_tr=1e-2)
        path = tmp_path / "density.bin"
        fock.save_density(rho, path)
        loaded = fock.load_density(path)
        assert loaded.modes == 2
        assert loaded.cutoff == 12
        assert np.array_equal(loaded.matrix, rho.matrix)
        assert loaded.trace_deficit == pytest.approx(rho.trace_deficit, abs=1e-12)

    def test_header_layout(self, tmp_path):
        rho = fock.one_mode_density(OneModeGaussian(0.3, 0j), 5, eps_tr=1e-2)
        path = tmp_path / "density.bin"
        fock.save_density(rho, path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 25 * 16
        assert raw[:16] == (1).to_bytes(4, "little") + (5).to_bytes(4, "little") + b"\x00" * 8


def _labels(cutoff):
    return np.divmod(np.arange(cutoff * cutoff), cutoff)


def _dense_factor(factor, dim):
    # Squeezed thermal factor from one dense exponential of the full
    # generator, without the per-parity split.
    a = fock.annihilation(dim)
    xi = factor.r * cmath.exp(1j * factor.phi)
    g = 0.5 * (np.conj(xi) * (a @ a) - xi * (a.conj().T @ a.conj().T))
    s = fock._expm_antihermitian(g)
    return (s * fock._thermal_weights(factor.nbar, dim)) @ s.conj().T


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
# Its components have different blocks, so it is summed on total parity.
_BS_TMS_MIXTURE = GaussianMixture(((0.3, _BS_STATE), (0.7, _TMS_STATE)))


def _graded_densities(cutoff):
    return {
        "tensor": fock.two_mode_density(
            TwoModeGaussian.pair_with_phase(OneModeGaussian(0.6, 0.3 + 0.4j), 0.8), cutoff,
            eps_tr=1.0),
        "tms": fock.two_mode_density(_TMS_STATE, cutoff, eps_tr=1.0),
        "bs": fock.two_mode_density(_BS_STATE, cutoff, eps_tr=1.0),
        "bs-output": fock.bs_output_density(OneModeGaussian(0.6, 0.5 + 0j),
                                            OneModeGaussian(0.4, 0.2j), 0.9, cutoff,
                                            eps_tr=1.0),
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
        plan = fock._plan_two_mode(state)
        w = fock._thermal_weights(plan.factor1.nbar, working)
        u = fock.two_mode_squeeze_unitary(working, plan.tms_r, plan.tms_phi).dense()
        dense = u @ np.diag(np.kron(w, w)) @ u.conj().T
        got = fock.two_mode_density(state, cutoff, eps_tr=1.0).matrix
        assert np.max(np.abs(got - _restrict(dense, cutoff, working))) < 1e-13

    def test_bs_route_matches_dense_reference(self):
        cutoff, working = 10, 20
        plan = fock._plan_two_mode(_BS_STATE)
        assert plan.route == "bs"
        mixer = fock.beam_splitter_unitary(working, 0.0).dense()
        rho_in = np.kron(_dense_factor(plan.factor1, working), _dense_factor(plan.factor2, working))
        dense = _restrict(mixer @ rho_in @ mixer.conj().T, cutoff, working)
        d = fock.rotation_phases(cutoff, plan.theta_c, plan.theta_d)
        dense = d[:, None] * dense * d.conj()[None, :]
        got = fock.two_mode_density(_BS_STATE, cutoff, eps_tr=1.0).matrix
        assert np.max(np.abs(got - dense)) < 1e-13

    def test_bs_output_matches_dense_reference(self):
        cutoff, working, lam = 10, 20, 0.9
        sa, sb = OneModeGaussian(0.6, 0.5 + 0j), OneModeGaussian(0.4, 0.2j)
        factors = [fock._solve_squeezed_thermal(s.n, s.m) for s in (sa, sb)]
        mixer = fock.beam_splitter_unitary(working, lam).dense()
        rho_in = np.kron(_dense_factor(factors[0], working), _dense_factor(factors[1], working))
        dense = _restrict(mixer @ rho_in @ mixer.conj().T, cutoff, working)
        got = fock.bs_output_density(sa, sb, lam, cutoff, eps_tr=1.0).matrix
        assert np.max(np.abs(got - dense)) < 1e-13


class TestBandMeasurement:
    def test_moment_matches_dense_trace(self, rng):
        cutoff = 12
        a = fock.annihilation(cutoff)
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
    def test_graded_densities_match_dense_spectrum(self):
        for name, rho in _graded_densities(12).items():
            assert fock.ppt_min_eigenvalue(rho) == pytest.approx(
                _dense_partial_transpose_min(rho), abs=1e-13), name

    def test_non_graded_density_gets_full_spectrum(self):
        # Local displacements keep the entanglement of the pair but break
        # every photon-number grading, so no block split is exact.
        cutoff = 10
        epr = fock.two_mode_density(TwoModeGaussian.epr(0.5, 0.6 + 0j), cutoff, eps_tr=1.0)
        u = np.kron(fock.displacement_unitary(cutoff, 0.3 + 0.1j),
                    fock.displacement_unitary(cutoff, -0.2j))
        mat = u @ epr.matrix @ u.conj().T
        mat = (mat + mat.conj().T) / 2.0
        rho = fock.FockDensity(2, cutoff, mat, 1.0 - float(np.trace(mat).real))
        na, nb = _labels(cutoff)
        parity = (na + nb) % 2
        assert np.any(rho.matrix[parity[:, None] != parity[None, :]] != 0.0)
        dense = _dense_partial_transpose_min(rho)
        assert dense < -1e-3
        assert fock.ppt_min_eigenvalue(rho) == pytest.approx(dense, abs=1e-13)


class TestValidation:
    def _skewed(self):
        rho = fock.two_mode_density(TwoModeGaussian.thermal_pair(0.3), 8, eps_tr=1.0)
        mat = np.array(rho.matrix)
        mat[0, 1] += 1e-9
        return mat

    def test_finish_rejects_non_hermitian_assembly(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            fock._finish(2, 8, [fock._Block(None, self._skewed())], 1.0)

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


def _dense_bs(f1, f2, lam, theta_c, theta_d, cutoff):
    # The bs route's per-parity products, scattered into a dense matrix:
    # the λ = 0 mixer blocks, factor 1 squeezed at φ − 2λ and λ in the row
    # phases.
    cw = 2 * cutoff
    rho1 = fock._factor_matrix(fock._SqueezedThermal(f1.nbar, f1.r, f1.phi - 2.0 * lam), cw)
    rho2 = fock._factor_matrix(f2, cw)
    max_total = 2 * (cutoff - 1)
    mixer = fock._mixer_blocks(max_total)
    dense = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for parity in (0, 1):
        totals = range(parity, max_total + 1, 2)
        rows, flat = [], []
        for total in totals:
            js = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
            phases = np.exp(1j * ((theta_c + lam) * js + (theta_d + lam + math.pi) * (total - js)))
            rows.append(phases[:, None] * mixer[total][js])
            flat.append(js * cutoff + (total - js))
        ja = np.concatenate([np.arange(total + 1) for total in totals])
        jb = np.concatenate([total - np.arange(total + 1) for total in totals])
        starts = np.cumsum([0] + [total + 1 for total in totals])
        n_out = sum(b.shape[0] for b in rows)
        half = np.concatenate(
            [b @ (rho1[ja[lo:hi]][:, ja] * rho2[jb[lo:hi]][:, jb])
             for b, lo, hi in zip(rows, starts[:-1], starts[1:])])
        out = np.empty((n_out, n_out), dtype=complex)
        at = 0
        for b, lo, hi in zip(rows, starts[:-1], starts[1:]):
            out[:, at:at + b.shape[0]] = half[:, lo:hi] @ b.conj().T
            at += b.shape[0]
        idx = np.concatenate(flat)
        dense[np.ix_(idx, idx)] = out
    return dense


def _dense_assembly(state, cutoff):
    # Dense matrix of a state or mixture, scattered sector by sector from
    # the same factor and sector products as the graded routes, and summed
    # entrywise: the reference for the block bookkeeping.
    if isinstance(state, GaussianMixture):
        return sum(w * _dense_assembly(comp, cutoff) for w, comp in state.components)
    plan = fock._plan_two_mode(state)
    if plan.route == "tensor" or (plan.route == "tms" and plan.tms_r == 0.0):
        return np.kron(fock._one_mode_matrix(plan.factor1, cutoff),
                       fock._one_mode_matrix(plan.factor2, cutoff))
    if plan.route == "bs":
        return _dense_bs(plan.factor1, plan.factor2, 0.0, plan.theta_c, plan.theta_d, cutoff)
    cw = 2 * cutoff
    w = fock._thermal_weights(plan.factor1.nbar, cw)
    z = -plan.tms_r * cmath.exp(1j * plan.tms_phi)
    dense = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for d in range(cutoff):
        js = np.arange(d, cw)
        weights = w[js] * w[js - d]
        keep = np.abs(weights) > fock._WEIGHT_FLOOR
        ja = js[:cutoff - d]
        c_d = fock._sector_exponential("tms", cw, d, z, rows=slice(ja.size), cols=keep)
        sector = (c_d * weights[keep]) @ c_d.conj().T
        for idx in (ja * cutoff + (ja - d), (ja - d) * cutoff + ja):
            dense[np.ix_(idx, idx)] = sector
    return dense


_BS_OUTPUT_INPUTS = (OneModeGaussian(0.6, 0.5 + 0j), OneModeGaussian(0.4, 0.2j), 0.9)
_ROUTE_STATES = {
    "tensor": TwoModeGaussian.pair_with_phase(OneModeGaussian(0.6, 0.3 + 0.4j), 0.8),
    "tms": _TMS_STATE,
    "bs": _BS_STATE,
    "werner": werner_mix(TwoModeGaussian.epr(0.8, 0.9 + 0j), 0.6),
    "bs+tms mixture": _BS_TMS_MIXTURE,
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
        blocks = {"tensor": 4, "tms": cutoff, "bs": 2, "werner": cutoff, "bs+tms mixture": 2}
        for name, state in _ROUTE_STATES.items():
            rho = fock.two_mode_density(state, cutoff, eps_tr=1.0)
            dense = _dense_assembly(state, cutoff)
            assert len(rho._blocks) == blocks[name], name
            assert np.array_equal(rho.matrix, (dense + dense.conj().T) / 2.0), name
            assert rho.trace() == pytest.approx(float(np.trace(dense).real), abs=1e-14), name
        sa, sb, lam = _BS_OUTPUT_INPUTS
        rho = fock.bs_output_density(sa, sb, lam, cutoff, eps_tr=1.0)
        factors = [fock._solve_squeezed_thermal(s.n, s.m) for s in (sa, sb)]
        dense = _dense_bs(*factors, lam, 0.0, 0.0, cutoff)
        assert np.array_equal(rho.matrix, (dense + dense.conj().T) / 2.0)

    def test_mirror_sectors_share_one_block(self):
        rho = fock.two_mode_density(_TMS_STATE, 12, eps_tr=1.0)
        copies = sorted(len(members) for members, _ in rho._blocks)
        assert copies == [1] + [2] * 11

    def test_moments_match_dense_trace_on_every_short_word(self):
        cutoff = 12
        a = fock.annihilation(cutoff)
        ad = a.conj().T

        def ladder(n_create, n_annihilate):
            return np.linalg.matrix_power(ad, n_create) @ np.linalg.matrix_power(a, n_annihilate)

        one = fock.one_mode_density(OneModeGaussian(0.6, 0.3 - 0.4j), cutoff, eps_tr=1.0)
        for name, rho in (*_graded_densities(cutoff).items(), ("one-mode", one)):
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

    def test_uncovered_state_contributes_eigenvalue_zero(self):
        block = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        covered = fock.FockDensity._graded(1, 2, [fock._Block(np.array([[0, 1]]), block)], 0.0)
        assert covered.min_eigenvalue() > 0.3
        partial = fock.FockDensity._graded(1, 3, [fock._Block(np.array([[0, 1]]), block)], 0.0)
        assert partial.min_eigenvalue() == 0.0
        assert np.array_equal(partial.diagonal(), [0.6, 0.4, 0.0])

    def test_non_hermitian_block_is_rejected_with_its_deviation(self):
        rho = fock.two_mode_density(_TMS_STATE, 8, eps_tr=1.0)
        blocks = [fock._Block(members, np.array(values)) for members, values in rho._blocks]
        blocks[3].values[0, 1] += 3e-9
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation 3e-09\)"):
            fock.FockDensity._graded(2, 8, blocks, 0.0)

    def test_overlapping_or_foreign_members_are_rejected(self):
        eye = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(ValueError, match="overlap"):
            fock.FockDensity._graded(1, 3, [fock._Block(np.array([[0, 1]]), eye),
                                            fock._Block(np.array([[1, 2]]), eye)], 0.0)
        with pytest.raises(ValueError, match="outside"):
            fock.FockDensity._graded(1, 3, [fock._Block(np.array([[2, 3]]), eye)], 0.0)

    def test_dense_view_is_read_only(self):
        rho = fock.two_mode_density(_BS_STATE, 8, eps_tr=1.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
        assert rho.matrix is rho.matrix

    def test_graded_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "density.bin"
        for name, rho in _graded_densities(8).items():
            fock.save_density(rho, path)
            loaded = fock.load_density(path)
            assert np.array_equal(loaded.matrix, rho.matrix), name
            assert loaded.trace() == pytest.approx(rho.trace(), abs=1e-15), name

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


def _explicit_sector_generator(kind, n_states, sector, z):
    # Sector block of z L − z̄ L†, L the raising part of the generator, read
    # from the ladder matrices: a†² on one mode, a†b† or a†b on two.  The
    # cutoff is chosen so that the sector holds ``n_states`` states.
    if kind == "squeeze":
        size = 2 * n_states
        ad = fock.creation(size)
        idx = np.arange(sector, size, 2)
        raising = (ad @ ad)[np.ix_(idx, idx)]
    elif kind == "tms":
        d = sector
        size = n_states + abs(d)
        ad = fock.creation(size)
        ja = np.arange(max(0, d), size + min(0, d))
        raising = ad[np.ix_(ja, ja)] * ad[np.ix_(ja - d, ja - d)]
    else:
        size, total = sector
        ad = fock.creation(size)
        ja = fock._mixer_states(size, total)
        raising = ad[np.ix_(ja, ja)] * ad.conj().T[np.ix_(total - ja, total - ja)]
    assert raising.shape == (n_states, n_states)
    return size, z * raising - np.conj(z) * raising.conj().T


class TestSectorExponential:
    @pytest.mark.parametrize("n_states", [1, 2, 41, 80])
    def test_matches_dense_exponential_of_the_explicit_generator(self, n_states):
        rng = np.random.default_rng(n_states)
        draws = [float(rng.uniform(0.05, 1.0)) * cmath.exp(1j * float(rng.uniform(-3.0, 3.0)))
                 for _ in range(2)]
        lams = [0.0, float(rng.uniform(-math.pi, math.pi))]
        cases = []
        for z in (*draws, 0.7):
            cases += [("squeeze", parity, parity, z) for parity in (0, 1)]
            cases += [("tms", d, abs(d), z) for d in (0, 3, -3)]
        for lam in lams:
            z = (math.pi / 4.0) * cmath.exp(1j * lam)
            # An untruncated sector and one cut by the cutoff.
            for size, total in ((n_states + 1, n_states - 1), (n_states + 2, n_states + 3)):
                cases.append(("mixer", (size, total), total, z))
        for kind, spec, sector, z in cases:
            size, g = _explicit_sector_generator(kind, n_states, spec, z)
            got = fock._sector_exponential(kind, size, sector, z)
            assert np.max(np.abs(got - fock._expm_antihermitian(g))) < 1e-13, (kind, spec, z)

    def test_rows_and_columns_select_from_the_full_block(self):
        z = 0.4 * cmath.exp(-2.1j)
        full = fock._sector_exponential("tms", 20, 2, z)
        keep = np.arange(18) % 3 != 1
        part = fock._sector_exponential("tms", 20, 2, z, rows=slice(7), cols=keep)
        assert np.allclose(part, full[:7, keep], rtol=0.0, atol=1e-15)

    def test_cached_spectra_are_read_only(self):
        fock.two_mode_density(_BS_STATE, 10, eps_tr=1.0)
        lam, v = fock._sector_spectrum("tms", 20, 3)
        for arr in (lam, v, *fock._mixer_blocks(18)):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0

    def test_assembly_leaves_the_caches_unchanged(self):
        fock._sector_spectrum.cache_clear()
        fock._mixer_blocks.cache_clear()
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
            "bs-output": (lambda lam: fock.bs_output_density(*_BS_OUTPUT_INPUTS[:2], lam, 12,
                                                             eps_tr=1.0), 0.9, -2.3),
        }
        for name, (build, first, second) in pairs.items():
            before = build(first)
            build(second)
            after = build(first)
            assert len(before._blocks) == len(after._blocks), name
            for b1, b2 in zip(before._blocks, after._blocks):
                assert np.array_equal(b1.members, b2.members), name
                assert np.array_equal(b1.values, b2.values), name


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
