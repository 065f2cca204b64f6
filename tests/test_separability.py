import cmath
import math
import random

import numpy as np
import pytest

from squeezekit import (
    EPS_PHYS,
    GaussianMixture,
    NonPhysicalStateError,
    OneModeGaussian,
    OperatorWord,
    TwoModeGaussian,
    beam_splitter,
    bs_output_is_separable,
    epr_is_entangled,
    fock,
    fringe_prefactor,
    fringe_value,
    general_is_separable,
    hbt_correlation,
    is_physical_two_mode,
    is_separable,
    purity_one_mode,
    visibilities_general,
    visibilities_uncorrelated,
    visibility_epr,
    visibility_werner,
    werner_hbt_threshold,
    werner_mix,
    werner_ppt_threshold,
    whbt_expectation,
    wick_moment,
)
from squeezekit.oracle_check import MOMENT_RTOL, relative_error
from squeezekit.separability import (_moment_matrix, _require_epr_physical,
                                     _require_general_physical)
from squeezekit.states import _lowest_eigenvalue

from _fock_reference import candidate_weight_summary, plan_two_mode
from conftest import random_physical_one_mode

SQRT2 = math.sqrt(2.0)
# How far below zero the smallest weight of the oracle's candidate density
# may dip before the candidate counts as no state.
EPS_EIG = 1e-8


class TestEprCriterion:
    def test_examples(self):
        assert epr_is_entangled(1.0, 1.2)
        assert not epr_is_entangled(1.0, 0.5)
        assert epr_is_entangled(1.0, SQRT2)

    def test_boundary_counts_separable(self):
        assert not epr_is_entangled(1.0, 1.0)

    def test_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            epr_is_entangled(1.0, 1.5)


class TestEprGateClosedForm:
    """``_require_epr_physical`` is the two-mode gate of the cross-correlated
    pattern in closed form, behind every parameter-family formula."""

    @staticmethod
    def _closed_form_accepts(n, mc_abs):
        try:
            _require_epr_physical(n, mc_abs)
        except NonPhysicalStateError:
            return False
        return True

    def test_agrees_with_gate(self):
        # Half the draws sit within 3e-9 of |m_c| = sqrt(n(n+1)), where the
        # smallest eigenvalue of <zeta zeta^dag> crosses -EPS_PHYS; the rest
        # are spread over the whole range.  Only round-off may part the two
        # verdicts, where the eigenvalue is within 1e-13 of the tolerance.
        draws = np.random.default_rng(20240611)
        near = {True: 0, False: 0}
        disagreements = 0
        for k in range(16000):
            n = float(draws.uniform(0.0, 100.0 if k % 2 else 2.0))
            bound = math.sqrt(n * (n + 1.0))
            for mc_abs, on_boundary in ((bound + float(draws.uniform(-3e-9, 3e-9)), True),
                                        (float(draws.uniform(0.0, 1.5)) * bound, False)):
                state = TwoModeGaussian.epr(n, mc_abs * cmath.exp(1j * draws.uniform(0, 2 * math.pi)))
                gate = is_physical_two_mode(state)
                if on_boundary:
                    near[gate] += 1
                if self._closed_form_accepts(n, abs(state.m_c)) != gate:
                    lowest = np.linalg.eigvalsh(_moment_matrix(state))[0]
                    assert abs(lowest + EPS_PHYS) < 1e-13, (n, mc_abs, lowest)
                    disagreements += 1
        assert near[True] > 4000 and near[False] > 4000
        assert disagreements < 50

    def test_every_family_formula_takes_the_gate_verdict(self):
        # |m_c|^2 exceeds n(n+1) by more than EPS_PHYS here, yet the smallest
        # eigenvalue, (n(n+1) - |m_c|^2)/6, is within the tolerance.
        n, mc = 2.5, 2.958039892141416
        assert mc ** 2 - n * (n + 1.0) > EPS_PHYS
        assert is_physical_two_mode(TwoModeGaussian.epr(n, mc + 0j))
        assert epr_is_entangled(n, mc)
        visibility_epr(n, mc)
        visibility_werner(n, mc, 0.5)
        werner_mix(TwoModeGaussian.epr(n, mc + 0j), 0.5)
        for check in (lambda: epr_is_entangled(1.0, 1.5), lambda: visibility_epr(1.0, 1.5),
                      lambda: visibility_werner(1.0, 1.5, 0.5),
                      lambda: werner_mix(TwoModeGaussian.epr(1.0, 1.5 + 0j), 0.5)):
            with pytest.raises(NonPhysicalStateError, match="exceeds n"):
                check()

    @pytest.mark.parametrize("p", [1.5, -0.1, math.nan])
    def test_werner_weight_outside_unit_interval_is_no_state(self, p):
        for check in (lambda: visibility_werner(1.0, 1.2, p),
                      lambda: werner_mix(TwoModeGaussian.epr(1.0, 1.2 + 0j), p)):
            with pytest.raises(NonPhysicalStateError, match=r"must lie in \[0, 1\], got"):
                check()


class TestGeneralGateClosedForm:
    """``_require_general_physical`` is the two-mode gate of the general
    family, TwoModeGaussian(n, m e^{iλ₁}, m e^{iλ₂}, m_c), in closed form."""

    @staticmethod
    def _closed_form_accepts(*params):
        try:
            _require_general_physical(*params)
        except NonPhysicalStateError:
            return False
        return True

    def test_agrees_with_gate(self):
        # Half the draws put the smallest eigenvalue of <zeta zeta^dag>
        # within 3e-9 of -EPS_PHYS, on either side; the rest spread over
        # the whole range.  m and m_c take either sign.  Only round-off may
        # part the verdicts, where the eigenvalue is within 1e-13 of the
        # tolerance.
        draws = np.random.default_rng(20270101)
        near = {True: 0, False: 0}
        signs = set()
        disagreements = 0
        for k in range(6000):
            n = float(draws.uniform(0.0, 50.0 if k % 3 == 0 else 2.0))
            lam1, lam2 = (float(x) for x in draws.uniform(-7.0, 7.0, size=2))
            m0, mc0 = (float(x) for x in draws.uniform(-1.0, 1.0, size=2))
            q0 = m0 ** 2 + mc0 ** 2 + 2.0 * abs(m0 * mc0) * abs(math.cos(0.5 * (lam1 + lam2)))
            on_boundary = k % 2 == 0
            if on_boundary:
                lowest = -EPS_PHYS + float(draws.uniform(-3e-9, 3e-9))
                q = (n + 0.5 - lowest) ** 2 - 0.25
            else:
                q = float(draws.uniform(0.0, 1.5)) ** 2 * n * (n + 1.0)
            m, m_c = (x * math.sqrt(q / q0) for x in (m0, mc0))
            signs.add((m > 0, m_c > 0))
            state = TwoModeGaussian(n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2),
                                    complex(m_c))
            gate = is_physical_two_mode(state)
            if on_boundary:
                near[gate] += 1
            if self._closed_form_accepts(n, m, m_c, lam1, lam2) != gate:
                lowest = np.linalg.eigvalsh(_moment_matrix(state))[0]
                assert abs(lowest + EPS_PHYS) < 1e-13, (n, m, m_c, lam1, lam2, lowest)
                disagreements += 1
        assert near[True] > 1000 and near[False] > 1000
        assert len(signs) == 4
        assert disagreements < 20

    def test_visibilities_take_no_eigensolve_and_build_no_state(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("visibilities_general reached the 4x4 gate")

        checks = [(1.0, 0.5, -0.4, 0.3, 1.1, True), (1.0, -SQRT2, 0.5, 0.0, math.pi / 2, False),
                  (0.0, 0.0, 0.0, 0.0, 0.0, None)]
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(TwoModeGaussian, "__post_init__", forbidden)
        for *params, physical in checks:
            if physical is None:
                with pytest.raises(ValueError, match="vacuum"):
                    visibilities_general(*params)
            elif physical:
                assert visibilities_general(*params).v_m < 0
            else:
                with pytest.raises(NonPhysicalStateError):
                    visibilities_general(*params)

    @pytest.mark.parametrize("params", [
        (math.nan, 0.5, 0.1, 0.0, 0.0), (1.0, math.inf, 0.1, 0.0, 0.0),
        (1.0, 0.5, 2e153, 0.0, 0.0), (-1.0, 0.5, 0.1, 0.0, 0.0), (1.0, 0.5, 0.1, math.nan, 0.0),
    ])
    def test_parameters_no_state_takes_are_value_errors(self, params):
        with pytest.raises(ValueError) as exc:
            visibilities_general(*params)
        assert not isinstance(exc.value, NonPhysicalStateError)


class TestOneModeRule:
    """``OneModeGaussian.is_physical`` is the two-mode gate's rule on one
    mode: a pair of copies, and the EPR state with m as its cross moment,
    split ⟨ζζ†⟩ into blocks that are the one-mode matrix."""

    def test_agrees_with_the_two_mode_gate_in_the_band(self):
        # |m|² − n(n+1) spread over ±3(2n+1)·EPS_PHYS, three times the band
        # both rules admit at n.  Only round-off may part the verdicts, where
        # the eigenvalue is within 1e-13 of the tolerance.
        draws = random.Random(3)
        accepted = 0
        for _ in range(10000):
            n = draws.uniform(0.0, 100.0)
            excess = draws.uniform(-3.0, 3.0) * (2.0 * n + 1.0) * EPS_PHYS
            m = (math.sqrt(max(n * (n + 1.0) + excess, 0.0))
                 * cmath.exp(1j * draws.uniform(0.0, 2.0 * math.pi)))
            s = OneModeGaussian(n, m)
            accepted += s.is_physical()
            for state in (TwoModeGaussian.pair_with_phase(s, draws.uniform(0.0, 2.0 * math.pi)),
                          TwoModeGaussian.epr(n, m)):
                if is_physical_two_mode(state) != s.is_physical():
                    lowest = np.linalg.eigvalsh(_moment_matrix(state))[0]
                    assert abs(lowest + EPS_PHYS) < 1e-13, (n, m, lowest)
        assert 5000 < accepted < 8000

    def test_rejection_names_the_excess(self):
        # 4e-9 over n(n+1) = 2: twelve digits show it.
        m = 1.4142135637873086
        with pytest.raises(NonPhysicalStateError,
                           match=r"^\|m\|\^2 = 2.000000004 exceeds n\(n\+1\) = 2$"):
            purity_one_mode(OneModeGaussian(1.0, m + 0j))
        with pytest.raises(NonPhysicalStateError,
                           match=r"^\|m_c\|\^2 = 2.000000004 exceeds n\(n\+1\) = 2$"):
            epr_is_entangled(1.0, m)


class TestBsOutputCriterion:
    def test_zero_phase_never_entangles(self, rng):
        for _ in range(100):
            s = random_physical_one_mode(rng, frac_max=1.0)
            assert bs_output_is_separable(s.n, abs(s.m), 0.0)

    def test_half_pi_quantum_input(self):
        # 1.44 + 1.2 = 2.64 > 2
        assert not bs_output_is_separable(1.0, 1.2, math.pi / 2)

    def test_half_pi_pure_input_always_entangles(self, rng):
        for _ in range(50):
            n = float(rng.uniform(0.05, 2.0))
            m = math.sqrt(n * (n + 1.0))
            assert not bs_output_is_separable(n, m, math.pi / 2)

    def test_classical_inputs_never_entangle(self, rng):
        for _ in range(300):
            n = float(rng.uniform(0.0, 2.0))
            m = float(rng.uniform(0.0, 1.0)) * n
            lam = float(rng.uniform(0.0, 2.0 * math.pi))
            assert bs_output_is_separable(n, m, lam)

    def test_monotone_in_phase(self, rng):
        # The separable region shrinks as cos 2λ decreases on [0, π/2].
        lams = [0.0, 0.3, 0.8, 1.2, math.pi / 2]
        for _ in range(50):
            s = random_physical_one_mode(rng, frac_max=1.0)
            results = [bs_output_is_separable(s.n, abs(s.m), lam) for lam in lams]
            # once entangled, stays entangled for larger λ in this range
            seen_false = False
            for r in results:
                if not r:
                    seen_false = True
                else:
                    assert not seen_false


class TestGeneralCriterion:
    def test_uncorrelated_always_separable(self, rng):
        for _ in range(100):
            s = random_physical_one_mode(rng, frac_max=1.0)
            assert general_is_separable(s.n, abs(s.m), 0.0, 0.0, 1.0)

    def test_boundary_point(self):
        m_c = 1.0 / SQRT2
        m = SQRT2 - m_c
        lhs = m ** 2 + m_c ** 2 + m_c * math.sqrt(1.0 + 2.0 * m ** 2)
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert general_is_separable(1.0, m, m_c, 0.0, math.pi / 2)

    def test_entangled_point(self):
        m_c = 1.0
        m = SQRT2 - 1.0
        assert not general_is_separable(1.0, m, m_c, 0.0, math.pi / 2)

    def test_reduces_to_bs_criterion_on_overlap(self, rng):
        # With λ1 + λ2 = π the equal-magnitude family is the (locally
        # rotated) beam-splitter output family: m and m_c decompose as
        # m_total·cos λ and m_total·sin λ.
        for _ in range(200):
            n = float(rng.uniform(0.05, 2.0))
            m_total = float(rng.uniform(0.0, 1.2)) * math.sqrt(n * (n + 1.0))
            lam = float(rng.uniform(0.0, math.pi))
            lam1 = float(rng.uniform(0.0, math.pi))
            lam2 = math.pi - lam1
            a = general_is_separable(n, m_total * math.cos(lam), m_total * math.sin(lam),
                                     lam1, lam2)
            b = bs_output_is_separable(n, m_total, lam)
            assert a == b


    def test_agrees_with_oracle_partial_transpose(self):
        # Seeded states of the family, m_c of either sign, each at least 5%
        # from the boundary n(n+1) of the criterion's left side, four of
        # each verdict; the oracle's partial-transpose spectrum at cutoff 30
        # decides them independently.
        rng = np.random.default_rng(6)
        found = {True: [], False: []}
        while min(len(v) for v in found.values()) < 4:
            n = float(rng.uniform(0.05, 0.4))
            bound = n * (n + 1.0)
            m = float(rng.uniform(0.0, 1.0)) * math.sqrt(bound)
            m_c = float(rng.uniform(-1.0, 1.0)) * math.sqrt(bound)
            lam1, lam2 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=2))
            state = TwoModeGaussian(n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2),
                                    complex(m_c))
            lhs = m ** 2 + m_c ** 2 + abs(m_c) * math.sqrt(
                1.0 + 2.0 * (1.0 + math.cos(lam1 + lam2)) * m ** 2)
            if not is_physical_two_mode(state) or abs(lhs / bound - 1.0) < 0.05:
                continue
            verdict = general_is_separable(n, m, m_c, lam1, lam2)
            if len(found[verdict]) < 4:
                found[verdict].append(state)
        for verdict, states in found.items():
            for state in states:
                rho = fock.two_mode_density(state, 30)
                assert (fock.ppt_min_eigenvalue(rho) >= -1e-9) is verdict, state


class TestIsSeparable:
    """Simon's criterion: separable exactly when the partial transpose is a
    state, judged by the physicality rule and band."""

    def test_agrees_with_transposed_symplectic_spectrum(self):
        # Random physical moments of every pattern (each moment kept or
        # zeroed), complex ⟨a†b⟩ included.  The reference transposes the
        # covariance matrix, p_b → −p_b, instead of the moments.
        draws = np.random.default_rng(2726)
        compared = entangled = 0
        while compared < 4000:
            n = float(draws.uniform(0.0, 2.0))
            bound = math.sqrt(n * (n + 1.0))
            keep = draws.integers(0, 2, size=4)
            m_a, m_b, m_c = (keep[k] * float(draws.uniform(0.0, 1.0)) * bound
                             * cmath.exp(1j * draws.uniform(0, 2 * math.pi)) for k in range(3))
            m_x = keep[3] * float(draws.uniform(0.0, 0.6)) * n * cmath.exp(
                1j * draws.uniform(0, 2 * math.pi))
            state = TwoModeGaussian(n, m_a, m_b, m_c, m_x)
            if not is_physical_two_mode(state):
                continue
            nu = _min_symplectic_eigenvalue(state, transpose=True)
            if abs(nu - 0.5) < 1e-6:
                continue
            assert is_separable(state) == (nu >= 0.5), state
            compared += 1
            entangled += nu < 0.5
        assert 200 < entangled < 1000

    def test_agrees_with_oracle_partial_transpose(self):
        # Seeded tensor, two-mode-squeezed and beam-splitter patterns, each
        # at least 5% from the boundary ν̃₋ = ½, three of each verdict a
        # pattern reaches (products are never entangled); the oracle's
        # partial-transpose spectrum at cutoff 30 decides them independently.
        draws = np.random.default_rng(2000)
        found = {(pattern, verdict): [] for pattern in range(3) for verdict in (True, False)}
        del found[(0, False)]
        while min(len(states) for states in found.values()) < 3:
            pattern = int(draws.integers(0, 3))
            state = _oracle_pattern(draws, pattern, n_max=0.4)
            if (not is_physical_two_mode(state)
                    or abs(_min_symplectic_eigenvalue(state, transpose=True) / 0.5 - 1.0) < 0.05):
                continue
            states = found.get((pattern, is_separable(state)))
            if states is not None and len(states) < 3:
                states.append(state)
        for (_, verdict), states in found.items():
            for state in states:
                lowest = fock.ppt_min_eigenvalue(fock.two_mode_density(state, 30))
                if verdict:
                    assert lowest >= -1e-9, state
                else:
                    assert lowest < -1e-6, state

    def test_generic_states_agree_with_the_oracle_partial_transpose(self):
        # Every moment complex, with a magnitude up to sqrt(n(n+1)), so the
        # physical draws take no family's pattern.  Each one the oracle
        # builds within EPS_TR at cutoff 30 gets the verdict of
        # ``is_separable`` from its partial-transpose sign; the rest are
        # too hot for that cutoff.
        draws = np.random.default_rng(3)
        agreed = unconverged = 0
        for _ in range(599):
            state = _generic_state(draws)
            if not is_physical_two_mode(state):
                continue
            try:
                rho = fock.two_mode_density(state, 30)
            except fock.ConvergenceError:
                unconverged += 1
                continue
            assert rho.route == "recurrence", state
            lowest = fock.ppt_min_eigenvalue(rho)
            assert (lowest > -1e-10) if is_separable(state) else (lowest < -1e-8), state
            agreed += 1
        assert (agreed, unconverged) == (94, 31)

    def test_takes_physical_two_mode_states_only(self):
        with pytest.raises(NonPhysicalStateError):
            is_separable(TwoModeGaussian.epr(1.0, 1.5 + 0j))
        mixture = GaussianMixture(((1.0, TwoModeGaussian.epr(1.0, 1.2 + 0j)),))
        for state in (mixture, OneModeGaussian(1.0, 0.2 + 0j), OneModeGaussian(1.0, 5.0 + 0j)):
            with pytest.raises(TypeError, match="unsupported state type"):
                is_separable(state)


class TestSeparabilityBand:
    """The family formulas decide separability with the one-mode closed form
    of the smallest eigenvalue, ``_lowest_eigenvalue(n, √q) ≥ −EPS_PHYS``,
    and so agree with ``is_separable`` inside the band as well."""

    @staticmethod
    def _band_states(family):
        # q − n(n+1) spread over ±3(2n+1)·EPS_PHYS, three times the band at
        # n.  A quarter of the beam-splitter and general draws are products
        # of two squeezed states (λ = 0, or m_c = 0 with λ₁ = λ₂ = 0), whose
        # q is |m|²: there the boundary is physicality's own.
        draws = random.Random(15)
        for k in range(10000):
            n = draws.uniform(0.0, 100.0)
            q = max(n * (n + 1.0) + draws.uniform(-3.0, 3.0) * (2.0 * n + 1.0) * EPS_PHYS, 0.0)
            product = k % 4 == 0
            if family == "epr":
                mc = math.sqrt(0.25 + q) - 0.5
                yield (TwoModeGaussian.epr(n, mc * cmath.exp(1j * draws.uniform(0, 2 * math.pi))),
                       not epr_is_entangled(n, mc))
            elif family == "bs-output":
                lam = 0.0 if product else draws.uniform(0.0, 2.0 * math.pi)
                c = abs(math.sin(lam))
                m = 0.5 * (math.sqrt(c * c + 4.0 * q) - c)
                s = OneModeGaussian(n, m + 0j)
                yield beam_splitter(s, s, lam), bs_output_is_separable(n, m, lam)
            else:
                lam1, lam2 = ((0.0, 0.0) if product
                              else (draws.uniform(0.0, 2.0 * math.pi),
                                    draws.uniform(0.0, 2.0 * math.pi)))
                m = (1.0 if product else draws.uniform(0.0, 1.0)) * math.sqrt(q)
                k_c = math.sqrt(1.0 + 2.0 * (1.0 + math.cos(lam1 + lam2)) * m * m)
                mc = (0.5 * (math.sqrt(max(k_c * k_c + 4.0 * (q - m * m), 0.0)) - k_c)
                      * draws.choice((-1.0, 1.0)))
                yield (_general_state(n, m, mc, lam1, lam2),
                       general_is_separable(n, m, mc, lam1, lam2))

    @pytest.mark.parametrize("family", ["epr", "bs-output", "general"])
    def test_family_formula_agrees_with_is_separable(self, family):
        # Only round-off may part the verdicts, where the eigenvalue of the
        # transposed moments is within 1e-13 of the tolerance.
        compared = entangled = 0
        for state, formula in self._band_states(family):
            if not is_physical_two_mode(state):
                continue
            verdict = is_separable(state)
            if verdict != formula:
                lowest = np.linalg.eigvalsh(_moment_matrix(_transposed(state)))[0]
                assert abs(lowest + EPS_PHYS) < 1e-13, (state, lowest)
            compared += 1
            entangled += not verdict
        assert compared > 9000
        assert 2000 < entangled < compared - 2000

    def test_formulas_use_the_one_mode_closed_form(self):
        # At n = 1 the bound is q = 2.  2e-9 above it the smallest
        # eigenvalue is -2e-9/3, inside the band; 4e-9 above, outside.
        for q, separable in ((2.000000002, True), (2.000000004, False)):
            assert (_lowest_eigenvalue(1.0, math.sqrt(q)) >= -EPS_PHYS) is separable
            assert bs_output_is_separable(1.0, math.sqrt(q), 0.0) is separable
            assert general_is_separable(1.0, math.sqrt(q), 0.0, 0.0, 0.0) is separable
        # With q = |m_c|² + |m_c| the eigenvalue is n − |m_c|.
        for excess, entangled in ((0.5e-9, False), (2e-9, True)):
            assert epr_is_entangled(1.0, 1.0 + excess) is entangled

    def test_negative_magnitudes_read_as_magnitudes(self):
        # A negative m or m_c is a phase of π, which no verdict sees.
        assert epr_is_entangled(1.0, -1.2) is epr_is_entangled(1.0, 1.2) is True
        assert bs_output_is_separable(1.0, -1.2, math.pi / 2) is False
        assert is_separable(TwoModeGaussian.epr(1.0, -1.2 + 0j)) is False


class TestHugeModuli:
    """The family criteria form √q without squaring a modulus above 1."""

    def test_moduli_beyond_the_range_of_their_squares(self):
        assert epr_is_entangled(1e170, 5e169) is False
        assert bs_output_is_separable(1e170, 5e169, 0.3) is True
        assert general_is_separable(1e170, 5e169, 1e169, 0.1, 0.2) is True

    def test_verdicts_are_those_of_the_squared_forms(self):
        # The plain forms of q on 20,000 seeded draws per family with
        # n ≤ 100, spread over a few percent around each boundary.
        def lowest(n, q):
            return _lowest_eigenvalue(n, math.sqrt(q))

        draws = random.Random(25)
        verdicts = {"epr": set(), "bs-output": set(), "general": set()}
        for _ in range(20000):
            n = draws.uniform(0.0, 100.0)
            bound = n * (n + 1.0)
            mc = n + draws.uniform(-1.0, 1.0) * (math.sqrt(bound) - n)
            entangled = lowest(n, mc ** 2 + abs(mc)) < -EPS_PHYS
            assert epr_is_entangled(n, mc) is entangled, (n, mc)
            verdicts["epr"].add(entangled)
            lam = draws.uniform(0.0, 2.0 * math.pi)
            c = math.sqrt(max(0.0, (1.0 - math.cos(2.0 * lam)) / 2.0))
            m = 0.5 * (math.sqrt(c * c + 4.0 * bound) - c) * draws.uniform(0.98, 1.02)
            separable = lowest(n, m ** 2 + c * abs(m)) >= -EPS_PHYS
            assert bs_output_is_separable(n, m, lam) is separable, (n, m, lam)
            verdicts["bs-output"].add(separable)
            lam1, lam2 = draws.uniform(0.0, 2.0 * math.pi), draws.uniform(0.0, 2.0 * math.pi)
            m = draws.uniform(0.0, 1.0) * math.sqrt(bound)
            k_c = math.sqrt(1.0 + 2.0 * (1.0 + math.cos(lam1 + lam2)) * m ** 2)
            q = bound * draws.uniform(0.98, 1.02)
            mc = (0.5 * (math.sqrt(max(k_c * k_c + 4.0 * (q - m * m), 0.0)) - k_c)
                  * draws.choice((-1.0, 1.0)))
            separable = lowest(n, m ** 2 + mc ** 2 + abs(mc) * k_c) >= -EPS_PHYS
            assert general_is_separable(n, m, mc, lam1, lam2) is separable, (n, m, mc)
            verdicts["general"].add(separable)
        assert all(seen == {True, False} for seen in verdicts.values()), verdicts


class TestWernerThresholds:
    def test_hbt_values(self):
        assert werner_hbt_threshold(1.0) == pytest.approx(0.5, abs=1e-15)
        assert werner_hbt_threshold(3.0) == pytest.approx(0.75, abs=1e-15)
        assert werner_hbt_threshold(1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_ppt_values(self):
        assert werner_ppt_threshold(1.0) == pytest.approx(
            1.0 / (1.0 + SQRT2 * 9.0 / 6.0), rel=1e-12
        )
        assert werner_ppt_threshold(1.0) == pytest.approx(0.320, abs=1e-3)
        assert werner_ppt_threshold(0.5) == pytest.approx(
            1.0 / (1.0 + math.sqrt(3.0) * 2.25 / 1.25), rel=1e-12
        )

    @pytest.mark.parametrize("n", [1e77, 1e100, 1e154, 1e300])
    def test_ppt_threshold_tends_to_a_third_without_overflow(self, n):
        # (1 + 2n²)² overflows from n = 1e77; the form in 1/n does not.
        assert werner_ppt_threshold(n) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            werner_hbt_threshold(0.0)
        with pytest.raises(ValueError):
            werner_ppt_threshold(-1.0)


class TestIsPhysicalTwoMode:
    def test_epr_boundary_physical(self):
        assert is_physical_two_mode(TwoModeGaussian.epr(1.0, complex(SQRT2)))

    def test_epr_beyond_boundary_nonphysical(self):
        assert not is_physical_two_mode(TwoModeGaussian.epr(1.0, 1.5 + 0j))

    def test_agrees_with_analytic_epr_condition(self, rng):
        for _ in range(100):
            n = float(rng.uniform(0.05, 1.2))
            mc = float(rng.uniform(0.0, 1.3)) * math.sqrt(n * (n + 1.0))
            if abs(mc ** 2 - n * (n + 1.0)) < 1e-7:
                continue
            state = TwoModeGaussian.epr(n, mc * cmath.exp(1j * rng.uniform(0, 7)))
            assert is_physical_two_mode(state) == (mc ** 2 <= n * (n + 1.0))

    def test_beam_splitter_images_are_physical(self, rng):
        for _ in range(50):
            sa = random_physical_one_mode(rng, n_max=1.2)
            sb = random_physical_one_mode(rng, n_max=1.2)
            lam = float(rng.uniform(0, 2 * math.pi))
            assert is_physical_two_mode(beam_splitter(sa, sb, lam))

    def test_nonphysical_marginal_detected(self):
        state = TwoModeGaussian(0.5, 0.9 + 0j, 0.2 + 0j, 0j, 0j)
        assert not is_physical_two_mode(state)

    def test_pure_marginals_with_cross_correlation_nonphysical(self):
        state = TwoModeGaussian(1.0, complex(SQRT2), SQRT2 * cmath.exp(1j * math.pi / 2),
                                0.5 + 0j, 0j)
        assert not is_physical_two_mode(state)

    def test_mixture_requires_all_components(self):
        from squeezekit import GaussianMixture
        good = TwoModeGaussian.epr(1.0, 1.0 + 0j)
        bad = TwoModeGaussian.epr(1.0, 1.5 + 0j)
        assert is_physical_two_mode(GaussianMixture(((1.0, good),)))
        assert not is_physical_two_mode(GaussianMixture(((0.5, good), (0.5, bad))))

    @pytest.mark.parametrize("m_c, separable", [(0.3, True), (1.0, False)])
    def test_unequal_magnitudes_get_a_verdict(self, m_c, separable):
        # |m_a| != |m_b| alongside cross correlations: the uncertainty
        # relation decides it, and the oracle builds it, with the moments of
        # the Wick engine and the partial-transpose sign of is_separable.
        # The moments are read at the suite's cutoff 40: at cutoff 30 the
        # tail moves the worst length-6 word by 1e-3.
        state = TwoModeGaussian(1.0, 0.5 + 0j, 0.2 + 0j, m_c + 0j, 0j)
        rho = fock.two_mode_density(state, 40)
        assert rho.route == "recurrence"
        for counts, value in fock.moment_table(rho, 6).items():
            err = relative_error(value, wick_moment(state, OperatorWord.from_counts(*counts)))
            assert err < MOMENT_RTOL, (counts, err)
        assert is_separable(state) is separable
        lowest = fock.ppt_min_eigenvalue(fock.two_mode_density(state, 30))
        assert (lowest > -1e-10) if separable else (lowest < -1e-8)
        assert is_physical_two_mode(state)
        assert _symplectic_verdict(state)
        overcorrelated = TwoModeGaussian(1.0, 0.5 + 0j, 0.2 + 0j, 1.35 + 0j, 0j)
        # |m_c|² ≤ n(n+1): the pairwise Cauchy-Schwarz bound alone accepts it.
        assert abs(overcorrelated.m_c) ** 2 <= 2.0
        assert not is_physical_two_mode(overcorrelated)
        assert not _symplectic_verdict(overcorrelated)

    def test_hot_thermal_pair_is_physical(self):
        for n in (2.5, 3.0, 10.0):
            state = TwoModeGaussian.thermal_pair(n)
            assert is_physical_two_mode(state)
            for phi1, phi2 in ((0.0, 0.0), (0.3, 1.1), (2.0, -0.7)):
                expected = 1.5 * n ** 2 * (1.0 + math.cos(phi1 - phi2) / 3.0)
                got = hbt_correlation(state, phi1, phi2)
                assert got == pytest.approx(expected, rel=1e-12)
                assert got == pytest.approx(
                    fringe_prefactor(state)
                    * fringe_value(visibilities_uncorrelated(n, 0.0), phi1, phi2), rel=1e-12)

    def test_agrees_with_symplectic_spectrum(self, rng):
        # Random moments of every pattern, unequal magnitudes and complex
        # ⟨a†b⟩ included, against the Williamson form of the same criterion.
        verdicts = []
        for _ in range(600):
            n = float(rng.uniform(0.0, 2.0))
            bound = math.sqrt(n * (n + 1.0))
            m_a, m_b, m_c = (float(rng.uniform(0.0, 1.1)) * bound
                             * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(3))
            m_x = float(rng.uniform(0.0, 0.6)) * n * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            state = TwoModeGaussian(n, m_a, m_b, m_c, m_x)
            if abs(_min_symplectic_eigenvalue(state) - 0.5) < 1e-6:
                continue
            assert is_physical_two_mode(state) == _symplectic_verdict(state), state
            verdicts.append(is_physical_two_mode(state))
        assert len(verdicts) > 500
        assert 100 < sum(verdicts) < len(verdicts) - 100

    def test_agrees_with_oracle_candidate_spectrum(self):
        # Tensor, two-mode-squeezed and beam-splitter patterns, hot and
        # beyond the positivity bound; the oracle reads physicality off the
        # weights of its working-space candidate.
        draws = np.random.default_rng(1994)
        compared = physical = 0
        for k in range(1500):
            state = _oracle_pattern(draws, k % 3)
            plan = plan_two_mode(state)
            if plan is not None and min(abs(plan.factor1.nbar), abs(plan.factor2.nbar)) < 1e-6:
                continue   # within round-off of the boundary
            summary = candidate_weight_summary(state, 40)
            oracle = summary is not None and summary[0] >= -EPS_EIG
            if oracle and summary[1] >= fock.EPS_TR:
                continue   # tail beyond cutoff 40: outside the oracle's range
            assert is_physical_two_mode(state) == oracle, state
            compared += 1
            physical += oracle
        assert compared >= 1000
        assert 200 < physical < compared - 200

    def test_each_state_value_takes_one_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(matrix):
            calls.append(matrix)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        good = TwoModeGaussian.epr(1.0, 1.0 + 0j)
        bad = TwoModeGaussian.epr(1.0, 1.5 + 0j)
        assert [is_physical_two_mode(good) for _ in range(5)] == [True] * 5
        assert [is_physical_two_mode(bad) for _ in range(3)] == [False] * 3
        assert len(calls) == 2
        # An equal value built another way keeps its own verdict.
        twin = TwoModeGaussian(1.0, m_c=1.0 + 0j)
        assert twin == good and is_physical_two_mode(twin)
        assert len(calls) == 3
        # A mixture reuses its components' verdicts.
        mix = GaussianMixture(((0.5, good), (0.5, TwoModeGaussian.thermal_pair(1.0))))
        assert [is_physical_two_mode(mix) for _ in range(4)] == [True] * 4
        assert not is_physical_two_mode(GaussianMixture(((0.5, good), (0.5, bad))))
        assert len(calls) == 4

    def test_kept_verdicts_equal_fresh_ones(self, rng):
        for _ in range(300):
            n = float(rng.uniform(0.0, 2.0))
            bound = math.sqrt(n * (n + 1.0))
            m_a, m_b, m_c = (float(rng.uniform(0.0, 1.1)) * bound
                             * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(3))
            state = TwoModeGaussian(n, m_a, m_b, m_c, 0.3 * n * cmath.exp(1j * rng.uniform(0, 7)))
            fresh = bool(np.linalg.eigvalsh(_moment_matrix(state))[0] >= -EPS_PHYS)
            assert [is_physical_two_mode(state) for _ in range(3)] == [fresh] * 3

    def test_gate_rejects_one_mode_states(self):
        for _ in range(2):
            with pytest.raises(TypeError, match="unsupported state type OneModeGaussian"):
                is_physical_two_mode(OneModeGaussian(1.0, 0.2 + 0j))


_ZETA = ("a", "b", "ad", "bd")


def _xxdag_matrix(state) -> np.ndarray:
    """⟨ζ_r ζ_s†⟩ from Wick second moments plus the commutators [a, a†] = 1."""
    dagger = {"a": "ad", "b": "bd", "ad": "a", "bd": "b"}
    g = np.empty((4, 4), dtype=complex)
    for r, left in enumerate(_ZETA):
        for s, right in enumerate(_ZETA):
            right = dagger[right]
            if left in ("a", "b") and right in ("ad", "bd"):
                # a_i a_j† = a_j† a_i + δ_ij
                g[r, s] = wick_moment(state, OperatorWord.parse(f"{right} {left}"))
                g[r, s] += 1.0 if right == left + "d" else 0.0
            else:
                g[r, s] = wick_moment(state, OperatorWord.parse(f"{left} {right}"))
    return g


def _covariance(state) -> np.ndarray:
    """Symmetrized covariance ½⟨{R_r, R_s}⟩ of R = (x_a, p_a, x_b, p_b)."""
    g = _xxdag_matrix(state)
    # R = T ζ with x = (a + a†)/√2 and p = (a − a†)/(i√2).
    t = np.array([[1, 0, 1, 0], [-1j, 0, 1j, 0], [0, 1, 0, 1], [0, -1j, 0, 1j]]) / SQRT2
    rr = t @ g @ t.conj().T      # ⟨R_r R_s†⟩ = ⟨R_r R_s⟩ for Hermitian R
    return rr.real


def _min_symplectic_eigenvalue(state, transpose=False) -> float:
    """Smallest symplectic eigenvalue of the covariance matrix, or with
    ``transpose`` of its partial transpose, p_b → −p_b (Simon, PRL 84, 2726
    (2000))."""
    v = _covariance(state)
    if transpose:
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        v = flip @ v @ flip
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return float(np.min(np.abs(np.linalg.eigvals(1j * omega @ v))))


def _symplectic_verdict(state) -> bool:
    """Williamson: physical iff V > 0 and every symplectic eigenvalue ≥ ½."""
    return bool(np.linalg.eigvalsh(_covariance(state))[0] > 0
                and _min_symplectic_eigenvalue(state) >= 0.5)


def _transposed(state: TwoModeGaussian) -> TwoModeGaussian:
    """The moments of the partial transpose: time reversal of mode b."""
    return TwoModeGaussian(state.n, state.m_a, state.m_b.conjugate(),
                           -state.m_x.conjugate(), -state.m_c.conjugate())


def _general_state(n, m, mc, lam1, lam2) -> TwoModeGaussian:
    return TwoModeGaussian(n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2), complex(mc))


def _oracle_pattern(draws, family: int, n_max: float = 1.5) -> TwoModeGaussian:
    """A moment set of a pattern the oracle can plan: product, two-mode
    squeezed, or equal magnitudes with a phase-compatible ⟨a†b⟩."""
    n = float(draws.uniform(0.02, n_max))
    bound = math.sqrt(n * (n + 1.0))

    def magnitude():
        return float(draws.uniform(0.0, 1.3)) * bound

    def phase():
        return float(draws.uniform(0.0, 2.0 * math.pi))

    if family == 0:
        return TwoModeGaussian(n, magnitude() * cmath.exp(1j * phase()),
                               magnitude() * cmath.exp(1j * phase()))
    if family == 1:
        return TwoModeGaussian.epr(n, magnitude() * cmath.exp(1j * phase()))
    f, lam1, lam2 = magnitude(), phase(), phase()
    theta_c, theta_d = 0.5 * lam1, 0.5 * lam2
    m_c = magnitude() * cmath.exp(1j * (theta_c + theta_d + phase()))
    m_x = float(draws.uniform(-0.5, 0.5)) * n * cmath.exp(1j * (theta_d - theta_c))
    return TwoModeGaussian(n, f * cmath.exp(1j * lam1), f * cmath.exp(1j * lam2), m_c, m_x)


def _generic_state(draws) -> TwoModeGaussian:
    """n in [0.05, 1.5] and every complex moment with a magnitude uniform up
    to sqrt(n(n+1)) and a uniform phase."""
    n = float(draws.uniform(0.05, 1.5))
    bound = math.sqrt(n * (n + 1.0))
    return TwoModeGaussian(n, *(float(draws.uniform(0.0, bound))
                                * cmath.exp(1j * float(draws.uniform(0.0, 2.0 * math.pi)))
                                for _ in range(4)))


class TestCrossModuleConsistency:
    def test_epr_entanglement_visibility_witness_agree(self):
        # 100-point grid over the physical region.
        for i in range(10):
            n = 0.1 + 0.14 * i
            for j in range(10):
                mc = (j / 9.0) * math.sqrt(n * (n + 1.0)) * 0.999
                if abs(mc - n) < 1e-9:
                    continue
                entangled = epr_is_entangled(n, mc)
                assert entangled == (visibility_epr(n, mc).v_minus > 0.5)
                assert entangled == (whbt_expectation(TwoModeGaussian.epr(n, complex(mc))).value < 0)
