import cmath
import copy
import dataclasses
import math
import pickle
import random

import pytest

from squeezekit import (
    EPS_PHYS,
    AmplifierGains,
    Classification,
    GaussianMixture,
    NonPhysicalStateError,
    OneModeGaussian,
    TwoModeGaussian,
    Verdict,
    amplifier_output,
    beam_splitter,
    fringe_prefactor,
    g2,
    hbt_correlation,
    is_p_representable,
    is_physical_two_mode,
    is_separable,
    visibilities_bs_output,
    visibilities_general,
    visibilities_uncorrelated,
    visibility_epr,
    visibility_werner,
    w2_expectation,
    werner_mix,
    whbt_closed_form_epr,
    whbt_closed_form_uncorrelated,
    whbt_closed_form_werner,
    whbt_expectation,
    wick_moment,
)
from squeezekit import fock, states, witnesses
from squeezekit.states import OperatorWord, state_record
from squeezekit.witnesses import (EPS_VERDICT, FourthOrder, WitnessKind, _fourth_order_words,
                                  _moment_scale, _scaled, _verdict, fourth_order)

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

    def test_underflowing_photon_number_keeps_its_value(self):
        # n² underflows to 0 at n = 1e-170; the value reads |m|/n, not n².
        thermal = w2_expectation(OneModeGaussian(1e-170, 0j))
        assert (thermal.value, thermal.verdict) == (1.0, Verdict.CLASSICAL_OR_SEPARABLE)
        squeezed = w2_expectation(OneModeGaussian(1e-170, 1e-170 + 0j))
        assert (squeezed.value, squeezed.verdict) == (0.0, Verdict.BOUNDARY)

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

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_closed_forms_survive_underflowing_squares(self, scale):
        # n² and |m|² underflow (or overflow) on their own; each closed form
        # is a ratio of quadratic forms and keeps its value at unit scale.
        for closed, args in ((whbt_closed_form_uncorrelated, (1.0, 0.5)),
                             (whbt_closed_form_epr, (1.0, 0.5)),
                             (whbt_closed_form_werner, (1.0, 0.5, 0.6))):
            scaled = (args[0] * scale, args[1] * scale, *args[2:])
            assert closed(*scaled) == pytest.approx(closed(*args), rel=1e-15), closed.__name__
        assert whbt_closed_form_uncorrelated(1e-170, 0.0) == 1.0 / 6.0
        assert whbt_closed_form_epr(0.0, 1e-170) == -0.5

    def test_epr_single_mode_squeeze_terms_vanish(self, rng):
        # The two squeezing terms of the witness contribute nothing on the
        # cross-correlated family.
        for _ in range(50):
            n = float(rng.uniform(0.05, 1.5))
            mc = float(rng.uniform(0, 1.0)) * math.sqrt(n * (n + 1.0))
            state = TwoModeGaussian.epr(n, mc * cmath.exp(1j * float(rng.uniform(0, 7))))
            sq = wick_moment(state, OperatorWord.from_counts(create_b=2, annihilate_a=2))
            assert abs(sq) < 1e-14


class TestWernerFormAtPOne:
    """The uncorrelated and cross-correlated closed forms are the Werner
    form at p = 1; 1.0 · x is exact, so they agree bit for bit."""

    def test_forms_are_the_werner_form_at_p_one(self, rng):
        for _ in range(500):
            n, x = (float(rng.uniform(0.0, 3.0)) * 10.0 ** int(rng.integers(-200, 200))
                    for _ in range(2))
            scale = max(n, x)
            a, b = n / scale, x / scale
            expected = (a ** 2 - b ** 2) / (2.0 * (3.0 * a ** 2 + b ** 2))
            assert whbt_closed_form_werner(n, x, 1.0) == expected, (n, x)
            assert whbt_closed_form_epr(n, x) == expected, (n, x)
            assert whbt_closed_form_uncorrelated(n, x) == expected, (n, x)

    def test_the_vacuum_raises_alike(self):
        for closed in (whbt_closed_form_epr, whbt_closed_form_uncorrelated,
                       lambda n, x: whbt_closed_form_werner(n, x, 1.0)):
            with pytest.raises(ZeroDivisionError):
                closed(0.0, 0.0)


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


class TestWhbtDomain:
    def test_split_thermal_light_reaches_the_classical_bound_and_is_separable(self):
        # Thermal light split on a balanced beam splitter, a passive image of
        # thermal light and the vacuum, is classical, with first-order
        # coherence ⟨a†b⟩ = n, and off the paper's families: its WHBT is the
        # classical bound −½, which the cutoff-40 oracle reads too, and its
        # partial transpose is positive.  A negative WHBT does not certify
        # nonclassicality there.
        thermal = OneModeGaussian.thermal(2)
        assert is_p_representable(thermal) is Classification.CLASSICAL
        state = beam_splitter(thermal, OneModeGaussian.vacuum(), 0)
        assert state.m_x == 1.0
        assert whbt_expectation(state).value == -0.5
        rho = fock.two_mode_density(state, 40)
        assert fock.expectation_of_witness(rho, WitnessKind.WHBT) == pytest.approx(-0.5, abs=1e-9)
        assert fock.ppt_min_eigenvalue(rho) >= 0.0
        assert is_separable(state)


class TestWhbtBand:
    """W·√I₂ is a second-order quantity, so the verdict takes the gate's band:
    a state within EPS_PHYS of the witness's zero gets ``boundary``.  Near
    the vacuum the ratio alone reads −½ for band states; the band keeps a
    ``quantum-or-entangled`` verdict a certificate at every scale of n."""

    _DRAWS = 10_000
    _SCALES = (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 100.0)

    def _draws(self):
        # |m| (or |m_c|) within 3e-9 of n, with n uniform on [0, scale].
        rng = random.Random(23)
        for _ in range(self._DRAWS):
            n = rng.uniform(0.0, rng.choice(self._SCALES))
            yield n, abs(n + rng.uniform(-3.0, 3.0) * 1e-9)

    def _count(self, judge):
        verdicts, wrong = {v: 0 for v in Verdict}, 0
        for n, mag in self._draws():
            verdict, certified = judge(n, mag)
            verdicts[verdict] += 1
            wrong += verdict is Verdict.QUANTUM_OR_ENTANGLED and not certified()
        # Every verdict occurs, so the probe straddles the band.
        assert min(verdicts.values()) > 100, verdicts
        return wrong

    def test_pair_verdict_certifies_nonclassicality(self):
        def judge(n, mag):
            s = OneModeGaussian(n, complex(mag))
            verdict = whbt_expectation(TwoModeGaussian.pair_with_phase(s, 0.0)).verdict
            return verdict, lambda: is_p_representable(s) is Classification.QUANTUM
        assert self._count(judge) == 0

    def test_epr_verdict_certifies_entanglement(self):
        def judge(n, mag):
            state = TwoModeGaussian.epr(n, complex(mag))
            return whbt_expectation(state).verdict, lambda: not is_separable(state)
        assert self._count(judge) == 0

    def test_near_vacuum_band_state_is_boundary(self):
        # I₂ = 2e-32: the ratio is −½, but the state is in the gate's band.
        report = whbt_expectation(TwoModeGaussian.epr(0.0, 1e-16 + 0j))
        assert report.value == -0.5 and report.verdict is Verdict.BOUNDARY
        assert whbt_expectation(TwoModeGaussian.epr(0.0, 1e-10 + 0j)).verdict is Verdict.BOUNDARY
        report = whbt_expectation(TwoModeGaussian.epr(0.0, 1e-8 + 0j))
        assert report.verdict is Verdict.QUANTUM_OR_ENTANGLED

    def test_unit_scale_band_is_eps_verdict(self):
        # Where √I₂ ≥ 1 the band is EPS_VERDICT, as for the single-mode
        # witness.  At n = 1, W ≈ (1 − |m_c|)/4.
        for mc, verdict in ((1.0 + 1e-8, Verdict.QUANTUM_OR_ENTANGLED),
                            (1.0 + 2e-9, Verdict.BOUNDARY),
                            (1.0 - 1e-8, Verdict.CLASSICAL_OR_SEPARABLE)):
            assert whbt_expectation(TwoModeGaussian.epr(1.0, complex(mc))).verdict is verdict


class TestFourthOrderRecord:
    def test_intensity_square_closed_form(self, rng):
        # I₂ = 6n² + |m_a|² + |m_b|² + 2|m_c|² + 2|m_x|² on any physical state.
        checked = 0
        while checked < 50:
            n = float(rng.uniform(0.05, 2.0))
            moments = [float(rng.uniform(0, 0.6)) * math.sqrt(n * (n + 1.0))
                       * cmath.exp(1j * float(rng.uniform(0, 7))) for _ in range(4)]
            state = TwoModeGaussian(n, *moments)
            try:
                record = fourth_order(state)
            except NonPhysicalStateError:
                continue
            expected = 6 * n ** 2 + sum(abs(m) ** 2 for m in moments[:2]) \
                + 2 * sum(abs(m) ** 2 for m in moments[2:])
            assert record.i2 == pytest.approx(expected, rel=1e-13)
            checked += 1

    def test_family_visibilities_read_off_the_record(self, rng):
        # v₋ = 2C/I₂ and v₊ = 2|s|/I₂ on every family's published formula.
        for _ in range(20):
            n = float(rng.uniform(0.1, 2.0))
            bound = math.sqrt(n * (n + 1.0))
            m, mc = (float(rng.uniform(0.05, 0.95)) * bound for _ in range(2))
            lam, p = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 1))
            s = OneModeGaussian(n, complex(m))
            cases = [
                (TwoModeGaussian.pair_with_phase(s, lam), visibilities_uncorrelated(n, m, lam)),
                (TwoModeGaussian.epr(n, complex(mc)), visibility_epr(n, mc)),
                (werner_mix(TwoModeGaussian.epr(n, complex(mc)), p), visibility_werner(n, mc, p)),
                (beam_splitter(s, s, lam), visibilities_bs_output(n, m, lam)),
            ]
            small = 0.3 * bound
            general = TwoModeGaussian(n, small * cmath.exp(1j * lam), small, complex(small))
            cases.append((general, visibilities_general(n, small, small, lam, 0.0)))
            for state, vis in cases:
                record = fourth_order(state)
                assert 2 * record.c / record.i2 == pytest.approx(vis.v_minus, rel=1e-12)
                assert 2 * abs(record.s) / record.i2 == pytest.approx(vis.v_plus, abs=1e-13)

    def test_one_mode_and_nonphysical_inputs_rejected(self):
        with pytest.raises(TypeError):
            fourth_order(OneModeGaussian(1.0, 0j))
        with pytest.raises(NonPhysicalStateError):
            fourth_order(TwoModeGaussian.epr(1.0, 1.5 + 0j))


class TestMixtureAffinity:
    def test_numerator_and_denominator_are_affine(self):
        # Every field of the fourth-order record, and with it the witness
        # numerator 2C + 2·Re s and its denominator I₂, is the weighted sum
        # of the components' fields: on the Werner mixture, where t and s
        # vanish, and on a mixture whose components carry all four.
        epr = TwoModeGaussian.epr(1.0, 1.2 + 0j)
        thermal = TwoModeGaussian.thermal_pair(1.0)
        general = TwoModeGaussian(1.0, 0.4 + 0j, 0.3j, 0.5 + 0j, 0.1 + 0j)
        bs = beam_splitter(OneModeGaussian(0.8, 0.5 + 0j), OneModeGaussian(0.8, 0.5 + 0j), 0.3)
        for p in (0.2, 0.5, 0.9):
            for mixture, (first, second) in (
                (werner_mix(epr, p), (epr, thermal)),
                (GaussianMixture(((p, general), (1 - p, bs))), (general, bs)),
            ):
                mixed, a, b = fourth_order(mixture), fourth_order(first), fourth_order(second)
                for name in FourthOrder._fields:
                    expected = p * getattr(a, name) + (1 - p) * getattr(b, name)
                    assert getattr(mixed, name) == pytest.approx(expected, rel=1e-13, abs=1e-15)
        assert fourth_order(general).t != 0 and fourth_order(bs).s != 0


_PHASES = tuple((0.1 + 0.4 * math.pi * a, 0.3 + 0.4 * math.pi * b)
                for a in range(5) for b in range(5))

# One value per family, built from literal moments with arithmetic only, and
# the record (I₂, C, Re t, Im t, Re s, Im s) and witness value they read
# before the record was kept with the value.
_PINNED = {
    "pair": (lambda: TwoModeGaussian(0.8, 0.3 + 0.4j, 0.4 - 0.3j),
             ("0x1.15c28f5c28f5dp+2", "0x1.47ae147ae147cp-1", "0x0.0p+0", "0x0.0p+0",
              "0x0.0p+0", "-0x1.0000000000000p-2"), "0x1.a3fb47f68fed2p-3"),
    "epr": (lambda: TwoModeGaussian.epr(0.9, 0.6 - 0.5j),
            ("0x1.851eb851eb852p+2", "0x1.6b851eb851eb8p+0", "0x0.0p+0", "0x0.0p+0",
             "0x0.0p+0", "0x0.0p+0"), "0x1.0d79435e50d80p-5"),
    "werner": (lambda: werner_mix(TwoModeGaussian.epr(0.9, 0.75 + 0j), 0.35),
               ("0x1.503d70a3d70a4p+2", "0x1.01c28f5c28f5cp+0", "0x0.0p+0", "0x0.0p+0",
                "0x0.0p+0", "0x0.0p+0"), "0x1.de034a0118ab4p-4"),
    "bs": (lambda: TwoModeGaussian(1.1, 0.2 + 0.3j, -0.25 + 0.1j, 0.4 - 0.2j, 0.1 + 0.15j),
           ("0x1.fb5c28f5c28f6p+2", "0x1.7147ae147ae15p+0", "0x1.5c28f5c28f5c4p-2",
            "0x1.f5c28f5c28f5cp-2", "-0x1.70a3d70a3d70ap-5", "0x1.3d70a3d70a3d7p-3"),
           "0x1.2defb134b7beap-3"),
    "general": (lambda: TwoModeGaussian(0.7, 0.36 + 0.27j, -0.27 + 0.36j, 0.3 + 0j),
                ("0x1.c333333333332p+1", "0x1.28f5c28f5c28fp-1", "0x1.ba5e353f7ced8p-6",
                 "0x1.ba5e353f7ced8p-6", "0x0.0p+0", "0x1.9eb851eb851ecp-3"),
                "0x1.5e0c5899f68f0p-3"),
}


def _record_hex(record):
    return tuple(x.hex() for x in (record.i2, record.c, record.t.real, record.t.imag,
                                   record.s.real, record.s.imag))


def _scan(state):
    """A fringe scan as the witness layer's readers take it: the record, 25
    samples, the prefactor and the witness."""
    record = fourth_order(state)
    samples = [hbt_correlation(state, p1, p2) for p1, p2 in _PHASES]
    return record, samples, fringe_prefactor(state), whbt_expectation(state)


class TestFourthOrderOncePerValue:
    """``fourth_order`` reads its six words once per state value and keeps
    the record beside the Wick memo: every reader gets the values a fresh
    evaluation gives, and the value's semantics stay those of its fields."""

    @pytest.fixture
    def wick_calls(self, monkeypatch):
        # Both names of the engine: the witnesses' import and the one the
        # mixture's sum over its components reads.
        calls = []
        original = states.wick_moment

        def spy(state, word):
            calls.append(state)
            return original(state, word)

        monkeypatch.setattr(states, "wick_moment", spy)
        monkeypatch.setattr(witnesses, "wick_moment", spy)
        return calls

    @pytest.mark.parametrize("family", list(_PINNED))
    def test_a_scan_reads_six_words(self, wick_calls, family):
        state = _PINNED[family][0]()
        _scan(state)
        if isinstance(state, GaussianMixture):
            assert sum(s is state for s in wick_calls) == 6
            for _, comp in state.components:
                assert sum(s is comp for s in wick_calls) == 6
            assert len(wick_calls) == 6 * (1 + len(state.components))
        else:
            assert wick_calls == [state] * 6

    @pytest.mark.parametrize("family", list(_PINNED))
    def test_values_are_bit_for_bit_those_of_a_fresh_value(self, family):
        make, record_hex, whbt_hex = _PINNED[family]
        state = make()
        record, samples, prefactor, report = _scan(state)
        assert _record_hex(record) == record_hex
        assert report.value.hex() == whbt_hex
        assert _record_hex(_fourth_order_words(make())) == record_hex
        assert fourth_order(state) is record
        for (p1, p2), value in zip(_PHASES, samples):
            assert value.hex() == hbt_correlation(make(), p1, p2).hex()
        assert prefactor.hex() == fringe_prefactor(make()).hex()
        fresh = whbt_expectation(make())
        assert (report.value.hex(), report.verdict) == (fresh.value.hex(), fresh.verdict)

    @pytest.mark.parametrize("family", ["bs", "werner"])
    def test_value_semantics_survive_a_scan(self, family):
        make = _PINNED[family][0]
        state, twin = make(), make()
        before = (pickle.dumps(state), repr(state), hash(state),
                  [f.name for f in dataclasses.fields(state)])
        _scan(state)
        assert state_record(state).fourth is not None
        after = (pickle.dumps(state), repr(state), hash(state),
                 [f.name for f in dataclasses.fields(state)])
        assert after == before
        assert state == twin and hash(state) == hash(twin)
        for clone in (pickle.loads(after[0]), copy.copy(state), dataclasses.replace(state)):
            assert clone == state and "_record" not in vars(clone)
        assert _record_hex(fourth_order(pickle.loads(after[0]))) == _PINNED[family][1]

    @pytest.mark.parametrize("make", [
        lambda: TwoModeGaussian.epr(1.0, 1.5 + 0j),
        lambda: GaussianMixture(((0.5, TwoModeGaussian.epr(1.0, 1.5 + 0j)),
                                 (0.5, TwoModeGaussian.thermal_pair(1.0)))),
    ], ids=["two-mode", "mixture"])
    def test_nonphysical_state_caches_nothing(self, make):
        state = make()
        for _ in range(2):
            for reader in (fourth_order, fringe_prefactor, whbt_expectation,
                           lambda s: hbt_correlation(s, 0.1, 0.2)):
                with pytest.raises(NonPhysicalStateError):
                    reader(state)
        assert state_record(state).fourth is None


class TestUnderflowingIntensitySquare:
    """Where I₂ underflows, the witness is the ratio of the words of the
    moments over their largest modulus; every other state keeps its value."""

    @pytest.mark.parametrize("scale", [1e-170, 1e-200, 1e-300])
    def test_tiny_states_keep_their_witness(self, scale):
        cases = [(TwoModeGaussian.epr(scale, 0j), 1.0 / 6.0),
                 (TwoModeGaussian.epr(scale, 0.5 * scale + 0j), whbt_closed_form_epr(1.0, 0.5)),
                 (werner_mix(TwoModeGaussian.epr(scale, 0.8 * scale + 0j), 0.3),
                  whbt_closed_form_werner(1.0, 0.8, 0.3)),
                 (TwoModeGaussian.pair_with_phase(OneModeGaussian(scale, 0.4 * scale + 0j), 0.0),
                  whbt_closed_form_uncorrelated(1.0, 0.4))]
        for state, expected in cases:
            assert fourth_order(state).i2 < 1e-300
            report = whbt_expectation(state)
            assert report.value == pytest.approx(expected, abs=1e-15)
            assert report.verdict is Verdict.BOUNDARY
        # The record keeps the values the fringe reads, unscaled.
        assert fringe_prefactor(cases[0][0]) == 0.25 * fourth_order(cases[0][0]).i2

    def test_band_reaches_infinity(self):
        # EPS_PHYS/√I₂ overflows to +inf at the smallest subnormal n, and
        # √I₂ itself underflows to 0 on a 1e-300 share of a 1e-200 state
        # beside the vacuum: the band covers every value in both.
        tiny = TwoModeGaussian.epr(1e-200, 0j)
        for state in (TwoModeGaussian.epr(5e-324, 0j),
                      GaussianMixture(((1e-300, tiny), (1.0, TwoModeGaussian.thermal_pair(0.0))))):
            report = whbt_expectation(state)
            assert report.value == pytest.approx(1.0 / 6.0, abs=1e-15)
            assert report.verdict is Verdict.BOUNDARY

    def test_vacuum_still_raises(self):
        for state in (TwoModeGaussian.thermal_pair(0.0),
                      werner_mix(TwoModeGaussian.epr(0.0, 0j), 0.5)):
            with pytest.raises(ZeroDivisionError):
                whbt_expectation(state)

    def test_scaled_ratio_equals_the_unscaled_one(self):
        # Homogeneity: where both are defined, the ratio on the moments over
        # their largest modulus agrees with the direct one to round-off.
        rng = random.Random(5)
        for _ in range(200):
            n = rng.uniform(0.0, 2.0)
            bound = math.sqrt(n * (n + 1.0))
            state = TwoModeGaussian(n, *(rng.uniform(0, 0.45) * bound
                                         * cmath.exp(1j * rng.uniform(0, 7)) for _ in range(4)))
            if not is_physical_two_mode(state):
                continue
            i2, c, _, s = _fourth_order_words(_scaled(state, _moment_scale(state)))
            direct = whbt_expectation(state).value
            assert 0.5 - (2.0 * c + 2.0 * s.real) / i2 == pytest.approx(direct, abs=1e-14)

    def test_states_above_the_underflow_keep_value_and_verdict(self):
        # 2,000 seeded draws of the five families over forty decades of n:
        # the witness is the unscaled ratio and band, bit for bit.
        rng = random.Random(11)
        checked = 0
        for k in range(2000):
            n = 10.0 ** rng.uniform(-150.0, 1.0)
            bound = math.sqrt(n * (n + 1.0))
            mag = rng.uniform(0.0, 0.95) * bound
            phase = cmath.exp(1j * rng.uniform(0, 7))
            family = k % 5
            if family == 0:
                state = TwoModeGaussian.pair_with_phase(OneModeGaussian(n, mag * phase),
                                                        rng.uniform(0, 7))
            elif family == 1:
                state = TwoModeGaussian.epr(n, mag * phase)
            elif family == 2:
                state = werner_mix(TwoModeGaussian.epr(n, mag + 0j), rng.uniform(0, 1))
            elif family == 3:
                s = OneModeGaussian(n, mag * phase)
                state = beam_splitter(s, s, rng.uniform(0, 4))
            else:
                small = mag / 2.0
                state = TwoModeGaussian(n, small * phase, small * phase.conjugate(),
                                        complex(small))
            i2, c, _, s = fourth_order(state)
            value = 0.5 - (2.0 * c + s.conjugate().real + s.real) / i2
            band = max(EPS_VERDICT, EPS_PHYS / math.sqrt(i2))
            report = whbt_expectation(state)
            assert report.value.hex() == value.hex()
            assert report.verdict is _verdict(value, band)
            checked += 1
        assert checked == 2000
