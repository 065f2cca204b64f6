import cmath
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from squeezekit import (
    AmplifierGains,
    OneModeGaussian,
    TwoModeGaussian,
    amplifier_output,
    beam_splitter,
    fock,
    werner_mix,
)
from squeezekit import cli, interference
from squeezekit.cli import build_parser, main
from squeezekit.separability import _require_physical


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestClassify:
    def test_one_mode_quantum(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "one-mode", "--n", "0.12", "--m", "0.29")
        assert code == 0
        assert "classification  quantum" in out

    def test_one_mode_thermal(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "one-mode", "--n", "1", "--m", "0")
        assert code == 0
        assert "classification  classical" in out
        assert "g2              2" in out

    def test_nonphysical_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "classify", "one-mode", "--n", "0.5", "--m", "1.0")
        assert code == 3
        assert "physical        false" in out

    def test_epr_entangled_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "epr", "--n", "1", "--mc", "1.2",
                               "--oracle", "--cutoff", "25")
        assert code == 0
        # Read by key: the text report pads keys to the longest one, which
        # the oracle fields set.
        fields = dict(line.split(None, 1) for line in out.strip().split("\n"))
        assert fields["entangled"] == "true"
        assert float(fields["oracle_ppt_min_eig"]) < 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "epr", "--n", "1", "--mc", "0.5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entangled"] is False
        assert payload["v_minus"] == pytest.approx(1.25 / 3.25)

    def test_general_family(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "general", "--n", "1",
                               "--m", "0.70710678", "--mc", "0.70710678",
                               "--lam1", "0", "--lam2", "0.5")
        assert code == 0
        assert "separable" in out

    def test_readme_general_example(self, capsys):
        # Hot enough (n = 5) that the trace of any cutoff-40 Fock candidate
        # has not converged; physicality needs no truncation.
        code, out, _ = run_cli(capsys, "classify", "general", "--n", "5", "--m", "1",
                               "--mc", "1", "--lam1", "0", "--lam2", "0.5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["physical"] is True
        assert payload["v_minus"] == pytest.approx(26.0 / 77.0, rel=1e-12)

    def test_werner(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "werner", "--n", "1", "--mc", "1.2",
                               "--p", "0.8")
        assert code == 0
        assert "hbt_threshold" in out

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("family, magnitude, extra", [
        ("epr", "--mc", ()),
        ("werner", "--mc", ("--p", "0.5")),
        ("bs-output", "--m", ("--lam", "0.3")),
    ])
    def test_physicality_boundary(self, capsys, family, magnitude, extra, n):
        # A magnitude of exactly sqrt(n(n+1)) is a pure boundary state; one
        # part in a million more is not a state.
        bound = math.sqrt(n * (n + 1.0))
        for value, physical in ((bound, True), ((1.0 + 1e-6) * bound, False)):
            code, out, _ = run_cli(capsys, "classify", family, "--n", repr(n),
                                   magnitude, repr(value), *extra, "--format", "json")
            assert json.loads(out)["physical"] is physical
            assert code == (0 if physical else 3)

    @pytest.mark.parametrize("argv", [
        ("epr", "--n", "3", "--mc", "2", "--oracle"),
        ("one-mode", "--n", "1", "--m", "0.5", "--oracle", "--cutoff", "10"),
    ])
    def test_unconverged_oracle_exits_two_with_remedy(self, capsys, argv):
        code, out, err = run_cli(capsys, "classify", *argv)
        assert code == 2
        assert out == ""
        assert "trace deficit" in err and "at cutoff" in err
        assert "rerun with a larger --cutoff" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("cutoff", ["0", "1"])
    @pytest.mark.parametrize("name", ["one-mode", "epr", "werner", "bs-output", "general",
                                      "amplifier"])
    def test_oracle_cutoff_below_two_exits_two(self, capsys, name, cutoff):
        # Every oracle route checks the cutoff before it assembles anything.
        code, out, err = run_cli(capsys, *_ORACLE_RUNS[name][0], "--oracle", "--cutoff", cutoff)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: cutoff must be at least 2"


_NONPHYSICAL = [
    ("witness", "w2", "--n", "1", "--m", "5"),
    ("witness", "w2", "--n", "0", "--m", "0.5"),
    ("witness", "whbt", "--family", "pair", "--n", "1", "--m", "1.5"),
    ("witness", "whbt", "--family", "epr", "--n", "1", "--mc", "1.5"),
    ("witness", "whbt", "--family", "werner", "--n", "1", "--mc", "1.5", "--p", "0.5"),
    ("witness", "whbt", "--family", "bs-output", "--n", "1", "--m", "1.5", "--lam", "0.3"),
    ("witness", "whbt", "--family", "general", "--n", "1", "--m", "1.5", "--mc", "0.3",
     "--lam1", "0", "--lam2", "0.3"),
    ("classify", "werner", "--n", "1", "--mc", "1.5", "--p", "0.5", "--format", "json"),
    # A mixing probability outside [0, 1] mixes no state, whatever the command.
    ("witness", "whbt", "--p", "1.5", "--family", "werner", "--n", "1", "--mc", "0.5"),
    ("visibility", "werner", "--n", "1", "--mc", "0.5", "--p", "1.5"),
]


_EPR_EDGE = ("--n", "2.5", "--mc", "2.958039892141416")


class TestPhysicalityGate:
    @pytest.mark.parametrize("argv", _NONPHYSICAL, ids=lambda argv: " ".join(argv[:4]))
    def test_nonphysical_state_exits_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("nonphysical state: "), err
        if argv[0] == "classify":
            assert json.loads(out)["physical"] is False
        else:
            assert out == ""

    @pytest.mark.parametrize("argv", [
        # |m_c|^2 - n(n+1) = 1.4e-9 exceeds EPS_PHYS, but the smallest
        # eigenvalue of the two-mode gate is a sixth of that.
        ("classify", "epr", *_EPR_EDGE),
        ("classify", "werner", "--p", "0.5", *_EPR_EDGE),
        ("visibility", "epr", *_EPR_EDGE),
        # 1.1e-9 over n(n+1) at n = 1, a third of it in the gate: the oracle
        # builds every state the gate accepts.
        ("classify", "epr", "--n", "1", "--mc", "1.4142135627730952", "--oracle"),
    ])
    def test_gate_decides_the_epr_boundary(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        if argv[0] == "classify":
            assert json.loads(out)["physical"] is True


# |m|² exceeds n(n+1) = 2 by 2e-9 and by 4e-9.  The smallest eigenvalue of
# ⟨ζζ†⟩, one mode or two, is a third of that: inside EPS_PHYS, then outside.
_IN_BAND, _OUT_OF_BAND = "1.414213563080202", "1.4142135637873086"
_ONE_MODE_EXCESS = "nonphysical state: |m|^2 = 2.000000004 exceeds n(n+1) = 2"
_TWO_MODE_EXCESS = "nonphysical state: second moments do not describe a physical state"


def _band_commands(m):
    """Each command with the state at n = 1, |m| (or |m_c|) = m, and the
    rejection it prints out of the band."""
    return [
        (("classify", "one-mode", "--n", "1", "--m", m), _ONE_MODE_EXCESS),
        (("witness", "w2", "--n", "1", "--m", m), _ONE_MODE_EXCESS),
        (("witness", "whbt", "--family", "pair", "--n", "1", "--m", m), _TWO_MODE_EXCESS),
        (("classify", "epr", "--n", "1", "--mc", m), _TWO_MODE_EXCESS),
    ]


class TestOneModeBand:
    """One verdict per state: the one-mode commands and the two-mode
    commands built from the same numbers agree on either side of the band."""

    def test_inside_the_band_every_command_takes_the_state(self, capsys):
        for argv, _ in _band_commands(_IN_BAND):
            code, out, err = run_cli(capsys, *argv, "--format", "json")
            assert (code, err) == (0, ""), argv
            if argv[0] == "classify":
                assert json.loads(out)["physical"] is True

    def test_outside_the_band_every_command_rejects_it(self, capsys):
        for argv, message in _band_commands(_OUT_OF_BAND):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err.strip()) == (3, message), argv


class TestSeparabilityBand:
    """Separability takes physicality's band: the output of two equal inputs
    at λ = 0 and the general family at m_c = 0, λ₁ = λ₂ = 0 are products of
    two squeezed states, separable wherever the gate accepts them."""

    _COMMANDS = [
        ("classify", "bs-output", "--n", "1", "--lam", "0", "--m"),
        ("classify", "general", "--n", "1", "--mc", "0", "--lam1", "0", "--lam2", "0", "--m"),
    ]

    @pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[1])
    def test_the_band_decides(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, _IN_BAND, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["physical"] is True and payload["separable"] is True
        code, out, err = run_cli(capsys, *argv, _OUT_OF_BAND, "--format", "json")
        assert (code, err.strip()) == (3, _TWO_MODE_EXCESS)
        assert json.loads(out)["physical"] is False

    def test_negative_cross_moment_reads_as_its_magnitude(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "epr", "--n", "1", "--mc", "-1.2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entangled"] is True and payload["whbt_verdict"] == "quantum-or-entangled"


class TestVacuum:
    """The vacuum is a state: every family gives it a verdict and leaves out
    the fields whose formula is undefined at n = 0."""

    @pytest.mark.parametrize("argv, verdict", [
        (("epr", "--n", "0", "--mc", "0"), {"entangled": False}),
        (("werner", "--n", "0", "--mc", "0", "--p", "0.5"), {}),
        (("bs-output", "--n", "0", "--m", "0", "--lam", "0"), {"separable": True}),
        (("general", "--n", "0", "--m", "0", "--mc", "0", "--lam1", "0", "--lam2", "0"),
         {"separable": True}),
    ], ids=lambda value: value[0] if isinstance(value, tuple) else "")
    def test_classify_reports_the_vacuum(self, capsys, argv, verdict):
        code, out, err = run_cli(capsys, "classify", *argv, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["physical"] is True
        assert {key: payload[key] for key in verdict} == verdict
        assert not {"v_minus", "whbt", "hbt_threshold", "ppt_threshold"} & set(payload)

    def test_sweep_marks_only_gate_rejections_nonphysical(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "epr", "--n", "0", "--vary", "mc", "0", "0", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0])) == {"n": "0", "mc": "0", "physical": "true",
                                              "entangled": "false"}


def _general_state(n, m, mc, lam1, lam2):
    return TwoModeGaussian(n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2), complex(mc))


_ORACLE_RUNS = {
    # argv after the command name -> the density the command measures
    "one-mode": (("classify", "one-mode", "--n", "0.5", "--m", "0.3"),
                 lambda c: fock.one_mode_density(OneModeGaussian(0.5, 0.3 + 0j), c)),
    "epr": (("classify", "epr", "--n", "0.8", "--mc", "0.9"),
            lambda c: fock.two_mode_density(TwoModeGaussian.epr(0.8, 0.9 + 0j), c)),
    "werner": (("classify", "werner", "--n", "0.8", "--mc", "0.9", "--p", "0.6"),
               lambda c: fock.two_mode_density(
                   werner_mix(TwoModeGaussian.epr(0.8, 0.9 + 0j), 0.6), c)),
    "bs-output": (("classify", "bs-output", "--n", "0.5", "--m", "0.4", "--lam", "0.3"),
                  lambda c: fock.two_mode_density(
                      beam_splitter(OneModeGaussian(0.5, 0.4 + 0j), OneModeGaussian(0.5, 0.4 + 0j),
                                    0.3 * math.pi), c)),
    "general": (("classify", "general", "--n", "0.5", "--m", "0.3", "--mc", "0.4",
                 "--lam1", "0", "--lam2", "0.5"),
                lambda c: fock.two_mode_density(_general_state(0.5, 0.3, 0.4, 0.0, 0.5 * math.pi),
                                                c)),
    "amplifier": (("amplifier", "--G", "1.65", "--H", "1.05"),
                  lambda c: fock.one_mode_density(amplifier_output(AmplifierGains(1.65, 1.05)), c)),
}


class TestOracleRunFields:
    @pytest.mark.parametrize("name", list(_ORACLE_RUNS))
    def test_cutoff_and_trace_deficit_of_the_measured_density(self, capsys, name):
        argv, density = _ORACLE_RUNS[name]
        code, out, _ = run_cli(capsys, *argv, "--oracle", "--cutoff", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_cutoff"] == 30
        deficit = payload["oracle_trace_deficit"]
        assert abs(deficit) < 1e-6
        assert deficit == 1.0 - density(30).trace()

    @pytest.mark.parametrize("name, route", [
        ("one-mode", "one-mode"), ("epr", "tms"), ("werner", "mixture"),
        ("bs-output", "recurrence"), ("general", "recurrence"), ("amplifier", "one-mode"),
    ])
    def test_route_of_the_measured_density(self, capsys, name, route):
        argv, density = _ORACLE_RUNS[name]
        code, out, _ = run_cli(capsys, *argv, "--oracle", "--cutoff", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_route"] == route
        assert density(30).route == route

    @pytest.mark.parametrize("name", list(_ORACLE_RUNS))
    def test_packed_size_of_the_measured_density(self, capsys, name):
        argv, density = _ORACLE_RUNS[name]
        code, out, _ = run_cli(capsys, *argv, "--oracle", "--cutoff", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_density_mb"] == density(30).nbytes / 1e6
        # Two total-parity blocks of 450 states each on the recurrence route.
        if payload["oracle_route"] == "recurrence":
            assert payload["oracle_density_mb"] == 6.48

    @pytest.mark.parametrize("argv, route", [
        (("general", "--n", "1", "--m", "0.3", "--mc", "0.9", "--lam1", "0", "--lam2", "0.5"),
         "recurrence"),
        (("bs-output", "--n", "1", "--m", "0.6", "--lam", "0.3"), "recurrence"),
        (("werner", "--n", "1", "--mc", "0.9", "--p", "0.6"), "mixture"),
    ], ids=lambda value: value[0] if isinstance(value, tuple) else value)
    def test_separable_states_at_the_default_cutoff(self, capsys, argv, route):
        # At cutoff 40 the witness matches and the partial transpose of a
        # separable state stays above -1e-12.
        code, out, err = run_cli(capsys, "classify", *argv, "--oracle", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["oracle_route"], payload["oracle_cutoff"]) == (route, 40)
        assert payload["oracle_whbt_delta"] < 1e-4
        assert payload["oracle_ppt_min_eig"] > -1e-12

    def test_fields_absent_without_oracle(self, capsys):
        code, out, _ = run_cli(capsys, *_ORACLE_RUNS["epr"][0], "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert not {"oracle_route", "oracle_cutoff", "oracle_trace_deficit",
                    "oracle_density_mb"} & set(payload)


class TestOracleFlags:
    """Only the commands that build a Fock density take ``--oracle``;
    ``oracle-check`` takes ``--cutoff`` for its suite."""

    _WITHOUT_ORACLE = [
        ("witness", "w2", "--n", "1", "--m", "0.5"),
        ("witness", "whbt", "--n", "1", "--m", "0.5"),
        ("visibility", "epr", "--n", "1", "--mc", "0.5"),
        ("figure", "5"),
    ]

    @pytest.mark.parametrize("argv", _WITHOUT_ORACLE)
    @pytest.mark.parametrize("flag", [("--oracle",), ("--cutoff", "3")])
    def test_commands_without_an_oracle_reject_the_flags(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_oracle_check_takes_a_cutoff_but_no_oracle_flag(self, capsys):
        assert build_parser().parse_args(["oracle-check", "--cutoff", "30"]).cutoff == 30
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--oracle"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("classify", "epr", "--n", "1", "--mc", "0.5"),
        ("sweep", "epr", "--n", "1", "--vary", "mc", "0", "1", "3"),
        ("amplifier", "--G", "1.65", "--H", "1.05"),
    ])
    def test_oracle_commands_take_both_flags(self, argv):
        args = build_parser().parse_args([*argv, "--oracle", "--cutoff", "30"])
        assert args.oracle is True and args.cutoff == 30


class TestAngleFlag:
    """Only the commands that take angles accept ``--radians``."""

    @pytest.mark.parametrize("argv", [
        ("classify", "general", "--n", "1", "--m", "0.3", "--mc", "0.5",
         "--lam1", "0", "--lam2", "0.5"),
        ("witness", "w2", "--n", "1", "--m", "0.5"),
        ("witness", "whbt", "--n", "1", "--m", "0.5"),
        ("visibility", "uncorrelated", "--n", "1", "--m", "0.5"),
        ("sweep", "epr", "--n", "1", "--vary", "mc", "0", "1", "3"),
    ])
    def test_angle_commands_take_the_flag(self, argv):
        assert build_parser().parse_args([*argv, "--radians"]).radians is True
        assert build_parser().parse_args(list(argv)).radians is False

    @pytest.mark.parametrize("argv", [
        ("figure", "5", "--points", "3"),
        ("amplifier", "--G", "1.65", "--H", "1.05"),
        ("oracle-check", "--states", "1"),
    ])
    def test_other_commands_reject_the_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--radians"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --radians" in capsys.readouterr().err


class TestRepeatedCalls:
    """``main`` reuses one parser; no call may see another call's flags."""

    def test_oracle_fields_do_not_leak_into_the_next_call(self, capsys):
        argv = ("classify", "epr", "--n", "1", "--mc", "1.2", "--format", "json")
        code, out, _ = run_cli(capsys, *argv, "--oracle")
        assert code == 0
        assert "oracle_route" in json.loads(out)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert not [key for key in json.loads(out) if key.startswith("oracle")]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestAmplifier:
    def test_reported_gains(self, capsys):
        code, out, _ = run_cli(capsys, "amplifier", "--G", "1.65", "--H", "1.05",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["n"]) == pytest.approx(0.120, abs=5e-3)
        assert float(payload["m"]) == pytest.approx(0.287, abs=5e-3)
        assert float(payload["g2"]) == pytest.approx(7.68, abs=0.05)
        assert float(payload["purity"]) == pytest.approx(0.909, abs=3e-3)
        assert float(payload["w2"]) == pytest.approx(-4.68, abs=0.05)
        assert payload["classical_threshold"] is False

    def test_reports_the_classify_fields_of_its_output_state(self, capsys):
        code, out, _ = run_cli(capsys, "amplifier", "--G", "1.65", "--H", "1.05", "--oracle",
                               "--format", "json")
        assert code == 0
        amplifier = json.loads(out)
        assert list(amplifier)[:5] == ["G", "H", "n", "m", "classical_threshold"]
        for key in ("G", "H", "classical_threshold"):
            del amplifier[key]
        s = amplifier_output(AmplifierGains(1.65, 1.05))
        code, out, _ = run_cli(capsys, "classify", "one-mode", "--n", repr(s.n),
                               "--m", repr(abs(s.m)), "--oracle", "--format", "json")
        assert code == 0
        classify = json.loads(out)
        del classify["m_phase"]
        assert amplifier == classify
        assert {"physical", "w2_verdict", "oracle_g2_delta"} <= set(amplifier)

    def test_invalid_gain_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "amplifier", "--G", "0.5", "--H", "1.0")
        assert code == 2
        assert "error" in err


class TestWitnessAndVisibility:
    def test_w2(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "w2", "--n", "1", "--m", "0",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["value"]) == pytest.approx(1.0)
        assert payload["verdict"] == "classical-or-separable"

    def test_whbt_epr_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "whbt", "--family", "epr",
                               "--n", "1", "--mc", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(float(payload["value"])) < 1e-12
        assert payload["verdict"] == "boundary"

    def test_visibility_uncorrelated(self, capsys):
        code, out, _ = run_cli(capsys, "visibility", "uncorrelated", "--n", "1", "--m", "1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["v_minus"]) == pytest.approx(0.25)
        assert float(payload["v_plus"]) == pytest.approx(0.25)

    def test_visibility_of_a_negative_photon_number(self, capsys):
        # The formulas evaluate any input; n = −1 is scaled by its modulus.
        code, out, _ = run_cli(capsys, "visibility", "uncorrelated", "--n", "-1", "--m", "0",
                               "--format", "json")
        assert code == 0
        assert float(json.loads(out)["v_minus"]) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_visibility_angle_units(self, capsys):
        # --lam 0.5 means pi/2.
        code, out, _ = run_cli(capsys, "visibility", "bs-output", "--n", "1",
                               "--m", "1.41421356", "--lam", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["v_minus"]) == pytest.approx(0.6, abs=1e-6)
        assert float(payload["v_plus"]) == pytest.approx(0.0, abs=1e-9)

    def test_visibility_radians(self, capsys):
        code, out, _ = run_cli(capsys, "visibility", "bs-output", "--n", "1",
                               "--m", "1.41421356", "--lam", str(math.pi / 2),
                               "--radians", "--format", "json")
        assert code == 0
        assert float(json.loads(out)["v_minus"]) == pytest.approx(0.6, abs=1e-6)

    def test_visibility_flags_are_the_family_parameters(self):
        # Each family's flags in ``_VISIBILITIES`` order, with their help
        # texts; only the angles are optional, defaulting to 0.
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        families = next(a for a in commands["visibility"]._actions
                        if a.dest == "family").choices
        for family, (_, names) in cli._VISIBILITIES.items():
            flags = [a for a in families[family]._actions if a.dest in names]
            assert [a.dest for a in flags] == list(names), family
            for a in flags:
                angle = a.dest.startswith("lam")
                assert (a.required, a.default, a.type) == (not angle, 0.0 if angle else None,
                                                           float), (family, a.dest)
                assert a.option_strings == ["--" + a.dest] and a.help == cli._HELP[a.dest]

    def test_nonphysical_visibility_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "visibility", "epr", "--n", "1", "--mc", "1.5")
        assert code == 3

    @pytest.mark.parametrize("argv, name", [
        (("uncorrelated", "--n=nan", "--m", "1"), "n"),
        (("epr", "--n=nan", "--mc", "1"), "n"),
        (("werner", "--n", "1", "--mc=-inf", "--p", "0.5"), "m_c"),
        (("bs-output", "--n", "1", "--m=inf"), "m"),
    ], ids=["uncorrelated", "epr", "werner", "bs-output"])
    def test_non_finite_visibility_parameter_exits_two(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "visibility", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name} must be finite, got ")


def _figure_row(capsys, fig, key):
    code, out, _ = run_cli(capsys, "figure", fig, "--points", "11")
    assert code == 0
    _, rows = parse_csv(out)
    return [float(v) for v in next(row for row in rows if row[0] == key)[1:]]


class TestFigures:
    def test_figure_1_landmarks(self, capsys):
        # The second column is the classicality line n = m, printed to 12
        # significant digits.
        sqrt2_key = f"{math.sqrt(2):.12g}"
        assert _figure_row(capsys, "1", "1") == pytest.approx([(math.sqrt(5) - 1) / 2, 1.0],
                                                              abs=1e-11)
        assert _figure_row(capsys, "1", sqrt2_key) == pytest.approx([1.0, math.sqrt(2)],
                                                                    abs=1e-11)

    def test_figure_4_landmarks(self, capsys):
        assert _figure_row(capsys, "4", "1") == pytest.approx([0.5], abs=1e-12)
        assert _figure_row(capsys, "4", f"{math.sqrt(2):.12g}") == pytest.approx([0.6], abs=1e-12)

    def test_figure_8_landmarks(self, capsys):
        assert _figure_row(capsys, "8", "1") == pytest.approx(
            [0.61803398875, 0.898966325966, 1.0], abs=1e-11)

    def test_figure_8_1_landmarks(self, capsys):
        assert _figure_row(capsys, "8.1", "0.5") == pytest.approx([0.6, 0.5, 5.0 / 13.0],
                                                                  abs=1e-12)

    def test_figure_10_landmarks(self, capsys):
        assert _figure_row(capsys, "10", "0.25") == pytest.approx([0.4, 0.2], abs=1e-12)

    def test_figure_5_landmarks(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "5", "--points", "11")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["mc", "v_minus"]
        values = {row[0]: float(row[1]) for row in rows}
        assert values["1"] == pytest.approx(0.5, abs=1e-12)
        sqrt2_key = f"{math.sqrt(2):.12g}"
        assert values[sqrt2_key] == pytest.approx(0.6, abs=1e-12)

    def test_figure_6_landmarks(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "6", "--points", "11")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "p_hbt", "p_ppt"]
        at_one = [row for row in rows if row[0] == "1"][0]
        assert float(at_one[1]) == pytest.approx(0.5, abs=1e-12)
        assert float(at_one[2]) == pytest.approx(0.320, abs=1e-3)

    def test_figure_11_boundary_row(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "11", "--points", "9")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["mc", "v_minus", "v_plus", "v_m", "separable"]
        boundary_key = f"{1 / math.sqrt(2):.12g}"
        at_boundary = [row for row in rows if row[0] == boundary_key][0]
        assert float(at_boundary[1]) == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert float(at_boundary[2]) == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert float(at_boundary[3]) == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert at_boundary[4] == "true"
        # Entanglement beyond the boundary.
        beyond = [row for row in rows if float(row[0]) > 1 / math.sqrt(2) + 1e-9]
        assert all(row[4] == "false" for row in beyond if float(row[0]) < math.sqrt(2) - 1e-9)

    def test_figure_11_is_that_of_the_eigensolve_gate(self, capsys, tmp_path, monkeypatch):
        # The family's closed form of the gate leaves every byte of the
        # figure as the 4x4 eigensolve on the built state leaves it.
        closed = tmp_path / "closed.csv"
        solved = tmp_path / "solved.csv"
        assert main(["figure", "11", "--out", str(closed)]) == 0

        def eigensolve_gate(n, m, m_c, lam1, lam2):
            _require_physical(_general_state(n, m, m_c, lam1, lam2))

        monkeypatch.setattr(interference, "_require_general_physical", eigensolve_gate)
        assert main(["figure", "11", "--out", str(solved)]) == 0
        capsys.readouterr()
        assert closed.read_bytes() == solved.read_bytes()

    def test_figure_csv_is_deterministic(self, capsys, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        assert main(["figure", "3", "--points", "25", "--out", str(path_a)]) == 0
        assert main(["figure", "3", "--points", "25", "--out", str(path_b)]) == 0
        capsys.readouterr()
        assert path_a.read_bytes() == path_b.read_bytes()
        assert b"\r" not in path_a.read_bytes()

    def test_csv_rows_equal_the_cell_by_cell_format(self):
        # ``_csv`` formats a row with one ``%`` string per tuple of cell
        # types; every row must read as the cells joined through ``_fmt``.
        rng = np.random.default_rng(7)
        specials = [0.0, -0.0, 1.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
                    1e16, 1e-300, 5e-324, 123456789012.5, 2.0 ** 0.5, -1e-5]
        cells = [*specials, *(10.0 ** rng.uniform(-320, 308, 40) * rng.choice([-1, 1], 40)),
                 np.float64(1.0 / 3.0), np.float64(-0.0), np.float64("nan"),
                 np.float32(0.1), np.float32(-3.0e38), np.float32("inf"),
                 True, False, np.bool_(True), np.bool_(False), 0, -7, 2 ** 70,
                 np.int64(-9), np.int32(12), "text", "", "a,b%s%%", None]
        rows = [[cells[i] for i in rng.integers(0, len(cells), 6)] for _ in range(400)]
        rows += [[float(x)] * 3 for x in rng.standard_normal(50)] + [[], ["only"]]
        lines = cli._csv(["c"] * 6, rows, "note").split("\n")
        assert lines[:2] == ["# note", "c,c,c,c,c,c"] and lines[-1] == ""
        assert lines[2:-1] == [",".join(cli._fmt(v) for v in row) for row in rows]

    def test_figure_has_comment_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "3", "--points", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == "m,v_minus,v_plus"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_a_grid_without_points_exits_two(self, capsys, points):
        code, out, err = run_cli(capsys, "figure", "1", "--points", points)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: --points needs at least one point, got {points}"

    def test_a_grid_too_large_to_allocate_exits_two(self, capsys):
        # 10**15 float64 points are 7 PiB, beyond any address space, so the
        # grid's first allocation fails before any memory is touched.
        code, out, err = run_cli(capsys, "figure", "6", "--points", str(10 ** 15))
        assert (code, out) == (2, "")
        assert err.strip() == f"error: --points {10 ** 15} is too many points to allocate"

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "7"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSweep:
    def test_epr_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "epr", "--n", "1",
                               "--vary", "mc", "0", "1.4", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "n"
        assert len(rows) == 8

    @pytest.mark.parametrize("argv", [
        ("epr", "--n", "1", "--vary", "mc", "1.3", "1.6", "4"),
        # Across the bound the general family's closed form of the gate sets.
        ("general", "--n", "1", "--m", "0.5", "--lam1", "0", "--lam2", "0.5",
         "--vary", "mc", "1.0", "1.03", "4"),
    ], ids=lambda argv: argv[0])
    def test_sweep_handles_nonphysical_rows(self, capsys, argv):
        code, out, _ = run_cli(capsys, "sweep", *argv)
        assert code == 0
        header, rows = parse_csv(out)
        physical = [row[header.index("physical")] for row in rows]
        assert physical == ["true", "true", "false", "false"]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_a_grid_without_points_exits_two(self, capsys, count):
        code, out, err = run_cli(capsys, "sweep", "epr", "--n", "1",
                                 "--vary", "mc", "0", "1", count)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: --vary needs at least one point, got {count}"

    def test_a_grid_too_large_to_allocate_exits_two(self, capsys):
        # 7 PiB of points: the grid's first allocation fails outright.
        code, out, err = run_cli(capsys, "sweep", "epr", "--n", "1",
                                 "--vary", "mc", "0", "1", str(10 ** 15))
        assert (code, out) == (2, "")
        assert err.strip() == f"error: --vary NUM {10 ** 15} is too many points to allocate"

    def test_unknown_parameter_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "epr", "--n", "1",
                               "--vary", "zzz", "0", "1", "4")
        assert code == 2

    @pytest.mark.parametrize("grid, message", [
        (("a", "1", "3"), "--vary START must be a finite number, got 'a'"),
        (("0", "b", "3"), "--vary STOP must be a finite number, got 'b'"),
        (("nan", "1", "3"), "--vary START must be a finite number, got 'nan'"),
        (("0", "inf", "3"), "--vary STOP must be a finite number, got 'inf'"),
        (("0", "1", "2.5"), "--vary NUM must be an integer, got '2.5'"),
        (("0", "1", "1e3"), "--vary NUM must be an integer, got '1e3'"),
        (("0", "1", "c"), "--vary NUM must be an integer, got 'c'"),
    ], ids=["start", "stop", "nan", "inf", "fraction", "exponent", "word"])
    def test_a_malformed_field_names_vary_and_the_field(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "sweep", "epr", "--n", "1", "--vary", "mc", *grid)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"

    @pytest.mark.parametrize("argv", [
        ("one-mode", "--n", "0.5", "--vary", "m", "0.3", "0.9", "3"),
        ("epr", "--n", "0.5", "--vary", "mc", "0.3", "0.9", "3"),
    ], ids=lambda argv: argv[0])
    def test_oracle_disagreement_exits_four(self, capsys, monkeypatch, argv):
        # With no tolerance every oracle delta disagrees; the last point is
        # not a state, and its row does not hide the disagreement.
        code, _, _ = run_cli(capsys, "sweep", *argv, "--oracle", "--cutoff", "30")
        assert code == 0
        monkeypatch.setattr(cli, "ORACLE_RTOL", 0.0)
        code, out, _ = run_cli(capsys, "sweep", *argv, "--oracle", "--cutoff", "30")
        assert code == 4
        header, rows = parse_csv(out)
        physical = [row[header.index("physical")] for row in rows]
        assert physical == ["true", "true", "false"]

    def test_gate_rejected_rows_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ORACLE_RTOL", 0.0)
        code, out, _ = run_cli(capsys, "sweep", "epr", "--n", "1", "--vary", "mc", "1.5", "1.6",
                               "2", "--oracle")
        assert code == 0
        header, rows = parse_csv(out)
        assert [row[header.index("physical")] for row in rows] == ["false", "false"]

    def test_unconverged_oracle_point_exits_two_with_remedy(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "epr", "--n", "1", "--vary", "mc", "0", "1", "3",
                               "--oracle", "--cutoff", "10")
        assert code == 2
        assert "at cutoff 10" in err and "rerun with a larger --cutoff" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


class TestExponentNotation:
    """A negative value in exponent notation is a value, not an option."""

    def test_visibility_of_a_huge_negative_photon_number(self, capsys):
        code, out, err = run_cli(capsys, "visibility", "uncorrelated", "--n", "-1e200",
                                 "--m", "1e-200", "--format", "json")
        assert (code, err) == (0, "")
        assert float(json.loads(out)["v_minus"]) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_a_separate_value_reads_as_the_attached_one(self, capsys):
        code, out, err = run_cli(capsys, "classify", "epr", "--n", "1", "--mc", "-1e-3")
        assert (code, err) == (0, "")
        assert "mc            -0.001\n" in out
        assert run_cli(capsys, "classify", "epr", "--n", "1", "--mc=-1e-3") == (code, out, err)

    def test_a_sweep_starts_at_a_negative_exponent(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "epr", "--n", "1",
                                 "--vary", "mc", "-1e-3", "1", "3")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert [row[header.index("mc")] for row in rows] == ["-0.001", "0.4995", "1"]

    def test_a_word_after_a_flag_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "epr", "--n", "-x", "--mc", "1"])
        assert exc.value.code == 2
        assert "argument --n: expected one argument" in capsys.readouterr().err


class TestFamilyTable:
    """``classify``, ``sweep`` and ``witness`` take their families, in order,
    and each family's flags from ``cli._FAMILIES``."""

    @staticmethod
    def _choices(parser, dest):
        return next(a for a in parser._actions if a.dest == dest).choices

    @staticmethod
    def _flags(parser):
        return [a for a in parser._actions if a.dest in cli._HELP]

    def _check_flags(self, parser, names, defaults):
        # ``defaults`` None: every flag optional, defaulting to None, for the
        # command to check with ``_family_values``.
        flags = self._flags(parser)
        assert [a.dest for a in flags] == list(names)
        for a in flags:
            required = defaults is not None and a.dest not in defaults
            default = None if defaults is None else defaults.get(a.dest)
            assert (a.required, a.default, a.type) == (required, default, float), a.dest
            assert a.option_strings == ["--" + a.dest.replace("_", "-")]
            assert a.help == cli._HELP[a.dest]

    def test_classify_and_sweep_families(self):
        commands = self._choices(build_parser(), "command")
        reported = ["one-mode", "epr", "werner", "bs-output", "general"]
        assert reported == [name for name, family in cli._FAMILIES.items()
                            if name == "one-mode" or family.verdict]
        for command, required in (("classify", True), ("sweep", False)):
            families = self._choices(commands[command], "family")
            assert list(families) == reported, command
            for name in reported:
                record = cli._FAMILIES[name]
                self._check_flags(families[name], record.names,
                                  record.defaults if required else None)

    def test_witness_families(self):
        kinds = self._choices(self._choices(build_parser(), "command")["witness"], "kind")
        one_mode = cli._FAMILIES["one-mode"]
        self._check_flags(kinds["w2"], one_mode.names, one_mode.defaults)
        family = next(a for a in kinds["whbt"]._actions if a.dest == "family")
        assert family.choices == ("pair", "epr", "werner", "bs-output", "general")
        assert list(family.choices) == [name for name in cli._FAMILIES if name != "one-mode"]
        assert family.default == "pair"
        self._check_flags(kinds["whbt"], cli._HELP, None)
        assert all(set(record.names) <= set(cli._HELP) for record in cli._FAMILIES.values())


_WHBT_FLAGS = {
    # family -> the flags it needs, then one it does not read
    "pair": (("--n", "1", "--m", "0.5"), ("--mc", "5")),
    "epr": (("--n", "1", "--mc", "0.5"), ("--m", "0.5")),
    "werner": (("--n", "1", "--mc", "0.5", "--p", "0.5"), ("--lam", "0.3")),
    "bs-output": (("--n", "1", "--m", "0.5", "--lam", "0.3"), ("--m-phase", "0.5")),
    "general": (("--n", "1", "--m", "0.5", "--mc", "0.2", "--lam1", "0", "--lam2", "0.3"),
                ("--p", "0.5")),
}


class TestWitnessFlags:
    """``witness whbt --family F`` reads F's parameters and only those;
    pair's ``--m-phase`` and ``--lam`` default to 0."""

    @pytest.mark.parametrize("family", list(_WHBT_FLAGS))
    def test_each_needed_flag_is_required(self, capsys, family):
        needed, _ = _WHBT_FLAGS[family]
        code, _, err = run_cli(capsys, "witness", "whbt", "--family", family, *needed)
        assert (code, err) == (0, "")
        for k in range(0, len(needed), 2):
            argv = needed[:k] + needed[k + 2:]
            code, out, err = run_cli(capsys, "witness", "whbt", "--family", family, *argv)
            assert (code, out) == (2, ""), argv
            assert err.strip() == f"error: family {family!r} needs {needed[k]}"

    @pytest.mark.parametrize("family", list(_WHBT_FLAGS))
    def test_a_flag_the_family_does_not_read_exits_two(self, capsys, family):
        needed, unread = _WHBT_FLAGS[family]
        code, out, err = run_cli(capsys, "witness", "whbt", "--family", family, *needed, *unread)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: family {family!r} does not read {unread[0]}"


class TestSweepFlags:
    """``sweep F`` requires every parameter of F but the varied one."""

    @pytest.mark.parametrize("argv, vary", [
        (("one-mode", "--n", "1", "--m", "0.5"), "m-phase"),
        (("epr", "--n", "1", "--mc", "0.5"), "mc"),
        (("werner", "--n", "1", "--mc", "0.5", "--p", "0.5"), "p"),
        (("bs-output", "--n", "1", "--m", "0.5", "--lam", "0.3"), "lam"),
        (("general", "--n", "1", "--m", "0.5", "--mc", "0.2", "--lam1", "0", "--lam2", "0.3"),
         "lam2"),
    ], ids=lambda value: value[0] if isinstance(value, tuple) else value)
    def test_every_other_parameter_is_required(self, capsys, argv, vary):
        family, flag = argv[0], "--" + vary
        # The varied flag itself is left out: ``--vary`` sets it.
        flags = [x for pair in zip(argv[1::2], argv[2::2]) if pair[0] != flag for x in pair]
        grid = ("--vary", vary, "0", "1", "3")
        assert run_cli(capsys, "sweep", family, *flags, *grid)[0] == 0
        code, out, err = run_cli(capsys, "sweep", family, *flags, flag, "0.5", *grid)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: --vary {vary} sets {flag}; leave {flag} out"
        for k in range(0, len(flags), 2):
            code, out, err = run_cli(capsys, "sweep", family, *flags[:k], *flags[k + 2:], *grid)
            assert (code, out) == (2, ""), flags[k]
            assert err.strip() == f"error: family {family!r} needs {flags[k]}"

    def test_an_invalid_point_is_invalid_input(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "epr", "--mc", "0.5",
                                 "--vary", "n", "-1", "1", "3")
        assert (code, out) == (2, "")
        assert "mean photon number must be >= 0" in err

    def test_a_rejected_first_point_keeps_every_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "epr", "--n", "1",
                               "--vary", "mc", "1.6", "1.2", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "mc", "physical", "entangled", "v_minus", "whbt", "whbt_verdict"]
        assert rows[0][2:] == ["false", "nan", "nan", "nan", "nan"]
        assert rows[1][2:4] == ["true", "true"]


class TestNearVacuumWitness:
    """The witness verdict takes the gate's band, so a band state next to the
    vacuum gets ``boundary`` beside ``entangled false`` instead of an error
    or an entanglement certificate."""

    def _classify(self, capsys, mc):
        code, out, err = run_cli(capsys, "classify", "epr", "--n", "0", "--mc", mc,
                                 "--format", "json")
        assert (code, err) == (0, "")
        return json.loads(out)

    def test_band_state_is_boundary(self, capsys):
        payload = self._classify(capsys, "1e-16")
        assert (payload["whbt"], payload["whbt_verdict"]) == (-0.5, "boundary")
        payload = self._classify(capsys, "1e-10")
        assert (payload["entangled"], payload["whbt_verdict"]) == (False, "boundary")

    def test_entangled_state_keeps_its_certificate(self, capsys):
        payload = self._classify(capsys, "1e-8")
        assert (payload["entangled"], payload["whbt_verdict"]) == (True, "quantum-or-entangled")

    def test_witness_and_sweep_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "whbt", "--family", "epr", "--n", "0",
                               "--mc", "1e-16", "--format", "json")
        assert code == 0 and json.loads(out)["verdict"] == "boundary"
        code, out, _ = run_cli(capsys, "sweep", "epr", "--n", "0", "--vary", "mc", "0", "1e-15", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert [row[header.index("whbt_verdict")] for row in rows] == ["nan", "boundary", "boundary"]

    @pytest.mark.parametrize("m, value, verdict", [
        ("0", 1.0, "classical-or-separable"), ("1e-170", 0.0, "boundary")])
    def test_one_mode_witness_survives_an_underflowing_n(self, capsys, m, value, verdict):
        code, out, err = run_cli(capsys, "witness", "w2", "--n", "1e-170", "--m", m,
                                 "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["value"], payload["verdict"]) == (value, verdict)

    def test_one_mode_classify_survives_an_underflowing_n(self, capsys):
        code, out, err = run_cli(capsys, "classify", "one-mode", "--n", "1e-170", "--m", "0",
                                 "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["v_minus"], payload["v_plus"]) == (1.0 / 3.0, 0.0)
        assert payload["whbt_pair"] == 1.0 / 6.0

    @pytest.mark.parametrize("n, m", [("1e-170", "1e-85")])
    def test_one_mode_oracle_names_the_vacuum_it_rounds_to(self, capsys, n, m):
        # The oracle's ⟨a†a⟩² underflows on this state: the oracle witness
        # names the vacuum, before the g2 ratio would divide by it.
        code, out, err = run_cli(capsys, "classify", "one-mode", "--n", n, "--m", m, "--oracle")
        assert (code, out) == (2, "")
        assert err == "error: witness normalization vanishes (vacuum)\n"

    @pytest.mark.parametrize("argv", [
        ("one-mode", "--n", "1e-100", "--m", "0"),
        ("one-mode", "--n", "1e-13", "--m", "3.1622744978908767e-07"),
        ("epr", "--n", "1e-7", "--mc", "0"),
        ("epr", "--n", "0", "--mc", "1e-16"),
    ], ids=lambda argv: "-".join(argv[::2]))
    def test_oracle_reads_a_state_next_to_the_vacuum(self, capsys, argv):
        # The oracle reads small photon numbers to full relative precision,
        # so it agrees with the closed form wherever its normalization is a
        # normal float.
        code, out, err = run_cli(capsys, "classify", *argv, "--oracle", "--format", "json")
        assert (code, err) == (0, "")
        deltas = {key: value for key, value in json.loads(out).items()
                  if key.startswith("oracle_") and key.endswith("_delta")}
        assert deltas and all(value <= 1e-15 for value in deltas.values()), deltas

    def test_tiny_two_mode_state_is_not_the_vacuum(self, capsys):
        # I₂ underflows to 0 at n = 1e-170, yet the state reports every
        # field it reports at n = 1e-100; the vacuum still reports none.
        reports = {}
        for n in ("1e-100", "1e-170", "0"):
            code, out, err = run_cli(capsys, "classify", "epr", "--n", n, "--mc", "0",
                                     "--format", "json")
            assert (code, err) == (0, "")
            reports[n] = json.loads(out)
        assert list(reports["1e-170"]) == list(reports["1e-100"])
        assert abs(reports["1e-170"]["whbt"] - 1.0 / 6.0) <= 1e-15
        assert abs(reports["1e-170"]["v_minus"] - 1.0 / 3.0) <= 1e-15
        assert reports["1e-170"]["whbt_verdict"] == "boundary"
        assert reports["1e-170"]["v_minus"] == reports["1e-100"]["v_minus"]
        assert list(reports["0"]) == ["n", "mc", "physical", "entangled"]
        # The oracle's I₂ underflows at n = 1e-170: it names the vacuum.
        code, out, err = run_cli(capsys, "classify", "epr", "--n", "1e-170", "--mc", "0",
                                 "--oracle")
        assert (code, out, err) == (2, "", "error: witness normalization vanishes (vacuum)\n")
        code, out, _ = run_cli(capsys, "witness", "whbt", "--family", "werner", "--n", "1e-170",
                               "--mc", "5e-171", "--p", "0.5", "--format", "json")
        assert code == 0 and json.loads(out)["verdict"] == "boundary"

    @pytest.mark.parametrize("argv", [
        ("bs-output", "--n", "1", "--m", "1.2", "--lam", "0.5"),
        ("general", "--n", "1", "--m", "0.3", "--mc", "0.9", "--lam1", "0", "--lam2", "0.5"),
    ], ids=lambda argv: argv[0])
    def test_every_two_mode_family_reports_the_verdict(self, capsys, argv):
        code, out, _ = run_cli(capsys, "classify", *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[-2:] == ["whbt", "whbt_verdict"]
        assert payload["whbt_verdict"] == ("quantum-or-entangled" if payload["whbt"] < 0
                                           else "classical-or-separable")


def _strict_json(text):
    # json.loads accepts the NaN and Infinity tokens; a report holds neither.
    def reject(token):
        raise ValueError(f"non-finite token {token}")

    return json.loads(text, parse_constant=reject)


class TestHugeMoments:
    """Moments enter bounded by 1e153 in modulus (``states.MOMENT_BOUND``):
    up to it every family prints finite fields, and beyond it a command
    that builds a state exits 2 naming the bound, with no traceback."""

    @pytest.mark.parametrize("argv", [
        ("classify", "epr", "--n", "1e170", "--mc", "5e169"),
        ("classify", "one-mode", "--n", "1e170", "--m", "5e169"),
        ("witness", "w2", "--n", "1e170", "--m", "5e169"),
        ("classify", "werner", "--n", "1e154", "--mc", "5e153", "--p", "0.5"),
        ("classify", "general", "--n", "1e154", "--m", "1", "--mc", "1", "--lam1", "0",
         "--lam2", "0"),
        ("witness", "whbt", "--family", "bs-output", "--n", "1e154", "--m", "1", "--lam", "0"),
    ], ids=lambda argv: "-".join(argv[:2]) + "-" + argv[3])
    def test_moments_beyond_the_bound_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: n must be finite and at most 1e+153 in modulus")

    @pytest.mark.parametrize("argv", [
        ("classify", "one-mode", "--n", "1e153", "--m", "5e152"),
        ("classify", "epr", "--n", "1e153", "--mc", "1e153"),
        ("classify", "werner", "--n", "1e153", "--mc", "1e153", "--p", "0.5"),
        ("classify", "bs-output", "--n", "1e153", "--m", "1e153", "--lam", "0.5"),
        ("classify", "general", "--n", "1e153", "--m", "5e152", "--mc", "5e152",
         "--lam1", "0", "--lam2", "0.5"),
        ("witness", "w2", "--n", "1e153", "--m", "5e152"),
        ("witness", "whbt", "--family", "pair", "--n", "1e153", "--m", "1e153"),
        ("visibility", "epr", "--n", "1e170", "--mc", "5e169"),
    ], ids=lambda argv: "-".join(argv[:2]) + "-" + argv[3])
    def test_moments_up_to_the_bound_print_finite_fields(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert all(isinstance(v, (str, bool)) or math.isfinite(v)
                   for v in _strict_json(out).values())

    @pytest.mark.parametrize("argv, purity", [
        (("classify", "one-mode", "--n", "1e9", "--m", "1000000000.5"), 1.0),
        (("classify", "one-mode", "--n", "1e153", "--m", "1e153", "--m-phase", "0.3"),
         0.5 / math.sqrt(1e153)),
        (("amplifier", "--G", "1e153", "--H", "1"), None),
    ], ids=["one-mode-1e9-band", "one-mode-1e153", "amplifier-1e153"])
    def test_nearly_pure_huge_states_keep_their_purity(self, capsys, argv, purity):
        # (n + ½)² − |m|² cancelled to 0 on these, a division by zero.  The
        # first lies in the gate's band above n(n+1), purity 1.
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        value = _strict_json(out)["purity"]
        assert 0.0 < value <= 1.0
        if purity == 1.0:
            assert value == 1.0
        elif purity is not None:
            assert value == pytest.approx(purity, rel=1e-15)

    def test_werner_thresholds_at_a_huge_n(self, capsys):
        code, out, err = run_cli(capsys, "classify", "werner", "--n", "1e100", "--mc", "5e99",
                                 "--p", "0.5", "--format", "json")
        assert (code, err) == (0, "")
        payload = _strict_json(out)
        assert payload["ppt_threshold"] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert payload["whbt_verdict"] == "classical-or-separable"


class TestOracleCheckCommand:
    @pytest.mark.parametrize("flags, message", [
        (("--states", "-3"), "n_states must be at least 2, got -3"),
        (("--states", "1"), "n_states must be at least 2, got 1"),
        (("--states", "4", "--max-word-len", "0"), "max_word_len must be at least 2, got 0"),
        (("--states", "4", "--max-word-len", "-2"), "max_word_len must be at least 2, got -2"),
    ])
    def test_a_suite_that_compares_nothing_exits_2(self, capsys, flags, message):
        # One half of the states would be empty, or no word even: every
        # check would pass having compared nothing.
        code, out, err = run_cli(capsys, "oracle-check", *flags)
        assert (code, out) == (2, "")
        assert message in err

    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--states", "4",
                               "--ppt-cutoff", "25", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {c["name"] for c in payload["checks"]} == {
            "one-mode moments", "one-mode purity", "single-mode witness",
            "two-mode moments", "intensity witness", "partial-transpose boundary",
        }

    def test_csv_has_one_row_per_check(self, capsys):
        _, out, _ = run_cli(capsys, "oracle-check", "--states", "2", "--format", "json")
        names = [c["name"] for c in json.loads(out)["checks"]]
        code, out, _ = run_cli(capsys, "oracle-check", "--states", "2", "--format", "csv")
        assert code == 0
        assert out.startswith("# suite of 2 states, cutoff 40, seed ")
        header, rows = parse_csv(out)
        assert header == ["name", "ok", "worst", "tolerance"]
        assert [row[0] for row in rows] == names and len(rows) == 6
        assert all(len(row) == 4 and row[1] == "true" for row in rows)


_ONE_MODE_KEYS = ["n", "m", "m_phase", "physical", "classification", "pure", "var_x1",
                  "var_x2", "purity"]
_WITNESS_KEYS = ["whbt", "whbt_verdict"]
_TWO_MODE_ORACLE_KEYS = ["oracle_route", "oracle_cutoff", "oracle_trace_deficit",
                         "oracle_density_mb", "oracle_ppt_min_eig", "oracle_whbt_delta"]
_REPORT_KEYS = {
    # family -> (physical state, its keys), (nonphysical state, its keys),
    # (the vacuum, its keys); under --oracle the physical state's keys are
    # followed by the oracle's
    "one-mode": (
        (("--n", "0.3", "--m", "0.4"),
         _ONE_MODE_KEYS + ["g2", "w2", "w2_verdict", "v_minus", "v_plus", "whbt_pair"]),
        (("--n", "0.5", "--m", "1"), _ONE_MODE_KEYS[:5]),
        (("--n", "0", "--m", "0"), _ONE_MODE_KEYS),
    ),
    "epr": (
        (("--n", "0.3", "--mc", "0.4"),
         ["n", "mc", "physical", "entangled", "v_minus"] + _WITNESS_KEYS),
        (("--n", "1", "--mc", "1.5"), ["n", "mc", "physical"]),
        (("--n", "0", "--mc", "0"), ["n", "mc", "physical", "entangled"]),
    ),
    "werner": (
        (("--n", "0.3", "--mc", "0.4", "--p", "0.6"),
         ["n", "mc", "p", "physical", "hbt_threshold", "ppt_threshold", "v_minus"]
         + _WITNESS_KEYS),
        (("--n", "1", "--mc", "1.5", "--p", "0.5"), ["n", "mc", "p", "physical"]),
        (("--n", "0", "--mc", "0", "--p", "0.5"), ["n", "mc", "p", "physical"]),
    ),
    "bs-output": (
        (("--n", "0.3", "--m", "0.4", "--lam", "0.3"),
         ["n", "m", "lam", "physical", "m_out_abs", "mc_out_abs", "separable", "v_minus",
          "v_plus", "fringe_classical"] + _WITNESS_KEYS),
        (("--n", "0.5", "--m", "1", "--lam", "0.3"),
         ["n", "m", "lam", "physical", "m_out_abs", "mc_out_abs", "separable", "v_minus",
          "v_plus", "fringe_classical"]),
        (("--n", "0", "--m", "0", "--lam", "0"),
         ["n", "m", "lam", "physical", "m_out_abs", "mc_out_abs", "separable"]),
    ),
    "general": (
        (("--n", "0.3", "--m", "0.2", "--mc", "0.3", "--lam1", "0", "--lam2", "0.5"),
         ["n", "m", "mc", "lam1", "lam2", "physical", "separable", "v_minus", "v_plus", "v_m"]
         + _WITNESS_KEYS),
        (("--n", "1", "--m", "1.5", "--mc", "0.9", "--lam1", "0", "--lam2", "0.5"),
         ["n", "m", "mc", "lam1", "lam2", "physical", "separable"]),
        (("--n", "0", "--m", "0", "--mc", "0", "--lam1", "0", "--lam2", "0"),
         ["n", "m", "mc", "lam1", "lam2", "physical", "separable"]),
    ),
}


class TestReportOrder:
    """The ordered keys of ``classify --format json`` for every family, on a
    physical state (with and without the oracle), a nonphysical one and the
    vacuum."""

    @pytest.mark.parametrize("family", list(_REPORT_KEYS))
    def test_keys_in_order(self, capsys, family):
        (physical, keys), (nonphysical, rejected_keys), (vacuum, vacuum_keys) = \
            _REPORT_KEYS[family]
        oracle_keys = (["oracle_route", "oracle_cutoff", "oracle_trace_deficit",
                        "oracle_density_mb", "oracle_g2_delta", "oracle_purity_delta",
                        "oracle_w2_delta"] if family == "one-mode" else _TWO_MODE_ORACLE_KEYS)
        for argv, expected, exit_code in (
                (physical, keys, 0),
                ((*physical, "--oracle", "--cutoff", "20"), keys + oracle_keys, 0),
                (nonphysical, rejected_keys, 3),
                (vacuum, vacuum_keys, 0)):
            code, out, _ = run_cli(capsys, "classify", family, *argv, "--format", "json")
            assert code == exit_code, argv
            assert list(json.loads(out)) == expected, argv


_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The ``squeezekit`` lines of README's "Command line" block, as argv."""
    text = _README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("squeezekit ")]


def test_readme_command_examples(capsys, tmp_path, monkeypatch):
    # Each example runs as written, in a scratch directory for its --out
    # file, and the claims of its comments hold.
    monkeypatch.chdir(tmp_path)
    claims = set()
    for argv in _readme_commands():
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[:2] == ["classify", "epr"] and "--oracle" in argv:
            fields = dict(line.split(None, 1) for line in out.strip().split("\n"))
            assert float(fields["oracle_ppt_min_eig"]) < 0
            claims.add("ppt")
        elif argv[:2] == ["classify", "general"]:
            fields = dict(line.split(None, 1) for line in out.strip().split("\n"))
            assert fields["v_minus"] == f"{26 / 77:.12g}"
            claims.add("v_minus")
    assert claims == {"ppt", "v_minus"}
    assert (tmp_path / "fig5.csv").is_file()


def test_no_command_imports_scipy():
    # numpy is the package's only dependency; scipy, present on development
    # hosts, must not creep in.  A fresh interpreter, so that no other
    # test's imports count, runs an oracle classification and a small suite.
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    script = ("import sys; from squeezekit.cli import main; "
              "codes = [main(['classify', 'bs-output', '--n', '1', '--m', '0.6', '--lam', '0.3', "
              "'--oracle']), main(['oracle-check', '--states', '4'])]; "
              "print(codes, 'scipy' in sys.modules)")
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] False"
