"""Mutants: plausible slips in the closed forms, each of which an oracle
check must catch.

Each mutant is a monkeypatch of one closed-form function, patched where
the checking module binds it: ``oracle_check`` and ``cli`` import the
closed forms by name, so patching the defining module alone would leave
their bindings unmutated.  A suite mutant must fail exactly the listed
checks of ``run_concordance_suite(n_states=20)``; a CLI mutant must make
its ``--oracle`` command exit 4.  The unmutated suite and command pass.
"""

import dataclasses

import pytest

from squeezekit import cli, oracle_check


def _scaled(report):
    return dataclasses.replace(report, value=report.value * 1.01)


# name -> (the name oracle_check binds, its mutant, the checks that must fail)
_SUITE_MUTANTS = {
    "purity squared": ("purity_one_mode", lambda f: lambda s: f(s) ** 2,
                       {"one-mode purity"}),
    "wick moment conjugated": ("wick_moment", lambda f: lambda s, w: f(s, w).conjugate(),
                               {"one-mode moments", "two-mode moments"}),
    "w2 times 1.01": ("w2_expectation", lambda f: lambda s: _scaled(f(s)),
                      {"single-mode witness"}),
    "whbt times 1.01": ("whbt_expectation", lambda f: lambda s: _scaled(f(s)),
                        {"intensity witness"}),
}

_ORACLE_COMMAND = ("classify", "one-mode", "--n", "1", "--m", "0.5", "--oracle")


def _failing_checks():
    report = oracle_check.run_concordance_suite(n_states=20)
    return {check.name for check in report.checks if not check.ok}


def test_the_unmutated_suite_passes():
    assert _failing_checks() == set()


@pytest.mark.parametrize("mutant", sorted(_SUITE_MUTANTS))
def test_the_suite_kills_each_mutant(monkeypatch, mutant):
    name, mutate, killed_by = _SUITE_MUTANTS[mutant]
    monkeypatch.setattr(oracle_check, name, mutate(getattr(oracle_check, name)))
    assert _failing_checks() == killed_by


@pytest.mark.parametrize("mutated", [False, True], ids=["unmutated", "g2 times 1.01"])
def test_the_oracle_command_kills_a_wrong_g2(monkeypatch, tmp_path, mutated):
    if mutated:
        original = cli.g2
        monkeypatch.setattr(cli, "g2", lambda s: original(s) * 1.01)
    code = cli.main([*_ORACLE_COMMAND, "--out", str(tmp_path / "report.txt")])
    assert code == (4 if mutated else 0)
