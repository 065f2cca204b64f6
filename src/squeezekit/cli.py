"""Command-line front end: classify states, evaluate witnesses and
visibilities, sweep parameters, reproduce figure data as CSV, and run the
oracle concordance suite.

Angles are accepted in units of π (``--lam 0.5`` means π/2) so that figure
abscissae stay exact; pass ``--radians`` for raw radians.  CSV output is
deterministic: 12 significant digits, '.' decimal separator, LF line
endings.  Exit codes: 0 success, 2 invalid input, 3 nonphysical state,
4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import fock, oracle_check
from .interference import (
    InequalityContext,
    classical_inequality_report,
    visibilities_bs_output,
    visibilities_general,
    visibilities_uncorrelated,
    visibility_epr,
    visibility_werner,
)
from .separability import (
    bs_output_is_separable,
    epr_is_entangled,
    general_is_separable,
    is_physical_two_mode,
    werner_hbt_threshold,
    werner_ppt_threshold,
)
from .states import (
    NonPhysicalStateError,
    OneModeGaussian,
    OperatorWord,
    TwoModeGaussian,
    g2,
    is_p_representable,
    purity_one_mode,
    quadrature_variances,
)
from .transforms import (
    AmplifierGains,
    amplifier_output,
    beam_splitter,
    is_classical_threshold,
    werner_mix,
)
from .witnesses import WitnessKind, w2_expectation, whbt_expectation

ORACLE_RTOL = 1e-4
_ANGLE_PARAMS = {"lam", "lam1", "lam2", "m_phase"}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(columns, rows, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _report(args, fields: dict) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        _emit(args, json.dumps({k: v for k, v in fields.items()}, default=_fmt, indent=2) + "\n")
    elif fmt == "csv":
        _emit(args, _csv(list(fields), [list(fields.values())]))
    else:
        width = max(len(k) for k in fields)
        lines = [f"{k.ljust(width)}  {_fmt(v)}" for k, v in fields.items()]
        _emit(args, "\n".join(lines) + "\n")


def _angle(value: float, radians: bool) -> float:
    return value if radians else value * math.pi


# --- family descriptions -------------------------------------------------------

def _one_mode_state(params, radians):
    phase = _angle(params.get("m_phase", 0.0), radians)
    return OneModeGaussian(params["n"], params["m"] * cmath.exp(1j * phase))


def _describe_one_mode(params, radians, oracle, cutoff):
    s = _one_mode_state(params, radians)
    out = {"n": s.n, "m": abs(s.m), "m_phase": params.get("m_phase", 0.0)}
    physical = s.is_physical()
    out["physical"] = physical
    if not physical:
        out["classification"] = "nonphysical"
        return out, False
    out["classification"] = is_p_representable(s).value
    out["pure"] = s.is_pure()
    dx1, dx2 = quadrature_variances(s)
    out["var_x1"] = dx1
    out["var_x2"] = dx2
    out["purity"] = purity_one_mode(s)
    if s.n > 0:
        out["g2"] = g2(s)
        w2 = w2_expectation(s)
        out["w2"] = w2.value
        out["w2_verdict"] = w2.verdict.value
    pair = TwoModeGaussian.pair_with_phase(s, 0.0)
    if s.n > 0 or abs(s.m) > 0:
        vis = visibilities_uncorrelated(s.n, abs(s.m))
        out["v_minus"] = vis.v_minus
        out["v_plus"] = vis.v_plus
        whbt = whbt_expectation(pair)
        out["whbt_pair"] = whbt.value
    disagree = False
    if oracle and s.n > 0:
        rho = fock.one_mode_density(s, cutoff)
        oracle_n1 = fock.moment(rho, OperatorWord.from_counts(1, 0, 1, 0)).real
        oracle_n2 = fock.moment(rho, OperatorWord.from_counts(2, 0, 2, 0)).real
        oracle_g2 = oracle_n2 / oracle_n1 ** 2
        out["oracle_g2_delta"] = oracle_check.relative_error(oracle_g2, out["g2"])
        out["oracle_purity_delta"] = oracle_check.relative_error(rho.purity(), out["purity"])
        out["oracle_w2_delta"] = oracle_check.relative_error(
            fock.expectation_of_witness(rho, WitnessKind.W2), out["w2"])
        disagree = any(out[k] > ORACLE_RTOL for k in
                       ("oracle_g2_delta", "oracle_purity_delta", "oracle_w2_delta"))
    return out, disagree


def _two_mode_oracle_fields(state, out, cutoff):
    rho = fock.two_mode_density(state, cutoff)
    out["oracle_ppt_min_eig"] = fock.ppt_min_eigenvalue(rho)
    oracle_whbt = fock.expectation_of_witness(rho, WitnessKind.WHBT)
    out["oracle_whbt_delta"] = oracle_check.relative_error(oracle_whbt, out["whbt"])
    return out["oracle_whbt_delta"] > ORACLE_RTOL


def _describe_epr(params, radians, oracle, cutoff):
    n, mc = params["n"], params["mc"]
    out = {"n": n, "mc": mc}
    physical = is_physical_two_mode(TwoModeGaussian.epr(n, complex(mc)))
    out["physical"] = physical
    if not physical:
        return out, False
    out["entangled"] = epr_is_entangled(n, mc)
    out["v_minus"] = visibility_epr(n, mc).v_minus
    whbt = whbt_expectation(TwoModeGaussian.epr(n, complex(mc)))
    out["whbt"] = whbt.value
    out["whbt_verdict"] = whbt.verdict.value
    disagree = False
    if oracle:
        disagree = _two_mode_oracle_fields(TwoModeGaussian.epr(n, complex(mc)), out, cutoff)
    return out, disagree


def _describe_werner(params, radians, oracle, cutoff):
    n, mc, p = params["n"], params["mc"], params["p"]
    out = {"n": n, "mc": mc, "p": p}
    physical = is_physical_two_mode(TwoModeGaussian.epr(n, complex(mc))) and 0.0 <= p <= 1.0
    out["physical"] = physical
    if not physical:
        return out, False
    mixture = werner_mix(TwoModeGaussian.epr(n, complex(mc)), p)
    out["hbt_threshold"] = werner_hbt_threshold(n)
    out["ppt_threshold"] = werner_ppt_threshold(n)
    out["v_minus"] = visibility_werner(n, mc, p).v_minus
    whbt = whbt_expectation(mixture)
    out["whbt"] = whbt.value
    out["whbt_verdict"] = whbt.verdict.value
    disagree = False
    if oracle:
        disagree = _two_mode_oracle_fields(mixture, out, cutoff)
    return out, disagree


def _describe_bs_output(params, radians, oracle, cutoff):
    n, m = params["n"], params["m"]
    lam = _angle(params["lam"], radians)
    out = {"n": n, "m": m, "lam": params["lam"]}
    physical = OneModeGaussian(n, complex(m)).is_physical()
    out["physical"] = physical
    state = beam_splitter(OneModeGaussian(n, complex(m)), OneModeGaussian(n, complex(m)), lam)
    out["m_out_abs"] = abs(state.m_a)
    out["mc_out_abs"] = abs(state.m_c)
    out["separable"] = bs_output_is_separable(n, m, lam)
    vis = visibilities_bs_output(n, m, lam)
    out["v_minus"] = vis.v_minus
    out["v_plus"] = vis.v_plus
    report = classical_inequality_report(vis, InequalityContext.BEAM_SPLITTER_OUTPUT)
    out["fringe_classical"] = report.classical
    if not physical:
        return out, False
    whbt = whbt_expectation(state)
    out["whbt"] = whbt.value
    disagree = False
    if oracle:
        disagree = _two_mode_oracle_fields(state, out, cutoff)
    return out, disagree


def _describe_general(params, radians, oracle, cutoff):
    n, m, mc = params["n"], params["m"], params["mc"]
    lam1 = _angle(params["lam1"], radians)
    lam2 = _angle(params["lam2"], radians)
    out = {"n": n, "m": m, "mc": mc, "lam1": params["lam1"], "lam2": params["lam2"]}
    state = TwoModeGaussian(n, m * cmath.exp(1j * lam1), m * cmath.exp(1j * lam2), complex(mc))
    physical = is_physical_two_mode(state)
    out["physical"] = physical
    out["separable"] = general_is_separable(n, m, mc, lam1, lam2)
    if not physical:
        return out, False
    vis = visibilities_general(n, m, mc, lam1, lam2)
    out["v_minus"] = vis.v_minus
    out["v_plus"] = vis.v_plus
    out["v_m"] = vis.v_m
    whbt = whbt_expectation(state)
    out["whbt"] = whbt.value
    disagree = False
    if oracle:
        disagree = _two_mode_oracle_fields(state, out, cutoff)
    return out, disagree


_FAMILIES = {
    "one-mode": (_describe_one_mode, ("n", "m", "m_phase")),
    "epr": (_describe_epr, ("n", "mc")),
    "werner": (_describe_werner, ("n", "mc", "p")),
    "bs-output": (_describe_bs_output, ("n", "m", "lam")),
    "general": (_describe_general, ("n", "m", "mc", "lam1", "lam2")),
}


def _family_params(args) -> dict:
    params = {}
    for name in _FAMILIES[args.family][1]:
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            params[name] = value
    return params


# --- command handlers -----------------------------------------------------------

def _cmd_classify(args) -> int:
    describe = _FAMILIES[args.family][0]
    fields, disagree = describe(_family_params(args), args.radians, args.oracle, args.cutoff)
    _report(args, fields)
    if not fields.get("physical", True):
        print("nonphysical state parameters", file=sys.stderr)
        return 3
    return 4 if disagree else 0


def _cmd_amplifier(args) -> int:
    gains = AmplifierGains(args.G, args.H)
    s = amplifier_output(gains)
    fields = {
        "G": gains.G,
        "H": gains.H,
        "n": s.n,
        "m": abs(s.m),
        "classical_threshold": is_classical_threshold(gains),
        "classification": is_p_representable(s).value,
        "purity": purity_one_mode(s),
    }
    if s.n > 0:
        fields["g2"] = g2(s)
        fields["w2"] = w2_expectation(s).value
        vis = visibilities_uncorrelated(s.n, abs(s.m))
        fields["v_minus"] = vis.v_minus
        fields["v_plus"] = vis.v_plus
        fields["whbt_pair"] = whbt_expectation(TwoModeGaussian.pair_with_phase(s, 0.0)).value
    disagree = False
    if args.oracle and s.n > 0:
        rho = fock.one_mode_density(s, args.cutoff)
        fields["oracle_purity_delta"] = oracle_check.relative_error(rho.purity(), fields["purity"])
        fields["oracle_w2_delta"] = oracle_check.relative_error(
            fock.expectation_of_witness(rho, WitnessKind.W2), fields["w2"])
        disagree = max(fields["oracle_purity_delta"], fields["oracle_w2_delta"]) > ORACLE_RTOL
    _report(args, fields)
    return 4 if disagree else 0


def _cmd_witness(args) -> int:
    if args.kind == "w2":
        phase = _angle(args.m_phase, args.radians)
        s = OneModeGaussian(args.n, args.m * cmath.exp(1j * phase))
        report = w2_expectation(s)
    else:
        state = _whbt_state(args)
        report = whbt_expectation(state)
    _report(args, {
        "witness": report.witness_kind.value,
        "value": report.value,
        "verdict": report.verdict.value,
    })
    return 0


def _whbt_state(args):
    family = args.family
    if family == "pair":
        phase = _angle(args.m_phase, args.radians)
        lam = _angle(args.lam, args.radians)
        s = OneModeGaussian(args.n, args.m * cmath.exp(1j * phase))
        return TwoModeGaussian.pair_with_phase(s, lam)
    if family == "epr":
        return TwoModeGaussian.epr(args.n, complex(args.mc))
    if family == "werner":
        return werner_mix(TwoModeGaussian.epr(args.n, complex(args.mc)), args.p)
    if family == "bs-output":
        lam = _angle(args.lam, args.radians)
        s = OneModeGaussian(args.n, complex(args.m))
        return beam_splitter(s, s, lam)
    lam1 = _angle(args.lam1, args.radians)
    lam2 = _angle(args.lam2, args.radians)
    return TwoModeGaussian(
        args.n, args.m * cmath.exp(1j * lam1), args.m * cmath.exp(1j * lam2), complex(args.mc))


def _cmd_visibility(args) -> int:
    family = args.family
    if family == "uncorrelated":
        vis = visibilities_uncorrelated(args.n, args.m, _angle(args.lam, args.radians))
    elif family == "epr":
        vis = visibility_epr(args.n, args.mc)
    elif family == "werner":
        vis = visibility_werner(args.n, args.mc, args.p)
    elif family == "bs-output":
        vis = visibilities_bs_output(args.n, args.m, _angle(args.lam, args.radians))
    else:
        vis = visibilities_general(
            args.n, args.m, args.mc,
            _angle(args.lam1, args.radians), _angle(args.lam2, args.radians))
    _report(args, {
        "v_minus": vis.v_minus,
        "v_plus": vis.v_plus,
        "v_m": vis.v_m,
        "phase_offset_plus": vis.phase_offset_plus,
        "v_total": vis.total,
    })
    return 0


def _grid(lo: float, hi: float, points: int, landmarks=()) -> np.ndarray:
    base = np.linspace(lo, hi, points)
    if landmarks:
        base = np.unique(np.concatenate([base, np.asarray(landmarks, dtype=float)]))
    return base


def _figure_rows(fig_id: str, points: int):
    sqrt2 = math.sqrt(2.0)
    if fig_id == "1":
        ms = _grid(0.0, 3.0, points, landmarks=(1.0, sqrt2))
        rows = [(m, 0.5 * (math.sqrt(1.0 + 4.0 * m * m) - 1.0), m) for m in ms]
        return (
            "physical boundary n(n+1) = m^2 and classicality line n = m",
            ("m", "n_physical_boundary", "n_classical_line"),
            rows,
        )
    if fig_id == "3":
        ms = _grid(0.0, sqrt2, points, landmarks=(1.0, sqrt2))
        rows = []
        for m in ms:
            vis = visibilities_uncorrelated(1.0, m)
            rows.append((m, vis.v_minus, vis.v_plus))
        return (
            "n = 1: v_minus = n^2/(3n^2+m^2), v_plus = m^2/(3n^2+m^2)",
            ("m", "v_minus", "v_plus"),
            rows,
        )
    if fig_id == "4":
        ms = _grid(0.0, sqrt2, points, landmarks=(1.0, sqrt2))
        rows = []
        for m in ms:
            vis = visibilities_uncorrelated(1.0, m)
            rows.append((m, vis.total))
        return (
            "n = 1: v_minus + v_plus = (n^2+m^2)/(3n^2+m^2)",
            ("m", "v_sum"),
            rows,
        )
    if fig_id == "5":
        mcs = _grid(0.0, sqrt2, points, landmarks=(1.0, sqrt2))
        rows = [(mc, visibility_epr(1.0, mc).v_minus) for mc in mcs]
        return (
            "n = 1: v_minus = (n^2+mc^2)/(3n^2+mc^2)",
            ("mc", "v_minus"),
            rows,
        )
    if fig_id == "6":
        ns = _grid(0.05, 5.0, points, landmarks=(1.0,))
        rows = [(n, werner_hbt_threshold(n), werner_ppt_threshold(n)) for n in ns]
        return (
            "one-sided entanglement-detection thresholds (no separability proof "
            "exists for the mixture): witness p = n/(n+1); partial transpose "
            "p = 1/(1+sqrt((1+n)/n)*(1+2n^2)^2/(n(1+2n)(1+n^2)))",
            ("n", "p_hbt", "p_ppt"),
            rows,
        )
    if fig_id == "8":
        ms = _grid(0.0, 3.0, points, landmarks=(1.0, sqrt2))
        rows = []
        for m in ms:
            row = [m]
            for lam in (0.0, math.pi / 4.0, math.pi / 2.0):
                s = math.sin(lam)
                row.append(0.5 * (math.sqrt(1.0 + 4.0 * (m * m + s * m)) - 1.0))
            rows.append(tuple(row))
        return (
            "separability boundary m^2 + sin(lam)*m = n(n+1) solved for n, "
            "at lam = 0, pi/4, pi/2",
            ("m", "n_boundary_lam0", "n_boundary_lam_pi4", "n_boundary_lam_pi2"),
            rows,
        )
    if fig_id == "8.1":
        lams = _grid(0.0, 1.0, points, landmarks=(0.25, 0.5))
        rows = []
        for lam_over_pi in lams:
            lam = lam_over_pi * math.pi
            rows.append((
                lam_over_pi,
                visibilities_bs_output(1.0, sqrt2, lam).v_minus,
                visibilities_bs_output(1.0, 1.0, lam).v_minus,
                visibilities_bs_output(1.0, 0.5, lam).v_minus,
            ))
        return (
            "n = 1: output v_minus = (n^2+(1-cos 2 lam)m^2/2)/(3n^2+m^2) for "
            "quantum (m=sqrt(2)), border (m=1) and classical (m=0.5) inputs",
            ("lam_over_pi", "v_minus_quantum", "v_minus_border", "v_minus_classical"),
            rows,
        )
    if fig_id == "10":
        lams = _grid(0.0, 1.0, points, landmarks=(0.25, 0.5))
        rows = []
        for lam_over_pi in lams:
            vis = visibilities_bs_output(1.0, sqrt2, lam_over_pi * math.pi)
            rows.append((lam_over_pi, vis.v_minus, vis.v_plus))
        return (
            "n = 1, m = sqrt(2): v_minus = (n^2+(1-cos 2 lam)m^2/2)/(3n^2+m^2), "
            "v_plus = (1+cos 2 lam)m^2/(2(3n^2+m^2))",
            ("lam_over_pi", "v_minus", "v_plus"),
            rows,
        )
    if fig_id == "11":
        mcs = _grid(0.0, sqrt2, points, landmarks=(1.0 / sqrt2, sqrt2))
        rows = []
        for mc in mcs:
            m = sqrt2 - mc
            vis = visibilities_general(1.0, m, mc, 0.0, math.pi / 2.0)
            rows.append((
                mc, vis.v_minus, vis.v_plus, vis.v_m,
                general_is_separable(1.0, m, mc, 0.0, math.pi / 2.0),
            ))
        return (
            "n = 1, m = sqrt(2)-mc, lam1 = 0, lam2 = pi/2: v_minus = (n^2+mc^2)/D, "
            "v_plus = m^2/D, v_m = m*mc/D with D = 3n^2+m^2+mc^2; "
            "separable iff m^2+mc^2+mc*sqrt(1+2m^2) <= n(n+1)",
            ("mc", "v_minus", "v_plus", "v_m", "separable"),
            rows,
        )
    raise ValueError(f"unknown figure id {fig_id!r}")


def _cmd_figure(args) -> int:
    comment, columns, rows = _figure_rows(args.id, args.points)
    if args.format == "json":
        payload = {
            "figure": args.id,
            "comment": comment,
            "columns": list(columns),
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, _csv(columns, rows, comment))
    return 0


def _cmd_sweep(args) -> int:
    family = args.family
    describe = _FAMILIES[family][0]
    name, lo, hi, num = args.vary
    name = name.replace("-", "_")
    if name not in _FAMILIES[family][1]:
        raise ValueError(f"family {family!r} has no parameter {name!r}")
    grid = np.linspace(float(lo), float(hi), int(num))
    params = {key: 0.0 for key in _FAMILIES[family][1]}
    params.update(_family_params(args))
    rows = []
    columns = None
    for value in grid:
        params[name] = float(value)
        try:
            fields, _ = describe(params, args.radians, args.oracle, args.cutoff)
        except (NonPhysicalStateError, ValueError):
            fields = {name: float(value), "physical": False}
        if columns is None:
            columns = list(fields)
        rows.append([fields.get(col, float("nan")) for col in columns])
    comment = f"sweep of {name} over [{lo}, {hi}] for family {family}"
    if args.format == "json":
        payload = {"columns": columns, "rows": [[_fmt(v) for v in row] for row in rows]}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, _csv(columns, rows, comment))
    return 0


def _cmd_oracle_check(args) -> int:
    report = oracle_check.run_concordance_suite(
        n_states=args.states,
        cutoff=args.cutoff,
        max_word_len=args.max_word_len,
        seed=args.seed,
        ppt_cutoff=args.ppt_cutoff,
    )
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "elapsed_seconds": report.elapsed_seconds,
            "cutoff": report.cutoff,
            "n_states": report.n_states,
            "seed": report.seed,
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "worst": c.worst,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in report.checks
            ],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = []
        for c in report.checks:
            status = "PASS" if c.ok else "FAIL"
            lines.append(f"{status}  {c.name}: worst {c.worst:.3g} (tolerance {c.tolerance:.3g})")
            if not c.ok and c.detail:
                lines.append(f"      {c.detail}")
        lines.append(f"{'PASS' if report.ok else 'FAIL'}  overall "
                     f"({report.n_states} states, cutoff {report.cutoff}, "
                     f"{report.elapsed_seconds:.1f}s)")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.ok else 4


# --- parser ---------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--radians", action="store_true",
                        help="interpret angles as raw radians instead of units of pi")
    parser.add_argument("--oracle", action="store_true",
                        help="add Fock-oracle agreement columns")
    parser.add_argument("--cutoff", type=int, default=40,
                        help="Fock cutoff for oracle columns (default 40)")


def _add_family_arguments(parser, family):
    parser.add_argument("--n", type=float, required=True, help="mean photon number per mode")
    if family in ("one-mode", "bs-output", "general"):
        parser.add_argument("--m", type=float, required=True, help="squeezing magnitude |m|")
    if family == "one-mode":
        parser.add_argument("--m-phase", dest="m_phase", type=float, default=0.0,
                            help="phase of m (angle units)")
    if family in ("epr", "werner", "general"):
        parser.add_argument("--mc", type=float, required=True, help="cross correlation |m_c|")
    if family == "werner":
        parser.add_argument("--p", type=float, required=True, help="mixing probability")
    if family == "bs-output":
        parser.add_argument("--lam", type=float, required=True, help="pre-splitter phase")
    if family == "general":
        parser.add_argument("--lam1", type=float, required=True, help="phase of mode a squeezing")
        parser.add_argument("--lam2", type=float, required=True, help="phase of mode b squeezing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezekit",
        description="Gaussian squeezed states: classification, interference, witnesses, oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a state and print its key quantities")
    fam = p_classify.add_subparsers(dest="family", required=True)
    for family in _FAMILIES:
        fam_parser = fam.add_parser(family)
        _add_family_arguments(fam_parser, family)
        _add_common(fam_parser)
        fam_parser.set_defaults(func=_cmd_classify)

    p_amp = sub.add_parser("amplifier", help="state produced by the two-stage amplifier")
    p_amp.add_argument("--G", type=float, required=True, help="phase-sensitive gain, >= 1")
    p_amp.add_argument("--H", type=float, required=True, help="phase-insensitive gain, >= 1")
    _add_common(p_amp)
    p_amp.set_defaults(func=_cmd_amplifier)

    p_wit = sub.add_parser("witness", help="witness expectation value and verdict")
    wit_sub = p_wit.add_subparsers(dest="kind", required=True)
    w2p = wit_sub.add_parser("w2")
    w2p.add_argument("--n", type=float, required=True)
    w2p.add_argument("--m", type=float, required=True)
    w2p.add_argument("--m-phase", dest="m_phase", type=float, default=0.0)
    _add_common(w2p)
    w2p.set_defaults(func=_cmd_witness)
    whbtp = wit_sub.add_parser("whbt")
    whbtp.add_argument("--family", choices=("pair", "epr", "werner", "bs-output", "general"),
                       default="pair")
    whbtp.add_argument("--n", type=float, required=True)
    whbtp.add_argument("--m", type=float, default=0.0)
    whbtp.add_argument("--m-phase", dest="m_phase", type=float, default=0.0)
    whbtp.add_argument("--mc", type=float, default=0.0)
    whbtp.add_argument("--p", type=float, default=1.0)
    whbtp.add_argument("--lam", type=float, default=0.0)
    whbtp.add_argument("--lam1", type=float, default=0.0)
    whbtp.add_argument("--lam2", type=float, default=0.0)
    _add_common(whbtp)
    whbtp.set_defaults(func=_cmd_witness)

    p_vis = sub.add_parser("visibility", help="closed-form fringe visibilities")
    vis_sub = p_vis.add_subparsers(dest="family", required=True)
    vis_families = {
        "uncorrelated": ("n", "m", "lam"),
        "epr": ("n", "mc"),
        "werner": ("n", "mc", "p"),
        "bs-output": ("n", "m", "lam"),
        "general": ("n", "m", "mc", "lam1", "lam2"),
    }
    for family, names in vis_families.items():
        vp = vis_sub.add_parser(family)
        for nm in names:
            default = 0.0 if nm.startswith("lam") else None
            vp.add_argument(f"--{nm}", type=float, required=default is None, default=default)
        _add_common(vp)
        vp.set_defaults(func=_cmd_visibility)

    p_fig = sub.add_parser("figure", help="write figure-reproduction CSV data")
    p_fig.add_argument("id", choices=("1", "3", "4", "5", "6", "8", "8.1", "10", "11"))
    p_fig.add_argument("--points", type=int, default=101, help="grid points (landmarks are added)")
    _add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a family, emit CSV rows")
    sweep_fam = p_sweep.add_subparsers(dest="family", required=True)
    for family in _FAMILIES:
        sp = sweep_fam.add_parser(family)
        for nm in _FAMILIES[family][1]:
            sp.add_argument(f"--{nm.replace('_', '-')}", dest=nm, type=float, default=None)
        sp.add_argument("--vary", nargs=4, metavar=("PARAM", "START", "STOP", "NUM"),
                        required=True, help="parameter name and linspace grid")
        _add_common(sp)
        sp.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("oracle-check", help="run the closed-form vs oracle concordance suite")
    p_check.add_argument("--states", type=int, default=50)
    p_check.add_argument("--max-word-len", dest="max_word_len", type=int, default=6)
    p_check.add_argument("--seed", type=int, default=oracle_check.DEFAULT_SEED)
    p_check.add_argument("--ppt-cutoff", dest="ppt_cutoff", type=int, default=30)
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonPhysicalStateError as exc:
        print(f"nonphysical state: {exc}", file=sys.stderr)
        return 3
    except fock.ConvergenceError as exc:
        print(f"error: {exc}; rerun with a larger --cutoff", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
