"""Command-line front end: classify states, evaluate witnesses and
visibilities, sweep parameters, reproduce figure data as CSV, and run the
oracle concordance suite.

Angles are accepted in units of π (``--lam 0.5`` means π/2) so that figure
abscissae stay exact; ``classify``, ``witness``, ``visibility`` and
``sweep``, the commands that take angles, accept ``--radians`` for raw
radians.  CSV output is deterministic: 12 significant digits, '.' decimal
separator, LF line endings.  Exit codes: 0 success, 2 invalid input, 3 nonphysical state,
4 oracle disagreement; an ``--oracle`` cutoff too small for the state's
photon-number tail also exits 2, as does a family parameter flag the family
does not read or a required one left out: a family takes the same flags in
``classify``, ``witness whbt`` and ``sweep``, which read each family's
parameters, state and published fields from one table (``_FAMILIES``).  A
negative value may be written in exponent notation (``--mc -1e-3``); a
``--vary`` START or STOP that is not a finite number, or NUM not an
integer, exits 2 and names the field, and so does a ``figure --points``
or ``--vary`` NUM below 1 or too large to allocate.  Only ``classify``,
``sweep`` and ``amplifier`` take ``--oracle``; with it they report the route, the cutoff,
the trace deficit and the packed size (``oracle_density_mb``) of the density
they measured.  ``amplifier`` reports its gains and classicality threshold,
then the ``classify one-mode`` fields of its output state.  ``sweep`` exits 4
when the oracle disagrees at any point; a point the gate rejects is a row
with ``physical`` false and does not change the exit code.  ``oracle-check``
takes ``--cutoff`` for its suite; as CSV it writes one row per check,
without the detail, which may hold commas.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import operator
import re
import sys
from collections.abc import Callable

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
    _require_physical,
    bs_output_is_separable,
    epr_is_entangled,
    general_is_separable,
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
from .witnesses import (WitnessKind, _moment_scale, w2_expectation,
                        whbt_closed_form_uncorrelated, whbt_expectation)

ORACLE_RTOL = 1e-4


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
    """CSV text, one ``%`` format per row, made once per tuple of cell
    types: ``%.12g`` for the float cells, and ``_fmt`` for the others."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(columns))
    formats = {}
    for row in rows:
        types = tuple(map(type, row))
        if types not in formats:
            floats = [issubclass(t, (float, np.floating)) for t in types]
            formats[types] = (",".join("%.12g" if f else "%s" for f in floats),
                              [i for i, f in enumerate(floats) if not f])
        text, others = formats[types]
        if others:
            row = list(row)
            for i in others:
                row[i] = _fmt(row[i])
        lines.append(text % tuple(row))
    return "\n".join(lines) + "\n"


def _report(args, fields: dict) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        _emit(args, json.dumps(fields, default=_fmt, indent=2) + "\n")
    elif fmt == "csv":
        _emit(args, _csv(list(fields), [list(fields.values())]))
    else:
        width = max(len(k) for k in fields)
        lines = [f"{k.ljust(width)}  {_fmt(v)}" for k, v in fields.items()]
        _emit(args, "\n".join(lines) + "\n")


def _table(args, columns, rows, comment: str, head: dict | None = None) -> None:
    """Emit a table of ``rows`` under ``columns``: JSON with the keys of
    ``head`` first and every value formatted, else CSV under ``comment``."""
    if args.format == "json":
        payload = {**(head or {}), "columns": list(columns),
                   "rows": [[_fmt(v) for v in row] for row in rows]}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, _csv(columns, rows, comment))


def _angle(value: float, radians: bool) -> float:
    return value if radians else value * math.pi


def _grid(flag: str, start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace``, or ValueError naming ``flag`` if it cannot be allocated."""
    try:
        return np.linspace(start, stop, num)
    except MemoryError:
        raise ValueError(f"{flag} {num} is too many points to allocate") from None


# --- families -------------------------------------------------------------------
# One record per paper family, read by ``classify``, ``sweep``, ``witness`` and
# the parser, so a family takes the same flags in every command.  ``build``
# reads the parameters by name from a mapping (``_family_values``), its angles
# in radians (``_in_radians``); only ``werner_mix`` gates what it builds.  A
# family with a ``verdict`` is one ``classify`` reports on two modes: the
# verdict gives its published fields from the parameters and the state,
# ``shown`` the visibilities its fringe reports and ``bound`` the classical
# bound they are held to, where the paper gives one.

@dataclasses.dataclass(frozen=True)
class _Family:
    names: tuple
    defaults: dict
    build: Callable
    verdict: Callable | None = None
    shown: tuple = ()
    bound: InequalityContext | None = None


_HELP = {
    "n": "mean photon number per mode",
    "m": "squeezing magnitude |m|",
    "m_phase": "phase of m (angle units)",
    "mc": "cross correlation |m_c|",
    "p": "mixing probability",
    "lam": "phase between the two squeezing moments, before the splitter for bs-output",
    "lam1": "phase of mode a squeezing",
    "lam2": "phase of mode b squeezing",
}

_ANGLES = ("m_phase", "lam", "lam1", "lam2")


def _werner_verdict(q, state):
    """The witness and partial-transpose thresholds, defined for n > 0."""
    if q["n"] <= 0:
        return {}
    return {"hbt_threshold": werner_hbt_threshold(q["n"]),
            "ppt_threshold": werner_ppt_threshold(q["n"])}


_FAMILIES = {
    "one-mode": _Family(
        ("n", "m", "m_phase"), {"m_phase": 0.0},
        lambda q: OneModeGaussian(q["n"], q["m"] * cmath.exp(1j * q["m_phase"]))),
    "pair": _Family(
        ("n", "m", "m_phase", "lam"), {"m_phase": 0.0, "lam": 0.0},
        lambda q: TwoModeGaussian.pair_with_phase(_FAMILIES["one-mode"].build(q), q["lam"])),
    "epr": _Family(
        ("n", "mc"), {}, lambda q: TwoModeGaussian.epr(q["n"], complex(q["mc"])),
        lambda q, state: {"entangled": epr_is_entangled(q["n"], q["mc"])}, ("v_minus",)),
    "werner": _Family(
        ("n", "mc", "p"), {}, lambda q: werner_mix(_FAMILIES["epr"].build(q), q["p"]),
        _werner_verdict, ("v_minus",)),
    "bs-output": _Family(
        ("n", "m", "lam"), {},
        lambda q: beam_splitter(*[OneModeGaussian(q["n"], complex(q["m"]))] * 2, q["lam"]),
        lambda q, state: {"m_out_abs": abs(state.m_a), "mc_out_abs": abs(state.m_c),
                          "separable": bs_output_is_separable(q["n"], q["m"], q["lam"])},
        ("v_minus", "v_plus"), InequalityContext.BEAM_SPLITTER_OUTPUT),
    "general": _Family(
        ("n", "m", "mc", "lam1", "lam2"), {},
        lambda q: TwoModeGaussian(q["n"], q["m"] * cmath.exp(1j * q["lam1"]),
                                  q["m"] * cmath.exp(1j * q["lam2"]), complex(q["mc"])),
        lambda q, state: {"separable": general_is_separable(q["n"], q["m"], q["mc"],
                                                            q["lam1"], q["lam2"])},
        ("v_minus", "v_plus", "v_m")),
}

# The families ``classify`` and ``sweep`` report, and those ``witness whbt``
# builds, in the order of their choices.
_REPORTED = ("one-mode", *(name for name, family in _FAMILIES.items() if family.verdict))
_PAIRED = tuple(name for name in _FAMILIES if name != "one-mode")


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _family_values(args, family, free=None) -> dict:
    """The parameters of ``family`` read off the parsed ``args``, with the
    defaults of the optional ones.  Raise ValueError for a parameter flag the
    family does not read, for one it needs that is left out, other than
    ``free``, and for ``free`` given, which ``sweep --vary`` sets."""
    names, defaults = _FAMILIES[family].names, _FAMILIES[family].defaults
    given = {name: value for name, value in vars(args).items()
             if name in _HELP and value is not None}
    unread = [name for name in given if name not in names]
    if unread:
        raise ValueError(f"family {family!r} does not read {_flags(unread)}")
    if free in given:
        raise ValueError("--vary {0} sets --{0}; leave --{0} out".format(free.replace("_", "-")))
    missing = [name for name in names if name not in given and name not in defaults
               and name != free]
    if missing:
        raise ValueError(f"family {family!r} needs {_flags(missing)}")
    return {**defaults, **given}


def _in_radians(params, radians) -> dict:
    """``params`` with every angle in radians."""
    return {name: _angle(value, radians) if name in _ANGLES else value
            for name, value in params.items()}


# Each family's closed-form visibilities and the parameters they read, in order.
_VISIBILITIES = {
    "uncorrelated": (visibilities_uncorrelated, ("n", "m", "lam")),
    "epr": (visibility_epr, ("n", "mc")),
    "werner": (visibility_werner, ("n", "mc", "p")),
    "bs-output": (visibilities_bs_output, ("n", "m", "lam")),
    "general": (visibilities_general, ("n", "m", "mc", "lam1", "lam2")),
}


def _visibilities(family, q):
    formula, names = _VISIBILITIES[family]
    return formula(*(q[name] for name in names))


# --- family descriptions -------------------------------------------------------
# ``_describe`` returns the reported fields and, for a nonphysical state, the
# gate's NonPhysicalStateError, otherwise whether the oracle disagrees, as
# ``_one_mode_report`` does for the state it reports.

def _vacuum(state) -> bool:
    """Whether a physical two-mode state or mixture is the vacuum, every
    second moment exactly zero: no fringe or witness formula is defined on
    it.  I₂ underflows to zero where every modulus is below about 1e-162,
    so the moments themselves decide."""
    return _moment_scale(state) == 0.0


def _gate(out, state):
    """Record whether ``state`` is physical in ``out``; the gate's error if
    it is not, else None."""
    try:
        _require_physical(state)
    except NonPhysicalStateError as exc:
        out["physical"] = False
        return exc
    out["physical"] = True
    return None


def _one_mode_report(s, out, oracle, cutoff):
    """Add the report of the one-mode state ``s`` to ``out``: the gate, the
    classification, the quadrature variances, purity, g2, w2 with its
    verdict, the visibilities and the witness of a pair of copies, and
    under ``--oracle`` the oracle's g2, purity and w2 deltas.  Return the
    gate's error for a nonphysical state, else whether the oracle
    disagrees."""
    rejection = _gate(out, s)
    if rejection:
        out["classification"] = "nonphysical"
        return rejection
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
    if s.n > 0 or abs(s.m) > 0:
        vis = visibilities_uncorrelated(s.n, abs(s.m))
        out["v_minus"] = vis.v_minus
        out["v_plus"] = vis.v_plus
        out["whbt_pair"] = whbt_closed_form_uncorrelated(s.n, abs(s.m))
    disagree = False
    if oracle and s.n > 0:
        rho = fock.one_mode_density(s, cutoff)
        _oracle_run_fields(rho, out)
        # The witness first: it names a normalization the oracle rounds to
        # zero, which the g2 ratio would divide by.
        oracle_w2 = fock.expectation_of_witness(rho, WitnessKind.W2)
        oracle_n1 = fock.moment(rho, OperatorWord.from_counts(1, 0, 1, 0)).real
        oracle_n2 = fock.moment(rho, OperatorWord.from_counts(2, 0, 2, 0)).real
        oracle_g2 = oracle_n2 / oracle_n1 ** 2
        out["oracle_g2_delta"] = oracle_check.relative_error(oracle_g2, out["g2"])
        out["oracle_purity_delta"] = oracle_check.relative_error(rho.purity(), out["purity"])
        out["oracle_w2_delta"] = oracle_check.relative_error(oracle_w2, out["w2"])
        disagree = any(out[k] > ORACLE_RTOL for k in
                       ("oracle_g2_delta", "oracle_purity_delta", "oracle_w2_delta"))
    return disagree


def _oracle_run_fields(rho, out):
    """The route, the cutoff, the trace deficit and the packed size in MB
    of the density the oracle measured."""
    out["oracle_route"] = rho.route
    out["oracle_cutoff"] = rho.cutoff
    out["oracle_trace_deficit"] = rho.trace_deficit
    out["oracle_density_mb"] = rho.nbytes / 1e6


def _witness_tail(state, out, oracle, cutoff):
    """Add the intensity witness, its verdict and, under ``--oracle``, the
    oracle's fields to ``out``; return whether the oracle disagrees."""
    whbt = whbt_expectation(state)
    out["whbt"] = whbt.value
    out["whbt_verdict"] = whbt.verdict.value
    if not oracle:
        return False
    rho = fock.two_mode_density(state, cutoff)
    _oracle_run_fields(rho, out)
    out["oracle_ppt_min_eig"] = fock.ppt_min_eigenvalue(rho)
    oracle_whbt = fock.expectation_of_witness(rho, WitnessKind.WHBT)
    out["oracle_whbt_delta"] = oracle_check.relative_error(oracle_whbt, out["whbt"])
    return out["oracle_whbt_delta"] > ORACLE_RTOL


def _describe(family, params, radians, oracle, cutoff):
    """The report of ``family`` at ``params``: the parameters, then the
    one-mode report, or the gate, the family's verdict and, on a physical
    two-mode state other than the vacuum, its fringe and the intensity
    witness.  On a state the gate rejects, the published fields stop at the
    first formula that gates its own parameters; a Werner mixture that
    cannot be built reports only that it is not physical."""
    q = _in_radians(params, radians)
    record = _FAMILIES[family]
    if family == "one-mode":
        s = record.build(q)
        out = {"n": s.n, "m": abs(s.m), "m_phase": params["m_phase"]}
        return out, _one_mode_report(s, out, oracle, cutoff)
    out = {name: params[name] for name in record.names}
    try:
        state = record.build(q)
    except NonPhysicalStateError as exc:
        out["physical"] = False
        return out, exc
    rejection = _gate(out, state)
    try:
        out.update(record.verdict(q, state))
        if rejection is None and _vacuum(state):
            return out, False
        vis = _visibilities(family, q)
        out.update((name, getattr(vis, name)) for name in record.shown)
        if record.bound:
            out["fringe_classical"] = classical_inequality_report(vis, record.bound).classical
    except NonPhysicalStateError:
        if rejection is None:
            raise
    if rejection:
        return out, rejection
    return out, _witness_tail(state, out, oracle, cutoff)


# --- command handlers -----------------------------------------------------------

def _conclude(args, fields, outcome) -> int:
    """Report ``fields``; raise the gate's error for a nonphysical state,
    else exit 4 when the oracle disagrees."""
    _report(args, fields)
    if isinstance(outcome, NonPhysicalStateError):
        raise outcome
    return 4 if outcome else 0


def _cmd_classify(args) -> int:
    params = _family_values(args, args.family)
    return _conclude(args, *_describe(args.family, params, args.radians, args.oracle,
                                      args.cutoff))


def _cmd_amplifier(args) -> int:
    gains = AmplifierGains(args.G, args.H)
    s = amplifier_output(gains)
    fields = {"G": gains.G, "H": gains.H, "n": s.n, "m": abs(s.m),
              "classical_threshold": is_classical_threshold(gains)}
    return _conclude(args, fields, _one_mode_report(s, fields, args.oracle, args.cutoff))


def _cmd_witness(args) -> int:
    q = _in_radians(_family_values(args, args.family), args.radians)
    report = args.expectation(_FAMILIES[args.family].build(q))
    _report(args, {
        "witness": report.witness_kind.value,
        "value": report.value,
        "verdict": report.verdict.value,
    })
    return 0


def _cmd_visibility(args) -> int:
    vis = _visibilities(args.family, _in_radians(vars(args), args.radians))
    _report(args, {
        "v_minus": vis.v_minus,
        "v_plus": vis.v_plus,
        "v_m": vis.v_m,
        "phase_offset_plus": vis.phase_offset_plus,
        "v_total": vis.total,
    })
    return 0


_SQRT2 = math.sqrt(2.0)
_FRINGE = operator.attrgetter("v_minus", "v_plus")
_FRINGE_M = operator.attrgetter("v_minus", "v_plus", "v_m")

# Each figure's CSV comment, its columns, its abscissa grid (low, high and
# the landmarks added to it) and its row at one abscissa, which calls each
# closed form once.
_FIGURES = {
    "1": ("physical boundary n(n+1) = m^2 and classicality line n = m",
          ("m", "n_physical_boundary", "n_classical_line"), (0.0, 3.0, (1.0, _SQRT2)),
          lambda m: (m, 0.5 * (math.sqrt(1.0 + 4.0 * m * m) - 1.0), m)),
    "3": ("n = 1: v_minus = n^2/(3n^2+m^2), v_plus = m^2/(3n^2+m^2)",
          ("m", "v_minus", "v_plus"), (0.0, _SQRT2, (1.0, _SQRT2)),
          lambda m: (m, *_FRINGE(visibilities_uncorrelated(1.0, m)))),
    "4": ("n = 1: v_minus + v_plus = (n^2+m^2)/(3n^2+m^2)",
          ("m", "v_sum"), (0.0, _SQRT2, (1.0, _SQRT2)),
          lambda m: (m, visibilities_uncorrelated(1.0, m).total)),
    "5": ("n = 1: v_minus = (n^2+mc^2)/(3n^2+mc^2)",
          ("mc", "v_minus"), (0.0, _SQRT2, (1.0, _SQRT2)),
          lambda mc: (mc, visibility_epr(1.0, mc).v_minus)),
    "6": ("one-sided entanglement-detection thresholds (no separability proof "
          "exists for the mixture): witness p = n/(n+1); partial transpose "
          "p = 1/(1+sqrt((1+n)/n)*(1+2n^2)^2/(n(1+2n)(1+n^2)))",
          ("n", "p_hbt", "p_ppt"), (0.05, 5.0, (1.0,)),
          lambda n: (n, werner_hbt_threshold(n), werner_ppt_threshold(n))),
    "8": ("separability boundary m^2 + sin(lam)*m = n(n+1) solved for n, "
          "at lam = 0, pi/4, pi/2",
          ("m", "n_boundary_lam0", "n_boundary_lam_pi4", "n_boundary_lam_pi2"),
          (0.0, 3.0, (1.0, _SQRT2)),
          lambda m: (m, *(0.5 * (math.sqrt(1.0 + 4.0 * (m * m + math.sin(lam) * m)) - 1.0)
                          for lam in (0.0, math.pi / 4.0, math.pi / 2.0)))),
    "8.1": ("n = 1: output v_minus = (n^2+(1-cos 2 lam)m^2/2)/(3n^2+m^2) for "
            "quantum (m=sqrt(2)), border (m=1) and classical (m=0.5) inputs",
            ("lam_over_pi", "v_minus_quantum", "v_minus_border", "v_minus_classical"),
            (0.0, 1.0, (0.25, 0.5)),
            lambda x: (x, *(visibilities_bs_output(1.0, m, x * math.pi).v_minus
                            for m in (_SQRT2, 1.0, 0.5)))),
    "10": ("n = 1, m = sqrt(2): v_minus = (n^2+(1-cos 2 lam)m^2/2)/(3n^2+m^2), "
           "v_plus = (1+cos 2 lam)m^2/(2(3n^2+m^2))",
           ("lam_over_pi", "v_minus", "v_plus"), (0.0, 1.0, (0.25, 0.5)),
           lambda x: (x, *_FRINGE(visibilities_bs_output(1.0, _SQRT2, x * math.pi)))),
    "11": ("n = 1, m = sqrt(2)-mc, lam1 = 0, lam2 = pi/2: v_minus = (n^2+mc^2)/D, "
           "v_plus = m^2/D, v_m = m*mc/D with D = 3n^2+m^2+mc^2; "
           "separable iff m^2+mc^2+mc*sqrt(1+2m^2) <= n(n+1)",
           ("mc", "v_minus", "v_plus", "v_m", "separable"), (0.0, _SQRT2, (1.0 / _SQRT2, _SQRT2)),
           lambda mc: (mc, *_FRINGE_M(visibilities_general(1.0, _SQRT2 - mc, mc, 0.0,
                                                           math.pi / 2.0)),
                       general_is_separable(1.0, _SQRT2 - mc, mc, 0.0, math.pi / 2.0))),
}


def _cmd_figure(args) -> int:
    comment, columns, (lo, hi, landmarks), row_at = _FIGURES[args.id]
    if args.points < 1:
        raise ValueError(f"--points needs at least one point, got {args.points}")
    grid = np.unique(np.concatenate([_grid("--points", lo, hi, args.points), landmarks]))
    _table(args, columns, [row_at(x) for x in grid.tolist()], comment,
           {"figure": args.id, "comment": comment})
    return 0


def _vary_field(field, text, kind):
    """The ``--vary`` field ``field`` read as ``kind``; ValueError naming
    ``--vary`` and the field if it is not a finite one."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"--vary {field} must be {what}, got {text!r}")
    return value


def _cmd_sweep(args) -> int:
    family = args.family
    name, lo, hi, num = args.vary
    name = name.replace("-", "_")
    if name not in _FAMILIES[family].names:
        raise ValueError(f"family {family!r} has no parameter {name!r}")
    start, stop, count = (_vary_field(*field) for field in
                          (("START", lo, float), ("STOP", hi, float), ("NUM", num, int)))
    if count < 1:
        raise ValueError(f"--vary needs at least one point, got {num}")
    params = _family_values(args, family, free=name)
    points, disagree = [], False
    for value in _grid("--vary NUM", start, stop, count):
        params[name] = float(value)
        fields, outcome = _describe(family, params, args.radians, args.oracle, args.cutoff)
        points.append(fields)
        disagree = disagree or not isinstance(outcome, NonPhysicalStateError) and outcome
    # Every field any point reports, in the order of the fullest report.
    columns = list(dict.fromkeys(key for fields in sorted(points, key=len, reverse=True)
                                 for key in fields))
    rows = [[fields.get(col, float("nan")) for col in columns] for fields in points]
    _table(args, columns, rows, f"sweep of {name} over [{lo}, {hi}] for family {family}")
    return 4 if disagree else 0


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
            "checks": [dataclasses.asdict(c) for c in report.checks],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        _table(args, ("name", "ok", "worst", "tolerance"),
               [(c.name, c.ok, c.worst, c.tolerance) for c in report.checks],
               f"suite of {report.n_states} states, cutoff {report.cutoff}, seed {report.seed}")
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


def _add_angles(parser):
    """The flag of the commands that take angle arguments."""
    parser.add_argument("--radians", action="store_true",
                        help="interpret angles as raw radians instead of units of pi")


def _add_oracle(parser):
    """The flags of the commands that can cross-check against the oracle."""
    parser.add_argument("--oracle", action="store_true",
                        help="add Fock-oracle agreement columns")
    parser.add_argument("--cutoff", type=int, default=40,
                        help="Fock cutoff for oracle columns (default 40)")


def _add_parameters(parser, names, defaults=None):
    """One float flag per parameter.  Given ``defaults``, argparse requires
    every flag without one; otherwise each defaults to None and the command
    checks what it was given with ``_family_values``."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=float,
                            required=defaults is not None and name not in defaults,
                            default=None if defaults is None else defaults.get(name),
                            help=_HELP[name])


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent notation,
    such as ``--mc -1e-3``, as a value: argparse's own test takes it for an
    option.  Every subparser is built with the class of its parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="squeezekit",
        description="Gaussian squeezed states: classification, interference, witnesses, oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a state and print its key quantities")
    fam = p_classify.add_subparsers(dest="family", required=True)
    for family in _REPORTED:
        fam_parser = fam.add_parser(family)
        _add_parameters(fam_parser, _FAMILIES[family].names, _FAMILIES[family].defaults)
        _add_common(fam_parser)
        _add_angles(fam_parser)
        _add_oracle(fam_parser)
        fam_parser.set_defaults(func=_cmd_classify)

    p_amp = sub.add_parser("amplifier", help="state produced by the two-stage amplifier")
    p_amp.add_argument("--G", type=float, required=True, help="phase-sensitive gain, >= 1")
    p_amp.add_argument("--H", type=float, required=True, help="phase-insensitive gain, >= 1")
    _add_common(p_amp)
    _add_oracle(p_amp)
    p_amp.set_defaults(func=_cmd_amplifier)

    p_wit = sub.add_parser("witness", help="witness expectation value and verdict")
    wit_sub = p_wit.add_subparsers(dest="kind", required=True)
    w2p = wit_sub.add_parser("w2")
    _add_parameters(w2p, _FAMILIES["one-mode"].names, _FAMILIES["one-mode"].defaults)
    _add_common(w2p)
    _add_angles(w2p)
    w2p.set_defaults(func=_cmd_witness, family="one-mode", expectation=w2_expectation)
    whbtp = wit_sub.add_parser("whbt")
    whbtp.add_argument("--family", choices=_PAIRED, default="pair")
    _add_parameters(whbtp, _HELP)
    _add_common(whbtp)
    _add_angles(whbtp)
    whbtp.set_defaults(func=_cmd_witness, expectation=whbt_expectation)

    p_vis = sub.add_parser("visibility", help="closed-form fringe visibilities")
    vis_sub = p_vis.add_subparsers(dest="family", required=True)
    for family, (_, names) in _VISIBILITIES.items():
        vp = vis_sub.add_parser(family)
        _add_parameters(vp, names, {name: 0.0 for name in names if name.startswith("lam")})
        _add_common(vp)
        _add_angles(vp)
        vp.set_defaults(func=_cmd_visibility)

    p_fig = sub.add_parser("figure", help="write figure-reproduction CSV data")
    p_fig.add_argument("id", choices=tuple(_FIGURES))
    p_fig.add_argument("--points", type=int, default=101, help="grid points (landmarks are added)")
    _add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a family, emit CSV rows")
    sweep_fam = p_sweep.add_subparsers(dest="family", required=True)
    for family in _REPORTED:
        sp = sweep_fam.add_parser(family)
        _add_parameters(sp, _FAMILIES[family].names)
        sp.add_argument("--vary", nargs=4, metavar=("PARAM", "START", "STOP", "NUM"),
                        required=True, help="parameter name and linspace grid")
        _add_common(sp)
        _add_angles(sp)
        _add_oracle(sp)
        sp.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("oracle-check", help="run the closed-form vs oracle concordance suite")
    p_check.add_argument("--states", type=int, default=50)
    p_check.add_argument("--max-word-len", dest="max_word_len", type=int, default=6)
    p_check.add_argument("--seed", type=int, default=oracle_check.DEFAULT_SEED)
    p_check.add_argument("--ppt-cutoff", dest="ppt_cutoff", type=int, default=30)
    p_check.add_argument("--cutoff", type=int, default=40,
                         help="Fock cutoff of the moment and witness checks (default 40)")
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_oracle_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: parsing never changes it, and building it
    costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
