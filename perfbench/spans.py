"""Span recording around squeezekit's module boundaries.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces each
listed public function with a wrapper in every loaded ``squeezekit``
module, including the names other modules bound with ``from ... import``
(``oracle_check.wick_moment``, ``interference.wick_moment``, the functions
``cli`` imports), so calls between layers are seen from both sides.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    item: int | None
    name: str
    start_ns: int
    end_ns: int
    attrs: dict | None
    error: str | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _wick_attrs(args, kwargs):
    word = args[1] if len(args) > 1 else kwargs.get("word")
    return {"len": len(word)}


def route(state) -> str:
    """Assembly route from the state's moment pattern (mirrors the oracle's
    documented dispatch: product, cross-correlated unsqueezed, general)."""
    if type(state).__name__ == "GaussianMixture":
        return "mixture"
    tol = 1e-12 * (1.0 + state.n + abs(state.m_a) + abs(state.m_b)
                   + abs(state.m_c) + abs(state.m_x))
    if abs(state.m_c) <= tol and abs(state.m_x) <= tol:
        return "tensor"
    if abs(state.m_a) <= tol and abs(state.m_b) <= tol and abs(state.m_x) <= tol:
        return "tms"
    return "bs"


def _cutoff(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["cutoff"]


def _two_mode_attrs(args, kwargs):
    return {"route": route(args[0]), "dim": _cutoff(args, kwargs) ** 2}


def _one_mode_attrs(args, kwargs):
    return {"route": "one-mode", "dim": _cutoff(args, kwargs)}


def _bs_output_attrs(args, kwargs):
    cutoff = args[3] if len(args) > 3 else kwargs["cutoff"]
    return {"route": "bs", "dim": cutoff ** 2}


def _ppt_attrs(args, kwargs):
    return {"cutoff": args[0].cutoff}


def _cli_attrs(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    kind = argv[0] if argv else ""
    if kind == "classify" and "--oracle" in argv:
        kind = "classify_oracle"
    return {"kind": kind}


# (module, function, attribute extractor).  Names missing from the module
# under test are skipped, so the benchmark keeps running when a layer's
# public surface changes.
TARGETS = (
    ("states", "wick_moment", _wick_attrs),
    ("separability", "is_physical_two_mode", None),
    ("interference", "hbt_correlation", None),
    ("interference", "fit_visibilities", None),
    ("interference", "visibilities_uncorrelated", None),
    ("interference", "visibility_epr", None),
    ("interference", "visibility_werner", None),
    ("interference", "visibilities_bs_output", None),
    ("interference", "visibilities_general", None),
    ("witnesses", "whbt_expectation", None),
    ("witnesses", "w2_expectation", None),
    ("fock", "one_mode_density", _one_mode_attrs),
    ("fock", "two_mode_density", _two_mode_attrs),
    ("fock", "bs_output_density", _bs_output_attrs),
    ("fock", "moment_table", None),
    ("fock", "moment", None),
    ("fock", "expectation_of_witness", None),
    ("fock", "ppt_min_eigenvalue", _ppt_attrs),
    ("fock", "physicality_summary", None),
    ("oracle_check", "run_concordance_suite", None),
    ("cli", "main", _cli_attrs),
)

LAYERS = ("states", "separability", "interference", "witnesses", "fock", "oracle_check", "cli")

_ASSEMBLY = ("fock.one_mode_density", "fock.two_mode_density", "fock.bs_output_density")
_VISIBILITY = tuple(f"interference.{name}" for _, name, _ in TARGETS
                    if name.startswith("visibilit"))


class Tracer:
    """Records spans while ``enabled``; ``item`` tags spans of one input."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.item: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            error = None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                extra = attrs(args, kwargs) if attrs else None
                self.spans[sid] = Span(sid, parent, self.item, name, start, end, extra, error)
        return wrapper

    def install(self, package: str = "squeezekit") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, func_name, attrs in TARGETS:
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{func_name}", original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        fock = sys.modules.get(f"{package}.fock")
        density = getattr(fock, "FockDensity", None)
        if density is not None and hasattr(density, "__post_init__"):
            density.__post_init__ = self.wrap("fock.FockDensity", density.__post_init__)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "item": s.item, "name": s.name,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "attrs": s.attrs, "error": s.error,
                }) + "\n")


def _median(values, scale: float):
    return statistics.median(values) * scale if values else None


def layer_metrics(spans, traced_seconds: float, cli_nonzero_exits: int) -> dict:
    """Every per-layer metric from the spans; None where the workload never
    reaches that layer."""
    by_id = {s.id: s for s in spans}
    child_seconds = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    def self_seconds(s):
        return s.seconds - child_seconds[s.id]

    def outermost(name):
        # Recursion (mixtures call back into the same function per
        # component) is folded into the outer call.
        return [s for s in spans if s.name == name
                and (s.parent is None or by_id[s.parent].name != name)]

    def durations(names, pred=lambda s: True):
        return [s.seconds for s in spans if s.name in names and pred(s)]

    wick = outermost("states.wick_moment")
    gate = outermost("separability.is_physical_two_mode")
    assembly = [s for s in spans if s.name in _ASSEMBLY]
    top_assembly = [s for s in assembly
                    if s.parent is None or by_id[s.parent].name not in _ASSEMBLY]
    suites = [s for s in spans if s.name == "oracle_check.run_concordance_suite"]
    commands = [s for s in spans if s.name == "cli.main"]

    m = {}
    for length in (2, 4, 6, 8, 10):
        m[f"states.wick_us.len{length}"] = _median(
            [s.seconds for s in wick if s.attrs["len"] == length], 1e6)
    m["states.wick_calls"] = len(wick)
    m["separability.gate_us"] = _median([s.seconds for s in gate], 1e6)
    m["separability.gate_calls"] = len(gate)
    m["separability.gate_inconclusive"] = sum(s.error == "InconclusiveError" for s in gate)
    m["interference.hbt_us"] = _median(durations({"interference.hbt_correlation"}), 1e6)
    m["interference.visibility_us"] = _median(durations(set(_VISIBILITY)), 1e6)
    m["interference.fit_us"] = _median(durations({"interference.fit_visibilities"}), 1e6)
    m["witnesses.whbt_us"] = _median(durations({"witnesses.whbt_expectation"}), 1e6)
    m["witnesses.w2_us"] = _median(durations({"witnesses.w2_expectation"}), 1e6)
    for route in ("one-mode", "tensor", "tms", "bs", "mixture"):
        m[f"fock.assemble_ms.{route}"] = _median(
            [s.seconds for s in assembly if s.attrs["route"] == route], 1e3)
    m["fock.assemble_calls"] = len(assembly)
    m["fock.validate_ms"] = _median(durations({"fock.FockDensity"}), 1e3)
    m["fock.table_ms"] = _median(durations({"fock.moment_table"}), 1e3)
    m["fock.witness_ms"] = _median(durations({"fock.expectation_of_witness"}), 1e3)
    m["fock.moment_ms"] = _median(durations({"fock.moment"}), 1e3)
    for cutoff in (30, 40):
        m[f"fock.ppt_ms.c{cutoff}"] = _median(
            durations({"fock.ppt_min_eigenvalue"}, lambda s: s.attrs["cutoff"] == cutoff), 1e3)
    m["fock.density_mb"] = max((s.attrs["dim"] ** 2 * 16 / 1e6 for s in assembly), default=0.0)
    m["fock.convergence_errors"] = sum(s.error == "ConvergenceError" for s in top_assembly)
    m["oracle_check.self_s"] = _median([self_seconds(s) for s in suites], 1.0)
    for kind in ("figure", "sweep", "classify", "classify_oracle"):
        m[f"cli.{kind}_ms"] = _median(
            [s.seconds for s in commands if s.attrs["kind"] == kind], 1e3)
    m["cli.self_ms"] = _median([self_seconds(s) for s in commands], 1e3)
    m["cli.nonzero_exits"] = cli_nonzero_exits

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += self_seconds(s)
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = 100.0 * layer_self[layer] / traced_seconds
    return m
