"""One workload in a fresh process: set-up, timed passes, checks.

Run by ``run.py``; prints one JSON line.  ``--setup-only`` times the set-up
alone, so that ``run.py`` can take the median of several fresh starts.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def set_up() -> float:
    """Import squeezekit from this checkout and fill the caches every user
    shares across inputs: the beam-splitter unitary at working cutoff 80 and
    the ladder-matrix powers at cutoff 40.  Returns seconds since start."""
    sys.path.insert(0, str(SRC))
    import squeezekit
    from squeezekit import fock

    if Path(squeezekit.__file__).resolve().parent != SRC / "squeezekit":
        raise SystemExit(f"imported squeezekit from {squeezekit.__file__}, not from {SRC}")
    s = squeezekit.OneModeGaussian(0.5, 0.4)
    rho = fock.two_mode_density(squeezekit.beam_splitter(s, s, 0.3), 40)
    fock.moment_table(rho, 6)
    return time.perf_counter() - _T0


def blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "BLAS unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_passes(workload, seed: int, first_index: int, seconds: float, tracer=None):
    """Timed passes until the next one would overrun ``seconds``, and at
    least ``workload.min_passes``.  Checks run after each pass, outside the
    timed region."""
    from workloads import Tally

    walls, latencies, tally = [], [], Tally()   # latencies: one list per pass
    start = time.perf_counter()
    index = first_index
    while True:
        items = workload.items(seed, index)
        outcomes, pass_latencies = [], []
        if tracer:
            tracer.enabled = True
        pass_start = time.perf_counter()
        for item in items:
            if tracer:
                tracer.item = item.id
            t0 = time.perf_counter()
            outcomes.append(workload.run(item))
            pass_latencies.append(time.perf_counter() - t0)
        walls.append(time.perf_counter() - pass_start)
        latencies.append(pass_latencies)
        if tracer:
            tracer.enabled = False
        for item, out in zip(items, outcomes):
            tally.merge(workload.check(item, out))
        index += 1
        if (len(walls) >= workload.min_passes
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return walls, latencies, tally, index


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=Path)
    args = parser.parse_args()

    setup_s = set_up()
    import numpy

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import WORKLOADS

    tmp = args.outdir / f"tmp-{args.workload}-{args.seed}-{args.trace}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](tmp)
        walls, latencies, tally, next_index = run_passes(workload, args.seed, 0, args.seconds)
        result = {
            "setup_s": setup_s,
            "walls": walls,
            "latencies": latencies,
            "tally": tally.__dict__,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "min_items": workload.min_passes * len(workload.items(args.seed, 0)),
            "inputs": workload.describe(args.seed),
            "numpy": numpy.__version__,
            "blas": blas_version(numpy),
        }
        if args.trace:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
            t_walls, t_latencies, t_tally, _ = run_passes(workload, args.seed, next_index,
                                                          args.seconds, tracer)
            result["traced_walls"] = t_walls
            result["traced_latencies"] = t_latencies
            result["layers"] = layer_metrics(tracer.spans, sum(t_walls), t_tally.nonzero_exits)
            result["span_count"] = len(tracer.spans)
            spans_path = args.outdir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            result["spans_path"] = str(spans_path)
            tally.merge(t_tally)
            result["tally"] = tally.__dict__
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
