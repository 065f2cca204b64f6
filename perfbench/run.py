"""squeezekit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh Python
process with the BLAS thread count pinned; set-up is timed in several more
fresh processes and reported as their median.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` reruns the workload with spans around
every layer and prints the per-layer metrics and the tracing overhead.
``--workload all`` runs the three workloads in turn.  Human-readable lines
come first; the last line of standard output is the JSON result.  Reports
and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("concordance", "closed-form", "cli")
SETUP_PROBES = 2          # plus the workload process itself: median of 3 starts
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
DEADLINE_S = 175         # a run must end within 180 s


def percentile(sorted_values, p: float) -> float:
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` items beyond it;
    the maximum when there are fewer than twenty items."""
    fitting = [p for p in TAIL_LADDER if n * (100.0 - p) >= 1000.0 - 1e-9]
    return fitting[-1] if fitting else 100.0


def pass_seconds(per_pass) -> float:
    """One pass assembled from each item slot's best time over the passes.

    On a shared machine the speed of a core swings by +-20% within a second
    as other tenants load it; that only ever slows an item, and the best of
    several passes per slot discards it."""
    return sum(min(slot) for slot in zip(*per_pass))


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "python": platform.python_version()}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--outdir", str(OUT)], deadline)
    setups.append(res["setup_s"])

    per_pass = res["latencies"]
    lat = sorted(x * 1e3 for latencies in per_pass for x in latencies)
    # The percentile follows from the workload's guaranteed minimum item
    # count, not from how many passes fitted, so a faster program is
    # compared at the same percentile.
    tail_p = tail_percentile(res["min_items"])
    tally = res["tally"]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": pass_seconds(per_pass),
        "item_ms_p50": statistics.median(lat),
        "item_ms_tail": percentile(lat, tail_p),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {**machine(), "numpy": res["numpy"], "blas": res["blas"]},
        "end_to_end": end_to_end,
        "error_rate": tally["failed"] / tally["attempted"],
        "tally": tally,
        "inputs": res["inputs"],
        "passes": len(res["walls"]), "pass_walls": res["walls"],
        "items": len(lat), "tail_percentile": tail_p,
        "setup_samples": setups,
    }
    if trace:
        layers = dict(res["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            pass_seconds(res["traced_latencies"]) / end_to_end["wall_s"] - 1.0)
        report.update(layers=layers, traced_pass_walls=res["traced_walls"],
                      span_count=res["span_count"], spans_path=res["spans_path"])
        wanted = spec["per_layer"]
        values = {m["name"]: 0.0 if layers.get(m["name"]) is None else layers[m["name"]]
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = end_to_end
    report["result"] = {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=2))
    return report


def print_report(r: dict) -> None:
    m, e, t = r["machine"], r["end_to_end"], r["tally"]
    print(f"== squeezekit benchmark: workload {r['workload']}, seed {r['seed']}, "
          f"{r['seconds']:g} s, trace {r['trace']}")
    print(f"   {m['machine']} {m['cpu']}, nproc {m['nproc']} (affinity {m['affinity']}), "
          f"BLAS threads {m['blas_threads']}, Python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']}")
    print(f"   inputs: {r['inputs']}")
    print(f"   setup_s       {e['setup_s']:.4f} s    "
          f"median of {len(r['setup_samples'])} fresh starts")
    print(f"   wall_s        {e['wall_s']:.4f} s    "
          f"best of {r['passes']} passes per item slot")
    print(f"   item_ms_p50   {e['item_ms_p50']:.3f} ms   {r['items']} items")
    print(f"   item_ms_tail  {e['item_ms_tail']:.3f} ms   "
          f"p{r['tail_percentile']:g} of {r['items']} items")
    defects = ", ".join(f"{k} {v}" for k, v in t["by_defect"].items()) or "none"
    print(f"   error_rate    {r['error_rate']:.4f}      {t['failed']} of {t['attempted']} "
          f"operations failed; known defects: {defects}; wrong: {t['wrong']}")
    print(f"   peak_rss_mb   {e['peak_rss_mb']:.1f} MB")
    for line in t["examples"]:
        print(f"   WRONG: {line}")
    if r["trace"]:
        print(f"   per-layer metrics ({len(r['traced_pass_walls'])} traced passes, "
              f"{r['span_count']} spans in {r['spans_path']}; "
              f"n/a = layer not reached by this workload):")
        for name, value in r["layers"].items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"     {name:34s} {shown}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "squeezekit" / "__init__.py").is_file():
        print(f"error: no squeezekit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(str(SRC / "squeezekit"), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        print_report(r)
    if len(reports) == 1:
        result = reports[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}.{k}": v for r in reports
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
