"""gfaloha benchmark: three workloads through the public entry points.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --list

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. Workloads (BENCHMARK.json lists them with their reasons):

- reliability-sweep: run_experiment with figures=("reliability",);
- kpi-sweep: run_experiment with the four KPI figures;
- receiver-suite: validate_receiver at a reduced trial count.

A run starts one fresh worker process (worker.py) that calls the
workload's entry point with workers=1 and the workload seed until
--seconds have passed, checks every call's output files and compares
their fingerprints with the first call's. With --trace 0 it prints the
end-to-end metrics:

- wall_ref: median wall time of one call divided by the median wall
  time of a fixed reference computation timed next to every call. On a
  shared 2-vCPU virtual machine the host's speed was measured to drift
  by a quarter over tens of seconds, which spread raw wall medians of
  30-s runs to 0.29 (IQR over median, 10 seeds); the ratio
  cancels most of that drift. Raw seconds are in the metadata block and
  in the per-layer metric wall_s;
- setup_s: median cold start of a fresh interpreter to 'import gfaloha'
  plus config construction, timed between calls;
- peak_rss_mb: peak resident memory of the worker process.

With --trace 1 the worker alternates untraced calls with calls that run
with every layer function wrapped (tracer.py); the run prints the per-layer
metrics and an attribution report of self time per layer. The last
stdout line is the result object; the line before it is a metadata
block (machine, versions, fingerprints, predictions, raw timings).
Scratch output goes to .bench_out/ in the checkout and is removed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SETUP_PREDICTS, WORKLOADS  # noqa: E402

IMPORT_STARTS = 3      # fresh interpreters per traced run for setup.import_s.*
WORKER_TIMEOUT_S = 150
IMPORT_MODULES = ("scipy.stats", "scipy.special", "scipy.signal")   # gfaloha's order

def import_seconds() -> dict[str, float]:
    """Median import time of each scipy module, in the order gfaloha imports them.

    Each module is timed after the previous ones are loaded, so a module
    that an earlier one already pulled in costs next to nothing. Timed
    directly: -X importtime does not list modules that scipy loads
    through its lazy attribute hook.
    """
    code = ("import importlib, json, sys, time\n"
            "import numpy\n"
            "out = {}\n"
            "for m in sys.argv[1:]:\n"
            "    t = time.perf_counter()\n"
            "    importlib.import_module(m)\n"
            "    out[m] = time.perf_counter() - t\n"
            "print(json.dumps(out))\n")
    runs = [json.loads(subprocess.run([sys.executable, "-c", code, *IMPORT_MODULES],
                                      cwd=ROOT, capture_output=True, text=True,
                                      timeout=60, check=True).stdout)
            for _ in range(IMPORT_STARTS)]
    return {m: statistics.median(r[m] for r in runs) for m in IMPORT_MODULES}


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="print the workloads and exit")
    ap.add_argument("--tiny", action="store_true",
                    help="self-test input sizes; the figures mean nothing")
    args = ap.parse_args(argv)
    bench_meta = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench_meta["workloads"]}
    if args.list:
        for name, reason in why.items():
            print(f"{name}: {reason}")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gfaloha" / "__init__.py").is_file():
        print(f"benchmark: no gfaloha sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM unwind normally, so the worker is killed and scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = WORKLOADS[args.workload]
    cfg = w.config_for(args.seed, args.tiny)
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)]
            + (["--tiny"] if args.tiny else []),
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"benchmark: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        wall = statistics.median(res["walls"])
        ref = statistics.median(res["refs"])
        wall_ref = wall / ref

        meta = {
            "workload": w.name, "why": why[w.name], "seed": args.seed,
            "input": cfg, "calls": res["calls"], "trace": args.trace,
            "wall_s_samples": {"n": len(res["walls"]), "median": wall,
                               "min": min(res["walls"]), "max": max(res["walls"])},
            "ref_s_samples": {"n": len(res["refs"]), "median": ref,
                              "min": min(res["refs"]), "max": max(res["refs"])},
            "wall_ref": wall_ref,
            "fingerprints": res["fingerprints"], "problems": res["problems"],
            "receiver_pass": res["receiver_pass"],
            "rx_false_rate": res["rx_false_rate"],
            # missed or bit-errored packets of one call: a receiver outcome
            # that varies with the seed, not a failed operation
            "rx_lost_per_call": res["rx_lost_per_call"],
            "predicts": {"wall_s": w.predicts, "setup_s": SETUP_PREDICTS},
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "git_commit": git_commit(), "tracing_overhead_s": None,
        }
        if args.trace:
            traced = statistics.median(res["traced_walls"])
            overhead = traced - wall
            meta["tracing_overhead_s"] = overhead
            imports = import_seconds()
            values = dict(res["layers"])
            values.update({f"setup.import_s.{m}": v for m, v in imports.items()})
            values.update({"trace.overhead_s": overhead, "wall_s": wall, "ref_s": ref})
            values["rx_false_rate"] = res["rx_false_rate"] or 0.0
            print(f"attribution, {w.name}: self time per span, share of traced "
                  f"wall_s {traced:.3f} s (untraced {wall:.3f} s)")
            by_layer: dict[str, float] = {}
            for name, own in res["attribution"]:
                print(f"  {name:40s} {own:10.4f} s {100 * own / traced:6.1f}%")
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + own
            print("  by layer: " + ", ".join(
                f"{k} {100 * v / traced:.1f}%"
                for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
            meta["attribution_s"] = dict(res["attribution"])
        else:
            meta["setup_s_samples"] = res["setup"]
            values = {"wall_ref": wall_ref, "setup_s": statistics.median(res["setup"]),
                      "peak_rss_mb": res["peak_rss_mb"]}
        listed = bench_meta["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in listed}
        print(json.dumps({"metadata": meta}))
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
