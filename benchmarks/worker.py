"""One workload process: repeated entry-point calls, timed or traced.

Run by run.py in a fresh interpreter so that peak memory is the
workload's own. Every call uses the same seed, writes into its own
directory and is checked against the first call's fingerprints. Prints
one JSON object as its last line: raw call walls, reference timings,
set-up samples or per-layer metrics, operation counts and fingerprints.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--tiny]
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, check_call, tally  # noqa: E402

MIN_CALLS = 3          # per kind of call; a median needs a few samples
HARD_CAP_S = 130.0     # stop starting calls past this, to end within 180 s
REF_REPS = 3           # reference timings before each call
SETUP_STARTS = 5       # fresh interpreters timed per untraced run

# Cold start to 'import gfaloha' plus config construction: the child
# prints its CLOCK_MONOTONIC reading, so interpreter exit is not counted.
SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import gfaloha
from gfaloha.experiment import ExperimentConfig
ExperimentConfig(**json.loads(sys.argv[2])).validate()
print(time.monotonic())
"""


def import_program():
    """Import gfaloha from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gfaloha
    from gfaloha import experiment
    if src.resolve() not in Path(gfaloha.__file__).resolve().parents:
        raise SystemExit(f"gfaloha imported from {gfaloha.__file__}, not {src}")
    return experiment


def setup_seconds(cfg_kw: dict) -> float:
    """One cold start of a fresh interpreter, in seconds."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
         json.dumps({k: list(v) if isinstance(v, tuple) else v for k, v in cfg_kw.items()})],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0


_REF_X = np.random.default_rng(0).random(1 << 16)


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not touch gfaloha.

    Part interpreter loop, part numpy FFT and sort, like the workloads.
    A shared host's speed can drift by a quarter over tens of seconds;
    timed next to every call, this reference lets wall_ref (median call
    over median reference) cancel that drift.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(30):
        np.sort(np.fft.rfft(_REF_X).real)
    return time.perf_counter() - t


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "self_s", "us_per_edge_round"))


def run_calls(experiment, w, cfg_kw, out: Path, seconds: float, t_begin: float,
              state: dict, trace: bool) -> tuple[list[float], list[float]]:
    """Call the entry point until seconds have passed.

    Returns the untraced and the traced call walls. Each untraced call is
    preceded by reference timings; in an untraced run the first
    SETUP_STARTS calls are each followed by one timed cold start, so the
    set-up samples are spread over the run. With trace, every other call
    runs with the layer functions wrapped, so that both kinds see the
    same host phases and their difference is the tracing overhead.
    """
    from gfaloha.experiment import ExperimentConfig
    walls, traced = [], []
    tr = tracing.Tracer()
    t_start = time.perf_counter()
    while True:
        with_trace = trace and len(traced) < len(walls)
        call_dir = out / f"call-{state['calls']}"
        cfg = ExperimentConfig(**cfg_kw, out_dir=str(call_dir))
        if with_trace:
            tr.reset()
            tracing.install(tr)
        else:
            state["refs"].extend(reference_seconds() for _ in range(REF_REPS))
        try:
            entry = getattr(experiment, w.entry)    # the wrapper, when traced
            t0 = time.perf_counter()
            entry(cfg)
            wall = time.perf_counter() - t0
        finally:
            if with_trace:
                tr.uninstall()
        (traced if with_trace else walls).append(wall)
        state["calls"] += 1
        if "rss_mb" not in state:
            # peak of a fresh process through its first call, as one CLI
            # run sees it; later calls only add allocator noise
            state["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        res = check_call(w, call_dir, cfg_kw, state.get("first"))
        state.setdefault("first", res)
        att, fail = tally(res)
        state["attempted"] += att
        state["failed"] += fail
        state["problems"].extend(res.problems)
        if res.report is not None:
            state["report"] = res.report
        shutil.rmtree(call_dir, ignore_errors=True)
        if with_trace:
            state["layers"].append(tracing.layer_metrics(tr))
            state["self"].append({k: v for k, v, _ in tracing.attribution(tr, wall)})
        elif not trace and len(state["setup"]) < SETUP_STARTS:
            state["setup"].append(setup_seconds(cfg_kw))

        now = time.perf_counter()
        if now - t_begin + wall > HARD_CAP_S:
            break
        if (now - t_start >= seconds and len(walls) >= MIN_CALLS
                and (not trace or len(traced) >= MIN_CALLS)):
            break
    return walls, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test input sizes")
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    experiment = import_program()
    w = WORKLOADS[args.workload]
    cfg_kw = w.config_for(args.seed, args.tiny)
    out = Path(args.out)
    state = {"calls": 0, "attempted": 0, "failed": 0, "problems": [],
             "layers": [], "self": [], "refs": [], "setup": []}

    walls, traced = run_calls(experiment, w, cfg_kw, out, args.seconds, t_begin,
                              state, bool(args.trace))
    result = {"walls": walls}
    if not args.trace:
        while len(state["setup"]) < SETUP_STARTS:
            state["setup"].append(setup_seconds(cfg_kw))
        result["setup"] = state["setup"]
    else:
        layers = state["layers"]
        merged = {}
        for k in layers[0]:
            vals = [m[k] for m in layers]
            if is_time(k):
                merged[k] = statistics.median(vals)
            else:
                merged[k] = vals[0]
                if any(v != vals[0] for v in vals):
                    state["problems"].append(f"count {k} differs between calls: {vals}")
        names = set().union(*state["self"])
        own = {k: statistics.median(s.get(k, 0.0) for s in state["self"]) for k in names}
        result.update(traced_walls=traced, layers=merged,
                      attribution=sorted(own.items(), key=lambda kv: -kv[1]))

    rep = state.get("report")
    result.update(
        refs=state["refs"],
        calls=state["calls"],
        attempted=state["attempted"],
        failed=state["failed"],
        correct=not state["problems"],
        problems=state["problems"][:20],
        fingerprints=state["first"].fingerprints,
        receiver_pass=None if rep is None else rep["pass"],
        rx_false_rate=None if rep is None else rep["two_packet"]["false_rate"],
        rx_lost_per_call=None if rep is None else state["first"].rx_lost,
        peak_rss_mb=state["rss_mb"],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
