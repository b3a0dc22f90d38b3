"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks/test_bench.py

Checks that every workload runs in both modes and prints every metric
BENCHMARK.json lists with its unit, that the traced counts equal the
counts on the objects the layers return, that the output check catches
one altered byte, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, check_call, tally  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    meta = json.loads(lines[-2])["metadata"]
    assert meta["fingerprints"] and meta["predicts"]["wall_s"]
    if trace:
        assert lines[0].startswith("attribution, " + workload)


def _record(module, attr, sink):
    inner = getattr(module, attr)

    def rec(*args, **kwargs):
        out = inner(*args, **kwargs)
        sink.append((args, kwargs, out))
        return out

    setattr(module, attr, rec)
    return lambda: setattr(module, attr, inner)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_equal_returned_objects(workload, scratch):
    from gfaloha import experiment, interference, mcsim, sigchain
    from gfaloha.experiment import ExperimentConfig

    w = WORKLOADS[workload]
    tr = tracing.install(tracing.Tracer())
    sics, graphs, solves, resolved = [], [], [], []
    undo = [_record(mcsim, "sic_decode", sics),
            _record(mcsim, "build_collision_graph", graphs),
            _record(interference, "solve_offered_load", solves),
            _record(sigchain, "spc_resolve", resolved)]
    try:
        getattr(experiment, w.entry)(
            ExperimentConfig(**w.config_for(3, tiny=True), out_dir=str(scratch)))
    finally:
        for u in undo:
            u()
        tr.uninstall()
    m = tracing.layer_metrics(tr)

    def policy(args, kwargs):
        return kwargs.get("policy", args[2] if len(args) > 2 else "mrc")

    for pol in ("sc", "mrc"):
        outs = [o for a, k, o in sics if policy(a, k) == pol]
        assert m[f"mcsim.sic_decode.{pol}.calls"] == len(outs)
        assert m[f"mcsim.sic.rounds.{pol}"] == sum(o.rounds for o in outs)
    assert m["mcsim.sic.residual_replicas"] == sum(o.residual_replicas for _, _, o in sics)
    assert m["mcsim.edges"] == sum(len(g.ea) for _, _, g in graphs)
    assert m["mcsim.replicas"] == sum(g.n_replicas for _, _, g in graphs)
    assert m["interference.solve.iterations"] == sum(r.iterations for _, _, r in solves)
    assert m["sigchain.validated"] == sum(len(v) for _, _, v in resolved)
    assert m["experiment.cells"] == tr.calls("mcsim.run_trial") + \
        tr.calls("mcsim.run_granted_baseline")
    # the workload reaches the layers its prediction names
    reached = [k for k in w.predicts if k.endswith(".calls") or k.endswith(".s")]
    assert any(m[k] > 0 for k in reached)


@pytest.mark.parametrize("workload,name", [("reliability-sweep", "fig-reliability.csv"),
                                           ("kpi-sweep", "fig-ee.csv"),
                                           ("receiver-suite", "receiver-validation.json")])
def test_one_altered_byte_fails_the_fingerprint_check(workload, name, scratch):
    from gfaloha import experiment
    from gfaloha.experiment import ExperimentConfig

    w = WORKLOADS[workload]
    cfg = w.config_for(5, tiny=True)
    first, second = scratch / "first", scratch / "second"
    getattr(experiment, w.entry)(ExperimentConfig(**cfg, out_dir=str(first)))
    ref = check_call(w, first, cfg, None)
    assert not ref.problems and not ref.failed
    shutil.copytree(first, second)
    same = check_call(w, second, cfg, ref)
    assert not same.problems and not same.failed

    path = second / name
    data = bytearray(path.read_bytes())
    i = max(j for j, c in enumerate(data) if chr(c).isdigit())
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    bad = check_call(w, second, cfg, ref)
    assert bad.problems
    attempted, failed = tally(bad)
    assert 0 < failed <= attempted


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, scratch / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", sorted(WORKLOADS)[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_lost_receiver_packets_are_recorded_not_failed(scratch):
    """Missed and bit-errored packets are the receiver's error rate, not failures."""
    w = WORKLOADS["receiver-suite"]
    cfg = w.config_for(1, tiny=True)
    trials = cfg["receiver_trials"]
    rep = {"single_snr": {"trials": trials, "missed": 1, "bit_error_trials": 1,
                          "pass": False},
           "two_packet": {"trials": trials, "miss_rate": 1 / (2 * trials),
                          "false_rate": 0.0, "pass": True},
           "pass": False}
    (scratch / "receiver-validation.json").write_text(json.dumps(rep))
    res = check_call(w, scratch, cfg, None)
    assert not res.problems and res.rx_lost == 3
    assert tally(res) == (3 * trials, 0)
