"""Workload definitions, output checks and fingerprints.

A workload is one call of a public entry point (experiment.run_experiment
or experiment.validate_receiver) at a fixed input size, with the
workload seed passed as ExperimentConfig.seed. The checks here read the
files the call wrote and count failed operations:

- sweeps: one operation is one simulated cell (one run_trial or
  run_granted_baseline result); a cell fails when a CSV row it feeds
  breaks the output checks or differs from the first call at the seed;
- receiver-suite: one operation is one transmitted packet of the
  single-SNR and two-packet suites; the call's packets fail when its
  report breaks the checks or differs from the first call at the seed.
  Packets the receiver misses or decodes with bit errors are counted
  apart (CallCheck.rx_lost), not as failed operations: their number is
  the receiver's measured error rate, which varies with the seed, and
  a benchmark run must have no failed operation on correct code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

CSV_HEADER = ("figure", "kpi", "load", "scheme", "policy", "n_replicas",
              "cr", "analytic", "empirical", "empirical_ci", "status",
              "divergence")
FIG_KPI = {"reliability": "success", "ee": "energy_efficiency",
           "lifetime": "battery_lifetime", "delay": "expected_delay",
           "se": "spectral_efficiency"}
SETUP_PREDICTS = ["setup.import_s.scipy.stats", "setup.import_s.scipy.signal",
                  "setup.import_s.scipy.special"]


@dataclass
class Workload:
    """One workload; BENCHMARK.json lists it by name with its reason."""

    name: str
    entry: str              # attribute of gfaloha.experiment
    config: dict            # ExperimentConfig fields besides seed and out_dir
    tiny: dict              # overrides of config for the self-test
    predicts: list          # per-layer metrics predicted to move wall_s

    def config_for(self, seed: int, tiny: bool = False) -> dict:
        return dict(self.config, **(self.tiny if tiny else {}), seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        "reliability-sweep", "run_experiment",
        dict(figures=("reliability",), loads=(0.05, 0.2, 0.5, 0.75),
             reliability_replicas=(1, 2, 4), cr_grid=(1.0, 0.5), reps=1,
             packets_per_point=3000, workers=1),
        dict(loads=(0.2, 0.75), packets_per_point=300),
        ["mcsim.sic_decode.sc.s", "mcsim.sic_decode.sc.calls",
         "mcsim.build_collision_graph.s", "mcsim.replicas", "mcsim.edges",
         "mcsim.sic_decode.sc.us_per_edge_round", "mcsim.run_trial.self_s",
         "mcsim.retry_waves", "interference.build_base_cdf.s",
         "experiment.run_experiment.self_s", "experiment.cells"]),
    Workload(
        "kpi-sweep", "run_experiment",
        dict(figures=("ee", "lifetime", "delay", "se"),
             loads=(0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75),
             kpi_replicas=(2,), kpi_policy="mrc", reps=1,
             packets_per_point=5000, workers=1),
        dict(loads=(0.01, 0.5), packets_per_point=300),
        ["mcsim.sic_decode.mrc.s", "mcsim.sic_decode.mrc.calls",
         "mcsim.build_collision_graph.s", "mcsim.replicas", "mcsim.edges",
         "mcsim.run_trial.self_s", "mcsim.retry_waves",
         "mcsim.run_granted_baseline.s", "mcsim.granted.periods",
         "mcsim.granted.reports_per_period", "interference.build_base_cdf.s",
         "interference.solve_offered_load.s", "interference.solve.iterations",
         "interference.solve.overload", "interference.analytic_outage.calls",
         "interference.unconditional_cdf.s",
         "experiment.run_experiment.self_s", "experiment.cells"]),
    Workload(
        "receiver-suite", "validate_receiver",
        dict(receiver_trials=60, workers=1),
        dict(receiver_trials=3),
        ["sigchain.build_drift_table.s", "sigchain.build_drift_table.calls",
         "sigchain.synthesize_packet.s", "sigchain.awgn.s",
         "sigchain.frame_events.s", "sigchain.events",
         "sigchain.periodogram_cfos.s", "sigchain.cfo_branches",
         "sigchain.peak_map.s", "sigchain.peaks", "sigchain.spc_resolve.s",
         "sigchain.validated", "sigchain.validated_per_peak",
         "sigchain.extract_sequences.s", "sigchain.demap_payload.s",
         "experiment.validate_receiver.self_s"]),
)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class CallCheck:
    """Outcome of the checks on one call's output files."""

    fingerprints: dict      # file or block name -> sha256
    units: dict             # operation group -> operations in it
    failed: set             # operation groups that failed the checks
    problems: list          # one line per broken check
    rows: dict = field(default_factory=dict)   # fingerprint name -> row texts
    rx_lost: int = 0        # receiver packets missed or with bit errors
    report: dict | None = None


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _row_group(fig: str, row: dict) -> tuple | None:
    """Operation group a CSV row reports on, None if it does not parse."""
    try:
        if fig == "reliability":
            return ("rel", float(row["load"]), float(row["n_replicas"]),
                    float(row["cr"]))
        if row["scheme"] == "granted":
            return ("granted", float(row["load"]))
        return ("kpi", float(row["load"]), float(row["n_replicas"]))
    except ValueError:
        return None


def _row_problem(fig: str, row: dict) -> str | None:
    if row["figure"] != fig or row["kpi"] != FIG_KPI[fig]:
        return "figure/kpi label"
    for col in ("load", "empirical", "empirical_ci"):
        if not _finite(row[col]):
            return f"non-finite {col}"
    if float(row["empirical_ci"]) < 0:
        return "negative empirical_ci"
    if fig == "reliability":
        if row["analytic"] != "" or row["policy"] != "sc":
            return "reliability row carries an analytic value or non-sc policy"
        if not 0.0 <= float(row["empirical"]) <= 1.0:
            return "success outside [0, 1]"
    elif row["analytic"] != "" and not _finite(row["analytic"]) \
            and row["status"] != "unstable":
        return "non-finite analytic value"
    if row["divergence"] not in ("", "divergent"):
        return "divergence flag"
    return None


def check_sweep(out: Path, cfg: dict) -> CallCheck:
    """Header, row count, finite values and ranges of every figure CSV.

    The fingerprints cover each fig-*.csv and the crossover_loads block
    of summary.json, not the whole summary: it echoes out_dir, workers
    and the output paths.
    """
    reps = cfg["reps"]
    loads = cfg["loads"]
    units, fps, rows_of, problems, failed = {}, {}, {}, [], set()
    for fig in cfg["figures"]:
        if fig == "reliability":
            groups = [("rel", float(l), float(n), float(c)) for l in loads
                      for n in cfg["reliability_replicas"] for c in cfg["cr_grid"]]
        else:
            groups = [g for l in loads for g in
                      [("kpi", float(l), float(n)) for n in cfg["kpi_replicas"]]
                      + [("granted", float(l))]]
        units.update((g, reps) for g in groups)
        path = out / f"fig-{fig}.csv"
        try:
            data = path.read_bytes()
        except OSError as exc:
            problems.append(f"{fig}: {exc}")
            failed.update(groups)
            continue
        fps[path.name] = sha256(data)
        lines = data.decode().splitlines()
        rows_of[path.name] = lines
        if not lines or tuple(lines[0].split(",")) != CSV_HEADER:
            problems.append(f"{fig}: header is not the 12-column header")
            failed.update(groups)
            continue
        if len(lines) - 1 != len(groups):
            problems.append(f"{fig}: {len(lines) - 1} rows, expected {len(groups)}")
            failed.update(groups)
            continue
        seen = set()
        for line in lines[1:]:
            vals = line.split(",")
            row = dict(zip(CSV_HEADER, vals)) if len(vals) == len(CSV_HEADER) else None
            group = _row_group(fig, row) if row else None
            if group not in units or group in seen:
                problems.append(f"{fig}: unexpected row {line}")
                failed.update(groups)
                break
            seen.add(group)
            bad = _row_problem(fig, row)
            if bad:
                problems.append(f"{fig}: {bad} in {line}")
                failed.add(group)
    try:
        with open(out / "summary.json") as fh:
            cross = json.load(fh)["crossover_loads"]
        fps["summary.json#crossover_loads"] = sha256(
            json.dumps(cross, sort_keys=True).encode())
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"summary.json: {exc!r}")
        failed.update(g for g in units if g[0] != "rel")
    return CallCheck(fps, units, failed, problems, rows_of)


def compare_sweep(ref: CallCheck, got: CallCheck) -> None:
    """Mark the groups of got whose rows differ from the reference call."""
    for name, ref_fp in ref.fingerprints.items():
        if got.fingerprints.get(name) == ref_fp:
            continue
        if name == "summary.json#crossover_loads":
            got.problems.append("crossover_loads differs from the first call")
            got.failed.update(g for g in got.units if g[0] != "rel")
            continue
        got.problems.append(f"{name} differs from the first call")
        fig = name[len("fig-"):-len(".csv")]
        ref_lines, lines = ref.rows[name], got.rows.get(name, [])
        if len(lines) != len(ref_lines) or lines[:1] != ref_lines[:1]:
            got.failed.update(g for g in got.units
                              if (g[0] == "rel") == (fig == "reliability"))
            continue
        for a, b in zip(ref_lines[1:], lines[1:]):
            if a != b:
                row = dict(zip(CSV_HEADER, a.split(",")))
                got.failed.add(_row_group(fig, row))


def check_receiver(out: Path, cfg: dict) -> CallCheck:
    """Schema and ranges of receiver-validation.json, plus lost packets.

    The overall pass flag is recorded, not gated on: at a reduced trial
    count it can be false from sampling noise alone.
    """
    trials = cfg["receiver_trials"]
    units = {("call",): 3 * trials}
    path = out / "receiver-validation.json"
    try:
        data = path.read_bytes()
        rep = json.loads(data)
        single, two = rep["single_snr"], rep["two_packet"]
        missed2 = round(two["miss_rate"] * 2 * trials)
        ok = (single["trials"] == trials and two["trials"] == trials
              and 0 <= single["missed"] + single["bit_error_trials"] <= trials
              and 0.0 <= two["miss_rate"] <= 1.0
              and 0.0 <= two["false_rate"] <= 1.0
              and abs(two["miss_rate"] * 2 * trials - missed2) < 1e-6
              and isinstance(rep["pass"], bool))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return CallCheck({}, units, {("call",)}, [f"receiver report: {exc!r}"])
    if not ok:
        return CallCheck({path.name: sha256(data)}, units, {("call",)},
                         ["receiver report out of range"], report=rep)
    return CallCheck({path.name: sha256(data)}, units, set(), [],
                     rx_lost=single["missed"] + single["bit_error_trials"] + missed2,
                     report=rep)


def compare_receiver(ref: CallCheck, got: CallCheck) -> None:
    if got.fingerprints != ref.fingerprints:
        got.problems.append("receiver report differs from the first call")
        got.failed.add(("call",))


def check_call(w: Workload, out: Path, cfg: dict, ref: CallCheck | None) -> CallCheck:
    if w.entry == "validate_receiver":
        res = check_receiver(out, cfg)
        if ref is not None:
            compare_receiver(ref, res)
    else:
        res = check_sweep(out, cfg)
        if ref is not None:
            compare_sweep(ref, res)
    return res


def tally(res: CallCheck) -> tuple[int, int]:
    """(attempted, failed) operations of one checked call."""
    attempted = sum(res.units.values())
    failed = sum(res.units[g] for g in res.failed if g in res.units)
    return attempted, failed
