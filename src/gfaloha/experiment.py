"""Load sweeps, figure-data emission and receiver validation.

The orchestrator runs the analytic chain and the Monte Carlo simulator
over a shared load grid and writes one CSV per figure with analytic and
empirical columns side by side, so model-vs-simulation divergence shows
up in the data instead of hiding in plotting code. All randomness is
keyed off one master seed through per-cell substreams; a rerun with the
same config writes byte-identical CSVs regardless of worker scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from . import interference as itf
from . import kpi as kpi_mod
from . import mcsim
from . import sigchain as sg
from .params import (EnergyParams, InvalidParamsError, SystemParams,
                     _read_config, is_integer, is_real)

FIGURES = ("reliability", "ee", "lifetime", "delay", "se")
# figure -> (the KPI it plots, does a larger value win?)
_FIG_KPI = {
    "reliability": ("success", True),
    "ee": ("energy_efficiency", True),
    "lifetime": ("battery_lifetime", True),
    "delay": ("expected_delay", False),
    "se": ("spectral_efficiency", True),
}
CSV_HEADER = ("figure", "kpi", "load", "scheme", "policy", "n_replicas",
              "cr", "analytic", "empirical", "empirical_ci", "status",
              "divergence")

# substream kinds; part of the reproducibility contract
_KIND_KPI, _KIND_REL, _KIND_GRANTED = 0, 1, 2


@dataclass
class ExperimentConfig:
    """Sweep definition carrying everything a rerun needs.

    One master seed drives every cell through keyed substreams, so the
    per-cell streams are distinct and independent of execution order by
    construction. The KPI figures (ee, lifetime, delay, se) sweep
    kpi_replicas under kpi_policy with retries on; the reliability
    figure sweeps reliability_replicas x cr_grid under the
    clean-fraction policy with retries off (single-attempt success, the
    quantity the success-probability curves show). Each (load, N, rep)
    of the reliability figure is one traffic draw, decoded at every
    cr_grid threshold, so its rows differ only by the receiver and a
    threshold's row does not depend on its place in the grid.
    """

    system: SystemParams = field(default_factory=SystemParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    loads: tuple = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75)
    kpi_replicas: tuple = (2,)
    kpi_policy: str = "mrc"
    reliability_replicas: tuple = (1, 2, 4)
    cr_grid: tuple = (1.0, 0.5)
    reps: int = 3
    packets_per_point: int = 20000
    max_retries: int = 5
    seed: int = 1234
    out_dir: str = "results"
    figures: tuple = FIGURES
    receiver_trials: int = 1000
    workers: int = 1

    def validate(self) -> "ExperimentConfig":
        self.system.validate()
        self.energy.validate()
        for name in ("reps", "packets_per_point", "max_retries", "seed",
                     "receiver_trials", "workers"):
            if not is_integer(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be an integer")
        counts = (*self.kpi_replicas, *self.reliability_replicas)
        if not all(is_integer(n) and n >= 1 for n in counts):
            raise InvalidParamsError("replica counts must be integers >= 1")
        loads = tuple(self.loads)
        if not all(map(is_real, (*loads, *self.cr_grid))):
            raise InvalidParamsError("loads and cr values must be finite numbers")
        if any(b <= a for a, b in zip(loads, loads[1:])):
            raise InvalidParamsError("load grid must be strictly ascending")
        if any(x <= 0 for x in loads):
            raise InvalidParamsError("loads must be positive")
        if self.reps < 1:
            raise InvalidParamsError("need at least one repetition")
        if self.packets_per_point < 1 or self.receiver_trials < 1:
            raise InvalidParamsError("sample sizes must be positive")
        if self.max_retries < 0 or self.seed < 0 or self.workers < 1:
            raise InvalidParamsError("max_retries, seed >= 0 and workers >= 1")
        if not all(isinstance(f, str) for f in self.figures):
            raise InvalidParamsError("figures entries must be strings")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise InvalidParamsError("out_dir must be a string or path")
        unknown = set(self.figures) - set(FIGURES)
        if unknown:
            raise InvalidParamsError(f"unknown figures: {sorted(unknown)}")
        if self.kpi_policy not in ("mrc", "sc", "none"):
            raise InvalidParamsError(f"unknown policy {self.kpi_policy!r}")
        if not self.kpi_replicas or not self.reliability_replicas:
            raise InvalidParamsError("replica-count lists must be nonempty")
        # cells and figures are keyed by value: a repeated entry would pool
        # two cells or write a figure's rows twice
        for name in ("kpi_replicas", "reliability_replicas", "cr_grid",
                     "figures"):
            entries = tuple(getattr(self, name))
            if len(set(entries)) != len(entries):
                raise InvalidParamsError(f"{name} repeats an entry: {entries}")
        if any(not (0.0 < c <= 1.0) for c in self.cr_grid):
            raise InvalidParamsError("cr values must lie in (0, 1]")
        return self

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Build from a JSON config with system/energy/experiment sections."""
        p, e, exp = _read_config(path)
        known = {f.name for f in fields(cls)} - {"system", "energy"}
        unknown = set(exp) - known
        if unknown:
            raise InvalidParamsError(
                f"unknown experiment keys: {sorted(unknown)}")
        for key in ("loads", "kpi_replicas", "reliability_replicas",
                    "cr_grid", "figures"):
            if key in exp:
                if not isinstance(exp[key], list):
                    raise InvalidParamsError(f"{key} must be a list")
                exp[key] = tuple(exp[key])
        return cls(system=p, energy=e, **exp).validate()


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

def _run_cell(args):
    cfg, kind, key, load, p, policy, cr = args
    lam = mcsim.nominal_lambda(load, p)
    horizon = max(cfg.packets_per_point / lam, 10 * p.M * p.Tp)
    rng = mcsim.rng_for(cfg.seed, kind, *key)
    if kind == _KIND_GRANTED:
        return mcsim.run_granted_baseline(rng, lam, horizon, p, cfg.energy)
    if kind == _KIND_REL:
        # single-attempt outage at every threshold of cr (the cr grid)
        return mcsim.first_attempt_outage(rng, lam, horizon, p, cr)
    return mcsim.run_trial(rng, lam, horizon, p, policy, cr=cr,
                           max_retries=cfg.max_retries)


def _execute(jobs: list, workers: int) -> list:
    if workers > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, jobs))
    return [_run_cell(j) for j in jobs]


def _mean_ci(vals: list[float]) -> tuple[float, float]:
    """Mean and Student-t 95% half-width (0 below two values)."""
    arr = np.asarray(vals, dtype=float)
    if len(arr) < 2:
        return float(arr.mean()), 0.0
    # imported here: the only scipy the program reads, and only for reps >= 2
    from scipy import special
    t = special.stdtrit(len(arr) - 1, 0.975)   # Student-t 0.975 quantile
    return float(arr.mean()), float(t * arr.std(ddof=1) / math.sqrt(len(arr)))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _row(fig: str, load, scheme: str, policy: str, n, cr, analytic,
         vals: list[float], status: str = "", divergence: str = "") -> dict:
    """One figure row in CSV_HEADER order; vals are its cells' values."""
    emp, ci = _mean_ci(vals)
    return dict(zip(CSV_HEADER, (fig, _FIG_KPI[fig][0], load, scheme, policy, n,
                                 cr, analytic, emp, ci, status, divergence)))


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in CSV_HEADER) + "\n")


_LOW_LOAD_CUTOFF = 0.2   # KPI rows up to this load are flagged divergent
_DIVERGENCE_TOL = 0.03   # where analytic and empirical outage differ more


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the configured sweep and write figure CSVs plus a summary.

    Emits fig-<name>.csv for every requested figure (header-only when
    the load grid is empty) and summary.json with the crossover loads
    where the granted baseline starts beating grant-free access per
    KPI, evaluated separately on the analytic and the empirical
    columns. Non-convergent analytic fixed points mark their rows via
    the status column; the run continues.
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p0, e0 = cfg.system, cfg.energy
    kpi_figs = [f for f in cfg.figures if f != "reliability"]
    kpi_p = [p0.with_replicas(n) for n in cfg.kpi_replicas]
    rel_p = [p0.with_replicas(n) for n in cfg.reliability_replicas]

    # Row group -> (load, SystemParams, policy, cr) of its cells, in run
    # order. Cell rep of group (kind, *idx) draws substream (kind, *idx,
    # rep). A reliability group holds the whole cr grid and writes one
    # row per threshold; its key ends in 0, the index of the threshold
    # whose substream it draws, so each cr_grid[0] row keeps the bytes
    # it had when every threshold drew its own traffic.
    table: dict[tuple, tuple] = {}
    for li, load in enumerate(cfg.loads):
        if kpi_figs:
            for ni, pn in enumerate(kpi_p):
                table[_KIND_KPI, li, ni] = (load, pn, cfg.kpi_policy,
                                            p0.St / p0.gamma)
            table[_KIND_GRANTED, li] = (load, p0, "granted", None)
        if "reliability" in cfg.figures and cfg.cr_grid:
            for ni, pn in enumerate(rel_p):
                table[_KIND_REL, li, ni, 0] = (load, pn, "sc", cfg.cr_grid)
    jobs = [(cfg, kind, (*idx, rep), *group)
            for (kind, *idx), group in table.items()
            for rep in range(cfg.reps)]
    done = iter(_execute(jobs, cfg.workers))

    # one base law per replica count, on pn's own area grid (n*W*Tp wide)
    bases = ({pn.N: itf.build_base_cdf(pn) for pn in kpi_p}
             if kpi_figs and cfg.kpi_policy != "sc" else None)
    rows: dict[str, list[dict]] = {f: [] for f in cfg.figures}
    for (kind, *_), (load, p, policy, cr) in table.items():
        cells = list(islice(done, cfg.reps))
        if kind == _KIND_REL:
            for i, c in enumerate(cr):
                rows["reliability"].append(_row(
                    "reliability", load, "grant-free", policy, p.N, c, None,
                    [1.0 - outages[i] for outages in cells]))
            continue
        lam = mcsim.nominal_lambda(load, p)
        head = ("grant-free", policy, p.N, cr)
        report, status, divergence = None, "", ""
        if kind == _KIND_GRANTED:
            head = ("granted", policy, None, None)
            report = kpi_mod.granted_kpis(lam, p, e0)
            if not kpi_mod.ra_contention(lam)[2]:
                status = "unstable"
            scored = [kpi_mod.granted_path_kpis(lam, c.mean_attempts, c.delay,
                                                p, e0) for c in cells]
        else:
            scored = [kpi_mod.grant_free_kpis(lam, c.outage, c.delay, p, e0)
                      for c in cells]
            if bases is not None:
                res = itf.solve_offered_load(lam, p, policy, base=bases[p.N])
                report = kpi_mod.grant_free_kpis(
                    lam, res.po, kpi_mod.expected_delay(res.po, p), p, e0)
                status = res.status
                po_e = float(np.mean([c.outage for c in cells]))
                if load <= _LOW_LOAD_CUTOFF and abs(res.po - po_e) > _DIVERGENCE_TOL:
                    divergence = "divergent"
        for fig in kpi_figs:
            name = _FIG_KPI[fig][0]
            rows[fig].append(_row(
                fig, load, *head,
                None if report is None else getattr(report, name),
                [getattr(r, name) for r in scored], status, divergence))

    files = {}
    for fig in cfg.figures:
        files[fig] = f"fig-{fig}.csv"
        _write_csv(out / files[fig], rows[fig])

    summary = {
        "config": _config_echo(cfg),
        "crossover_loads": _crossovers(cfg, rows),
        "files": files,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return summary


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The config as JSON, less out_dir and workers: the same sweep writes
    the same summary bytes into any directory with any worker count."""
    echo = asdict(cfg)
    del echo["out_dir"], echo["workers"]
    for key, val in echo.items():
        if isinstance(val, tuple):
            echo[key] = list(val)
    return echo


def _crossovers(cfg: ExperimentConfig, figure_rows: dict) -> dict:
    """Smallest load where granted beats grant-free, per KPI and N.

    Evaluated separately on the analytic and empirical columns; null
    when the inequality never flips inside the swept grid.
    """
    out: dict = {}
    for fig, rows in figure_rows.items():
        if fig == "reliability":
            continue
        kpi_name, higher = _FIG_KPI[fig]
        granted = {r["load"]: r for r in rows if r["scheme"] == "granted"}
        for n in cfg.kpi_replicas:
            gf = [r for r in rows
                  if r["scheme"] == "grant-free" and r["n_replicas"] == n]
            entry = {}
            for col in ("analytic", "empirical"):
                found = None
                for r in gf:
                    a, b = r[col], granted[r["load"]][col]
                    if a is None or b is None:
                        continue
                    if (b > a) if higher else (b < a):
                        found = r["load"]
                        break
                entry[col] = found
            out.setdefault(kpi_name, {})[f"n={n}"] = entry
    return out


# ---------------------------------------------------------------------------
# Receiver validation
# ---------------------------------------------------------------------------

def _digest(decisions, got: list[tuple]) -> list[tuple]:
    """Feed sg.decode_stream's triples into the decisions hash; return them."""
    for pos, cfo, bits in got:
        decisions.update(struct.pack("<qdq", pos, cfo,
                                     -1 if bits is None else bits.size))
        if bits is not None:
            decisions.update(bits.tobytes())
    return got


def validate_receiver(cfg: ExperimentConfig) -> dict:
    """Exercise the sample-level chain on its synthetic suites.

    Four checks: drift-table properties (no drift at zero offset, every
    drift within half the preamble), a noise-free single packet decoded
    bit-exactly, single-packet decoding at SNR gamma over
    receiver_trials random draws, and the random two-packet suite with
    its measured miss and false-positive rates (pass below 5% and 1%)
    and its bit-exact rate: the share of sent packets whose matched
    decode carries their payload exactly (reported, not gated). The
    suites place packets at offsets proportional to the packet length,
    and one drift table serves them all (the tests check that two
    builds agree). decisions_sha256 digests every decoded (position,
    CFO, bits) triple of the three decoding suites in order, so two
    reports with equal counts but different decisions differ. Writes
    the report JSON into the output directory and returns it.
    """
    cfg.validate()
    p = cfg.system.validate(sample_level=True)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_trials = cfg.receiver_trials
    nbits = sg.payload_bits_per_packet(p)
    n_pkt = round(p.Tp * p.Fs)
    decisions = hashlib.sha256()

    dt = sg.build_drift_table(p)
    sps = p.samples_per_symbol
    drift = {"q_zero_symbols": int(dt.shifts[dt.reach]) // sps,
             "q_max_symbols": int(np.max(np.abs(dt.shifts))) // sps,
             "bound_symbols": p.Nzc // 2}
    drift["pass"] = (drift["q_zero_symbols"] == 0
                     and drift["q_max_symbols"] <= drift["bound_symbols"])

    rng = np.random.default_rng(cfg.seed)

    def receive(periods, packets, noisy=True):
        """Decode (start, bits, cfo) packets laid into a zero stream of
        periods packet lengths, adding noise at SNR gamma when noisy."""
        sig = np.zeros(periods * n_pkt, dtype=complex)
        for s0, b, c in packets:
            sig[s0: s0 + n_pkt] += sg.synthesize_packet(b, p, c)
        if noisy:
            sig = sg.awgn(sig, p.gamma, rng)
        thr = 1.4 / p.gamma if noisy else 0.1   # gate over the floor 1/gamma
        return _digest(decisions, sg.decode_stream(sig, p, dt, thr))

    bits = rng.integers(0, 2, nbits).astype(np.uint8)
    got = receive(2, [(3 * n_pkt // 20, bits, 31.0)], noisy=False)
    errs = (nbits if len(got) != 1 or got[0][2] is None
            else int(np.sum(got[0][2] != bits)))
    noise_free = {"validated": len(got), "bit_errors": errs,
                  "pass": len(got) == 1 and errs == 0}

    missed = bad = 0
    for _ in range(n_trials):
        tb = rng.integers(0, 2, nbits).astype(np.uint8)
        cfo = rng.uniform(-p.Fm, p.Fm)
        s0 = int(rng.integers(n_pkt // 10, 3 * n_pkt // 5))
        hit = [g for g in receive(2, [(s0, tb, cfo)]) if abs(g[0] - s0) <= 1]
        if not hit or hit[0][2] is None:
            missed += 1
        elif not np.array_equal(hit[0][2], tb):
            bad += 1
    single = {"trials": n_trials, "missed": missed, "bit_error_trials": bad,
              "pass": missed == 0 and bad == 0}

    miss2 = n_val = false = exact = 0
    for _ in range(n_trials):
        cfos = rng.uniform(-p.Fm, p.Fm, 2)
        starts = np.sort(rng.integers(n_pkt // 10, 11 * n_pkt // 10, 2))
        sent = [(int(s0), rng.integers(0, 2, nbits), float(c))
                for s0, c in zip(starts, cfos)]
        got = receive(3, sent)
        n_val += len(got)
        used = [False] * len(got)
        for s0, tb, c in sent:
            for i, g in enumerate(got):
                if not used[i] and abs(g[0] - s0) <= 1 and abs(g[1] - c) <= 3.0:
                    used[i] = True
                    exact += g[2] is not None and np.array_equal(g[2], tb)
                    break
            else:
                miss2 += 1
        false += used.count(False)
    two = {"trials": n_trials, "miss_rate": miss2 / (2 * n_trials),
           "false_rate": false / n_val if n_val else 0.0,
           "bit_exact_rate": exact / (2 * n_trials)}
    two["pass"] = two["miss_rate"] < 0.05 and two["false_rate"] < 0.01

    report = {"drift": drift, "single_noise_free": noise_free,
              "single_snr": single, "two_packet": two,
              "decisions_sha256": decisions.hexdigest(),
              "pass": all(x["pass"] for x in (drift, noise_free, single, two))}
    with open(out / "receiver-validation.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report
