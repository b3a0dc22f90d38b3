"""Acceptance gate: one test per top-level claim, at its stated tolerance.

Every test prints a single PASS/FAIL line (run `pytest -s` to see them
inline; on a failure the line is in the captured output). All seeds are
fixed, so the suite is reproducible bit for bit; tolerances already
include the Monte Carlo margin at the configured sample sizes.
"""

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from gfaloha import interference as itf
from gfaloha import kpi
from gfaloha import mcsim
from gfaloha.experiment import ExperimentConfig, run_experiment, validate_receiver
from gfaloha.params import EnergyParams, SystemParams, db2lin
from overlap_reference import (overlap_ccdf_paper, overlap_ccdf_quad,
                               overlap_pmf_oracle)

P = SystemParams()
E = EnergyParams()


def report(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} [{num}] {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c1_packet_duration_design_point():
    p = SystemParams()          # D=100 bits, W=200 Hz, gamma/Gamma = 1
    report(1, "packet duration at the design point is exactly 0.5 s",
           p.Tp == 0.5, f"Tp={p.Tp!r}")


def test_c2_overlap_law_oracle_and_closed_form():
    t0 = time.perf_counter()
    samples = 10**6
    f1, f2 = (np.cumsum(overlap_pmf_oracle(np.random.default_rng(seed), P,
                                           samples=samples))
              for seed in (101, 202))
    sup = float(np.max(np.abs(f1 - f2)))

    # independent quadrature of Pr(S > s): the overlap exceeds s iff the
    # time gap u and beat width v with uv > s, u ~ U(0,Tp), v ~ U(0,2Fm),
    # restricted to v < W; integrate the admissible v-range over u
    smax = P.W * P.Tp
    grid = np.linspace(0.0, smax, 201)
    vals, clamped = overlap_ccdf_paper(grid, P)
    errs = [abs(v - quad(lambda u: max(0.0, P.W - s / u),
                         s / P.W, P.Tp, limit=200)[0] / (P.Tp * P.Fm))
            for s, v, c in zip(grid, vals, clamped) if s > 0 and not c]
    quad_err = max(errs)

    # the exact law against quadrature of its defining integral, from
    # x = 1e-4 where the quadrature is good to 1e-9
    xs = [x for x in np.linspace(0.0, 1.0, 201) if x >= 1e-4]
    exact_errs = [abs(float(itf.overlap_ccdf_exact(x * smax, P))
                      - overlap_ccdf_quad(x, P)) for x in xs]
    exact_quad_err = max(exact_errs)

    # the exact law against the oracle: within the 99.9% DKW band of the
    # empirical CDF of the oracle's draws
    exact = np.cumsum(itf.build_base_cdf(P))
    dkw = math.sqrt(math.log(2 / 1e-3) / (2 * samples))
    oracle_err = float(np.max(np.abs(exact - f1)))
    elapsed = time.perf_counter() - t0
    report(2, "overlap law: oracle seed-stable, paper closed form matches "
              "quadrature on its valid range, exact law matches quadrature "
              "and the oracle",
           sup < 0.005 and quad_err < 1e-6 and exact_quad_err < 1e-9
           and oracle_err < dkw and elapsed < 60,
           f"sup|dF|={sup:.4f}, quad err={quad_err:.2e}, "
           f"{len(errs)} points, exact quad err={exact_quad_err:.2e}, "
           f"{len(exact_errs)} points, exact vs oracle={oracle_err:.2e} "
           f"< DKW {dkw:.2e}, {elapsed:.1f} s")


def test_c3_analytic_outage_tracks_simulation():
    t0 = time.perf_counter()
    base = itf.build_base_cdf(P)
    diffs = []
    for li, load in enumerate((0.02, 0.05, 0.1, 0.2)):
        lam = mcsim.nominal_lambda(load, P)
        r = mcsim.run_trial(mcsim.rng_for(42, li), lam, 1e5 / lam, P,
                            "mrc", max_retries=0, max_rounds=1)
        po_a = itf.analytic_outage(base, P.N * lam, P, "mrc")
        diffs.append(abs(po_a - r.outage))
    elapsed = time.perf_counter() - t0
    report(3, "analytic outage within 0.03 of simulation, N=2 MRC, "
              "loads 0.02-0.2",
           max(diffs) < 0.03 and elapsed < 600,
           "diffs " + "/".join(f"{d:.4f}" for d in diffs)
           + f", {elapsed:.0f} s")


def test_c4_high_reliability_operating_point():
    p4 = P.with_replicas(4)
    lam = mcsim.nominal_lambda(0.01, p4)
    r = mcsim.run_trial(mcsim.rng_for(43, 0), lam, 1e5 / lam, p4,
                        "sc", cr=0.5, max_retries=0)
    success = 1.0 - r.outage
    report(4, "N=4, cr=0.5 at load 0.01 reaches 99.9% first-attempt success",
           success >= 0.999, f"success={success:.6f}, offered={r.offered}")


def test_c5_lifetime_advantage_at_low_load():
    base = itf.build_base_cdf(P)
    ratios = []
    for load in (0.02, 0.05, 0.1):
        lam = mcsim.nominal_lambda(load, P)
        res = itf.solve_offered_load(lam, P, "mrc", base=base)
        delay = kpi.expected_delay(res.po, P)
        gf = kpi.grant_free_kpis(lam, res.po, delay, P, E).battery_lifetime
        gr = kpi.granted_kpis(lam, P, E).battery_lifetime
        ratios.append(gf / gr)
    report(5, "grant-free lifetime at least 1.5x the granted baseline "
              "up to load 0.1",
           min(ratios) >= 1.5,
           "ratios " + "/".join(f"{r:.2f}" for r in ratios))


def test_c6_energy_efficiency_crossover(tmp_path):
    cfg = ExperimentConfig(figures=("ee",), reps=1, packets_per_point=2000,
                           kpi_replicas=(2,), out_dir=str(tmp_path))
    summary = run_experiment(cfg)
    rows = (tmp_path / "fig-ee.csv").read_text().splitlines()[1:]
    gf, gr = {}, {}
    for ln in rows:
        c = ln.split(",")
        (gf if c[3] == "grant-free" else gr)[float(c[2])] = float(c[7])
    loads = sorted(gf)
    wins = [load for load in loads if gf[load] > gr[load]]
    losses = [load for load in loads if gf[load] < gr[load]]
    cross = summary["crossover_loads"]["energy_efficiency"]["n=2"]["analytic"]
    ok = (bool(wins) and bool(losses) and min(wins) < min(losses)
          and cross is not None and cross == min(losses))
    report(6, "energy efficiency: grant-free wins at low load, granted "
              "wins past a crossover",
           ok, f"wins up to {max(wins):g}, crossover at {cross}")


def test_c7_receiver_validation_suites(tmp_path):
    t0 = time.perf_counter()
    rep = validate_receiver(ExperimentConfig(out_dir=str(tmp_path),
                                             receiver_trials=1000))
    elapsed = time.perf_counter() - t0
    # the default `gfaloha validate-receiver` report, byte for byte
    pins = (Path(__file__).parent / "data" / "default-run.sha256").read_text()
    written = (tmp_path / "receiver-validation.json").read_bytes()
    assert f"{hashlib.sha256(written).hexdigest()}  receiver-validation.json" \
        in pins.splitlines()
    two = rep["two_packet"]
    report(7, "signal chain: drift bounds, bit-exact single packet, "
              "miss < 5% and false validations < 1% on the two-packet suite",
           rep["pass"] and elapsed < 300,
           f"miss={two['miss_rate']:.3%}, false={two['false_rate']:.3%}, "
           f"bit-exact={two['bit_exact_rate']:.1%} (not gated), "
           f"q_max={rep['drift']['q_max_symbols']} sym, {elapsed:.0f} s")


def test_c9_pure_aloha_degenerate_limit():
    p9 = replace(SystemParams(), N=1, M=1, Fm=0.0, St=db2lin(6.0)).validate()
    loads = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0)
    succ, thr = [], []
    for li, load in enumerate(loads):
        lam = mcsim.nominal_lambda(load, p9)
        horizon = 1e5 / lam
        r = mcsim.run_trial(mcsim.rng_for(44, li), lam, horizon, p9,
                            "none", max_retries=0)
        span = horizon - 4 * p9.M * p9.Tp   # the measured window
        succ.append(1.0 - r.outage)
        thr.append(r.delivered / span * p9.Tp)
    mono = all(a > b for a, b in zip(succ, succ[1:]))
    peak = loads[int(np.argmax(thr))]
    shape = max(abs(s - np.exp(-2.0 * g)) for s, g in zip(succ, loads))
    report(9, "N=1, M=1, Fm=0, no combining reproduces the pure-ALOHA curve",
           mono and peak == 0.5 and shape < 0.015,
           f"peak at load {peak}, max |success - exp(-2g)| = {shape:.4f}")
