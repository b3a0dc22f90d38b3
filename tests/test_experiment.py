"""Sweep orchestration: config handling, CSV emission, reproducibility."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gfaloha import experiment as ex
from gfaloha import interference as itf
from gfaloha import kpi, mcsim
from gfaloha import sigchain as sg
from gfaloha.cli import main
from gfaloha.params import EnergyParams, InvalidParamsError, SystemParams


def tiny(tmp_path, **kw):
    base = dict(loads=(0.05, 0.2), reps=2, packets_per_point=800,
                seed=7, out_dir=str(tmp_path))
    base.update(kw)
    return ex.ExperimentConfig(**base)


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == ",".join(ex.CSV_HEADER)
    return [dict(zip(ex.CSV_HEADER, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(loads=(0.2, 0.1)),
    dict(loads=(0.1, 0.1)),
    dict(loads=(-0.1, 0.2)),
    dict(reps=0),
    dict(packets_per_point=0),
    dict(receiver_trials=0),
    dict(workers=0),
    dict(max_retries=-1),
    dict(seed=-1),
    dict(figures=("ee", "histogram")),
    dict(kpi_policy="best"),
    dict(kpi_replicas=()),
    dict(cr_grid=(0.5, 0.0)),
    dict(cr_grid=(1.5,)),
    # cells and figures are keyed by value, so a repeated entry would pool
    # two cells or write a figure's rows twice
    dict(kpi_replicas=(2, 2)),
    dict(reliability_replicas=(1, 2, 1)),
    dict(cr_grid=(0.5, 0.5)),
    dict(figures=("se", "se")),
    # counts, the seed and replica numbers are integers, and not bools
    dict(reps=1.5),
    dict(reps=True),
    dict(packets_per_point=800.0),
    dict(max_retries=2.5),
    dict(seed=7.0),
    dict(receiver_trials=True),
    dict(workers=1.0),
    dict(kpi_replicas=(2.5,)),
    dict(reliability_replicas=(2, True)),
    # and at least one
    dict(kpi_replicas=(0,)),
    dict(reliability_replicas=(1, -1)),
    # loads and cr values are finite numbers
    dict(loads=("0.1",)),
    dict(loads=(float("nan"),)),
    dict(loads=(0.1, float("inf"))),
    dict(cr_grid=(None,)),
    dict(cr_grid=(True,)),
    # and so are the parameters of the system and energy sections
    dict(system=SystemParams(W="200")),
    dict(system=SystemParams(Tack=float("nan"))),
    dict(energy=EnergyParams(Tr=float("inf"))),
    # figures name figures and out_dir names a directory: both are strings
    dict(figures=(["ee"],)),
    dict(out_dir=5),
    dict(out_dir=None),
])
def test_config_rejects(tmp_path, kw):
    cfg = tiny(tmp_path / "out", **kw)
    with pytest.raises(InvalidParamsError):
        cfg.validate()
    # refused before the run writes anything, its output directory too
    with pytest.raises(InvalidParamsError):
        ex.run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_config_accepts_numpy_integers(tmp_path):
    tiny(tmp_path, reps=np.int64(2), seed=np.uint32(7),
         kpi_replicas=(np.int32(2),)).validate()


@pytest.mark.parametrize("key,val", [("loads", 0.05), ("kpi_replicas", 2),
                                     ("figures", "ee")])
def test_from_file_rejects_scalar_for_list(tmp_path, key, val):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": {key: val}}))
    with pytest.raises(InvalidParamsError, match=f"{key} must be a list"):
        ex.ExperimentConfig.from_file(path)


def test_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "system": {"M": 8},
        "experiment": {"loads": [0.1, 0.3], "figures": ["ee"], "reps": 1},
    }))
    cfg = ex.ExperimentConfig.from_file(path)
    assert cfg.system.M == 8
    assert cfg.loads == (0.1, 0.3)
    assert cfg.figures == ("ee",)
    assert cfg.reps == 1

    # oracle_samples sized a Monte Carlo base law the program no longer
    # draws; mixture and paper_literal chose count and base laws it no
    # longer carries; the divergence flag's load cutoff and tolerance
    # are module constants
    for key, val in (("repetitions", 3), ("oracle_samples", 3),
                     ("mixture", "poisson"), ("paper_literal", False),
                     ("low_load_cutoff", 0.2), ("divergence_tol", 0.03)):
        path.write_text(json.dumps({"experiment": {key: val}}))
        with pytest.raises(InvalidParamsError, match="unknown experiment"):
            ex.ExperimentConfig.from_file(path)


# ---------------------------------------------------------------------------
# Sweep output
# ---------------------------------------------------------------------------

def test_run_experiment_files_and_rows(tmp_path):
    cfg = tiny(tmp_path)
    summary = ex.run_experiment(cfg)

    for fig in ex.FIGURES:
        assert (tmp_path / f"fig-{fig}.csv").exists()
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    assert summary["config"]["loads"] == [0.05, 0.2]
    assert set(summary["files"]) == set(ex.FIGURES)

    rel = read_rows(tmp_path / "fig-reliability.csv")
    assert len(rel) == 2 * 3 * 2     # loads x replica counts x cr grid
    assert all(r["scheme"] == "grant-free" and r["policy"] == "sc"
               and r["analytic"] == "" and r["empirical"] != ""
               for r in rel)

    ee = read_rows(tmp_path / "fig-ee.csv")
    assert len(ee) == 2 * 2          # (grant-free n=2 + granted) per load
    gf = [r for r in ee if r["scheme"] == "grant-free"]
    gr = [r for r in ee if r["scheme"] == "granted"]
    assert len(gf) == len(gr) == 2
    assert all(r["policy"] == "mrc" and float(r["analytic"]) > 0 for r in gf)
    assert all(r["policy"] == "granted" and r["analytic"] != "" for r in gr)

    cross = summary["crossover_loads"]
    assert set(cross) == {"energy_efficiency", "battery_lifetime",
                          "expected_delay", "spectral_efficiency"}
    assert set(cross["energy_efficiency"]) == {"n=2"}
    assert set(cross["energy_efficiency"]["n=2"]) == {"analytic", "empirical"}


@pytest.mark.parametrize("policy", ["none", "sc"])
def test_run_experiment_kpi_policy(tmp_path, policy):
    # "none" is one receiver in both columns: the analytic cells are the
    # no-combining fixed point; sc has no closed form, so none at all
    cfg = tiny(tmp_path, figures=("ee", "lifetime"), kpi_policy=policy, reps=1)
    ex.run_experiment(cfg)
    base = itf.build_base_cdf(cfg.system)
    for fig, kpi_name in (("ee", "energy_efficiency"),
                          ("lifetime", "battery_lifetime")):
        gf = [r for r in read_rows(tmp_path / f"fig-{fig}.csv")
              if r["scheme"] == "grant-free"]
        assert len(gf) == 2
        for r in gf:
            assert r["policy"] == policy and r["empirical"] != ""
            if policy == "sc":
                assert r["analytic"] == r["status"] == ""
                continue
            pn = cfg.system.with_replicas(int(r["n_replicas"]))
            lam = mcsim.nominal_lambda(float(r["load"]), pn)
            res = itf.solve_offered_load(lam, pn, "none", base=base)
            want = kpi.grant_free_kpis(lam, res.po,
                                       kpi.expected_delay(res.po, pn), pn,
                                       cfg.energy)
            assert r["analytic"] == ex._fmt(getattr(want, kpi_name))
            assert r["status"] == res.status


def test_analytic_base_law_on_each_replica_grid(tmp_path):
    # the area grid spans N*W*Tp: an N=4 row read on the system's N=2 grid
    # would fold every aggregate area past 2*W*Tp into one bin
    cfg = tiny(tmp_path, figures=("ee",), kpi_replicas=(1, 4), loads=(0.35,),
               reps=1, packets_per_point=200)
    ex.run_experiment(cfg)
    gf = [r for r in read_rows(tmp_path / "fig-ee.csv")
          if r["scheme"] == "grant-free"]
    assert [r["n_replicas"] for r in gf] == ["1", "4"]
    for r in gf:
        pn = cfg.system.with_replicas(int(r["n_replicas"]))
        lam = mcsim.nominal_lambda(0.35, pn)
        res = itf.solve_offered_load(lam, pn, "mrc", base=itf.build_base_cdf(pn))
        want = kpi.grant_free_kpis(lam, res.po, kpi.expected_delay(res.po, pn),
                                   pn, cfg.energy)
        assert r["analytic"] == ex._fmt(want.energy_efficiency)


def test_run_experiment_reproducible(tmp_path):
    # byte-identical figures and summary on a rerun and for any worker count
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    ex.run_experiment(tiny(a))
    ex.run_experiment(tiny(b))
    ex.run_experiment(tiny(c, workers=2))
    for name in [f"fig-{fig}.csv" for fig in ex.FIGURES] + ["summary.json"]:
        ref = (a / name).read_bytes()
        assert (b / name).read_bytes() == ref
        assert (c / name).read_bytes() == ref


def test_reliability_rows_share_one_draw_per_cell(tmp_path):
    # Each (load, N, rep) is one traffic draw decoded at every threshold,
    # on the substream (1, load index, N index, 0, rep): a threshold's
    # row is the same line whatever the grid holds and wherever it sits,
    # and the lower threshold never decodes less.
    def run(name, **kw):
        ex.run_experiment(tiny(tmp_path / name, figures=("reliability",),
                               loads=(0.2, 0.5), reliability_replicas=(1, 2),
                               packets_per_point=400, **kw))
        return (tmp_path / name / "fig-reliability.csv").read_text()

    def rows(text):
        header, *lines = text.splitlines()
        assert header == ",".join(ex.CSV_HEADER)
        return {tuple(ln.split(",")[i] for i in (2, 5, 6)): ln for ln in lines}

    both = rows(run("both", cr_grid=(1.0, 0.5)))
    assert list(both) == [(load, n, cr) for load in ("0.2", "0.5")
                          for n in ("1", "2") for cr in ("1", "0.5")]
    for name, grid in (("swapped", (0.5, 1.0)), ("one", (1.0,)),
                       ("half", (0.5,))):
        assert rows(run(name, cr_grid=grid)) == {
            key: ln for key, ln in both.items() if float(key[2]) in grid}
    success = {key: float(ln.split(",")[8]) for key, ln in both.items()}
    for load, n, cr in both:
        assert success[load, n, "0.5"] >= success[load, n, "1"]

    p = SystemParams()
    for (load, n, cr), ln in both.items():
        li, ni = ("0.2", "0.5").index(load), ("1", "2").index(n)
        pn = p.with_replicas(int(n))
        lam = mcsim.nominal_lambda(float(load), pn)
        outage = [mcsim.run_trial(mcsim.rng_for(7, 1, li, ni, 0, rep), lam,
                                  400 / lam, pn, "sc", cr=float(cr),
                                  max_retries=0).outage
                  for rep in range(2)]
        assert ln.split(",")[8] == ex._fmt(
            ex._mean_ci([1.0 - o for o in outage])[0])

    assert run("w2", cr_grid=(1.0, 0.5), workers=2) == \
        (tmp_path / "both" / "fig-reliability.csv").read_text()
    assert run("none", cr_grid=()) == ",".join(ex.CSV_HEADER) + "\n"


def test_simulated_kpi_cells_are_scored_from_their_measurements(tmp_path):
    # each cell returns what it measured; the row scores it through the
    # kpi formulas: grant-free cells at their outage and mean delay on
    # substream (0, load index, N index, rep), granted cells at their RA
    # attempts and mean delay on substream (2, load index, rep)
    kpi_figs = ("ee", "lifetime", "delay", "se")
    cfg = tiny(tmp_path, figures=kpi_figs, kpi_policy="mrc")
    ex.run_experiment(cfg)
    p0, e = cfg.system, cfg.energy
    pn = p0.with_replicas(2)

    def horizon(lam, p):
        return max(cfg.packets_per_point / lam, 10 * p.M * p.Tp)

    want = {}
    for li, load in enumerate(cfg.loads):
        lam = mcsim.nominal_lambda(load, pn)
        want["grant-free", load] = [kpi.grant_free_kpis(
            lam, c.outage, c.delay, pn, e) for c in (
                mcsim.run_trial(mcsim.rng_for(cfg.seed, 0, li, 0, rep), lam,
                                horizon(lam, pn), pn, "mrc",
                                cr=p0.St / p0.gamma,
                                max_retries=cfg.max_retries)
                for rep in range(cfg.reps))]
        lam = mcsim.nominal_lambda(load, p0)
        want["granted", load] = [kpi.granted_path_kpis(
            lam, c.mean_attempts, c.delay, p0, e) for c in (
                mcsim.run_granted_baseline(mcsim.rng_for(cfg.seed, 2, li, rep),
                                           lam, horizon(lam, p0), p0, e)
                for rep in range(cfg.reps))]
    for fig in kpi_figs:
        name = ex._FIG_KPI[fig][0]
        rows = read_rows(tmp_path / f"fig-{fig}.csv")
        assert len(rows) == len(want)
        for r in rows:
            emp, ci = ex._mean_ci([getattr(k, name)
                                   for k in want[r["scheme"], float(r["load"])]])
            assert (r["empirical"], r["empirical_ci"]) == (ex._fmt(emp),
                                                           ex._fmt(ci))


def test_summary_names_no_directory(tmp_path):
    # the same config run into two directories writes the same summary
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        ex.run_experiment(tiny(out, figures=("ee",), loads=(0.05,), reps=1))
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    summary = json.loads((a / "summary.json").read_text())
    assert summary["files"] == {"ee": "fig-ee.csv"}
    assert "out_dir" not in summary["config"]
    assert "workers" not in summary["config"]


@pytest.mark.parametrize("kw", [dict(figures=("reliability",)),
                                dict(figures=("ee", "delay"), kpi_policy="sc")])
def test_base_law_built_only_for_the_analytic_solve(tmp_path, monkeypatch, kw):
    # only the analytic KPI solve reads the base law; a run without one
    # never builds it
    def refuse(*args, **kwargs):
        raise AssertionError("base law built for a run that never reads it")
    monkeypatch.setattr(ex.itf, "build_base_cdf", refuse)
    ex.run_experiment(tiny(tmp_path, loads=(0.05,), reps=1,
                           packets_per_point=200, **kw))


def test_analytic_columns_equal_across_seeds(tmp_path):
    # the analytic chain draws no random number: the seed moves the
    # empirical columns and leaves every analytic cell byte for byte
    kpi_figs = ("ee", "lifetime", "delay", "se")
    rows = {}
    for seed in (1, 2):
        ex.run_experiment(tiny(tmp_path / str(seed), figures=kpi_figs,
                               loads=(0.05, 0.5), reps=1,
                               packets_per_point=200, seed=seed))
        rows[seed] = [r for fig in kpi_figs
                      for r in read_rows(tmp_path / str(seed) / f"fig-{fig}.csv")]
    analytic = [[r["analytic"] for r in rows[seed]] for seed in (1, 2)]
    assert analytic[0] == analytic[1] and "" not in analytic[0]
    # the overload rows at load 0.5 included, every analytic cell is finite
    assert np.isfinite(np.array(analytic[0], dtype=float)).all()
    assert [r["empirical"] for r in rows[1]] != [r["empirical"] for r in rows[2]]


def test_overload_rows_are_the_ceiling_bounds(tmp_path):
    # past the sustainable load the fixed point stops at outage 1 - 1e-6;
    # the analytic cells are the finite KPIs there, not the last iterate
    cfg = tiny(tmp_path, figures=("ee", "lifetime", "delay", "se"),
               loads=(0.5,), reps=1, packets_per_point=200)
    ex.run_experiment(cfg)
    pn = cfg.system.with_replicas(2)
    lam = mcsim.nominal_lambda(0.5, pn)
    po = 1.0 - 1e-6
    want = kpi.grant_free_kpis(lam, po, kpi.expected_delay(po, pn), pn,
                               cfg.energy)
    for fig, (kpi_name, _) in ex._FIG_KPI.items():
        if fig == "reliability":
            continue
        [row] = [r for r in read_rows(tmp_path / f"fig-{fig}.csv")
                 if r["scheme"] == "grant-free"]
        assert row["status"] == "overload"
        assert np.isfinite(float(row["analytic"]))
        assert row["analytic"] == ex._fmt(getattr(want, kpi_name))


def test_granted_rows_past_the_contention_limit(tmp_path):
    # past the random-access stability limit the granted analytic row is
    # the saturated one: status unstable, no energy efficiency and an
    # unbounded delay; below the limit the row carries no status
    ex.run_experiment(tiny(tmp_path, figures=("ee", "delay"),
                           loads=(0.05, 1.0), reps=1, packets_per_point=300))
    for fig, saturated in (("ee", "0"), ("delay", "inf")):
        granted = {r["load"]: r for r in read_rows(tmp_path / f"fig-{fig}.csv")
                   if r["scheme"] == "granted"}
        assert granted["0.05"]["status"] == ""
        assert np.isfinite(float(granted["0.05"]["analytic"]))
        assert granted["1"]["status"] == "unstable"
        assert granted["1"]["analytic"] == saturated


def test_mean_ci_degenerate():
    assert ex._mean_ci([1.0]) == (1.0, 0.0)
    assert ex._mean_ci([1.0, 1.0, 1.0]) == (1.0, 0.0)
    mean, ci = ex._mean_ci([1.0, 2.0, 3.0])
    # t(0.975, 2) * s / sqrt(3) with s = 1
    assert (mean, ci) == (2.0, pytest.approx(4.302652730 / 3 ** 0.5))


def test_mean_ci_matches_scipy_stats_t():
    # the half-width reads the t quantile from scipy.special; it must keep
    # the bits scipy.stats.t.ppf gives, for every count of repetitions
    rng = np.random.default_rng(3)
    for df in range(1, 201):
        vals = rng.normal(size=df + 1)
        half = (stats.t.ppf(0.975, df) * vals.std(ddof=1)
                / np.sqrt(df + 1))
        assert ex._mean_ci(list(vals)) == (float(vals.mean()), float(half))


def test_run_experiment_empty_grid(tmp_path):
    summary = ex.run_experiment(tiny(tmp_path, loads=()))
    for fig in ex.FIGURES:
        assert read_rows(tmp_path / f"fig-{fig}.csv") == []
    for per_n in summary["crossover_loads"].values():
        assert per_n["n=2"] == {"analytic": None, "empirical": None}


def test_run_experiment_figure_subset(tmp_path):
    ex.run_experiment(tiny(tmp_path, figures=("delay",)))
    assert (tmp_path / "fig-delay.csv").exists()
    assert not (tmp_path / "fig-ee.csv").exists()
    assert not (tmp_path / "fig-reliability.csv").exists()


def test_divergence_flag(tmp_path, monkeypatch):
    # a zero tolerance trips the flag on every low-load grant-free row
    monkeypatch.setattr(ex, "_DIVERGENCE_TOL", 0.0)
    ex.run_experiment(tiny(tmp_path, figures=("ee",)))
    rows = read_rows(tmp_path / "fig-ee.csv")
    gf = [r for r in rows if r["scheme"] == "grant-free"]
    assert all(r["divergence"] == "divergent" for r in gf)
    assert all(r["divergence"] == "" for r in rows if r["scheme"] == "granted")


# ---------------------------------------------------------------------------
# Receiver validation harness
# ---------------------------------------------------------------------------

def test_validate_receiver_report(tmp_path):
    cfg = tiny(tmp_path, receiver_trials=25, seed=1234)
    report = ex.validate_receiver(cfg)
    assert set(report) == {"drift", "single_noise_free", "single_snr",
                           "two_packet", "decisions_sha256", "pass"}
    # deterministic sub-checks must hold at any trial count
    assert report["drift"]["pass"]
    assert report["drift"]["q_zero_symbols"] == 0
    assert report["drift"]["q_max_symbols"] <= report["drift"]["bound_symbols"]
    assert report["single_noise_free"]["pass"]
    assert report["two_packet"]["trials"] == 25
    on_disk = json.loads((tmp_path / "receiver-validation.json").read_text())
    assert on_disk == report


def test_validate_receiver_builds_one_drift_table(tmp_path, monkeypatch):
    calls = []
    build = sg.build_drift_table
    monkeypatch.setattr(sg, "build_drift_table",
                        lambda p: calls.append(p) or build(p))
    ex.validate_receiver(tiny(tmp_path, receiver_trials=2))
    assert len(calls) == 1


def faulty_decoder(monkeypatch):
    """Patch sg.decode_stream so the single suite's first stream loses its
    packet and its second decodes one bit wrong; stream 1 of a report is
    the noise-free packet, streams 2 .. trials + 1 the single suite's."""
    decode, calls = sg.decode_stream, []

    def decode_stream(x, dt, power_threshold):
        got = decode(x, dt, power_threshold)
        calls.append(None)
        if len(calls) == 2:
            return []
        if len(calls) == 3:
            pos, cfo, bits = got[0]
            bits = bits.copy()
            bits[0] ^= 1
            return [(pos, cfo, bits), *got[1:]]
        return got
    monkeypatch.setattr(sg, "decode_stream", decode_stream)


def test_validate_receiver_counts_single_suite_failures(tmp_path, monkeypatch,
                                                       capsys):
    faulty_decoder(monkeypatch)
    report = ex.validate_receiver(tiny(tmp_path, receiver_trials=4))
    single = report["single_snr"]
    assert (single["missed"], single["bit_error_trials"]) == (1, 1)
    assert report["single_noise_free"]["pass"]
    assert not single["pass"] and not report["pass"]

    faulty_decoder(monkeypatch)
    assert main(["validate-receiver", "--trials", "4",
                 "--out", str(tmp_path / "cli")]) == 1
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("single_snr "))
    assert "FAIL" in line and "'missed': 1, 'bit_error_trials': 1" in line


def test_validate_receiver_at_shorter_packets(tmp_path):
    # at Fs = 2000 a packet is 1000 samples; the suites place packets at
    # offsets scaled to the packet, so each lies whole inside its stream
    # (the two-packet rates are calibrated at the defaults, so ungated)
    cfg = tiny(tmp_path, system=SystemParams(Fs=2000.0), receiver_trials=25)
    report = ex.validate_receiver(cfg)
    assert (tmp_path / "receiver-validation.json").exists()
    assert report["drift"]["pass"]
    assert report["single_noise_free"]["pass"]
    assert report["single_snr"]["pass"]


def test_receiver_decisions_digest(tmp_path):
    # equal counts can hide different decisions; the digest cannot
    digest = {}
    for name, seed in (("a", 7), ("b", 201), ("c", 7)):
        cfg = tiny(tmp_path / name, receiver_trials=60, seed=seed)
        digest[name] = ex.validate_receiver(cfg)["decisions_sha256"]
    assert digest["a"] == digest["c"]
    assert digest["a"] != digest["b"]


@pytest.mark.parametrize("seed, digest, decisions", [
    (1, "855e6b6f7db82f0a636ef4300dd515afefb42d6024fb17fbb73a9d3076066b57",
     "0abe92539ab9b75b80f0f7584882dfab958180dd3c16a7967a32b8b518e448b5"),
    (97, "916027070626c1479f1263326a58be1c7594943f4cd2f3a820d329b03ca12627",
     "072ff0936c9b0b842913785ffaae0a3bf79b7246c3f9d2744bfdcd68e3c17d1a"),
], ids=["seed1", "seed97"])
def test_receiver_report_pinned(tmp_path, seed, digest, decisions):
    # a 60-trial report, byte for byte; the default 1000-trial report is
    # pinned by tests/data/default-run.sha256. The decisions digest is
    # pinned on its own, so a re-pin for a new report key shows that no
    # decoded position, CFO or bit moved.
    report = ex.validate_receiver(ex.ExperimentConfig(
        receiver_trials=60, seed=seed, out_dir=str(tmp_path)))
    assert report["decisions_sha256"] == decisions
    data = (tmp_path / "receiver-validation.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
