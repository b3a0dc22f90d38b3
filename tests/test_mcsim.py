"""Collision graph, SIC rounds and the trial loop."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfaloha.kpi import energy_efficiency
from gfaloha.mcsim import (build_collision_graph, nominal_lambda, rng_for,
                           run_granted_baseline, run_trial, sic_decode)
from gfaloha.interference import offered_load_of, overlap_area
from gfaloha.params import EnergyParams, InvalidParamsError, SystemParams

P = SystemParams()
E = EnergyParams()


def graph_of(t0, df, pkt, horizon=None):
    return build_collision_graph(
        (np.asarray(t0, float), np.asarray(df, float),
         np.asarray(pkt, np.int64)), P, horizon)


# ---------------------------------------------------------------------------
# Collision graph
# ---------------------------------------------------------------------------

def edges(g):
    return g.ea.tolist(), g.eb.tolist()


def test_pairwise_overlap_area():
    g = graph_of([0.0, 0.2], [0.0, 50.0], [0, 1])
    assert edges(g) == ([0], [1])
    assert g.area[0] == pytest.approx(0.3 * 150.0)
    assert g.dt[0] == pytest.approx(0.2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.sampled_from([None, 12.0, 40.0]), st.sampled_from([50.0, 100.0, 300.0]))
def test_graph_edges_carry_the_shared_overlap_area(seed, n, horizon, fm):
    # the simulator's edge areas are the analytic chain's rectangle
    # overlap, bit for bit
    p = replace(P, Fm=fm)
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.0, 12.0, n)
    t0[rng.random(n) < 0.2] = 3.0        # exact ties in start time
    df = rng.uniform(-fm, fm, n)
    g = build_collision_graph((t0, df, rng.integers(0, n, n)), p, horizon)
    want = overlap_area(g.dt, g.df[g.ea] - g.df[g.eb], p)
    assert np.array_equal(g.area, want)
    assert np.all(g.area > 0.0)


def test_no_edge_outside_vulnerable_zone():
    assert edges(graph_of([0.0, 0.6], [0.0, 0.0], [0, 1])) == ([], [])
    assert edges(graph_of([0.0, 0.1], [0.0, 250.0], [0, 1])) == ([], [])


def test_same_packet_replicas_never_collide():
    # same-attempt replicas sit in distinct slots; a forced overlap is
    # still ignored by construction
    assert edges(graph_of([0.0, 0.1], [0.0, 0.0], [3, 3])) == ([], [])


def test_circular_wraparound():
    g = graph_of([0.1, 9.8], [0.0, 0.0], [0, 1], horizon=10.0)
    assert edges(g) == ([0], [1])
    assert g.area[0] == pytest.approx(0.2 * 200.0)
    # linear sweep over the same population misses the wrapped pair
    assert edges(graph_of([0.1, 9.8], [0.0, 0.0], [0, 1])) == ([], [])
    with pytest.raises(InvalidParamsError):
        graph_of([0.1], [0.0], [0], horizon=3.0)


# ---------------------------------------------------------------------------
# SIC
# ---------------------------------------------------------------------------

def test_sic_cascade():
    # packet 0 has a clean second replica; cancelling it frees packet 1
    strict = replace(P, St=P.gamma)
    g = build_collision_graph(
        (np.array([0.6, 2.0, 0.9]), np.zeros(3), np.array([0, 0, 1])), strict)
    out = sic_decode(g, strict, policy="none")
    assert out.rounds >= 2
    assert out.decoded.tolist() == [True, True]


def test_sic_deadlock():
    strict = replace(P, St=P.gamma)
    g = build_collision_graph(
        (np.array([0.0, 0.0]), np.zeros(2), np.array([0, 1])), strict)
    out = sic_decode(g, strict, policy="none")
    assert not out.decoded.any()
    assert out.residual_replicas == 2


def test_mrc_beats_no_combining():
    # both replicas fail alone (SINR 1.2) but their sum clears St
    dt = 0.5 * (1.0 - (1.0 / 1.2 - 1.0 / P.gamma))
    t0 = np.array([10.0, 20.0, 10.0 + dt, 20.0 + dt])
    pkt = np.array([0, 0, 1, 2])
    decodable = np.array([True, False, False])
    g = build_collision_graph((t0, np.zeros(4), pkt), P)
    assert not sic_decode(g, P, "none", decodable=decodable).decoded[0]
    assert sic_decode(g, P, "mrc", decodable=decodable).decoded[0]


def test_sc_clean_fraction_union():
    # complementary dirty stretches: 90% of the packet is clean somewhere
    t0 = np.array([10.0, 20.0, 9.8, 20.25])
    pkt = np.array([0, 0, 1, 2])
    decodable = np.array([True, False, False])
    g = build_collision_graph((t0, np.zeros(4), pkt), P)
    assert sic_decode(g, P, "sc", cr=0.9, decodable=decodable).decoded[0]
    assert not sic_decode(g, P, "sc", cr=0.95, decodable=decodable).decoded[0]


def test_sc_single_replica_fraction():
    t0 = np.array([10.0, 9.8])
    g = build_collision_graph((t0, np.zeros(2), np.array([0, 1])), P)
    decodable = np.array([True, False])
    assert sic_decode(g, P, "sc", cr=0.4, decodable=decodable).decoded[0]
    assert not sic_decode(g, P, "sc", cr=0.5, decodable=decodable).decoded[0]


def test_sic_rejects_bad_arguments():
    g = graph_of([0.0], [0.0], [0])
    with pytest.raises(ValueError):
        sic_decode(g, P, policy="zf")
    with pytest.raises(InvalidParamsError):
        sic_decode(g, P, policy="sc", cr=0.0)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def test_nominal_lambda_axis_roundtrip():
    lam = nominal_lambda(0.1, P)
    assert lam == pytest.approx(0.2)
    # first-attempt replica rate maps back to the same axis value
    assert offered_load_of(P.N * lam, P) == pytest.approx(0.1)


def test_run_trial_smoke_and_determinism():
    lam = nominal_lambda(0.1, P)
    kw = dict(lambda_agg=lam, horizon=3000 / lam, p=P, e=E, policy="mrc")
    r1 = run_trial(rng_for(7, 0), **kw)
    r2 = run_trial(rng_for(7, 0), **kw)
    assert (r1.offered, r1.delivered, r1.outage) == \
           (r2.offered, r2.delivered, r2.outage)
    assert 0.0 <= r1.outage <= 1.0
    assert r1.delivered <= r1.offered
    # a delivered report made one successful attempt, the rest failed
    assert r1.outage == (r1.attempts - r1.delivered) / r1.attempts
    assert r1.attempts / r1.offered >= 1.0
    span = kw["horizon"] - 4 * P.M * P.Tp    # the measured window
    assert 0.05 < offered_load_of(r1.attempts * P.N / span, P) < 0.2
    assert r1.kpis.energy_efficiency == energy_efficiency(r1.outage, P, E)
    assert r1.kpis.expected_delay >= P.M * P.Tp


def test_run_trial_retries_reduce_loss():
    lam = nominal_lambda(0.35, P)
    no_retry = run_trial(rng_for(8, 0), lam, 4000 / lam, P, E, "mrc",
                         max_retries=0)
    retry = run_trial(rng_for(8, 0), lam, 4000 / lam, P, E, "mrc",
                      max_retries=5)
    loss = [1.0 - r.delivered / r.offered for r in (retry, no_retry)]
    assert loss[0] < loss[1]
    assert retry.attempts / retry.offered > 1.0
    assert no_retry.attempts == no_retry.offered


def test_run_trial_horizon_guard():
    with pytest.raises(InvalidParamsError):
        run_trial(rng_for(9, 0), 1.0, 8 * P.M * P.Tp, P, E)


def test_run_trial_trace(tmp_path):
    lam = nominal_lambda(0.1, P)
    path = tmp_path / "trace.jsonl"
    r = run_trial(rng_for(10, 0), lam, 1500 / lam, P, E, trace_path=path)
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert len(lines) == r.offered
    assert "report" in lines[0]
    assert sum(ln["attempts"] for ln in lines) == r.attempts
    got = [ln for ln in lines if ln["delivered"]]
    assert len(got) == r.delivered
    assert all(ln["delay"] is None for ln in lines if not ln["delivered"])
    for ln in got:
        assert ln["delay"] == pytest.approx(
            (ln["attempts"] - 1) * (P.M * P.Tp + P.Tack) + P.M * P.Tp,
            rel=1e-9)
    mean = sum(ln["delay"] for ln in got) / len(got)
    assert mean == pytest.approx(r.kpis.expected_delay, rel=1e-9)


def test_granted_baseline_low_load():
    r = run_granted_baseline(rng_for(11, 0), 0.05, 4000.0, P, E)
    assert r.offered > 150
    assert 1.0 - r.delivered / r.offered <= 0.02
    assert 1.0 <= r.mean_attempts < 1.3
    assert r.kpis.expected_delay >= E.Dsynch + P.Tp
    assert r.kpis.energy_efficiency > 0.0


@pytest.mark.parametrize("horizon, opportunities, period", [
    (8 * P.M * P.Tp, 10, 2.0),    # at the warm-up bound
    (4 * P.M * P.Tp, 10, 2.0),    # no measured span left
    (100.0, 10, 0.0),
    (100.0, 10, -1.0),
    (100.0, 0, 2.0),
], ids=["horizon-at-bound", "horizon-short", "period-zero", "period-negative",
        "no-opportunity"])
def test_granted_baseline_rejects_bad_input(horizon, opportunities, period):
    with pytest.raises(InvalidParamsError):
        run_granted_baseline(rng_for(12, 0), 0.5, horizon, P, E,
                             opportunities=opportunities, period=period)


def test_rng_substreams():
    a = rng_for(1, 2, 3).integers(0, 1 << 30, 4)
    b = rng_for(1, 2, 3).integers(0, 1 << 30, 4)
    c = rng_for(1, 3, 2).integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)



# ---------------------------------------------------------------------------
# Load sweep over trial cells
# ---------------------------------------------------------------------------

def test_sweep_rows_and_worker_independence(tmp_path):
    # the one sweep driver runs these cells; worker count must not matter
    from gfaloha.experiment import CSV_HEADER, ExperimentConfig, run_experiment

    def ee_rows(out, workers):
        summary = run_experiment(ExperimentConfig(
            loads=(0.05, 0.1), reps=2, packets_per_point=1200,
            figures=("ee",), seed=99,
            out_dir=str(out), workers=workers))
        assert summary["config"]["reps"] == 2
        lines = (out / "fig-ee.csv").read_text().splitlines()
        return [dict(zip(CSV_HEADER, ln.split(","))) for ln in lines[1:]]

    rows1 = ee_rows(tmp_path / "w1", 1)
    rows2 = ee_rows(tmp_path / "w2", 2)
    assert len(rows1) == 4
    assert [r["policy"] for r in rows1] == ["mrc", "granted", "mrc", "granted"]
    for r1, r2 in zip(rows1, rows2):
        assert r1["empirical"] == r2["empirical"]
        assert r1["empirical_ci"] == r2["empirical_ci"]
    for r in rows1:
        assert r["empirical"] != "" and r["empirical_ci"] != ""


@settings(max_examples=200, deadline=None)
@given(W=st.floats(1.0, 1e5), Fm=st.floats(0.0, 1e4), Tp=st.floats(1e-3, 10.0),
       N=st.integers(1, 8), load=st.floats(1e-6, 10.0))
def test_nominal_lambda_inverts_offered_load_of(W, Fm, Tp, N, load):
    # the sweep's load axis and a trial's realized load are two formulas
    p = SystemParams(W=W, Fm=Fm, Tp=Tp, N=N, M=max(N, 4))
    assert offered_load_of(p.N * nominal_lambda(load, p), p) == pytest.approx(
        load, rel=1e-12)
