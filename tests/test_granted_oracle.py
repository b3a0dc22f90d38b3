"""Differential test: run_granted_baseline against its per-period loop.

The reference walks every RA period of the horizon, idle or not, and
resolves every backlog through the slot-count test. The module under
test skips idle periods and settles a lone report directly; it must
return the same result and leave the generator in the same state.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from gfaloha import kpi as kpi_mod
from gfaloha.mcsim import GrantedTrialResult, run_granted_baseline
from gfaloha.params import EnergyParams, SystemParams
from gfaloha.traffic import generate_arrivals

P = SystemParams()
E = EnergyParams()


def _ref_granted(rng, lambda_agg, horizon, p, e, opportunities, period):
    arrivals = generate_arrivals(rng, lambda_agg, horizon)
    n = arrivals.size
    margin = 2.0 * p.M * p.Tp
    measured = (arrivals >= margin) & (arrivals < horizon - margin)
    first_period = np.floor(arrivals / period).astype(np.int64)
    n_periods = int(math.floor(horizon / period))
    attempts = np.zeros(n, dtype=np.int64)
    done_period = np.full(n, -1, dtype=np.int64)
    order = np.argsort(first_period, kind="stable")
    bounds = np.searchsorted(first_period[order], np.arange(n_periods + 1))
    backlog = np.empty(0, dtype=np.int64)
    for t in range(n_periods):
        fresh = order[bounds[t]:bounds[t + 1]]
        if fresh.size:
            backlog = np.concatenate([backlog, fresh])
        if backlog.size == 0:
            continue
        picks = rng.integers(0, opportunities, size=backlog.size)
        slot_counts = np.bincount(picks, minlength=opportunities)
        won = slot_counts[picks] == 1
        attempts[backlog] += 1
        done_period[backlog[won]] = t
        backlog = backlog[~won]
    got = measured & (done_period >= 0)
    delivered = int(got.sum())
    offered = int(measured.sum())
    delay = ((done_period[got] + 1) * period - arrivals[got]
             + e.Dsynch + p.Tp)
    mean_delay = float(delay.mean()) if delivered else math.inf
    mean_att = float(attempts[got].mean()) if delivered else math.inf
    e_report = kpi_mod.granted_report_energy(p, e, mean_att)
    kpis = kpi_mod.KpiReport(
        outage=1.0 - delivered / offered if offered else 0.0,
        expected_delay=mean_delay,
        battery_lifetime=e.E0 * e.Tr / e_report,
        energy_efficiency=(p.D - p.Doh) / e_report,
        spectral_efficiency=kpi_mod.spectral_efficiency(lambda_agg, p),
        throughput=delivered / (horizon - 2 * margin),
        avg_tx_power=kpi_mod.avg_transmit_power(p, e),
    )
    return GrantedTrialResult(lambda_agg, offered, delivered, kpis.outage,
                              mean_delay, mean_att, kpis)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 5.0), st.sampled_from([1, 2, 10]),
       st.sampled_from([2.0, 0.7]), st.sampled_from([20.0, 61.3, 400.0]),
       st.integers(0, 2**32 - 1))
def test_granted_matches_reference(load_per_period, opportunities, period,
                                   horizon, seed):
    lam = load_per_period / period
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    res = run_granted_baseline(rng_a, lam, horizon, P, E,
                               opportunities=opportunities, period=period)
    ref = _ref_granted(rng_b, lam, horizon, P, E, opportunities, period)
    # repr spells every float out exactly and keeps inf comparable
    assert repr(res) == repr(ref)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
