"""Differential test: run_granted_baseline against its per-period loop.

The reference walks every RA period of the horizon, idle or not, draws
each period's picks with its own call and resolves every backlog
through the slot-count test. The module under test reads all picks
from one stream drawn in chunks, settles runs of lone reports in bulk
and counts attempts from periods; it must return the same result and
leave the generator in the same state.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfaloha import kpi as kpi_mod
from gfaloha import mcsim
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
        expected_delay=mean_delay,
        battery_lifetime=e.E0 * e.Tr / e_report,
        energy_efficiency=(p.D - p.Doh) / e_report,
        spectral_efficiency=kpi_mod.spectral_efficiency(lambda_agg, p, 0.0),
    )
    return GrantedTrialResult(offered, delivered, mean_att, kpis)


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


def _same(seed, lam, horizon, opportunities=10, period=2.0):
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    res = run_granted_baseline(rng_a, lam, horizon, P, E,
                               opportunities=opportunities, period=period)
    ref = _ref_granted(rng_b, lam, horizon, P, E, opportunities, period)
    assert repr(res) == repr(ref)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return res


@pytest.fixture
def arrivals_in(monkeypatch):
    """Replace the arrival draw of both sides by `count` uniform times in
    [lo, hi), drawn from the run's generator."""
    def use(lo, hi, count):
        def draw(rng, lambda_agg, horizon):
            return np.sort(rng.uniform(lo, hi, size=count))
        monkeypatch.setattr(mcsim, "generate_arrivals", draw)
        monkeypatch.setattr(sys.modules[__name__], "generate_arrivals", draw)
    return use


def test_no_arrivals():
    res = _same(1, 0.0, 61.3)
    assert res.offered == 0 and res.delivered == 0


def test_arrivals_only_after_last_full_period(arrivals_in):
    # horizon 21 s holds ten full 2-s periods; nobody reaches an RA instant
    arrivals_in(20.0, 21.0, 3)
    res = _same(2, 1.0, 21.0)
    assert res.delivered == 0


def test_backlog_pending_at_horizon(arrivals_in):
    # twelve reports on two opportunities in the fourth-last period
    arrivals_in(32.0, 34.0, 12)
    res = _same(3, 1.0, 40.0, opportunities=2)
    assert res.offered == 12
    assert res.delivered < res.offered


def test_burst_opens_a_bincount_backlog(arrivals_in):
    # more fresh reports than the plain-Python path takes, into an empty
    # backlog, with enough opportunities that some win at once
    arrivals_in(10.0, 12.0, 3 * mcsim._SMALL_BACKLOG)
    res = _same(7, 1.0, 40.0, opportunities=64)
    assert res.delivered == res.offered and res.mean_attempts > 1.0


def test_deep_backlog():
    res = _same(4, 5 / 2.0, 400.0, opportunities=1)
    assert res.delivered < res.offered / 10


@pytest.mark.parametrize("chunk", [1, 5, 7])
@pytest.mark.parametrize("per_period", [0.8, 3.0, 40.0])
def test_chunk_refill_inside_a_period(monkeypatch, chunk, per_period):
    # chunks smaller than one period's backlog make refills land inside
    # periods, on the plain-Python and the bincount path alike
    monkeypatch.setattr(mcsim, "_PICK_CHUNK", chunk)
    _same(5, per_period / 2.0, 61.3)


class _CountingRng:
    """Generator proxy that counts the RA picks drawn through it."""

    def __init__(self, rng):
        self.rng, self.picks = rng, 0

    def integers(self, low, high, size=None):
        self.picks += 1 if size is None else size
        return self.rng.integers(low, high, size=size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("per_period", [0.8, 40.0])
def test_draw_ends_on_chunk_boundary(monkeypatch, per_period):
    counting = _CountingRng(np.random.default_rng(6))
    _ref_granted(counting, per_period / 2.0, 61.3, P, E, 10, 2.0)
    assert counting.picks > 0
    # one chunk that the run uses up exactly, then one pick more and less
    for chunk in (counting.picks, counting.picks + 1, counting.picks - 1):
        monkeypatch.setattr(mcsim, "_PICK_CHUNK", chunk)
        _same(6, per_period / 2.0, 61.3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1), st.sampled_from([1, 2, 3, 10, 64, 1000]),
       st.lists(st.one_of(st.none(), st.integers(0, 40)), max_size=30))
def test_split_pick_draws_equal_one_draw(seed, m, sizes):
    # the pick stream rests on this numpy property: any split of
    # integers(0, m) draws, scalar draws (None) included, gives the values
    # and the final state of one draw of the total
    split = np.random.default_rng(seed)
    bulk = np.random.default_rng(seed)
    parts = [np.atleast_1d(split.integers(0, m, size=k)) for k in sizes]
    values = np.concatenate(parts) if parts else np.empty(0, np.int64)
    assert values.tolist() == bulk.integers(0, m, size=values.size).tolist()
    assert split.bit_generator.state == bulk.bit_generator.state
