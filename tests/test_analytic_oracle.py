"""Differential tests: the analytic chain against its plain reference form.

The reference below rebuilds the n-fold convolution powers of the
single-interferer law on every call, convolves the full SINR grid for
MRC, and evaluates the outage once before the fixed-point loop. The
module under test keeps one lazily grown, saturating power table per
base law and convolves only the SINR bins up to the threshold; it must
give bit-equal results wherever the fixed point converges, whether the
table is cold or already warm from other rates.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from gfaloha import interference as itf
from gfaloha.mcsim import nominal_lambda
from gfaloha.params import SystemParams

P = SystemParams()


# ---------------------------------------------------------------------------
# Reference chain
# ---------------------------------------------------------------------------

def _ref_pmf_powers(pmf, n_max):
    rows = np.zeros((n_max + 1, len(pmf)))
    rows[0, 0] = 1.0
    for n in range(1, n_max + 1):
        rows[n] = itf._convolve_pmf(rows[n - 1], pmf)
    return rows


def _ref_count(g, p, mixture, tail_tol=1e-9):
    """Highest interferer count the mixture reads at rate g."""
    mu = 2.0 * g * p.Tp
    if mixture == "poisson":
        return 0 if mu == 0.0 else int(stats.poisson.ppf(1.0 - tail_tol, mu))
    return max(int(math.ceil(mu)) - 1, 0)


def _ref_unconditional(base, g, p, mixture):
    mu = 2.0 * g * p.Tp
    p_ov = base.meta.get("overlap_prob", 1.0)
    pmf1 = base.pmf() * p_ov
    pmf1[0] += 1.0 - p_ov
    n_max = _ref_count(g, p, mixture)
    if mixture == "poisson":
        weights = stats.poisson.pmf(np.arange(n_max + 1), mu)
        mix = weights @ _ref_pmf_powers(pmf1, n_max)
    else:
        mix = _ref_pmf_powers(pmf1, n_max)[n_max]
    cdf = np.minimum(np.cumsum(mix), 1.0)
    return itf.InterferenceCdf(base.grid, cdf, {})


def _ref_outage_mrc_sinr(cdf, p, points=4096):
    if p.St > p.N * p.gamma:
        return 1.0
    wtp = p.W * p.Tp
    s_of_a = 1.0 / (cdf.grid / wtp + 1.0 / p.gamma)
    ds = p.N * p.gamma / (points - 1)
    idx = np.rint(s_of_a / ds).astype(np.int64)
    branch = np.bincount(idx, weights=cdf.pmf(), minlength=points)[:points]
    total = branch.copy()
    for _ in range(p.N - 1):
        total = itf._convolve_pmf(total, branch)
    grid = np.arange(total.size) * ds
    return float(np.interp(p.St, grid, np.minimum(np.cumsum(total), 1.0)))


class _TooLarge(Exception):
    pass


def _ref_solve(lambda_agg, p, base, mixture, damping=0.5, tol=1e-6,
               max_iter=200, po_ceiling=1.0 - 1e-6):
    """The reference fixed point; raises _TooLarge rather than build
    more than 1000 power rows (deep overload)."""
    def outage(g):
        if _ref_count(g, p, mixture) > 1000:
            raise _TooLarge
        return _ref_outage_mrc_sinr(_ref_unconditional(base, g, p, mixture), p)

    g_floor = p.N * lambda_agg
    g = g_floor
    po = outage(g)
    status = "max-iterations"
    it = 0
    for it in range(1, max_iter + 1):
        po = outage(g)
        if po >= po_ceiling:
            status = "overload"
            break
        g_next = (1.0 - damping) * g + damping * g_floor / (1.0 - po)
        if abs(g_next - g) <= tol * max(1.0, g):
            g = g_next
            status = "converged"
            break
        g = g_next
    return po, g, status, it


def _cold(base):
    """The same base law with an empty power table."""
    return itf.InterferenceCdf(base.grid, base.cdf, base.meta)


def _base(kind, p):
    return itf.build_base_cdf(p, base=kind, rng=np.random.default_rng(5),
                              samples=200_000)


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------

# Unsorted, so later solves start from a table grown by earlier ones.
LOADS = (0.2, 0.01, 0.1, 0.05)


@pytest.mark.parametrize("mixture", ["poisson", "mean-count"])
@pytest.mark.parametrize("kind", ["oracle", "paper"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_matches_reference(n, kind, mixture):
    p = P.with_replicas(n)
    base = _base(kind, p)
    converged = 0
    for load in LOADS:
        lam = nominal_lambda(load, p)
        res = itf.solve_offered_load(lam, p, "mrc", base=base, mixture=mixture)
        try:
            ref = _ref_solve(lam, p, base, mixture)
        except _TooLarge:
            assert res.status != "converged", load
            continue
        if "converged" not in (res.status, ref[2]):
            continue
        converged += 1
        assert (res.po, res.load.g, res.status, res.iterations) == ref, load
    assert converged >= 2


@pytest.mark.parametrize("mixture", ["poisson", "mean-count"])
@pytest.mark.parametrize("kind", ["oracle", "paper"])
def test_unconditional_cdf_cold_warm_and_reference(kind, mixture):
    p = P.with_replicas(3)
    base = _base(kind, p)
    # rates in unsorted order: the warm table serves both shorter and
    # longer requests than the one that grew it
    for g in (3.0, 0.2, 40.0, 1.0, 0.0, 12.5):
        warm = itf.unconditional_cdf(base, g, p, mixture=mixture)
        cold = itf.unconditional_cdf(_cold(base), g, p, mixture=mixture)
        ref = _ref_unconditional(base, g, p, mixture)
        assert np.array_equal(warm.cdf, cold.cdf), g
        assert np.array_equal(warm.cdf[:-1], ref.cdf[:-1]), g
        if _ref_count(g, p, mixture) <= base._powers.n:
            assert warm.cdf[-1] == ref.cdf[-1], g
            assert itf.outage_mrc_sinr(warm, p) == \
                _ref_outage_mrc_sinr(ref, p), g
        else:                       # read past the saturated row
            assert warm.cdf[-1] == pytest.approx(ref.cdf[-1], rel=1e-12)


def test_saturated_table_changes_only_the_top_bin():
    base = _base("oracle", P)
    g = 400.0                      # mu = 400: the table saturates first
    new = itf.unconditional_cdf(base, g, P)
    table = base._powers
    assert table.saturated and table.n < 400
    ref = _ref_unconditional(base, g, P, "poisson")
    assert np.array_equal(new.cdf[:-1], ref.cdf[:-1])
    assert new.cdf[-1] == pytest.approx(ref.cdf[-1], rel=1e-12)


# ---------------------------------------------------------------------------
# Overload: the damped iterate reaches interferer counts near 1e6
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, mixture, load", [
    (1, "poisson", 0.35),
    (3, "poisson", 1.0),
    (2, "mean-count", 1.0),
])
def test_overload_stays_bounded(n, mixture, load):
    p = P.with_replicas(n)
    base = itf.build_base_cdf(p)
    t0 = time.perf_counter()
    res = itf.solve_offered_load(nominal_lambda(load, p), p, "mrc",
                                 base=base, mixture=mixture)
    assert time.perf_counter() - t0 < 30.0
    assert res.status == "overload"
    assert 2.0 * res.load.g * p.Tp > 1e4        # far past the table
    assert base._powers.saturated
    assert base._powers.n + 1 <= itf.GRID_POINTS


# ---------------------------------------------------------------------------
# The Poisson weights without scipy.stats
# ---------------------------------------------------------------------------

def test_poisson_helpers_match_scipy_stats():
    # mu from a light load up to far past saturation, plus the interferer
    # means where the default sweep's MRC solves at loads 0.5 and 0.75
    # stop as overload (about 43.4 and 324)
    overload = [2.0 * itf.solve_offered_load(nominal_lambda(load, P), P).load.g
                * P.Tp for load in (0.5, 0.75)]
    q = 1.0 - 1e-9
    for mu in [*np.geomspace(1e-12, 2000.0, 600), 42.8, *overload]:
        n = itf._poisson_ppf(q, mu)
        assert n == int(stats.poisson.ppf(q, mu))
        k = np.arange(n + 3)
        assert (itf._poisson_pmf(k, mu).tobytes()
                == stats.poisson.pmf(k, mu).tobytes())
    # at q equal to the CDF of a count, the rounded-up inverse can land one
    # count high; the step down must bring it back as scipy.stats does
    for mu in (0.3, 2.5, 43.4, 324.0):
        for k in range(int(2 * mu) + 5):
            q = float(stats.poisson.cdf(k, mu))
            if 0.0 < q < 1.0:
                assert itf._poisson_ppf(q, mu) == int(stats.poisson.ppf(q, mu))
