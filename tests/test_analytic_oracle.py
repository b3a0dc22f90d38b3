"""Differential tests: the analytic chain against its plain reference form.

The reference below builds the Poisson interferer-count mixture from
explicit n-fold convolutions, folded onto the grid, with a tail of 1e-16
left out; it sums the MRC branches the same way over the full SINR grid
and evaluates the outage once before the fixed-point loop. The module
under test computes every compound law as one tilted FFT with no count
truncated; below the top bin the two must agree to rounding. Property
tests hold the transform itself to the folded convolution on random
laws and point masses.
"""

import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gfaloha import interference as itf
from gfaloha.mcsim import nominal_lambda
from gfaloha.params import SystemParams
from overlap_reference import overlap_pmf_oracle, paper_base_pmf

P = SystemParams()
# Fm = 150 Hz > W/2: Pr(S > 0) = 8/9, so the base law's bin 0 carries
# the mass of interferers that do not overlap
WIDE = SystemParams(Fm=150.0)
TAIL = 1e-16          # Poisson mass the reference leaves out
CDF_TOL = 1e-13       # |F - F_ref| below the top bin
PO_TOL = 1e-14        # |po - po_ref| of the MRC outage


# ---------------------------------------------------------------------------
# Reference chain
# ---------------------------------------------------------------------------

def _fold(pa, pb):
    """Linear convolution, the mass past the grid folded into the top bin."""
    full = np.convolve(pa, pb)
    out = full[: len(pa)].copy()
    out[-1] += full[len(pa):].sum()
    return out


def _ref_pmf_powers(pmf, n_max):
    rows = np.zeros((n_max + 1, len(pmf)))
    rows[0, 0] = 1.0
    for n in range(1, n_max + 1):
        rows[n] = _fold(rows[n - 1], pmf)
    return rows


def _ref_count(g, p):
    """Highest interferer count the mixture reads at rate g."""
    mu = 2.0 * g * p.Tp
    return 0 if mu == 0.0 else int(stats.poisson.isf(TAIL, mu))


def _ref_unconditional(base, g, p):
    """The aggregate CDF: the Poisson-weighted sum of the base law's
    n-fold convolutions, summed up the grid."""
    mu = 2.0 * g * p.Tp
    n_max = _ref_count(g, p)
    weights = stats.poisson.pmf(np.arange(n_max + 1), mu)
    return np.minimum(np.cumsum(weights @ _ref_pmf_powers(base, n_max)), 1.0)


def _ref_outage_mrc_sinr(pmf, p, points=4096):
    wtp = p.W * p.Tp
    s_of_a = 1.0 / (itf.area_grid(p) / wtp + 1.0 / p.gamma)
    ds = p.N * p.gamma / (points - 1)
    idx = np.rint(s_of_a / ds).astype(np.int64)
    branch = np.bincount(idx, weights=pmf, minlength=points)[:points]
    total = branch.copy()
    for _ in range(p.N - 1):
        total = _fold(total, branch)
    grid = np.arange(total.size) * ds
    return float(np.interp(p.St, grid, np.minimum(np.cumsum(total), 1.0)))


class _TooLarge(Exception):
    pass


def _ref_solve(lambda_agg, p, base, damping=0.5, tol=1e-6,
               max_iter=200, po_ceiling=1.0 - 1e-6):
    """The reference fixed point; raises _TooLarge rather than convolve
    more than 1000 interferers (deep overload)."""
    def outage(g):
        if _ref_count(g, p) > 1000:
            raise _TooLarge
        cdf = _ref_unconditional(base, g, p)
        return _ref_outage_mrc_sinr(np.diff(cdf, prepend=0.0), p)

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


@functools.lru_cache(maxsize=None)
def _case(kind, n):
    """System and base law of each kind: the shipped exact law, the
    paper's clamped form (built here, the program never reads it), the
    Monte Carlo oracle, whose noisy pmf exercises the chain on a law
    unlike either closed form, and the exact law on the wide-CFO
    system."""
    p = (WIDE if kind == "wide" else P).with_replicas(n)
    if kind == "oracle":
        return p, overlap_pmf_oracle(np.random.default_rng(5), p, samples=200_000)
    if kind == "paper":
        return p, paper_base_pmf(p)
    return p, itf.build_base_cdf(p)


def _assert_laws_match(base, g, p):
    """unconditional_cdf below the top bin agrees with the reference at
    rate g, and so does the MRC outage read from it wherever that stays
    below the overload ceiling (past it the solver reads no value)."""
    new = itf.unconditional_cdf(base, g, p)
    ref = _ref_unconditional(base, g, p)
    cdf = np.minimum(np.cumsum(new), 1.0)
    assert np.max(np.abs(cdf[:-1] - ref[:-1])) <= CDF_TOL, g
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12), g
    po_ref = _ref_outage_mrc_sinr(np.diff(ref, prepend=0.0), p)
    if po_ref < 1.0 - 1e-6:
        assert abs(itf.outage_mrc_sinr(new, p) - po_ref) <= PO_TOL, g


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------

LOADS = (0.2, 0.01, 0.1, 0.05)
KINDS = ("oracle", "paper", "exact", "wide")
# case ids name the interferer-count law, which is always Poisson
KIND_IDS = [f"{kind}-poisson" for kind in KINDS]


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_matches_reference(n, kind):
    p, base = _case(kind, n)
    converged = 0
    for load in LOADS:
        lam = nominal_lambda(load, p)
        res = itf.solve_offered_load(lam, p, "mrc", base=base)
        try:
            po, g, status, iterations = _ref_solve(lam, p, base)
        except _TooLarge:
            assert res.status != "converged", load
            continue
        assert res.status == status, load
        if status != "converged":
            continue
        converged += 1
        assert res.iterations == iterations, load
        assert res.g == pytest.approx(g, rel=1e-12, abs=0.0), load
        assert abs(res.po - po) <= PO_TOL, load
        _assert_laws_match(base, g, p)
    assert converged >= 2


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_unconditional_cdf_matches_reference(kind):
    # interferer means from none through the converged range to where
    # almost all mass sits past the grid
    for n in (1, 2, 3, 4):
        p, base = _case(kind, n)
        for mu in (0.0, 0.001, 0.05, 0.5, 2.0, 10.0, 60.0):
            _assert_laws_match(base, mu / (2.0 * p.Tp), p)


# ---------------------------------------------------------------------------
# The transform against the folded convolution, on random laws
# ---------------------------------------------------------------------------

def _poisson(mu):
    return lambda phi: np.exp(mu * (phi - 1.0))


def _power(n):
    return lambda phi: phi ** n


_pmfs = (st.lists(st.floats(0.0, 1.0), min_size=8, max_size=300)
         .filter(lambda w: sum(w) > 0.0)
         .map(lambda w: np.array(w) / sum(w)))


@settings(max_examples=60, deadline=None)
@given(_pmfs, st.floats(0.0, 50.0), st.integers(0, 40))
def test_compound_is_the_folded_convolution(pmf, mu, n):
    power = itf._compound(pmf, _power(n))
    for law in (itf._compound(pmf, _poisson(mu)), power):
        assert np.all(law >= 0.0)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
    ref = (np.arange(len(pmf)) == 0).astype(float)
    for _ in range(n):
        ref = _fold(ref, pmf)
    # the CDF below the top bin; the top bin holds the rest
    assert np.max(np.abs(np.cumsum(power - ref)[:-1])) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 300), st.data())
def test_compound_point_masses(size, data):
    delta = lambda k: (np.arange(size) == k).astype(float)
    j = data.draw(st.integers(0, size - 1))
    n = data.draw(st.integers(0, 40))
    # A unit point mass is the worst case for rounding: on a length with
    # a large prime factor the transform's rounding, raised to the n-th
    # power and scaled up by the undone tilt (up to exp(7.5)), reaches
    # about 2e-12 in a bin.
    tol = 1e-11
    # no interferer at all: a point mass at 0, whatever one draw is
    assert np.allclose(itf._compound(delta(j), _poisson(0.0)), delta(0),
                       rtol=0.0, atol=tol)
    # n draws of j sum to n*j; a sum past the grid folds into the top bin
    assert np.allclose(itf._compound(delta(j), _power(n)),
                       delta(min(n * j, size - 1)), rtol=0.0, atol=tol)


# ---------------------------------------------------------------------------
# Overload: the damped iterate reaches interferer counts near 1e6
# ---------------------------------------------------------------------------

# loads at which the iterate's last step lands far past the grid (at
# N=2, load 1.0 it stops at 2*g*Tp = 275)
@pytest.mark.parametrize("n, load", [(1, 0.35), (3, 1.0), (2, 1.25)],
                         ids=["1-poisson-0.35", "3-poisson-1.0",
                              "2-poisson-1.25"])
def test_overload_stays_bounded(n, load):
    p = P.with_replicas(n)
    base = itf.build_base_cdf(p)
    t0 = time.perf_counter()
    res = itf.solve_offered_load(nominal_lambda(load, p), p, "mrc",
                                 base=base)
    assert time.perf_counter() - t0 < 30.0
    assert res.status == "overload"
    assert 2.0 * res.g * p.Tp > 1e4        # far past the grid
    assert res.po == 1.0 - 1e-6
