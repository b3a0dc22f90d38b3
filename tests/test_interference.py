"""Analytic interference law: overlap geometry, the compound law, outage,
the offered-load fixed point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfaloha.interference import (analytic_outage, area_grid,
                                  area_threshold, build_base_cdf,
                                  offered_load_of, outage_mrc_sinr,
                                  outage_no_combining, outage_single,
                                  overlap_area, overlap_ccdf_exact, sinr,
                                  solve_offered_load, unconditional_cdf)
from gfaloha.params import InvalidParamsError, SystemParams
from overlap_reference import (overlap_ccdf_paper, overlap_ccdf_quad,
                               overlap_pmf_oracle)

P = SystemParams()


def test_sinr_limits():
    # no overlap leaves the SNR; full overlap of one equal-power
    # interferer gives 1/(1 + 1/gamma); the threshold area gives St
    full = P.W * P.Tp
    got = sinr(np.array([0.0, full, area_threshold(P)]), P)
    assert got == pytest.approx([P.gamma, 1.0 / (1.0 + 1.0 / P.gamma), P.St])
    assert np.all(np.diff(sinr(np.linspace(0.0, 2 * full, 9), P)) < 0)


def test_overlap_area_geometry():
    dt = np.array([0.0, P.Tp, 0.0, 0.25, -0.25, 0.7])
    df = np.array([0.0, 0.0, P.W, 50.0, -50.0, 0.0])
    assert overlap_area(dt, df, P) == pytest.approx(
        [P.W * P.Tp, 0.0, 0.0, 0.25 * 150.0, 0.25 * 150.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 1e4), st.floats(1e-3, 10.0), st.floats(0.1, 1e3),
       st.floats(1e-3, 1.0))
def test_sinr_at_the_area_threshold_is_st(w, tp, gamma, frac):
    # a one-bit packet of tp seconds: Gamma solved from the link budget
    p = SystemParams(W=w, D=1, Doh=0, gamma=gamma, St=frac * gamma,
                     Gamma=gamma / math.expm1(math.log(2.0) / (w * tp)))
    assert p.Tp == pytest.approx(tp, rel=1e-9)
    assert sinr(area_threshold(p), p) == pytest.approx(p.St, rel=1e-12)


def test_closed_form_ccdf_endpoints():
    smax = P.W * P.Tp
    val, clamped = overlap_ccdf_paper(smax, P)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert not clamped
    # the small-s limit W/Fm = 2 exceeds 1, so the clamp must fire
    val, clamped = overlap_ccdf_paper(1e-9, P)
    assert val == 1.0 and clamped
    vals, flags = overlap_ccdf_paper(np.array([1.0, 50.0, smax]), P)
    assert vals.shape == (3,) and flags.shape == (3,)
    assert np.all(np.diff(vals) <= 0)
    with pytest.raises(ValueError):
        overlap_ccdf_paper(2 * smax, P)


def test_laws_are_unit_pmfs_on_the_area_grid():
    # every law of the chain is a nonnegative pmf of unit mass with one
    # bin per point of area_grid(p), which spans [0, N*W*Tp]; at Fm = 150
    # Hz the base law's bin 0 holds the 1/9 of interferers that miss
    for fm in (100.0, 150.0):
        p = SystemParams(Fm=fm).with_replicas(3)
        base = build_base_cdf(p)
        for law in [base] + [unconditional_cdf(base, g, p)
                             for g in (0.0, 0.4, 4.0)]:
            assert law.shape == area_grid(p).shape
            assert np.all(law >= 0.0)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert base[0] == pytest.approx(0.0 if fm == 100.0 else 1.0 / 9.0,
                                        abs=1e-15)


def test_oracle_cdf_basics():
    rng = np.random.default_rng(10)
    c = overlap_pmf_oracle(rng, P, samples=100_000)
    assert c.shape == area_grid(P).shape
    assert c.sum() == pytest.approx(1.0, abs=1e-12)
    # at W = 2Fm every draw overlaps: zero area has no mass
    assert c[0] == pytest.approx(0.0, abs=1e-4)
    # triangular CFO difference on [-2Fm, 2Fm]: P(|df| < W) = 1 - (1/2)^2
    wide = SystemParams(Fm=200.0)
    c = overlap_pmf_oracle(np.random.default_rng(11), wide, samples=200_000)
    assert 1.0 - c[0] == pytest.approx(0.75, abs=5e-3)


def test_oracle_seed_stability_smoke():
    a = overlap_pmf_oracle(np.random.default_rng(1), P, samples=100_000)
    b = overlap_pmf_oracle(np.random.default_rng(2), P, samples=100_000)
    assert np.max(np.abs(np.cumsum(a) - np.cumsum(b))) < 0.02


def test_exact_base_law_at_the_defaults():
    base = build_base_cdf(P)
    # W = 2Fm: every CFO difference lies inside the band, so any two
    # replicas in the vulnerable period overlap
    assert base[0] == 0.0
    assert base.sum() == pytest.approx(1.0, abs=1e-15)
    # at W = 2Fm, Pr(S > s) = 2(1 - x + x ln x) - (1 - x^2 + 2x ln x)
    x = np.array([1e-3, 0.25, 0.5, 0.9])
    want = 2 * (1 - x + x * np.log(x)) - (1 - x ** 2 + 2 * x * np.log(x))
    assert overlap_ccdf_exact(x * P.W * P.Tp, P) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError):
        overlap_ccdf_exact(2.0 * P.W * P.Tp, P)


# 2Fm/W: Fm = 0, W = 2Fm, and both sides of it
_CFO_SPANS = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-4, 0.999),
                       st.floats(1.001, 1e3))


@settings(max_examples=80, deadline=None)
@given(tp=st.floats(1e-3, 10.0), w=st.floats(1.0, 1e4), span=_CFO_SPANS)
def test_exact_base_law_properties(tp, w, span):
    # a one-bit packet of tp seconds: Gamma solved from the link budget
    p = SystemParams(W=w, Fm=span * w / 2, D=1, Doh=0,
                     Gamma=P.gamma / math.expm1(math.log(2.0) / (w * tp)))
    assert p.Tp == pytest.approx(tp, rel=1e-9)
    smax = p.W * p.Tp
    # the closed form against 1-D quadrature
    x = np.array([1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
    got = overlap_ccdf_exact(x * smax, p)
    assert got == pytest.approx([overlap_ccdf_quad(xi, p) for xi in x], abs=1e-9)
    # a law: the CCDF nonincreasing, the pmf of unit mass
    base = build_base_cdf(p)
    assert base.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(overlap_ccdf_exact(np.linspace(0, smax, 4001), p)) <= 1e-14)
    # Pr(S > 0) = G(W), the chance that |df| < W, and the s -> 0 limit
    p0 = 1.0 - base[0]
    want = 1.0 if p.W >= 2 * p.Fm else p.W / p.Fm - (p.W / (2 * p.Fm)) ** 2
    assert p0 == pytest.approx(want, rel=1e-12)
    assert overlap_ccdf_exact(1e-12 * smax, p) == pytest.approx(p0, abs=1e-6)
    if p.Fm == 0:
        return
    # the paper's closed form is the first term a(1 - x + x ln x) of the
    # exact law wherever it is not clamped (its terms are of size a, so
    # both sides round at a times the float precision)
    a = p.W / p.Fm
    xg = np.minimum(area_grid(p) / smax, 1.0)
    xlogx = np.where(xg > 0, xg * np.log(np.where(xg > 0, xg, 1.0)), 0.0)
    first = a * (1 - xg + xlogx)
    paper, _ = overlap_ccdf_paper(np.minimum(area_grid(p), smax), p)
    valid = (first >= 0.0) & (first <= 1.0)
    assert paper[valid] == pytest.approx(first[valid], abs=1e-13 * max(a, 10.0))
    if p.W <= 2 * p.Fm:
        # ... and the exact law less its quadratic term
        quadratic = (p.W / (2 * p.Fm)) ** 2 * (1 - xg ** 2 + 2 * xlogx)
        exact = overlap_ccdf_exact(xg * smax, p)
        assert exact + quadratic == pytest.approx(first, abs=1e-12)


def test_unconditional_cdf_zero_rate():
    base = build_base_cdf(P)
    agg = unconditional_cdf(base, 0.0, P)
    assert agg[0] == pytest.approx(1.0)   # no interferer at all
    with pytest.raises(InvalidParamsError):
        unconditional_cdf(base, -1.0, P)


def test_outage_orderings():
    base = build_base_cdf(P)
    for g in (0.4, 0.8):
        agg = unconditional_cdf(base, g, P)
        po_1 = outage_single(agg, P)
        assert 0.0 <= po_1 <= 1.0
        assert outage_no_combining(agg, P) == pytest.approx(po_1 ** P.N)
        # combining never loses to a single branch
        assert outage_mrc_sinr(agg, P) <= po_1 + 1e-12


def test_outage_monotone_in_rate():
    base = build_base_cdf(P)
    pos = [analytic_outage(base, g, P, "mrc") for g in (0.1, 0.4, 1.0, 2.0)]
    assert all(a <= b + 1e-12 for a, b in zip(pos, pos[1:]))


def test_analytic_outage_rejects_unknown_modes():
    base = build_base_cdf(P)
    # the policies are the simulator's names; sc has no closed form
    for policy in ("selection", "independent", "single", "sc"):
        with pytest.raises(ValueError):
            analytic_outage(base, 0.1, P, policy=policy)


def test_offered_load_axis():
    # W/(2Fm+W) halves the replica load at the default geometry
    assert offered_load_of(1.0, P) == pytest.approx(0.25)


def test_solve_offered_load_converges():
    base = build_base_cdf(P)
    res = solve_offered_load(0.1, P, base=base)
    assert res.status == "converged"
    assert res.g >= P.N * 0.1            # retries only inflate
    assert res.g == pytest.approx(P.N * 0.1 / (1.0 - res.po), rel=1e-3)
    res0 = solve_offered_load(0.0, P, base=base)
    assert res0.status == "converged" and res0.po == 0.0


def test_solve_offered_load_overload():
    base = build_base_cdf(P)
    res = solve_offered_load(20.0, P, base=base)
    assert res.status == "overload"
    assert res.po == 1.0 - 1e-6
    with pytest.raises(InvalidParamsError):
        solve_offered_load(-0.1, P, base=base)


def test_area_grid_span():
    g = area_grid(P)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(P.N * P.W * P.Tp)
