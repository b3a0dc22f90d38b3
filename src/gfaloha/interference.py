"""Analytic interference model for asynchronous replica transmissions.

A replica occupies a Tp-by-W rectangle in the time-frequency plane, offset
by its carrier frequency error. Interference between two replicas is the
area of their rectangle intersection (in s*Hz), and the post-despreading
SINR of a replica carrying unit energy density is

    SINR = 1 / (A / (W*Tp) + 1/gamma)

with A the summed intersection areas with all other undecoded replicas.
This module builds the distribution of A (single-interferer law in
closed form, then the compound law over the interferer count), turns it
into outage probabilities for the supported combining schemes, and
solves the retry-inflated offered-load fixed point. Every law is a plain
pmf array on area_grid(p): bin 0 holds the mass of no overlap at all,
the top bin everything at or past the grid maximum.

Every random sum (the Poisson count of interferers, the N branch
SINRs of MRC) is one transform: with phi the FFT of one term's
pmf and P the count's generating function, the sum's pmf is
irfft(P(phi)), computed on a zero-padded, exponentially tilted grid so
that no count is truncated and the wrap-around of the circular FFT is
damped by exp(-30), about 1e-13 (Gruebel and Hermesmeier, ASTIN
Bulletin 1999).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .params import InvalidParamsError, SystemParams

GRID_POINTS = 2048      # area-grid points of every interference law
_SINR_POINTS = 4096     # SINR-grid points of the MRC outage
_PAD = 4                # compound-law transform length over the grid length
_TILT = 30.0            # exponential tilt: theta**L = exp(-_TILT)
# Offered-load fixed point
_DAMPING = 0.5
_STEP_TOL = 1e-6        # relative step at which the iteration has converged
_MAX_ITER = 200
_PO_CEILING = 1.0 - 1e-6   # outage at which the point counts as overload


# ---------------------------------------------------------------------------
# The rectangle model, shared with the simulator
# ---------------------------------------------------------------------------

def sinr(area, p: SystemParams):
    """SINR of a replica under total interfering overlap area (s*Hz),
    elementwise over an array of areas."""
    return 1.0 / (area / (p.W * p.Tp) + 1.0 / p.gamma)


def area_threshold(p: SystemParams) -> float:
    """Largest total overlap area at which one replica still reaches St."""
    return p.W * p.Tp * (1.0 / p.St - 1.0 / p.gamma)


def overlap_area(dt, df, p: SystemParams):
    """Intersection area of two replica rectangles offset by (dt, df),
    elementwise over arrays of offsets; 0 where they do not overlap."""
    return np.maximum(p.Tp - np.abs(dt), 0.0) * np.maximum(p.W - np.abs(df), 0.0)


def overlap_ccdf_exact(s, p: SystemParams):
    """Exact complementary CDF of the single-interferer overlap area,
    elementwise over s in [0, W*Tp].

    With x = s/(W*Tp), U = 1 - |dt|/Tp uniform on (0, 1) and G the CDF of
    |df|, triangular on [0, 2*Fm] (the difference of two uniform CFOs),
    Pr(S > s) = integral over u in (x, 1) of G(W*(1 - x/u)). With a = W/Fm,
    b = (W/(2*Fm))**2 and H(u) = a*(u - x*ln u) - b*(u - 2*x*ln u - x**2/u)
    it is H(u*) - H(x) + (1 - u*), u* = min(1, x/(1 - 2*Fm/W)) where G
    reaches 1 (u* = 1 when W <= 2*Fm); 1 - x when Fm = 0. At s = 0 it is
    Pr(S > 0): a - b when W < 2*Fm, else 1.
    """
    smax = p.W * p.Tp
    x = np.asarray(s, dtype=float) / smax
    if np.any(x < 0) or np.any(x > 1 + 1e-12):
        raise ValueError(f"overlap area must lie in [0, {smax:g}]")
    x = np.minimum(x, 1.0)
    if p.Fm == 0:
        return 1.0 - x
    c = p.W / (2.0 * p.Fm)
    u = np.minimum(1.0, x * c / (c - 1.0)) if c > 1.0 else np.ones_like(x)
    # With q = x/u* and w = 1 - q, H(u*) - H(x) = c*u*(2*f1 - c*f2),
    # f1 = w + q*ln q and f2 = w + 2*q*ln q + q*w: terms of size w where
    # the H form has terms of size a and b, so the absolute error is
    # about max(1, c) times the float precision even where W >> Fm.
    w = np.where(u < 1.0, 1.0 / c, 1.0 - x)
    q = np.where(u < 1.0, 1.0 - 1.0 / c, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        qlogq = np.where(q > 0, q * np.where(w < 0.5, np.log1p(-w), np.log(q)), 0.0)
    f1 = w + qlogq
    f2 = w + 2.0 * qlogq + q * w
    return np.clip((1.0 - u) + c * u * (2.0 * f1 - c * f2), 0.0, 1.0)


# ---------------------------------------------------------------------------
# The single-interferer law
# ---------------------------------------------------------------------------

def area_grid(p: SystemParams) -> np.ndarray:
    """Uniform evaluation grid [0, N*W*Tp] shared by the whole pipeline."""
    return np.linspace(0.0, p.N * p.W * p.Tp, GRID_POINTS)


def build_base_cdf(p: SystemParams) -> np.ndarray:
    """Single-interferer base law on area_grid(p), drawing no random
    number: the pmf of the exact law, bin 0 holding 1 - Pr(S > 0)."""
    ccdf = overlap_ccdf_exact(np.minimum(area_grid(p), p.W * p.Tp), p)
    return np.clip(-np.diff(ccdf, prepend=1.0), 0.0, None)


# ---------------------------------------------------------------------------
# Compound laws and the interferer-count mixture
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _tilt(n: int) -> np.ndarray:
    """theta**k for k < n, theta = exp(-_TILT / (_PAD * n)); read-only."""
    tilt = np.exp(-_TILT / (_PAD * n) * np.arange(n))
    tilt.flags.writeable = False
    return tilt


def _tilted_rfft(pmf1: np.ndarray) -> np.ndarray:
    """rfft of pmf1 tilted by _tilt, zero-padded to _PAD * len(pmf1)."""
    n = len(pmf1)
    return np.fft.rfft(pmf1 * _tilt(n), _PAD * n)


@functools.lru_cache(maxsize=4)
def _base_rfft(pmf_bytes: bytes) -> np.ndarray:
    """_tilted_rfft of the float pmf with these bytes; read-only. The
    base law is the same on every fixed-point iteration."""
    phi = _tilted_rfft(np.frombuffer(pmf_bytes))
    phi.flags.writeable = False
    return phi


def _compound(pmf1: np.ndarray, pgf) -> np.ndarray:
    """Law of a random sum of i.i.d. draws from pmf1, on pmf1's grid.

    pgf is the count's generating function, applied elementwise to the
    discrete Fourier transform of pmf1: the sum's transform is
    pgf(rfft(pmf1)). The transform runs on a zero-padded length
    L = _PAD * len(pmf1) with the pmf tilted by theta**k, theta =
    exp(-_TILT / L): the mass the circular transform wraps from bin k + L
    onto bin k is damped by theta**L = exp(-_TILT) before the tilt is
    undone. Bins below the top are the law itself; the top bin holds
    the rest of the unit mass, everything at or past the grid maximum.
    """
    return _compound_rfft(_tilted_rfft(pmf1), len(pmf1), pgf)


def _compound_rfft(phi: np.ndarray, n: int, pgf) -> np.ndarray:
    """_compound of the n-bin pmf whose _tilted_rfft is phi."""
    law = np.fft.irfft(pgf(phi), _PAD * n)[:n] / _tilt(n)
    law = np.clip(law, 0.0, None)
    law[-1] = max(1.0 - law[:-1].sum(), 0.0)
    return law


def unconditional_cdf(base: np.ndarray, g: float, p: SystemParams) -> np.ndarray:
    """Aggregate overlap-area pmf of one replica at replica rate g.

    Interferers arrive in the 2*Tp vulnerable window as a Poisson process
    with mean mu = 2*g*Tp; each contributes the base law, whose bin 0
    holds the interferers that do not overlap. With phi the transform of
    the base law, the aggregate is the full Poisson mixture
    exp(mu*(phi - 1)), with no count left out, from one tilted FFT
    (_compound): exact below the grid maximum up to rounding; the top bin
    holds the rest. phi is taken once per base law (_base_rfft), since
    the fixed point calls this at every iterate g.
    """
    if g < 0:
        raise InvalidParamsError("replica rate must be nonnegative")
    mu = 2.0 * g * p.Tp
    base = np.asarray(base, dtype=float)
    return _compound_rfft(_base_rfft(base.tobytes()), base.size,
                          lambda phi: np.exp(mu * (phi - 1.0)))


# ---------------------------------------------------------------------------
# Outage probabilities
# ---------------------------------------------------------------------------

def outage_single(pmf: np.ndarray, p: SystemParams) -> float:
    """P(SINR < St) for one replica under the aggregate law."""
    cdf = np.minimum(np.cumsum(pmf), 1.0)
    return 1.0 - float(np.interp(area_threshold(p), area_grid(p), cdf))


def outage_mrc_sinr(pmf: np.ndarray, p: SystemParams) -> float:
    """P(sum of branch SINRs < St) with i.i.d. branch interference.

    Exact construction for the summed-SINR decision rule: the aggregate
    area law of one branch is pushed through s = 1/(a/(W*Tp) + 1/gamma)
    onto a uniform SINR grid, summed over the N branches (transform
    phi**N), and read at St. This is what an SINR-summing receiver
    actually tests, so it tracks the simulator closely (a threshold on
    the summed areas would over-count interference split across
    branches).
    """
    ds = p.N * p.gamma / (_SINR_POINTS - 1)
    # Only the CDF at St is read, and a convolution's first k bins depend
    # only on its inputs' first k bins: keep the bins up to St plus two,
    # so the top bin of the truncated sum, which holds the rest of the
    # mass, is never read.
    keep = min(_SINR_POINTS, int(p.St / ds) + 3)
    branch = np.bincount(_sinr_bins(p), weights=pmf,
                         minlength=_SINR_POINTS)[:keep]
    total = _compound(branch, lambda phi: phi ** p.N)
    grid = np.arange(total.size) * ds
    return float(np.interp(p.St, grid, np.minimum(np.cumsum(total), 1.0)))


@functools.lru_cache(maxsize=8)
def _sinr_bins(p: SystemParams) -> np.ndarray:
    """SINR-grid bin of each area_grid(p) point, as outage_mrc_sinr
    rounds it; read-only."""
    ds = p.N * p.gamma / (_SINR_POINTS - 1)
    idx = np.rint(sinr(area_grid(p), p) / ds).astype(np.int64)
    idx.flags.writeable = False
    return idx


def outage_no_combining(pmf: np.ndarray, p: SystemParams) -> float:
    """Outage without combining: every replica must fail on its own."""
    per_replica = outage_single(pmf, p)
    return per_replica ** p.N


def analytic_outage(base: np.ndarray, g: float, p: SystemParams,
                    policy: str = "mrc") -> float:
    """Full pipeline: base law -> aggregate at rate g -> policy outage.

    The policies are the simulator's decoding policies with a closed
    form: "mrc" uses the summed-SINR construction, the quantity a
    combining receiver measures; "none" decodes when some replica alone
    reaches St.
    """
    agg = unconditional_cdf(base, g, p)
    if policy == "mrc":
        return outage_mrc_sinr(agg, p)
    if policy == "none":
        return outage_no_combining(agg, p)
    raise ValueError(f"unknown analytic policy {policy!r}")


# ---------------------------------------------------------------------------
# Offered-load fixed point
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    g: float          # replica transmission rate incl. retries, replicas/s
    po: float
    status: str       # "converged" | "overload" | "max-iterations"
    iterations: int


def offered_load_of(g: float, p: SystemParams) -> float:
    """Normalized offered load of replica rate g: g*Tp scaled by the share
    W/(2*Fm + W) of the carrier-offset band one replica occupies.
    mcsim.nominal_lambda is its inverse at g = N*lambda."""
    return p.W / (2.0 * p.Fm + p.W) * g * p.Tp


def solve_offered_load(lambda_agg: float, p: SystemParams, policy: str = "mrc",
                       *, base: np.ndarray) -> SolveResult:
    """Solve g = N*lambda / (1 - Po(g)) by damped fixed-point iteration.

    Retries re-enter the channel, so the replica rate seen on air exceeds
    N*lambda by the retry factor. Divergence (offered traffic beyond the
    sustainable region) is reported via status="overload", never raised:
    g is the last iterate and po the ceiling 1 - 1e-6 the outage reached,
    so KPIs computed from it are bounds, not values of the iterate.
    """
    if lambda_agg < 0:
        raise InvalidParamsError("arrival rate must be nonnegative")
    g_floor = p.N * lambda_agg
    g = g_floor
    status = "max-iterations"
    for it in range(1, _MAX_ITER + 1):
        po = analytic_outage(base, g, p, policy)
        if po >= _PO_CEILING:
            po = _PO_CEILING
            status = "overload"
            break
        target = g_floor / (1.0 - po)
        g_next = (1.0 - _DAMPING) * g + _DAMPING * target
        if abs(g_next - g) <= _STEP_TOL * max(1.0, g):
            g = g_next
            status = "converged"
            break
        g = g_next
    return SolveResult(g, po, status, it)
