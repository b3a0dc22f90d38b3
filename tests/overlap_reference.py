"""Independent references for the single-interferer overlap law.

gfaloha.interference computes the law in closed form (build_base_cdf).
Like it, every law here is a pmf array on area_grid(p).
Tests check it against two references kept here: a Monte Carlo sampler,
also used as a second, noisy base law for the analytic chain, and 1-D
quadrature of the law's defining integral. The paper's own closed form,
which the program does not use, is kept here too: acceptance c2 checks
it, and the analytic chain's differential tests run on it as a third
law shape.
"""

import numpy as np
from scipy.integrate import quad

from gfaloha.interference import area_grid, overlap_area
from gfaloha.params import InvalidParamsError


def overlap_pmf_oracle(rng: np.random.Generator, p,
                       samples: int = 1_000_000) -> np.ndarray:
    """Monte Carlo law of the overlap with one interferer.

    Draws the interferer start uniform on (-Tp, Tp) and the CFO difference
    triangular on [-2Fm, 2Fm] (the exact difference of two uniform CFOs).
    Returns the empirical pmf of the samples draws on the grid, whose
    bin 0 holds the share of draws that do not overlap.
    """
    dt = rng.uniform(-p.Tp, p.Tp, size=samples)
    if p.Fm == 0:
        dfq = np.zeros(samples)
    else:
        dfq = rng.triangular(-2.0 * p.Fm, 0.0, 2.0 * p.Fm, size=samples)
    areas = overlap_area(dt, dfq, p)
    cdf = np.searchsorted(np.sort(areas), area_grid(p), side="right") / samples
    return np.diff(cdf, prepend=0.0)


def overlap_ccdf_quad(x: float, p) -> float:
    """Pr(S > s) at x = s/(W*Tp) by quadrature of int_x^1 G(W(1 - x/u)) du,
    u = 1 - |dt|/Tp and G the CDF of the triangular |df| on [0, 2Fm],
    split at the u where G reaches 1. Below x = 1e-4 quad's own error
    reaches the order of x."""
    if p.Fm == 0:
        return 1.0 - x

    def g(y):
        y = min(y, 2 * p.Fm)
        return y / p.Fm - (y / (2 * p.Fm)) ** 2
    kink = x / (1 - 2 * p.Fm / p.W) if p.W > 2 * p.Fm else 1.0
    return quad(lambda u: g(p.W * (1 - x / u)), x, 1,
                points=[kink] if x < kink < 1 else None,
                epsabs=1e-14, epsrel=1e-13, limit=200)[0]


def overlap_ccdf_paper(s, p):
    """The paper's closed-form complementary CDF of the single-interferer
    overlap.

    Pr(S > s) = [W*(Tp - s/W) + s*ln(s/(Tp*W))] / (Tp*Fm) on s in
    [0, W*Tp], or (W/Fm)*(1 - x + x*ln x) with x = s/(W*Tp): the exact
    law (overlap_ccdf_exact) without its quadratic term, up to 0.34 off
    it at the defaults. Its s -> 0 limit W/Fm exceeds 1 whenever W > Fm;
    results are clamped to [0, 1] and the second return value flags
    elementwise where clamping fired.

    Returns (value, clamped) as scalars or arrays matching the input.
    """
    if p.Fm <= 0:
        raise InvalidParamsError("closed-form overlap CCDF requires Fm > 0")
    arr = np.asarray(s, dtype=float)
    smax = p.W * p.Tp
    if np.any(arr < 0) or np.any(arr > smax * (1 + 1e-12)):
        raise ValueError(f"overlap area must lie in [0, {smax:g}]")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(arr > 0, arr * np.log(arr / smax), 0.0)
    raw = (p.W * (p.Tp - arr / p.W) + log_term) / (p.Tp * p.Fm)
    clamped = (raw < 0.0) | (raw > 1.0)
    value = np.clip(raw, 0.0, 1.0)
    if np.isscalar(s):
        return float(value), bool(clamped)
    return value, clamped


def paper_base_pmf(p) -> np.ndarray:
    """The paper's clamped closed form as a base law on the grid.

    Every packet in the vulnerable period counts as interfering here (bin
    0 holds no mass), matching the closed form's own convention.
    """
    ccdf, _ = overlap_ccdf_paper(np.minimum(area_grid(p), p.W * p.Tp), p)
    return np.clip(-np.diff(ccdf, prepend=1.0), 0.0, None)
