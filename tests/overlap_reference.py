"""Independent references for the single-interferer overlap law.

gfaloha.interference computes the law in closed form (build_base_cdf).
Tests check it against two references kept here: a Monte Carlo sampler,
also used as a second, noisy base law for the analytic chain, and 1-D
quadrature of the law's defining integral.
"""

import numpy as np
from scipy.integrate import quad

from gfaloha.interference import InterferenceCdf, area_grid, overlap_area


def overlap_cdf_oracle(rng: np.random.Generator, p,
                       samples: int = 1_000_000) -> InterferenceCdf:
    """Monte Carlo law of the overlap with one interferer, given overlap.

    Draws the interferer start uniform on (-Tp, Tp) and the CFO difference
    triangular on [-2Fm, 2Fm] (the exact difference of two uniform CFOs).
    The returned CDF is conditioned on a strictly positive area;
    meta["overlap_prob"] carries the conditioning probability and
    meta["hits"] the number of draws it is the empirical CDF of.
    """
    dt = rng.uniform(-p.Tp, p.Tp, size=samples)
    if p.Fm == 0:
        dfq = np.zeros(samples)
    else:
        dfq = rng.triangular(-2.0 * p.Fm, 0.0, 2.0 * p.Fm, size=samples)
    areas = overlap_area(dt, dfq, p)
    hit = np.sort(areas[areas > 0.0])
    grid = area_grid(p)
    cdf = np.searchsorted(hit, grid, side="right") / hit.size
    meta = {"mode": "triangular", "hits": hit.size,
            "overlap_prob": hit.size / samples}
    return InterferenceCdf(grid, cdf, meta)


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
