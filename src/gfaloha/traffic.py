"""Traffic generation: Poisson report arrivals and the replica slot/CFO draw."""

from __future__ import annotations

import numpy as np

from .params import InvalidParamsError, SystemParams


def draw_frames(rng: np.random.Generator, n: int,
                p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Slot patterns and CFOs of n transmission attempts.

    Each attempt places N replicas in an M-slot virtual frame: the first
    goes out immediately (slot 0), the remaining N-1 slots are drawn
    uniformly without replacement. The CFO is drawn once per frame,
    uniform on [-Fm, Fm]. Returns slots of shape (n, N), each row
    strictly increasing, and the n CFOs.
    """
    if not (1 <= p.N <= p.M):
        raise InvalidParamsError(f"need 1 <= N <= M, got N={p.N}, M={p.M}")
    slots = np.zeros((n, p.N), dtype=np.int64)
    if p.N == 2:
        slots[:, 1] = rng.integers(1, p.M, size=n)
    elif p.N > 2:
        # Uniform subset of the later slots via per-row argsort ranks.
        ranks = np.argsort(rng.random((n, p.M - 1)), axis=1)
        slots[:, 1:] = np.sort(ranks[:, : p.N - 1], axis=1) + 1
    cfo = (rng.uniform(-p.Fm, p.Fm, size=n) if p.Fm > 0
           else np.zeros(n))
    return slots, cfo


def generate_arrivals(rng: np.random.Generator, lambda_agg: float,
                      horizon: float) -> np.ndarray:
    """Poisson process of packet arrivals over [0, horizon), sorted.

    Uses the order-statistics form: the count is Poisson(lambda*horizon)
    and, given the count, times are i.i.d. uniform.
    """
    if lambda_agg < 0 or horizon < 0:
        raise InvalidParamsError("arrival rate and horizon must be nonnegative")
    n = rng.poisson(lambda_agg * horizon)
    return np.sort(rng.uniform(0.0, horizon, size=n))
