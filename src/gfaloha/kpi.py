"""Link KPIs: delay, transmit power, battery lifetime, EE, SE.

All formulas work on one operating point (an outage probability or an
RA attempt count, plus the parameter sets). The experiment module scores
both columns of a figure through them: the analytic row from the
modelled operating point, each simulated cell from what it measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import EnergyParams, InvalidParamsError, SystemParams

# Granted-access baseline: contention opportunities per access period.
RA_OPPORTUNITIES = 10
RA_PERIOD = 2.0  # s


@dataclass(frozen=True)
class KpiReport:
    """The four KPIs the figures plot, for one cell. On grant-free rows
    the analytic delay is the unconditional mean under unlimited retries,
    the simulated one the mean over delivered reports: not one quantity."""

    expected_delay: float       # s
    battery_lifetime: float     # s
    energy_efficiency: float    # bit/J
    spectral_efficiency: float  # bit/s/Hz


def expected_delay(po: float, p: SystemParams) -> float:
    """Mean time from arrival to successful reception with retries.

    Every attempt occupies M*Tp and failed ones add the Tack wait, so the
    geometric series over attempts sums to (M*Tp + Tack)/(1-Po) - Tack.
    Po = 1 yields inf (the packet never gets through).
    """
    if not (0.0 <= po <= 1.0):
        raise InvalidParamsError(f"outage must lie in [0, 1], got {po:g}")
    if po == 1.0:
        return math.inf
    return (p.M * p.Tp + p.Tack) / (1.0 - po) - p.Tack


def avg_transmit_power(p: SystemParams, e: EnergyParams) -> float:
    """Mean transmit power over a cell with density f(r) = 2r/Rc^2.

    Averaging the power-law inversion over the disc gives
    Pt_avg = 2 * Rc^sigma * gamma * N0 * W * Gamma / (G * (sigma + 2)).
    """
    return (2.0 * e.Rc ** e.sigma_pl * p.gamma * p.N0 * p.W * p.Gamma
            / (e.G * (e.sigma_pl + 2.0)))


def attempt_energy(p: SystemParams, e: EnergyParams) -> float:
    """Energy of one grant-free attempt: N replica transmissions, idle
    listening over the remaining M-N slots, and the acknowledgement wait."""
    pt = avg_transmit_power(p, e)
    return ((e.Pc + e.alpha * pt) * p.N * p.Tp
            + e.Pc * (p.M - p.N) * p.Tp
            + e.Pc * p.Tack)


def battery_lifetime(po: float, p: SystemParams, e: EnergyParams) -> float:
    """Battery lifetime under periodic reporting.

    The energy balance divides the per-attempt cost by the success
    probability: E_report = Est + attempt_energy / (1 - Po).
    """
    if not (0.0 <= po <= 1.0):
        raise InvalidParamsError(f"outage must lie in [0, 1], got {po:g}")
    if po == 1.0:
        return 0.0
    factor = 1.0 / (1.0 - po)
    e_report = e.Est + factor * attempt_energy(p, e)
    return e.E0 * e.Tr / e_report


def energy_efficiency(po: float, p: SystemParams, e: EnergyParams) -> float:
    """Delivered payload bits per joule spent on one attempt."""
    if not (0.0 <= po <= 1.0):
        raise InvalidParamsError(f"outage must lie in [0, 1], got {po:g}")
    return (1.0 - po) * (p.D - p.Doh) / attempt_energy(p, e)


def spectral_efficiency(lambda_agg: float, p: SystemParams,
                        po: float) -> float:
    """Payload bits per second per hertz of occupied system bandwidth,
    success-weighted by (1 - Po).

    The deployment spends 2*(Fm + W/2) Hz to host the offset packets.
    """
    if lambda_agg < 0:
        raise InvalidParamsError("arrival rate must be nonnegative")
    return lambda_agg * (1.0 - po) * (p.D - p.Doh) / (2.0 * (p.Fm + p.W / 2.0))


# ---------------------------------------------------------------------------
# Granted-access baseline
# ---------------------------------------------------------------------------

def ra_contention(lambda_agg: float) -> tuple[float, float, bool]:
    """Steady-state random-access contention of the granted baseline.

    Backlogged devices each pick one of O = RA_OPPORTUNITIES slots per
    RA_PERIOD; a slot with a single pick succeeds. With Poisson attempts
    A per period the per-attempt success is exp(-A/O) and the stable
    fixed point A*exp(-A/O) = lambda*RA_PERIOD exists while
    lambda*RA_PERIOD <= O/e (solved via the Lambert W function).

    Returns (expected attempts per report, per-attempt success
    probability, stable flag). Beyond saturation the attempt count is
    infinite and success probability 0.
    """
    if lambda_agg < 0:
        raise InvalidParamsError("arrival rate must be nonnegative")
    demand = lambda_agg * RA_PERIOD
    if demand == 0.0:
        return 1.0, 1.0, True
    if demand > RA_OPPORTUNITIES / math.e:
        return math.inf, 0.0, False
    a = -RA_OPPORTUNITIES * _lambertw0(-demand / RA_OPPORTUNITIES)
    p_succ = demand / a
    return 1.0 / p_succ, p_succ, True


def _lambertw0(x: float) -> float:
    """Principal branch of Lambert W on [-1/e, 0): the w >= -1 solving
    w*exp(w) = x, by Halley's iteration.

    Starts from the branch-point series in p = sqrt(2*(e*x + 1)) near
    -1/e and from x itself nearer 0; from either start the cubic
    convergence reaches full precision within four steps. Within a few
    ulps of -1/e, where w is ill-conditioned, the steps only stir
    rounding noise, so the loop stops after eight.
    """
    p = math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
    if p == 0.0:
        return -1.0
    w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3 if x < -0.25 else x
    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    return w


def granted_attempt_energy(p: SystemParams, e: EnergyParams) -> float:
    """Energy of one random-access attempt: a preamble-length burst."""
    pt = avg_transmit_power(p, e)
    return (e.Pc + e.alpha * pt) * p.Nzc * p.Tb


def granted_report_energy(p: SystemParams, e: EnergyParams,
                          attempts: float) -> float:
    """Per-report energy on the granted path.

    The device contends on the RA channel (attempts bursts), then pays
    synchronization (Esynch plus idle listening over Dsynch) and one
    collision-free data transmission of duration Tp.
    """
    pt = avg_transmit_power(p, e)
    return (e.Est + attempts * granted_attempt_energy(p, e)
            + e.Esynch + e.Pc * e.Dsynch
            + (e.Pc + e.alpha * pt) * p.Tp)


def granted_path_kpis(lambda_agg: float, attempts: float, delay: float,
                      p: SystemParams, e: EnergyParams) -> KpiReport:
    """KPI row of the granted path at a mean count of RA attempts per
    delivered report, modelled or measured; lifetime and energy
    efficiency follow from the per-report energy at that count."""
    e_report = granted_report_energy(p, e, attempts)
    return KpiReport(
        expected_delay=delay,
        battery_lifetime=e.E0 * e.Tr / e_report,
        energy_efficiency=(p.D - p.Doh) / e_report,
        spectral_efficiency=spectral_efficiency(lambda_agg, p, 0.0),
    )


def granted_kpis(lambda_agg: float, p: SystemParams,
                 e: EnergyParams) -> KpiReport:
    """Analytic KPI row of the granted baseline at the same demand."""
    attempts, p_succ, stable = ra_contention(lambda_agg)
    if not stable:
        return KpiReport(expected_delay=math.inf, battery_lifetime=0.0,
                         energy_efficiency=0.0, spectral_efficiency=0.0)
    # Mean wait to the next period boundary plus retry periods, then
    # synchronization and the data transmission itself.
    delay = RA_PERIOD / 2.0 + (attempts - 1.0) * RA_PERIOD + e.Dsynch + p.Tp
    return granted_path_kpis(lambda_agg, attempts, delay, p, e)


def grant_free_kpis(lambda_agg: float, po: float, delay: float,
                    p: SystemParams, e: EnergyParams) -> KpiReport:
    """KPI row of the grant-free scheme at a per-attempt outage and a
    mean delay, modelled or measured."""
    return KpiReport(
        expected_delay=delay,
        battery_lifetime=battery_lifetime(po, p, e),
        energy_efficiency=energy_efficiency(po, p, e),
        spectral_efficiency=spectral_efficiency(lambda_agg, p, po),
    )

