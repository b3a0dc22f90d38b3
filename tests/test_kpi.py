"""KPI formulas and the granted-access baseline."""

import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from scipy.special import lambertw

from gfaloha.kpi import (RA_OPPORTUNITIES, RA_PERIOD, attempt_energy,
                         avg_transmit_power, battery_lifetime,
                         energy_efficiency, expected_delay, grant_free_kpis,
                         granted_attempt_energy, granted_kpis,
                         granted_report_energy, ra_contention,
                         spectral_efficiency)
from gfaloha.params import EnergyParams, InvalidParamsError, SystemParams

P = SystemParams()
E = EnergyParams()


def test_expected_delay():
    assert expected_delay(0.0, P) == pytest.approx(P.M * P.Tp)
    assert expected_delay(0.5, P) == pytest.approx(
        (P.M * P.Tp + P.Tack) / 0.5 - P.Tack)
    assert expected_delay(1.0, P) == math.inf
    with pytest.raises(InvalidParamsError):
        expected_delay(1.5, P)


def test_avg_transmit_power_formula():
    expect = (2.0 * E.Rc ** E.sigma_pl * P.gamma * P.N0 * P.W * P.Gamma
              / (E.G * (E.sigma_pl + 2.0)))
    assert avg_transmit_power(P, E) == pytest.approx(expect)


def test_attempt_energy_accounting():
    pt = avg_transmit_power(P, E)
    by_hand = ((E.Pc + E.alpha * pt) * P.N * P.Tp
               + E.Pc * (P.M - P.N) * P.Tp + E.Pc * P.Tack)
    assert attempt_energy(P, E) == pytest.approx(by_hand)
    # transmitting more replicas costs more
    assert attempt_energy(P.with_replicas(4), E) > attempt_energy(P, E)


def test_battery_lifetime():
    full = battery_lifetime(0.0, P, E)
    assert full == pytest.approx(E.E0 * E.Tr / (E.Est + attempt_energy(P, E)))
    assert battery_lifetime(0.5, P, E) < full
    assert battery_lifetime(1.0, P, E) == 0.0
    for po in (-0.1, 1.5):
        with pytest.raises(InvalidParamsError):
            battery_lifetime(po, P, E)


def test_energy_and_spectral_efficiency():
    assert energy_efficiency(0.2, P, E) == pytest.approx(
        0.8 * (P.D - P.Doh) / attempt_energy(P, E))
    assert spectral_efficiency(2.0, P, 0.0) == pytest.approx(
        2.0 * 50.0 / (2.0 * (P.Fm + P.W / 2.0)))
    assert spectral_efficiency(2.0, P, 0.5) == pytest.approx(
        spectral_efficiency(2.0, P, 0.0) / 2.0)
    for po in (-0.1, 1.5):
        with pytest.raises(InvalidParamsError):
            energy_efficiency(po, P, E)
    with pytest.raises(InvalidParamsError):
        spectral_efficiency(-1.0, P, 0.0)


def test_ra_contention_fixed_point():
    attempts, p_succ, stable = ra_contention(0.5)
    assert stable and attempts >= 1.0
    a = attempts * 0.5 * RA_PERIOD   # attempts/report * reports/period
    # stationarity: offered attempts thin back to the demand
    assert a * math.exp(-a / RA_OPPORTUNITIES) == pytest.approx(
        0.5 * RA_PERIOD, rel=1e-9)
    assert p_succ == pytest.approx(math.exp(-a / RA_OPPORTUNITIES), rel=1e-9)
    assert ra_contention(0.0) == (1.0, 1.0, True)
    with pytest.raises(InvalidParamsError):
        ra_contention(-1.0)


def test_ra_contention_matches_scipy_lambertw():
    # the plain-Python Lambert W against scipy's on 10^4 demands over the
    # whole stable range
    opp = RA_OPPORTUNITIES
    top = (1 - 1e-9) * opp / math.e
    rng = np.random.default_rng(10)
    demands = np.concatenate([rng.uniform(0.0, top, 10 ** 4 - 3),
                              [1e-300, 1e-12, top]])
    for demand in demands[demands > 0]:
        attempts, p_succ, stable = ra_contention(demand / RA_PERIOD)
        a = -opp * float(lambertw(-demand / opp, 0).real)
        assert stable
        assert p_succ == pytest.approx(demand / a, rel=1e-12, abs=0)
        assert attempts == pytest.approx(a / demand, rel=1e-12, abs=0)


def test_ra_contention_near_the_branch_point():
    # near demand = O/e, w is ill-conditioned: dw/dx = 1/(e^w (1 + w))
    # turns one ulp of x into ~1e-12 of w, in scipy's value as in this
    # one, so the two agree to that scale there, not to the last bits
    opp = RA_OPPORTUNITIES
    top = (1 - 1e-9) * opp / math.e
    for demand in np.linspace(top * (1 - 1e-6), top, 2000):
        w = float(lambertw(-demand / opp, 0).real)
        a = ra_contention(demand / RA_PERIOD)[0] * demand
        assert a == pytest.approx(-opp * w, rel=1e-11, abs=0)


def test_ra_contention_saturates():
    lam_max = RA_OPPORTUNITIES / math.e / RA_PERIOD
    attempts, p_succ, stable = ra_contention(lam_max * 1.01)
    assert not stable and attempts == math.inf and p_succ == 0.0
    assert ra_contention(lam_max * (1 + 1e-12)) == (math.inf, 0.0, False)
    assert ra_contention(lam_max * 0.99)[2]
    # the exact saturation demand sits on Lambert W's branch point
    assert ra_contention(lam_max) == (math.e, 1.0 / math.e, True)


def test_granted_kpis_stable_and_saturated():
    rep = granted_kpis(0.1, P, E)
    assert rep.spectral_efficiency == spectral_efficiency(0.1, P, 0.0)
    assert rep.expected_delay >= RA_PERIOD / 2.0 + E.Dsynch + P.Tp
    e_report = granted_report_energy(P, E, ra_contention(0.1)[0])
    assert rep.battery_lifetime == pytest.approx(E.E0 * E.Tr / e_report)
    sat = granted_kpis(10.0, P, E)
    assert sat.energy_efficiency == 0.0
    assert sat.battery_lifetime == 0.0
    assert sat.expected_delay == math.inf


def test_granted_energy_components():
    burst = granted_attempt_energy(P, E)
    assert burst < attempt_energy(P, E)   # preamble-length vs full frame
    one = granted_report_energy(P, E, attempts=1.0)
    two = granted_report_energy(P, E, attempts=2.0)
    assert two - one == pytest.approx(burst)


def test_grant_free_report_wiring():
    rep = grant_free_kpis(0.2, 0.1, expected_delay(0.1, P), P, E)
    assert rep.spectral_efficiency == pytest.approx(
        spectral_efficiency(0.2, P, 0.0) * 0.9)
    assert rep.expected_delay == pytest.approx(expected_delay(0.1, P))
    assert rep.energy_efficiency == energy_efficiency(0.1, P, E)
    assert {f.name for f in fields(rep)} == {
        "expected_delay", "battery_lifetime", "energy_efficiency",
        "spectral_efficiency"}


def test_kpi_report_is_frozen():
    # a report is scored once, from its operating point, and never edited
    rep = grant_free_kpis(0.2, 0.1, expected_delay(0.1, P), P, E)
    with pytest.raises(FrozenInstanceError):
        rep.expected_delay = 0.0
