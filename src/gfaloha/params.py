"""System and energy parameter sets with the default link budget.

All quantities are kept in SI base units (seconds, Hz, watts, joules) and
linear ratios. dB values are converted at the edge, never stored.
"""

from __future__ import annotations

import json
import math
from numbers import Integral, Real
from dataclasses import dataclass, fields, replace


def db2lin(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


# Thermal noise density at 290 K, -174 dBm/Hz expressed in W/Hz.
THERMAL_NOISE_W_PER_HZ = db2lin(-174.0) * 1e-3

# Root of the receiver's Zadoff-Chu preamble.
ZC_ROOT = 5


class InvalidParamsError(ValueError):
    """A parameter set violates one of its invariants."""


def is_integer(x) -> bool:
    """An integer, Python or numpy, that is not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A real number, Python or numpy, that is not a bool and is finite
    as a float."""
    if not isinstance(x, Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:       # an int past the float range
        return False


def zc_root_ok(nzc: int) -> bool:
    """Whether ZC_ROOT yields a Zadoff-Chu sequence of length nzc: the
    length odd and at least 3, the root in (0, nzc) and coprime with it."""
    return (nzc >= 3 and nzc % 2 == 1 and 0 < ZC_ROOT < nzc
            and math.gcd(ZC_ROOT, nzc) == 1)


def slots_for_replicas(n: int) -> int:
    """Default virtual-frame length: M = 2N, except the degenerate N = 1."""
    if n < 1:
        raise InvalidParamsError(f"replica count must be >= 1, got {n}")
    return 1 if n == 1 else 2 * n


@dataclass(frozen=True)
class SystemParams:
    """Radio and framing parameters of the grant-free uplink (immutable)."""

    W: float = 200.0            # occupied signal bandwidth, Hz
    Fm: float = 100.0           # max carrier frequency offset magnitude, Hz
    Fs: float = 4000.0          # receiver sampling rate, Hz
    Tb: float = 0.01            # modulation symbol duration, s
    D: int = 100                # report payload size incl. overhead, bits
    Doh: int = 50               # overhead share of the report, bits
    gamma: float = db2lin(6.0)  # target SNR at the receiver, linear
    Gamma: float = db2lin(6.0)  # SNR gap of the modulation/coding scheme, linear
    St: float = db2lin(6.0) / 2.0  # decoding SINR threshold, linear
    N0: float = THERMAL_NOISE_W_PER_HZ  # noise power density, W/Hz
    Nzc: int = 23               # preamble (Zadoff-Chu) length, symbols
    M: int = 4                  # virtual frame length, slots
    N: int = 2                  # replicas transmitted per packet
    Tmax: float = 2.0           # receiver detection-frame cap, s
    Tack: float = 0.5           # acknowledgement wait before a retry, s

    def validate(self, sample_level: bool = False) -> "SystemParams":
        """Check invariants, returning self so calls can be chained.

        sample_level additionally enforces the constraints the waveform
        chain needs (integer samples per symbol, adequate sampling rate,
        a frame cap and a packet each longer than the preamble, a
        preamble length the Zadoff-Chu root ZC_ROOT is valid for).
        """
        counts = ("N", "M", "Nzc", "D", "Doh")
        if not all(is_integer(getattr(self, name)) for name in counts):
            raise InvalidParamsError("N, M, Nzc, D and Doh must be integers")
        for f in fields(self):
            if f.name not in counts and not is_real(getattr(self, f.name)):
                raise InvalidParamsError(f"{f.name} must be a finite number")
        if self.W <= 0 or self.Fm < 0 or self.Fs <= 0 or self.Tb <= 0:
            raise InvalidParamsError("W, Fs, Tb must be positive and Fm >= 0")
        if self.Tmax <= 0 or self.Tack < 0:
            raise InvalidParamsError("Tmax must be positive and Tack >= 0")
        if not (0 <= self.Doh < self.D):
            raise InvalidParamsError("need 0 <= Doh < D")
        if self.gamma <= 0 or self.Gamma <= 0 or self.N0 <= 0:
            raise InvalidParamsError("gamma, Gamma, N0 must be positive")
        try:    # each is positive, yet the rate can round to 0 or to inf
            tp = self.Tp
        except ArithmeticError:
            tp = 0.0
        if not 0 < tp < math.inf:
            raise InvalidParamsError("the link budget gives no finite Tp > 0")
        if not (0 < self.St <= self.gamma):
            raise InvalidParamsError(
                f"decoding threshold St={self.St:g} must lie in (0, gamma={self.gamma:g}]")
        if not (1 <= self.N <= self.M):
            raise InvalidParamsError(f"need 1 <= N <= M, got N={self.N}, M={self.M}")
        if self.Nzc < 1:
            raise InvalidParamsError("Nzc must be >= 1")
        if sample_level:
            sps = self.Fs * self.Tb
            if abs(sps - round(sps)) > 1e-9 or round(sps) < 1:
                raise InvalidParamsError(
                    f"Fs*Tb = {sps:g} must be a positive integer sample count")
            if round(self.Tmax * self.Fs) <= self.Nzc * self.samples_per_symbol:
                raise InvalidParamsError("Tmax must exceed the preamble")
            if round(self.Tp / self.Tb) <= self.Nzc:
                raise InvalidParamsError("the packet Tp must exceed the preamble")
            if self.Fs < 2.0 * (2.0 * self.Fm + self.W):
                raise InvalidParamsError(
                    "Fs must be at least 2*(2*Fm + W) to represent offset packets")
            if not zc_root_ok(self.Nzc):
                raise InvalidParamsError(
                    f"Nzc={self.Nzc} must be odd, >= 3 and coprime with the "
                    f"preamble root {ZC_ROOT} (which it must exceed)")
        return self

    @property
    def Tp(self) -> float:
        """Packet duration from the link budget: D / (W*log2(1 + gamma/Gamma)) s."""
        return self.D / (self.W * math.log2(1.0 + self.gamma / self.Gamma))

    @property
    def samples_per_symbol(self) -> int:
        return int(round(self.Fs * self.Tb))

    def with_replicas(self, n: int) -> "SystemParams":
        """Copy with N replicas and the matching default frame length."""
        return replace(self, N=n, M=slots_for_replicas(n)).validate()


@dataclass(frozen=True)
class EnergyParams:
    """Device energy budget and deployment geometry."""

    E0: float = 10000.0     # battery capacity, J (not part of the link budget)
    Tr: float = 600.0       # mean time between reports of one device, s
    Est: float = 1e-3       # wake-up/startup energy per report, J
    Pc: float = 1e-3        # circuit power while active, W
    alpha: float = 2.0      # PA inefficiency multiplier on radiated power
    Rc: float = 1000.0      # cell radius, m
    G: float = 1.175e-3     # aggregate antenna/propagation gain, linear
    sigma_pl: float = 3.76  # pathloss exponent
    Esynch: float = 6e-3    # network synchronization energy (granted mode), J
    Dsynch: float = 2.0     # synchronization delay (granted mode), s

    def validate(self) -> "EnergyParams":
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_real(value) or value <= 0:
                raise InvalidParamsError(f"{f.name} must be a positive finite number")
        return self


def _from_mapping(cls, data: dict, label: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise InvalidParamsError(f"unknown {label} keys: {sorted(unknown)}")
    return cls(**data)


def _read_config(path) -> tuple[SystemParams, EnergyParams, dict]:
    """Parse a JSON config once: its system and energy sections as
    validated parameter sets, and its experiment section as a dict.

    The file and each section present must be a JSON object.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InvalidParamsError("a config file must hold a JSON object")
    extra = set(raw) - {"system", "energy", "experiment"}
    if extra:
        raise InvalidParamsError(f"unknown config sections: {sorted(extra)}")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise InvalidParamsError(
                f"config section {name!r} must be a JSON object")
    p = _from_mapping(SystemParams, raw.get("system", {}), "system").validate()
    e = _from_mapping(EnergyParams, raw.get("energy", {}), "energy").validate()
    return p, e, raw.get("experiment", {})

