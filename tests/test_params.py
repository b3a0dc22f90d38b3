"""Parameter containers, unit conversions and the config loader."""

import json
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from gfaloha.experiment import ExperimentConfig
from gfaloha.params import (EnergyParams, InvalidParamsError, SystemParams,
                            db2lin, is_integer, is_real, slots_for_replicas,
                            zc_root_ok)


def test_db_roundtrip():
    assert db2lin(0.0) == 1.0
    assert db2lin(-3.0) * db2lin(3.0) == pytest.approx(1.0, rel=1e-12)
    assert db2lin(10.0) == pytest.approx(10.0)


def test_slots_for_replicas():
    # M = 2N except the degenerate single-replica frame
    assert slots_for_replicas(1) == 1
    assert slots_for_replicas(2) == 4
    assert slots_for_replicas(4) == 8
    with pytest.raises(InvalidParamsError):
        slots_for_replicas(0)


def test_default_system_params():
    p = SystemParams().validate(sample_level=True)
    assert p.W == 200.0 and p.Fm == 100.0 and p.Fs == 4000.0
    assert p.samples_per_symbol == 40
    assert p.gamma == pytest.approx(db2lin(6.0))
    # default decoding threshold sits half the operating SNR
    assert p.St == pytest.approx(p.gamma / 2.0)
    assert p.N == 2 and p.M == 4


# (value, is_integer, is_real): the kinds a parameter field can hold
NUMBER_KINDS = [
    (3, True, True), (2.5, False, True), (True, False, False),
    (np.bool_(True), False, False), (np.int64(3), True, True),
    (np.float32(2.5), False, True), (np.float32("inf"), False, False),
    (10 ** 400, True, False), (-10 ** 400, True, False),
    (math.inf, False, False), (-math.inf, False, False),
    (math.nan, False, False), (Fraction(1, 3), False, True),
    ("3", False, False), (None, False, False),
]


@pytest.mark.parametrize("x, integer, real", NUMBER_KINDS)
def test_number_checks(x, integer, real):
    assert is_integer(x) is integer
    assert is_real(x) is real


def test_validate_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        SystemParams(N=5, M=4).validate()
    with pytest.raises(InvalidParamsError):
        SystemParams(St=db2lin(7.0)).validate()   # above gamma
    with pytest.raises(InvalidParamsError):
        SystemParams(D=50, Doh=50).validate()
    with pytest.raises(InvalidParamsError):
        SystemParams(Tb=0.0103).validate(sample_level=True)  # Fs*Tb not integer
    with pytest.raises(InvalidParamsError):
        SystemParams(Fs=600.0).validate(sample_level=True)   # under 2*(2Fm+W)
    for kw in (dict(Tmax=0.0), dict(Tmax=-1.0), dict(Tack=-0.1)):
        with pytest.raises(InvalidParamsError, match="Tmax must be"):
            SystemParams(**kw).validate()
    with pytest.raises(InvalidParamsError, match="Nzc must be"):
        SystemParams(Nzc=0).validate()


@pytest.mark.parametrize("kw", [dict(N=2.5, M=5), dict(N=2.0), dict(M=4.0),
                                dict(N=True, M=4), dict(Nzc=23.0),
                                dict(D=100.0), dict(Doh=True), dict(Doh=50.5)])
def test_validate_rejects_non_integer_counts(kw):
    with pytest.raises(InvalidParamsError, match="integers"):
        SystemParams(**kw).validate()


@pytest.mark.parametrize("kw", [dict(W="200"), dict(Tmax=None),
                                dict(Tack=math.nan), dict(Fm=math.inf),
                                dict(gamma=-math.inf), dict(St=True),
                                dict(N0=[1e-20]), dict(W=10 ** 400)])
def test_validate_rejects_non_finite_values(kw):
    with pytest.raises(InvalidParamsError, match="finite number"):
        SystemParams(**kw).validate()


def test_validate_accepts_numpy_integer_counts():
    p = SystemParams(N=np.int64(2), M=np.int32(4), Nzc=np.int64(23))
    p.validate(sample_level=True)
    # an integer or numpy number is a number wherever a float belongs
    SystemParams(W=200, Tmax=np.float64(2.0), Fm=np.int64(100)).validate()


@pytest.mark.parametrize("nzc,ok", [(4, False), (5, False), (15, False),
                                    (25, False), (23, True)])
def test_sample_level_checks_preamble_length(nzc, ok):
    # the receiver's Zadoff-Chu root 5 needs an odd length above 5 and
    # coprime with 5; the plain check accepts any positive length
    p = SystemParams(Nzc=nzc).validate()
    assert zc_root_ok(nzc) == ok
    if ok:
        p.validate(sample_level=True)
    else:
        with pytest.raises(InvalidParamsError):
            p.validate(sample_level=True)


def test_with_replicas():
    p4 = SystemParams().with_replicas(4)
    assert (p4.N, p4.M) == (4, 8)
    p1 = SystemParams().with_replicas(1)
    assert (p1.N, p1.M) == (1, 1)


def test_energy_params_validation():
    EnergyParams().validate()
    EnergyParams(Tr=600, E0=np.float32(1e4)).validate()
    with pytest.raises(InvalidParamsError):
        EnergyParams(Pc=0.0).validate()


@pytest.mark.parametrize("kw", [dict(Tr="600"), dict(Tr=math.inf),
                                dict(Pc=math.nan), dict(Est=None),
                                dict(alpha=True)])
def test_energy_params_reject_non_finite_values(kw):
    with pytest.raises(InvalidParamsError, match="positive finite number"):
        EnergyParams(**kw).validate()


def test_packet_duration_design_point():
    # Tp is derived from the link budget, not a field a config can set
    assert SystemParams().Tp == 0.5
    assert "Tp" not in {f.name for f in fields(SystemParams)}
    with pytest.raises(TypeError):
        SystemParams(Tp=0.5)


def test_packet_duration_scales_with_rate():
    p = SystemParams(D=200)
    assert p.Tp == pytest.approx(1.0)
    p = SystemParams(gamma=db2lin(9.0))   # higher SNR, shorter packet
    assert p.Tp < 0.5
    assert p.Tp == pytest.approx(
        100.0 / (200.0 * math.log2(1.0 + db2lin(3.0))))


@pytest.mark.parametrize("kw", [dict(Gamma=0.0), dict(Gamma=-1.0),
                                dict(W=0.0), dict(D=0),
                                # each positive, but the rate underflows to
                                # zero or overflows to an infinite SNR
                                dict(gamma=1e-20, St=1e-21),
                                dict(gamma=1e300, Gamma=1e-300)])
def test_packet_duration_rejects_invalid_params(kw):
    # refused before any reader of Tp divides by zero or by Tp
    with pytest.raises(InvalidParamsError):
        SystemParams(**kw).validate()


def test_load_params_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"W": 100.0, "N": 4, "M": 8},
                               "energy": {"Tr": 1200.0}}))
    c = ExperimentConfig.from_file(cfg)
    p, e = c.system, c.energy
    assert p.W == 100.0 and p.N == 4
    assert e.Tr == 1200.0
    assert e.Pc == 1e-3   # untouched default


def test_load_params_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"bandwidth": 100.0}}))
    with pytest.raises(InvalidParamsError, match="bandwidth"):
        ExperimentConfig.from_file(cfg)
    cfg.write_text(json.dumps({"radio": {}}))
    with pytest.raises(InvalidParamsError, match="radio"):
        ExperimentConfig.from_file(cfg)


@pytest.mark.parametrize("text", ['[]', '5', '{"system": []}', '{"system": "x"}',
                                  '{"energy": 5}', '{"experiment": [1]}'])
def test_load_params_rejects_non_object_sections(tmp_path, text):
    # the file and each of its sections is a JSON object; a string section
    # is not read as a list of unknown keys
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(InvalidParamsError, match="JSON object"):
        ExperimentConfig.from_file(cfg)
