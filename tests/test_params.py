"""Parameter containers, unit conversions and the config loader."""

import json
import math

import numpy as np
import pytest

from gfaloha.params import (EnergyParams, InvalidParamsError, SystemParams,
                            db2lin, load_params, packet_duration,
                            slots_for_replicas, zc_root_ok)


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


@pytest.mark.parametrize("kw", [dict(N=2.5, M=5), dict(N=2.0), dict(M=4.0),
                                dict(N=True, M=4), dict(Nzc=23.0),
                                dict(D=100.0), dict(Doh=True), dict(Doh=50.5)])
def test_validate_rejects_non_integer_counts(kw):
    with pytest.raises(InvalidParamsError, match="integers"):
        SystemParams(**kw).validate()


@pytest.mark.parametrize("kw", [dict(W="200"), dict(Tp=None),
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
    SystemParams(W=200, Tp=np.float64(0.5), Fm=np.int64(100)).validate()


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
    p = SystemParams()
    assert packet_duration(p) == 0.5
    assert p.Tp == 0.5   # written back


def test_packet_duration_scales_with_rate():
    p = SystemParams(D=200)
    assert packet_duration(p) == pytest.approx(1.0)
    p = SystemParams(gamma=db2lin(9.0))   # higher SNR, shorter packet
    assert packet_duration(p) < 0.5
    assert packet_duration(p) == pytest.approx(
        100.0 / (200.0 * math.log2(1.0 + db2lin(3.0))))


def test_load_params_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"W": 100.0, "N": 4, "M": 8},
                               "energy": {"Tr": 1200.0}}))
    p, e = load_params(cfg)
    assert p.W == 100.0 and p.N == 4
    assert e.Tr == 1200.0
    assert e.Pc == 1e-3   # untouched default


def test_load_params_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"bandwidth": 100.0}}))
    with pytest.raises(InvalidParamsError, match="bandwidth"):
        load_params(cfg)
    cfg.write_text(json.dumps({"radio": {}}))
    with pytest.raises(InvalidParamsError, match="radio"):
        load_params(cfg)


@pytest.mark.parametrize("text", ['[]', '5', '{"system": []}', '{"system": "x"}',
                                  '{"energy": 5}', '{"experiment": [1]}'])
def test_load_params_rejects_non_object_sections(tmp_path, text):
    # the file and each of its sections is a JSON object; a string section
    # is not read as a list of unknown keys
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(InvalidParamsError, match="JSON object"):
        load_params(cfg)
