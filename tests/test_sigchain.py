"""Sample-level chain: synthesis, framing, CFO branches, peak validation.

The deterministic scenarios pin the behavior of the full
frame -> periodogram -> correlate -> cross-validate -> extract pipeline
on noise-free inputs; the statistical error rates of the same pipeline
under noise live in the acceptance suite.
"""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gfaloha import experiment as ex
from gfaloha import sigchain as sg
from gfaloha.params import InvalidParamsError, SystemParams

P = SystemParams()
E_PRE = 23 * 40   # clean preamble correlation energy


@pytest.fixture(scope="module")
def dt():
    return sg.build_drift_table(P)


def chain(x, dt, thr=1.4 / P.gamma):
    """Decode a raw stream into (position, cfo, bits|None) triples."""
    return sg.decode_stream(x, P, dt, thr)


def random_bits(rng, p=P):
    """A random full-packet payload."""
    return rng.integers(0, 2, size=sg.payload_bits_per_packet(p))


def packet_stream(specs, n, rng=None):
    """Packets (start, cfo, bits) in a zero stream; bits None draws a
    random payload from rng, in spec order."""
    sig = np.zeros(n, dtype=complex)
    for s0, cfo, bits in specs:
        if bits is None:
            bits = random_bits(rng)
        sig[s0: s0 + 2000] += sg.synthesize_packet(bits, P, cfo)
    return sig


# ---------------------------------------------------------------------------
# Waveform building blocks
# ---------------------------------------------------------------------------

def test_zc_preamble_properties():
    z = sg.zc_preamble(23)
    assert z.size == 23
    assert np.allclose(np.abs(z), 1.0)
    # ideal periodic autocorrelation: zero at every nonzero cyclic shift
    for s in range(1, 23):
        assert abs(np.vdot(z, np.roll(z, s))) < 1e-9
    with pytest.raises(InvalidParamsError):
        sg.zc_preamble(24)
    with pytest.raises(InvalidParamsError):
        sg.zc_preamble(15)   # shares a factor with the root 5


def test_pam4_mapping():
    levels = sg.pam4_map([0, 0, 0, 1, 1, 1, 1, 0])
    assert np.allclose(levels, np.array([0.0, 1.0, 2.0, 3.0]) / math.sqrt(3.5))
    assert np.mean(levels ** 2) == pytest.approx(1.0)   # unit mean power
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 200).astype(np.uint8)
    assert np.array_equal(sg.pam4_demap(sg.pam4_map(bits)), bits)
    with pytest.raises(InvalidParamsError):
        sg.pam4_map([0, 1, 0])


@pytest.mark.parametrize("bits", [[0, 2], [1, 1, 3, 0], [0.5, 1]])
def test_pam4_map_rejects_non_binary(bits):
    with pytest.raises(InvalidParamsError):
        sg.pam4_map(bits)


def test_gray_labels_adjacent():
    grid = sg.pam4_map([0, 0, 0, 1, 1, 1, 1, 0]).reshape(-1)
    bits = sg.pam4_demap(grid).reshape(-1, 2)
    flips = np.abs(np.diff(bits.astype(int), axis=0)).sum(axis=1)
    assert np.all(flips == 1)


def test_payload_bits_per_packet():
    assert sg.payload_bits_per_packet(P) == 2 * (50 - 23)
    with pytest.raises(InvalidParamsError):
        sg.payload_bits_per_packet(SystemParams(D=40, Doh=20))   # Tp 0.2 s


def test_synthesize_packet():
    rng = np.random.default_rng(1)
    pk = sg.synthesize_packet(random_bits(rng), P, 40.0)
    assert pk.size == round(P.Tp * P.Fs)
    t = np.arange(E_PRE) / P.Fs
    demod = pk[:E_PRE] * np.exp(-2j * math.pi * 40.0 * t)
    assert np.allclose(demod, sg.upsampled_preamble(P), atol=1e-9)
    # the caller gives the full flat payload: a short even count or a
    # 2x2 array would make a packet shorter than Tp
    n_bits = sg.payload_bits_per_packet(P)
    for bits in (None, [0, 1, 0, 1.0], np.array([[0, 1], [1, 0]])):
        with pytest.raises(InvalidParamsError, match=f"{n_bits} bits"):
            sg.synthesize_packet(bits, P, 0.0)


def test_awgn_per_sample_snr():
    rng = np.random.default_rng(2)
    sig = np.ones(200_000, dtype=complex)
    noisy = sg.awgn(sig, 2.0, rng)
    noise_power = np.mean(np.abs(noisy - sig) ** 2)
    assert noise_power == pytest.approx(0.5, rel=0.02)
    with pytest.raises(InvalidParamsError):
        sg.awgn(sig, 0.0, rng)


# ---------------------------------------------------------------------------
# Event framing
# ---------------------------------------------------------------------------

def test_frame_events_silence_and_single_packet():
    quiet = np.zeros(4000, dtype=complex)
    assert sg.frame_events(quiet, P, power_threshold=0.1) == []

    sig = packet_stream([(1000, 10.0, None)], 6000,
                        rng=np.random.default_rng(3))
    frames = sg.frame_events(sig, P, power_threshold=0.1)
    assert len(frames) == 1
    start, stop = frames[0]
    assert 0 <= start <= 1000 and 3000 <= stop <= sig.size   # packet plus guard
    with pytest.raises(InvalidParamsError):
        sg.frame_events(quiet, P, power_threshold=0.0)


@pytest.mark.parametrize("d, n_frames", [(960, 1), (961, 2)])
def test_frame_events_merge_distance(d, n_frames):
    # an impulse smooths into a run of win = 8 symbols = 320 samples, so
    # impulses 3 * win apart leave runs 2 * win + 1 apart, whose widened
    # spans touch; one sample further they stay two frames
    x = np.zeros(4000, dtype=complex)
    x[[1000, 1000 + d]] = math.sqrt(320)   # smoothed power 1
    frames = sg.frame_events(x, P, power_threshold=0.5)
    assert len(frames) == n_frames
    assert frames[0][0] == 1000 - 159 - 320   # run start - lead - win


def test_frame_events_split_at_cap():
    rng = np.random.default_rng(4)
    # 3 s of continuous activity against the 2 s frame cap
    specs = [(k * 2000, 0.0, None) for k in range(6)]
    sig = packet_stream(specs, 13000, rng=rng)
    frames = sg.frame_events(sig, P, power_threshold=0.1)
    assert len(frames) >= 2
    cap = round(P.Tmax * P.Fs)
    assert all(stop - start <= cap for start, stop in frames)
    # consecutive frames of one run overlap by exactly one preamble
    for (_, stop), (start, _) in zip(frames, frames[1:]):
        assert start == stop - E_PRE


def test_frame_events_long_run_splits_evenly(dt):
    # a run just over the cap splits into two near-equal frames, not a
    # full frame plus a sliver too short for the periodogram
    rng = np.random.default_rng(8)
    bits = [random_bits(rng) for _ in range(4)]
    specs = [(k * 2000, 30.0 * k - 45.0, bits[k]) for k in range(4)]
    sig = packet_stream(specs, 8010)
    frames = sg.frame_events(sig, P, power_threshold=0.1)
    assert [stop - start for start, stop in frames] == [4465, 4465]
    assert frames[1][0] == frames[0][1] - E_PRE
    # the chain runs on both frames (a 10-sample frame used to raise), and
    # every packet decodes bit-exactly, the one whose preamble straddles
    # the old cut at 4005 and the one at 0 among the periodogram's
    # sidelobe lines included
    got = chain(sig, dt, thr=0.1)
    assert sorted(pos for pos, _, _ in got) == [0, 2000, 4000, 6000]
    for pos, _, decoded in got:
        assert np.array_equal(decoded, bits[pos // 2000])


def test_frame_events_rejects_cap_under_one_preamble():
    sig = np.ones(4000, dtype=complex)
    short = SystemParams(Tmax=E_PRE / P.Fs)
    with pytest.raises(InvalidParamsError):
        sg.frame_events(sig, short, power_threshold=0.1)
    # sample-level validation refuses the same cap, and one sample more
    # passes both
    with pytest.raises(InvalidParamsError, match="Tmax must exceed"):
        short.validate(sample_level=True)
    longer = SystemParams(Tmax=(E_PRE + 1) / P.Fs).validate(sample_level=True)
    sg.frame_events(sig, longer, power_threshold=0.1)


def test_decode_stream_drops_a_packet_seen_in_two_frames(dt, monkeypatch):
    # overlapping frames can validate one preamble twice; the chain keeps
    # the first and leaves the decisions digest as if it came once
    rng = np.random.default_rng(9)
    sig = packet_stream([(300, -20.0, None), (2600, 35.0, None)], 5000, rng=rng)
    single = sg.decode_stream(sig, P, dt, 0.1)
    assert len(single) == 2
    frame = sg.frame_events
    monkeypatch.setattr(sg, "frame_events", lambda *a, **k: 2 * frame(*a, **k))
    doubled = sg.decode_stream(sig, P, dt, 0.1)
    assert [(q, c) for q, c, _ in doubled] == [(q, c) for q, c, _ in single]
    assert all(np.array_equal(a, b) for (_, _, a), (_, _, b)
               in zip(doubled, single))
    once, twice = hashlib.sha256(), hashlib.sha256()
    ex._digest(once, single)
    ex._digest(twice, doubled)
    assert twice.digest() == once.digest()


# ---------------------------------------------------------------------------
# CFO estimation and correlation
# ---------------------------------------------------------------------------

def test_periodogram_two_tones():
    rng = np.random.default_rng(5)
    sig = packet_stream([(200, -60.0, None), (2400, 60.0, None)], 5000, rng=rng)
    start, stop = sg.frame_events(sig, P, 0.1)[0]
    cfos = sg.periodogram_cfos(sig[start:stop], P)
    assert len(cfos) >= 2
    assert min(abs(f + 60.0) for f in cfos) < 1.0
    assert min(abs(f - 60.0) for f in cfos) < 1.0


def test_periodogram_near_dc():
    # a carrier line straddling 0 Hz must not vanish into the FFT wrap
    rng = np.random.default_rng(6)
    sig = packet_stream([(500, 0.3, None)], 4000, rng=rng)
    start, stop = sg.frame_events(sig, P, 0.1)[0]
    cfos = sg.periodogram_cfos(sig[start:stop], P)
    assert cfos and min(abs(f - 0.3) for f in cfos) < 1.5


def test_periodogram_guards():
    with pytest.raises(InvalidParamsError):
        sg.periodogram_cfos(np.ones(32, dtype=complex), P)
    assert sg.periodogram_cfos(np.zeros(4000, dtype=complex), P) == []


def test_peak_map_clean_peak():
    rng = np.random.default_rng(7)
    sig = packet_stream([(800, 25.0, None)], 4000, rng=rng)
    branch = sg.peak_map(sig, [25.0], P).branches[0]
    assert 800 in branch.positions.tolist()
    k = branch.positions.tolist().index(800)
    assert branch.magnitudes[k] == pytest.approx(E_PRE, rel=1e-6)


def test_peak_map_suppression_spans_half_a_symbol():
    # at Nzc = 11 a noise-born pair of maxima 20 samples apart must
    # collapse to one peak: the suppression span is half a symbol,
    # whatever the preamble length
    p = SystemParams(Nzc=11)
    rng = np.random.default_rng(6)
    sig = np.zeros(6000, dtype=complex)
    pk = sg.synthesize_packet(random_bits(rng, p), p, 20.0)
    sig[500: 500 + pk.size] += pk
    noisy = sg.awgn(sig, p.gamma, rng)
    pos = sg.peak_map(noisy, [20.0], p).branches[0].positions
    assert 500 in pos.tolist()
    assert np.all(np.diff(pos) > p.samples_per_symbol // 2)


def test_peak_map_branch_weights():
    rng = np.random.default_rng(8)
    sig = packet_stream([(500, 0.0, None)], 4000, rng=rng)
    pm = sg.peak_map(sig, [0.0, 77.0], P)
    assert pm.span == 4000 - E_PRE + 1
    w_true, w_junk = pm.branches[0].weight, pm.branches[1].weight
    assert w_true > 4 * w_junk   # real carrier line dominates


# ---------------------------------------------------------------------------
# Drift table
# ---------------------------------------------------------------------------

def test_drift_table_bounds(dt):
    sps = P.samples_per_symbol
    assert dt.shifts[dt.reach] == 0
    assert dt.gains[dt.reach] == pytest.approx(1.0)
    assert np.max(np.abs(dt.shifts)) <= (P.Nzc // 2) * sps
    assert np.all(dt.shifts % sps == 0)   # whole-symbol drifts


def test_drift_table_alt_sets(dt):
    # the argmax lag is always part of its own near-top set
    sps = P.samples_per_symbol
    assert dt.near.shape == (2 * dt.reach + 1, P.Nzc)
    for i in range(0, dt.shifts.size, 37):
        assert dt.near[i, dt.shifts[i] // sps + P.Nzc // 2]
    for df in (0.0, 21.0, 50.0, 150.0):
        tight = set(dt.shifts_window(df, 2.5).tolist())
        wide = set(dt.alt_window(df, 2.5).tolist())
        assert tight <= wide


def test_drift_table_deterministic(dt):
    again = sg.build_drift_table(P)
    for f in dataclasses.fields(sg.DriftTable):
        assert np.array_equal(getattr(dt, f.name), getattr(again, f.name))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 3]) | st.integers(0, 10_000),
       st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                max_size=4))
def test_cis_matches_direct_phasor(n, f):
    # the direct phasor rounds its own phase 2*pi*f*k/fs, as _cis does,
    # to about one ulp of the phase; past a few hundred radians that,
    # not the factoring, sets the difference
    f = np.array(f)
    want = np.exp(2j * np.pi * f[:, None] * np.arange(n) / P.Fs)
    got = sg._cis(f, n, P.Fs)
    assert got.shape == want.shape
    phase = 2 * np.pi * np.max(np.abs(f)) * n / P.Fs
    assert np.all(np.abs(got - want) <= 1e-12 + 4 * np.finfo(float).eps * phase)


NZC_ODD = [n for n in range(3, 32, 2) if n > 5 and math.gcd(5, n) == 1]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(NZC_ODD), st.integers(1, 40),
       st.sampled_from([0.0, 100.0, 300.0]) | st.floats(0.0, 300.0))
def test_drift_table_mirrors_at_opposite_offsets(nzc, sps, fm):
    # the grid is symmetric about 0, and the rows at +-f read one transform
    fs = 4000.0
    table = sg.build_drift_table(SystemParams(Nzc=nzc, Fs=fs, Tb=sps / fs,
                                              Fm=fm))
    m = table.reach
    rows = 2 * m + 1
    assert table.shifts.size == table.gains.size == rows
    assert table.near.shape == (rows, nzc)
    wrap = {-(nzc // 2) * sps, (nzc // 2) * sps}

    def alt(r):
        return set(((np.flatnonzero(table.near[r]) - nzc // 2) * sps).tolist())

    for i in range(m):
        j = rows - 1 - i   # offset i - m Hz and its mirror m - i Hz
        assert table.gains[i].tobytes() == table.gains[j].tobytes()
        a, b = int(table.shifts[i]), int(table.shifts[j])
        # a lag of exactly half the preamble wraps to -floor(Nzc/2) symbols
        # at both signs
        assert a == -b or {a, b} <= wrap
        assert {-q for q in alt(i)} ^ alt(j) <= wrap


@functools.lru_cache(maxsize=None)
def table_at(fm):
    return sg.build_drift_table(SystemParams(Fm=fm))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([0.0, 100.0, 300.0]), st.integers(0, 2 ** 32 - 1),
       st.integers(64, 4000), st.integers(1, 8),
       st.sampled_from([0.05, 1.0, 100.0]))
def test_drift_table_covers_every_branch_difference(fm, seed, n, k, snr):
    # a periodogram line lies within Fm + _CFO_MARGIN of zero plus the
    # half padded bin _refine can move it (Fs / 512 at the shortest
    # frame); spc_resolve reads the table at the difference of two lines
    # widened by _CFO_SLACK, so the grid must reach that far unclamped
    p = SystemParams(Fm=fm)
    bound = fm + sg._CFO_MARGIN + p.Fs / 512
    rng = np.random.default_rng(seed)
    # tones over the band, half of them within two bins of its edges
    edge = np.sign(rng.uniform(-1, 1, k)) * (fm + sg._CFO_MARGIN)
    f = np.where(rng.uniform(size=k) < 0.5,
                 edge + rng.uniform(-2, 2, k) * p.Fs / n,
                 rng.uniform(-bound - 20, bound + 20, k))
    t = np.arange(n) / p.Fs
    x = sg.awgn(np.sum(np.exp(2j * math.pi * f[:, None] * t), axis=0), snr, rng)
    assert all(abs(c) <= bound for c in sg.periodogram_cfos(x, p))
    assert table_at(fm).reach >= 2 * bound + sg._CFO_SLACK


def test_drift_table_validates_params():
    # a fractional samples-per-symbol count, and a preamble length the
    # root 5 does not fit
    for bad in (SystemParams(Tb=0.0101), SystemParams(Nzc=15)):
        with pytest.raises(InvalidParamsError):
            sg.build_drift_table(bad)


# ---------------------------------------------------------------------------
# Cross-branch validation
# ---------------------------------------------------------------------------

def test_spc_empty_map(dt):
    assert sg.spc_resolve(sg.PeakMap([], 0), dt) == []


def test_spc_single_branch_vacuous(dt):
    pm = sg.PeakMap([sg.PeakBranch(0.0, np.array([700]),
                                   np.array([920.0]), 1000.0)], 4000)
    out = sg.spc_resolve(pm, dt)
    assert [(v.position, v.cfo) for v in out] == [(700, 0.0)]


def test_spc_weight_floor_demotes_ghost_branch(dt):
    # full-magnitude peak on a sidelobe-grade carrier line: evidence only
    # (positions 500/717 differ by a non-multiple of the symbol span, so
    # no drift image of one can ever land on the other)
    def run(w):
        pm = sg.PeakMap([
            sg.PeakBranch(0.0, np.array([500]), np.array([920.0]), 1000.0),
            sg.PeakBranch(50.0, np.array([717]), np.array([919.0]), w),
        ], 4000)
        return {v.position for v in sg.spc_resolve(pm, dt)}
    assert run(300.0) == {500}          # below half the strongest line
    assert run(500.0) == {500, 717}     # exactly half: the floor test is <
    assert run(800.0) == {500, 717}


def test_spc_cancellation_claims_drift_image(dt):
    # branch B holds exactly the image of A's packet; validating A must
    # cancel it before it is examined on its own
    q = dt.shifts[dt.reach - 21]
    pm = sg.PeakMap([
        sg.PeakBranch(0.0, np.array([500]), np.array([920.0]), 1000.0),
        sg.PeakBranch(21.0, np.array([500 + q]),
                      np.array([0.85 * 920.0]), 900.0),
    ], 4000)
    out = sg.spc_resolve(pm, dt)
    assert [(v.position, v.cfo) for v in out] == [(500, 0.0)]


def test_spc_missing_evidence_vetoes(dt):
    # strong gate, live rival branch, but no peak anywhere near the image
    pm = sg.PeakMap([
        sg.PeakBranch(0.0, np.array([500]), np.array([920.0]), 1000.0),
        sg.PeakBranch(21.0, np.array([2000]), np.array([900.0]), 980.0),
    ], 4000)
    assert sg.spc_resolve(pm, dt) == []


def test_spc_span_exemption(dt):
    # every predicted image falls past the correlation span: branch is
    # exempt and the candidate validates on its own
    pm = sg.PeakMap([
        sg.PeakBranch(0.0, np.array([1980]), np.array([920.0]), 1000.0),
        sg.PeakBranch(-21.0, np.array([100]), np.array([800.0]), 990.0),
    ], 2000)
    out = sg.spc_resolve(pm, dt)
    assert [(v.position, v.cfo) for v in out] == [(1980, 0.0)]


# ---------------------------------------------------------------------------
# Full-chain scenarios (noise-free, deterministic)
# ---------------------------------------------------------------------------

def test_chain_single_packet_bits(dt):
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, sg.payload_bits_per_packet(P)).astype(np.uint8)
    sig = packet_stream([(500, 37.0, bits)], 6000)
    got = chain(sig, dt)
    assert len(got) == 1
    pos, cfo, decoded = got[0]
    assert pos == 500
    assert cfo == pytest.approx(37.0, abs=0.5)
    assert np.array_equal(decoded, bits)


def test_chain_two_packets_close_cfos(dt):
    rng = np.random.default_rng(10)
    sig = packet_stream([(400, -10.0, None), (1300, 25.0, None)], 6000, rng=rng)
    got = chain(sig, dt)
    by_pos = {g[0]: g[1] for g in got}
    assert sorted(by_pos) == [400, 1300]
    assert by_pos[400] == pytest.approx(-10.0, abs=2.0)
    assert by_pos[1300] == pytest.approx(25.0, abs=2.0)


def test_chain_two_packets_wide_cfos(dt):
    rng = np.random.default_rng(11)
    sig = packet_stream([(400, -75.0, None), (1300, 75.0, None)], 6000, rng=rng)
    got = chain(sig, dt)
    assert sorted(g[0] for g in got) == [400, 1300]


# ---------------------------------------------------------------------------
# Extraction and payload decoding
# ---------------------------------------------------------------------------

def test_extract_completes_past_the_frame():
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, sg.payload_bits_per_packet(P)).astype(np.uint8)
    stream = packet_stream([(4500, 5.0, bits)], 9000)
    v = sg.ValidatedPeak(5.0, 4500)
    seq = sg.extract_sequences(stream, (0, 5000), [v], P)[0]
    assert seq.size == 2000
    assert np.array_equal(sg.demap_payload(seq, P), bits)

    # where the stream ends first the cut stops there
    assert sg.extract_sequences(stream[:5000], (0, 5000), [v], P)[0].size == 500


def test_extract_cuts_equal_whole_buffer_demodulation():
    # demodulating only the cut, at its own sample indices, gives the
    # same samples, bit for bit, as demodulating the whole frame and the
    # stream past it, indexed from the frame's start, and cutting after
    rng = np.random.default_rng(14)
    stream = packet_stream([(300, -40.0, None), (1700, 55.5, None),
                            (3900, 12.25, None)], 7000, rng=rng)
    start, stop = 100, 5100
    vs = [sg.ValidatedPeak(-40.0, 200),
          sg.ValidatedPeak(55.5, 1600),
          sg.ValidatedPeak(12.25, 3800),
          sg.ValidatedPeak(-3.3, 4999)]
    for v, got in zip(vs, sg.extract_sequences(stream, (start, stop), vs, P)):
        x = stream[start:]
        y = x * np.exp(-2j * math.pi * v.cfo * np.arange(x.size) / P.Fs)
        want = y[v.position: v.position + 2000]
        assert got.size == want.size
        assert np.array_equal(got.view(float), want.view(float))


def test_extract_rejects_outside_offsets():
    stream = np.zeros(6000, complex)
    for pos in (-1, 4000):
        with pytest.raises(InvalidParamsError):
            sg.extract_sequences(stream, (1000, 5000),
                                 [sg.ValidatedPeak(0.0, pos)], P)


def test_fine_cfo_residual():
    # up to the edges of the +-2*_CFO_SLACK band the fine CFO searches
    rng = np.random.default_rng(13)
    for cfo in (3.7, -4.9, 4.9):
        pk = sg.synthesize_packet(random_bits(rng), P, cfo)
        assert sg.fine_cfo(pk, P) == pytest.approx(cfo, abs=0.05)
    with pytest.raises(InvalidParamsError):
        sg.fine_cfo(pk[:100], P)


def test_fine_cfo_ignores_stronger_line_outside_band():
    # a stronger line at +156 Hz over the preamble alone, as another
    # signal leaves it, does not capture the residual; its sidelobes
    # pull the estimate by about 0.035 Hz
    pk = sg.synthesize_packet(random_bits(np.random.default_rng(15)), P, 0.3)
    pre = sg.upsampled_preamble(P)
    t = np.arange(pre.size)
    pk[: pre.size] += 1.5 * pre * np.exp(2j * math.pi * 156.0 * t / P.Fs)
    assert sg.fine_cfo(pk, P) == pytest.approx(0.3, abs=0.05)


def test_demap_payload_equalizes_gain_and_phase():
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2, sg.payload_bits_per_packet(P)).astype(np.uint8)
    pk = sg.synthesize_packet(bits, P, 0.0)
    rotated = 0.35 * np.exp(1j * 1.1) * pk
    assert np.array_equal(sg.demap_payload(rotated, P), bits)
    with pytest.raises(InvalidParamsError, match="zero preamble gain"):
        sg.demap_payload(np.zeros_like(pk), P)

