"""Differential tests of the array receiver layers against the old loops.

`build_drift_table` builds its table in blocks with masked array
selections, one transform per distinct |CFO| serving both signs, and
`peak_map` correlates every CFO branch of an event in one batched
circular FFT correlation; both modulate with `sigchain._cis`, a
block-factored phasor. The per-row drift loop and the per-branch
`fftconvolve` correlation they replaced are kept here as a test-only
reference. The factored phasor and the shorter transforms round
differently from the reference (drift gains by up to about 1.5e-15,
branch weights summed over thousands of samples by about 1e-11), so
the contract is:

- integer and decision fields are bit-equal, dtypes included: drift
  `reach`, `shifts` and `near`; peak `positions`, `span` and each
  branch's `cfo`;
- float fields agree within 1e-12 of their operand scale: 1 for drift
  `gains`, sum |x| for branch weights, ||preamble|| * ||x|| for peak
  magnitudes;
- the reference's near-top (alt) threshold carries the argmax's 1e-9
  tie tolerance, as the table's does: where two lags tie in exact
  arithmetic, membership at an exact threshold would be a rounding
  accident.

The reference computes its own CFO grid from the table's rule (1 Hz
steps over twice the widest periodogram line plus the lookup slack), so
the grid's reach is checked too. The table's two window lookups, `gate`
at _GATE_SLACK and `images` at _CFO_SLACK, index that integer grid
directly; they are checked against `ref_windows`, searchsorted lookups on
a float grid over the per-row lag sets they replaced.

`frame_events` merges supra-threshold runs whose smoothing-widened spans
touch, in one array pass. The two-step rule it replaced (bridge gaps of
two symbols, then merge touching guard spans in a loop) is kept as a
reference, and the frames must be equal.

Event framing smooths power with a box sum taken as differences of one
running sum. It is checked against scipy.signal.fftconvolve, which it
replaced, and against the direct sum of np.convolve, within 1e-12 of
sum |a|: the running sum rounds differently from either. The transform
length of the complex FFTs is checked against scipy.fft.next_fast_len.

`fine_cfo` computes only the bins of its 32-times padded spectrum
within 2*_CFO_SLACK of zero (and one neighbour each side), as one
product with a cached matrix (`_fine_band`), and searches its peak
there; the full-spectrum version it replaced is kept as a reference.
The product rounds differently from the transform, so the contract is:

- each band column equals its bin of np.fft.fft(r, pad * n) within
  1e-12 * sum |r|;
- for a residual inside the band, clean or in noise, `fine_cfo` lands
  on the reference's argmax bin, and its CFO is within 1e-9 Hz of the
  reference's;
- for any sequence, whatever lies outside the band, the CFO is within
  37 bins of zero (the band's outer neighbours).

`periodogram_cfos` runs its line test and dB conversion on the search
band's bins alone and takes the median from the middle order
statistics. The full-array search it replaced is kept with the
transform length as a parameter; at the receiver's transform length
the two return the same CFO list bit for bit.

`spc_resolve` runs its evidence and cancellation tests on Python lists
and reads memoized window lookups off the drift table. The array
version it replaced is kept as a reference that reads its windows
through `ref_windows`, so it shares no lookup code with the table; on
the peak maps of framed noisy streams and on synthetic maps it returns
the same validated peaks, in the same order. Each lookup returns one
shared immutable value per row range.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from gfaloha import sigchain as sg
from gfaloha.params import InvalidParamsError, SystemParams

P = SystemParams()
# odd preamble lengths up to 31 for which the root 5 is a valid ZC root
NZC = [n for n in range(3, 32, 2) if n > 5 and math.gcd(5, n) == 1]


# ---------------------------------------------------------------------------
# Reference: the per-row drift loop and the per-branch correlation
# ---------------------------------------------------------------------------

def ref_build_drift_table(p):
    nzc, fs, sps = p.Nzc, p.Fs, round(p.Fs * p.Tb)
    # twice the widest line, Fm + margin + half a bin of the shortest
    # frame's 4x padded transform, plus the slack of a lookup window
    reach = math.ceil(2 * (p.Fm + sg._CFO_MARGIN + fs / (2 * 4 * 64))
                      + sg._CFO_SLACK)
    cfo_grid = np.arange(-reach, reach + 1.0)
    pre = np.repeat(sg.zc_preamble(nzc), sps)
    n = pre.size
    t = np.arange(n) / fs
    shifted = pre[None, :] * np.exp(2j * math.pi * cfo_grid[:, None] * t[None, :])
    nfft = 1 << int(math.ceil(math.log2(2 * n - 1)))
    f_pre = np.fft.fft(pre, nfft)
    f_sh = np.fft.fft(shifted, nfft, axis=1)
    corr = np.fft.ifft(f_sh * np.conj(f_pre)[None, :], axis=1)
    lags = np.concatenate([np.arange(0, n), np.arange(-(n - 1), 0)])
    idx = np.concatenate([np.arange(0, n), nfft - np.arange(n - 1, 0, -1)])
    mag = np.abs(corr[:, idx])
    energy = float(np.sum(np.abs(pre) ** 2))
    half = nzc // 2

    def canon(lag):
        q = (lag + n // 2) % n - n // 2
        return int(np.clip(round(q / sps), -half, half)) * sps

    shifts = np.empty(cfo_grid.size, dtype=np.int64)
    gains = np.empty(cfo_grid.size)
    near = np.zeros((cfo_grid.size, nzc), dtype=bool)
    for i in range(cfo_grid.size):
        top = mag[i].max()
        tie = np.flatnonzero(mag[i] >= top * (1.0 - 1e-9))
        tl = lags[tie]
        best = tl[np.lexsort((-np.sign(tl) * np.sign(cfo_grid[i]), np.abs(tl)))][0]
        shifts[i] = canon(int(best))
        gains[i] = top / energy
        for v in lags[mag[i] >= top * 0.8 * (1.0 - 1e-9)]:
            near[i, canon(int(v)) // sps + half] = True
    return sg.DriftTable(reach, shifts, gains, near, n, p)


def ref_correlate_preamble(x, fs, cfo, preamble, sep):
    y = x * np.exp(-2j * math.pi * cfo * np.arange(x.size) / fs)
    if y.size < preamble.size:
        return np.empty(0, dtype=np.int64), np.empty(0)
    c = np.abs(fftconvolve(y, np.conj(preamble[::-1]), mode="valid"))
    thr = 0.5 * float(np.sum(np.abs(preamble) ** 2))
    is_max = np.zeros(c.size, dtype=bool)
    if c.size == 1:
        is_max[0] = True
    else:
        is_max[0] = c[0] >= c[1]
        is_max[-1] = c[-1] >= c[-2]
        is_max[1:-1] = (c[1:-1] >= c[:-2]) & (c[1:-1] >= c[2:])
    cand = np.flatnonzero(is_max & (c > thr))
    cand = cand[np.argsort(c[cand])[::-1]]
    chosen = []
    for k in cand:
        if all(abs(k - q) > sep for q in chosen):
            chosen.append(int(k))
    chosen.sort()
    pos = np.array(chosen, dtype=np.int64)
    return pos, c[pos]


def ref_peak_map(x, cfos, p):
    # the separation is the corrected half symbol; at Nzc = 23 it equals
    # the old preamble.size // (2 * 23)
    t = np.arange(x.size) / p.Fs
    pre = sg.upsampled_preamble(p)
    sep = max(1, p.samples_per_symbol // 2)
    branches = []
    for f in cfos:
        pos, mag = ref_correlate_preamble(x, p.Fs, f, pre, sep)
        w = float(np.abs(np.sum(x * np.exp(-2j * math.pi * f * t))))
        branches.append(sg.PeakBranch(f, pos, mag, w))
    return sg.PeakMap(branches, max(0, x.size - pre.size + 1))


def assert_same_array(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    # bit-equal, so +0.0 and -0.0 differ too
    assert a.tobytes() == b.tobytes()


def assert_close_array(a, b, scale):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= 1e-12 * scale)


def assert_same_table(got, want):
    assert type(got.reach) is int and got.reach == want.reach
    for name in ("shifts", "near"):
        assert_same_array(getattr(got, name), getattr(want, name))
    assert_close_array(got.gains, want.gains, 1.0)
    assert type(got.n_pre) is int and got.n_pre == want.n_pre
    assert got.p == want.p


def assert_same_map(got, want, x, p):
    pre = sg.upsampled_preamble(p)
    assert got.span == want.span
    assert len(got.branches) == len(want.branches)
    for g, w in zip(got.branches, want.branches):
        assert g.cfo == w.cfo
        assert_same_array(g.positions, w.positions)
        assert_close_array(g.magnitudes, w.magnitudes,
                           np.linalg.norm(pre) * np.linalg.norm(x))
        assert type(g.weight) is float
        assert abs(g.weight - w.weight) <= 1e-12 * np.sum(np.abs(x))


# ---------------------------------------------------------------------------
# Drift table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ref_default():
    return ref_build_drift_table(P)


@pytest.mark.parametrize("block", [1, 7, 64, 801])
def test_default_table_equal_for_any_block(ref_default, block, monkeypatch):
    monkeypatch.setattr(sg, "_DRIFT_BLOCK", block)
    assert_same_table(sg.build_drift_table(P), ref_default)


@st.composite
def drift_params(draw):
    """Preamble lengths, symbol times, sample rates and CFO ranges the
    sample-level chain accepts, at table sizes a row loop can afford."""
    nzc = draw(st.sampled_from(NZC))
    sps = draw(st.integers(1, 40))
    # at Tb = 1 / (2 Nzc) every 1 Hz grid point is a multiple of half a
    # correlation bin, fs / (2 n), where the mirrored lags of the
    # modulated correlation come close to a tie
    tb = draw(st.sampled_from([0.01, 0.005, 0.025, 1 / (2 * nzc)]))
    fs = sps / tb
    # below Fs / 4, so a band W > 0 fits Fs >= 2 * (2 * Fm + W)
    fm = min(draw(st.sampled_from([0.0, 100.0]) | st.floats(0.0, 100.0)),
             0.2 * fs)
    w = fs / 4 - fm
    # enough bits that the packet outlasts the preamble: Tp / Tb =
    # D / (W Tb) > Nzc (the table itself does not read D)
    d = max(100, math.ceil((nzc + 1) * w * tb))
    return SystemParams(Nzc=nzc, Tb=tb, Fs=fs, Fm=fm, W=w, D=d)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drift_params(), st.sampled_from([1, 3, 64]))
def test_drift_table_matches_row_loop(p, block):
    want = ref_build_drift_table(p)
    old = sg._DRIFT_BLOCK
    sg._DRIFT_BLOCK = block
    try:
        got = sg.build_drift_table(p)
    finally:
        sg._DRIFT_BLOCK = old
    assert_same_table(got, want)


def test_drift_tie_breaks_follow_offset_sign():
    # at Nzc = 7, sps = 1 the lags -2 and +2 tie at offsets of +-fs/2;
    # the tie resolves to the lag with the offset's sign. At Fs = 40 Hz
    # the table reaches +-23 Hz, past +-fs/2.
    p = SystemParams(Nzc=7, Fs=40.0, Tb=1 / 40, Fm=0.0, W=10.0)
    got = sg.build_drift_table(p)
    assert_same_table(got, ref_build_drift_table(p))
    assert got.shifts[got.reach + np.array([-20, 20])].tolist() == [-2, 2]


def test_default_table_peak_memory():
    tracemalloc.start()
    try:
        sg.build_drift_table(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def ref_windows(table, df, slack):
    """The window lookups as searchsorted on the float grid and the union
    of the per-row near-top lag sets: (shifts, alt lags, max gain)."""
    cfos = np.arange(-table.reach, table.reach + 1.0)
    lo = np.searchsorted(cfos, df - slack, side="left")
    hi = np.searchsorted(cfos, df + slack, side="right")
    lo = max(0, min(lo, cfos.size - 1))
    hi = max(lo + 1, min(hi, cfos.size))
    nzc = table.near.shape[1]
    sps = table.n_pre // nzc
    rows = [(np.nonzero(table.near[r])[0] - nzc // 2).astype(np.int64) * sps
            for r in range(lo, hi)]
    return (np.unique(table.shifts[lo:hi]), np.unique(np.concatenate(rows)),
            float(np.max(table.gains[lo:hi])))


# the defaults, the CFO range's extremes, a longer and a shorter preamble
WINDOW_PARAMS = [P, SystemParams(Fm=300.0), SystemParams(Fm=0.0),
                 SystemParams(Nzc=31), SystemParams(Nzc=13, Fs=2000.0)]


@functools.lru_cache(maxsize=None)
def window_table(i):
    return sg.build_drift_table(WINDOW_PARAMS[i])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, len(WINDOW_PARAMS) - 1), st.data())
def test_window_lookups_match_float_grid(i, data):
    # offsets on and between grid points, inside and past the grid's ends
    table = window_table(i)
    edge = table.reach + 8
    df = data.draw(st.integers(-4 * edge, 4 * edge).map(lambda k: k / 4)
                   | st.floats(-edge, edge))
    gain = ref_windows(table, df, sg._GATE_SLACK)[2]
    shifts, alt, _ = ref_windows(table, df, sg._CFO_SLACK)
    cancel = np.concatenate([alt, alt + table.n_pre, alt - table.n_pre])
    got_gain = table.gate(df)
    got = table.images(df)
    assert type(got_gain) is float and got_gain == gain
    assert got == (tuple(shifts.tolist()), tuple(cancel.tolist()))
    assert all(type(v) is int for v in got[0] + got[1])
    # a second lookup is the memoized object
    assert table.gate(df) is got_gain
    assert table.images(df) is got


# ---------------------------------------------------------------------------
# Peak map
# ---------------------------------------------------------------------------

def random_packet(rng, p, cfo):
    """A packet at offset cfo carrying a random full payload from rng."""
    bits = rng.integers(0, 2, size=sg.payload_bits_per_packet(p))
    return sg.synthesize_packet(bits, p, cfo)


def noisy_buffer(rng, p, n, packets):
    n_pkt = round(p.Tp * p.Fs)
    sig = np.zeros(n, dtype=complex)
    for s0, cfo in packets:
        pk = random_packet(rng, p, cfo)
        end = min(n, s0 + n_pkt)
        sig[s0: end] += pk[: end - s0]
    return sg.awgn(sig, p.gamma, rng) if np.any(sig) else sig


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([11, 23]),
       st.sampled_from([10, 20, 40]), st.data())
def test_peak_map_matches_branch_loop(seed, nzc, sps, data):
    p = SystemParams(Nzc=nzc, Fs=sps / P.Tb)
    rng = np.random.default_rng(seed)
    n_pre = nzc * p.samples_per_symbol
    # shorter than the preamble, exactly one correlation sample, or longer
    n = data.draw(st.sampled_from([max(1, n_pre - 3), n_pre, n_pre + 1,
                                   3 * n_pre, 6000]))
    k = data.draw(st.integers(0, 3))
    packets = [(int(rng.integers(0, n)), float(rng.uniform(-p.Fm, p.Fm)))
               for _ in range(k)]
    x = noisy_buffer(rng, p, n, packets)
    cfos = [c for _, c in packets]
    cfos += data.draw(st.lists(st.floats(-p.Fm - 10, p.Fm + 10,
                                         allow_nan=False), max_size=4))
    assert_same_map(sg.peak_map(x, cfos, p), ref_peak_map(x, cfos, p), x, p)


def test_peak_map_no_cfos():
    rng = np.random.default_rng(3)
    x = noisy_buffer(rng, P, 3000, [(200, 5.0)])
    pm = sg.peak_map(x, [], P)
    assert pm.branches == [] and pm.span == 3000 - 920 + 1
    assert_same_map(pm, ref_peak_map(x, [], P), x, P)


def test_peak_map_short_buffer():
    x = np.ones(500, dtype=complex)
    pm = sg.peak_map(x, [0.0, 12.5], P)
    assert pm.span == 0
    assert [b.positions.size for b in pm.branches] == [0, 0]
    assert_same_map(pm, ref_peak_map(x, [0.0, 12.5], P), x, P)


def test_peak_map_single_correlation_sample():
    pk = random_packet(np.random.default_rng(4), P, 8.0)
    x = pk[:920]
    pm = sg.peak_map(x, [8.0, -30.0], P)
    assert pm.span == 1
    assert pm.branches[0].positions.tolist() == [0]
    assert_same_map(pm, ref_peak_map(x, [8.0, -30.0], P), x, P)


def test_peak_map_matches_on_framed_events():
    # events as the receiver suite frames them, on its CFO branches
    rng = np.random.default_rng(11)
    n_pkt = round(P.Tp * P.Fs)
    for _ in range(6):
        sig = np.zeros(3 * n_pkt, dtype=complex)
        for c, s0 in zip(rng.uniform(-P.Fm, P.Fm, 2),
                         np.sort(rng.integers(200, 2200, 2))):
            sig[s0: s0 + n_pkt] += random_packet(rng, P, c)
        noisy = sg.awgn(sig, P.gamma, rng)
        for start, stop in sg.frame_events(noisy, P, 1.4 / P.gamma):
            frame = noisy[start:stop]
            cfos = sg.periodogram_cfos(frame, P)
            assert_same_map(sg.peak_map(frame, cfos, P),
                            ref_peak_map(frame, cfos, P), frame, P)


# ---------------------------------------------------------------------------
# Peak validation against the array version
# ---------------------------------------------------------------------------

def ref_spc_resolve(pm, dt):
    """Cross-branch validation on arrays: alive masks, broadcast distance
    tests and ref_windows recomputed for every branch pair."""
    branches = pm.branches
    if not branches:
        return []
    energy = float(dt.n_pre)
    wmax = max(b.weight for b in branches)
    alive = [np.ones(b.positions.size, dtype=bool) for b in branches]
    pool = [(float(b.magnitudes[i]), j, i)
            for j, b in enumerate(branches)
            for i in range(b.positions.size)]
    pool.sort(reverse=True)
    validated = []
    for mag, j, i in pool:
        if (not alive[j][i] or mag < sg._CAND_FLOOR * energy
                or branches[j].weight < sg._WEIGHT_FLOOR * wmax):
            continue
        alive[j][i] = False
        pos = int(branches[j].positions[i])
        required = 0
        missing = 0
        for k, bk in enumerate(branches):
            if k == j or bk.positions.size == 0:
                continue
            delta = -(bk.cfo - branches[j].cfo)
            if ref_windows(dt, delta, sg._GATE_SLACK)[2] < sg._MIN_GAIN:
                continue
            targets = pos + ref_windows(dt, delta, sg._CFO_SLACK)[0]
            targets = targets[(targets >= 0) & (targets < pm.span)]
            if targets.size == 0:
                continue
            required += 1
            live_pos = bk.positions[alive[k]]
            if live_pos.size == 0 or np.min(np.abs(
                    live_pos[:, None] - targets[None, :])) > sg._TOL:
                missing += 1
        if missing > (required // 3 if required >= 3 else 0):
            continue
        validated.append(sg.ValidatedPeak(branches[j].cfo, pos))
        for k, bk in enumerate(branches):
            delta = -(bk.cfo - branches[j].cfo)
            q = ref_windows(dt, delta, sg._CFO_SLACK)[1]
            targets = pos + np.concatenate([q, q + dt.n_pre, q - dt.n_pre])
            if bk.positions.size:
                near = np.min(np.abs(bk.positions[:, None]
                                     - targets[None, :]), axis=1) <= sg._TOL
                alive[k][near] = False
    validated.sort(key=lambda v: v.position)
    return validated


def assert_same_validation(pm, dt):
    got = sg.spc_resolve(pm, dt)
    want = ref_spc_resolve(pm, dt)
    assert [(type(v.position), v.position, v.cfo) for v in got] \
        == [(type(v.position), v.position, v.cfo) for v in want]
    return got


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 1.0, 4.0]),
       st.data())
def test_spc_resolve_matches_arrays_on_framed_streams(seed, snr_scale, data):
    # two packets of random offset and CFO in noise, cut into a random
    # frame (a packet may be clipped or absent), on its periodogram's
    # CFO branches; a fresh table, so its memo starts empty
    rng = np.random.default_rng(seed)
    n_pkt = round(P.Tp * P.Fs)
    sig = np.zeros(3 * n_pkt, dtype=complex)
    for c, s0 in zip(rng.uniform(-P.Fm, P.Fm, 2), rng.integers(0, 2 * n_pkt, 2)):
        sig[s0: s0 + n_pkt] += random_packet(rng, P, float(c))
    noisy = sg.awgn(sig, snr_scale * P.gamma, rng)
    start = data.draw(st.integers(0, sig.size - sg._MIN_FRAME))
    stop = data.draw(st.integers(start + sg._MIN_FRAME, sig.size))
    frame = noisy[start:stop]
    pm = sg.peak_map(frame, sg.periodogram_cfos(frame, P), P)
    assert_same_validation(pm, sg.build_drift_table(P))


@st.composite
def synthetic_maps(draw):
    """Peak maps on a table's CFO range: branches some a few Hz apart,
    the images of a few arrivals at drift-table shifts (give or take a
    sample) among stray peaks, magnitudes around the candidate floor
    with ties, and carrier-line weights, one exactly half the strongest."""
    i = draw(st.integers(0, len(WINDOW_PARAMS) - 1))
    table = window_table(i)
    p = WINDOW_PARAMS[i]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lim = p.Fm + sg._CFO_MARGIN
    k = draw(st.integers(0, 7))
    cfos = rng.uniform(-lim, lim, k)
    close = (rng.random(k) < 0.3) & (np.arange(k) > 0)
    if k:
        cfos[close] = cfos[0] + rng.uniform(-3.0, 3.0, int(close.sum()))
    span = int(rng.integers(1, 3 * table.n_pre))
    arrivals = [(int(rng.integers(0, span)), float(rng.choice(cfos)))
                for _ in range(int(rng.integers(0, 4)) if k else 0)]
    floor = sg._CAND_FLOOR * table.n_pre
    weights = rng.uniform(0.2, 1.0, k)
    if k > 1:
        weights[1] = 0.5 * weights.max()
    branches = []
    for c, w in zip(cfos.tolist(), weights.tolist()):
        pos = set(rng.integers(0, span, int(rng.integers(0, 6))).tolist())
        for p0, c0 in arrivals:
            if rng.random() < 0.8:
                shifts = ref_windows(table, -(c - c0), sg._CFO_SLACK)[0]
                pos.add(p0 + int(rng.choice(shifts)) + int(rng.integers(-1, 2)))
        pos = np.array(sorted(q for q in pos if 0 <= q < span), dtype=np.int64)
        if rng.random() < 0.3:
            mags = floor * rng.choice([0.9, 1.0, 1.2], pos.size)
        else:
            mags = floor * rng.uniform(0.7, 1.3, pos.size)
        branches.append(sg.PeakBranch(c, pos, mags, w))
    return sg.PeakMap(branches, span), table


@settings(max_examples=400, deadline=None)
@given(synthetic_maps())
def test_spc_resolve_matches_arrays_on_synthetic_maps(case):
    assert_same_validation(*case)


# ---------------------------------------------------------------------------
# Event framing against the two-step gap rule
# ---------------------------------------------------------------------------

def ref_frame_events(x, p, power_threshold):
    """Bridge gaps of two symbols, then merge touching guard spans."""
    if power_threshold <= 0:
        raise InvalidParamsError("power threshold must be positive")
    sps = p.samples_per_symbol
    max_len = int(round(p.Tmax * p.Fs))
    overlap = p.Nzc * sps
    if max_len <= overlap:
        raise InvalidParamsError("frame cap Tmax must exceed the preamble length")
    win = sg._SMOOTH_SYMBOLS * sps
    lead = (win - 1) // 2   # the centered ("same") part of the convolution
    smooth = sg._box_sum(np.abs(x) ** 2, win)[lead: lead + x.size] / win
    above = smooth > power_threshold
    if not above.any():
        return []
    idx = np.flatnonzero(above)
    breaks = np.flatnonzero(np.diff(idx) > 2.0 * sps)
    guard = win
    run_starts = np.maximum(np.concatenate([[idx[0]], idx[breaks + 1]]) - guard, 0)
    run_ends = np.minimum(np.concatenate([idx[breaks], [idx[-1]]]) + 1 + guard,
                          x.size)
    # Guard widening can make neighbors touch; merge those.
    merged = [(int(run_starts[0]), int(run_ends[0]))]
    for s, e in zip(run_starts[1:], run_ends[1:]):
        if s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], int(e))
        else:
            merged.append((int(s), int(e)))

    frames = []
    for s, e in merged:
        # n frames of near-equal length <= max_len, each overlapping the
        # next by one preamble; a run under the cap is one frame [s, e)
        step = e - s - overlap
        n = max(1, -(-step // (max_len - overlap)))
        frames += [(s + step * i // n, s + step * (i + 1) // n + overlap)
                   for i in range(n)]
    return frames


FRAME_PARAMS = [P, SystemParams(Fs=2000.0, Tmax=1.0)]


@st.composite
def burst_streams(draw):
    """Bursts of random length and level, some a single sample, spaced
    around the merge distance, on an optional noise floor; and a
    threshold."""
    p = draw(st.sampled_from(FRAME_PARAMS))
    sps = p.samples_per_symbol
    win = sg._SMOOTH_SYMBOLS * sps
    max_len = round(p.Tmax * p.Fs)
    # an impulse smooths into a run of win samples: impulses 3 * win
    # apart (3 * win - 1 zeros between) leave runs exactly 2 * win + 1
    # apart
    gaps = (st.sampled_from([0, 2 * sps, win, 3 * win - 1, 3 * win,
                             3 * win + 1, 3 * win + 2])
            | st.integers(0, 4 * win))
    widths = st.just(1) | st.integers(1, 3 * win) | st.integers(1, 2 * max_len)
    bursts = draw(st.lists(st.tuples(gaps, widths), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [np.zeros(draw(st.integers(0, 2 * win)))]
    for gap, width in bursts:
        level = rng.uniform(0.5, 2.0) * (math.sqrt(win) if width == 1 else 1.0)
        parts += [np.zeros(gap), np.full(width, level)]
    parts.append(np.zeros(draw(st.integers(0, 2 * win))))
    x = np.concatenate(parts).astype(complex)
    x += draw(st.sampled_from([0.0, 0.1, 0.5])) * (
        rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    return x, p, draw(st.floats(0.05, 2.0))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(burst_streams())
def test_frame_events_match_two_step_rule(case):
    x, p, thr = case
    assert sg.frame_events(x, p, thr) == ref_frame_events(x, p, thr)


# ---------------------------------------------------------------------------
# The box sum against scipy.signal.fftconvolve and np.convolve
# ---------------------------------------------------------------------------

def cut(full, na, nb, mode):
    """The part of a full convolution that mode keeps."""
    if mode == "same":
        lead = (nb - 1) // 2
        return full[lead: lead + na]
    return full[min(na, nb) - 1: max(na, nb)]


def assert_box_sum(a, nb, mode):
    box = np.ones(nb)
    got = cut(sg._box_sum(a, nb), a.size, nb, mode)
    tol = 1e-12 * np.sum(np.abs(a))
    for ref in (fftconvolve(a, box, mode=mode),
                cut(np.convolve(a, box), a.size, nb, mode)):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.all(np.abs(got - ref) <= tol)


LENGTHS = st.sampled_from([1, 2, 3]) | st.integers(1, 300)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), LENGTHS, LENGTHS,
       st.sampled_from(["valid", "same"]))
def test_convolve_matches_fftconvolve(seed, na, nb, mode):
    # real operands of either sign; frame_events smooths a power
    rng = np.random.default_rng(seed)
    assert_box_sum(rng.standard_normal(na), nb, mode)


@pytest.mark.parametrize("na, nb", [(1, 1), (1, 5), (5, 1), (2, 2), (2, 7),
                                    (7, 2), (920, 920), (919, 920),
                                    (921, 920), (4000, 920)])
@pytest.mark.parametrize("mode", ["valid", "same"])
def test_convolve_edge_lengths_match_fftconvolve(na, nb, mode):
    # event-sized lengths and the short lengths where the box is longer
    # than the array
    rng = np.random.default_rng(na * 1000 + nb)
    assert_box_sum(np.abs(rng.standard_normal(na)) ** 2, nb, mode)


def test_fast_len_matches_next_fast_len():
    # the periodogram asks for up to 4 * Tmax * Fs = 32,000
    got = [sg._fast_len(n) for n in range(1, 32769)]
    assert got == [next_fast_len(n, False) for n in range(1, 32769)]


# ---------------------------------------------------------------------------
# fine_cfo against the full-spectrum refinement it replaced
# ---------------------------------------------------------------------------

def ref_parabolic(logmag, k):
    n = logmag.size
    a, b, c = logmag[(k - 1) % n], logmag[k], logmag[(k + 1) % n]
    denom = a - 2 * b + c
    if denom == 0:
        return 0.0
    return float(0.5 * (a - c) / denom)


def ref_fine_cfo(seq, p):
    """(argmax bin, residual CFO) from the full padded spectrum."""
    pre = sg.upsampled_preamble(p)
    r = seq[: pre.size] * np.conj(pre)
    nfft = sg._FINE_CFO_PAD * pre.size
    spec = np.abs(np.fft.fft(r, nfft))
    k = int(np.argmax(spec))
    frac = ref_parabolic(20 * np.log10(np.maximum(spec, 1e-300)), k)
    f = np.fft.fftfreq(nfft, 1.0 / p.Fs)[k]
    return k, float(f + frac * p.Fs / nfft)


def test_fine_cfo_matches_full_spectrum():
    # residuals inside the band, both signs and the wrap at 0, at SNRs
    # from clean to noise-dominated; plus an all-zero sequence (every bin
    # at the 1e-300 floor, argmax 0)
    rng = np.random.default_rng(2024)
    pre = sg.upsampled_preamble(P)
    nfft = sg._FINE_CFO_PAD * pre.size
    w = sg._fine_band(pre.size, sg._FINE_CFO_PAD, P.Fs)
    m = w.shape[1] // 2
    bins = np.r_[0:m + 1, nfft - m:nfft]
    inner = np.r_[0:m, m + 2:2 * m + 1]
    cases = [np.zeros(pre.size, complex)]
    for cfo in np.concatenate([rng.uniform(-4.9, 4.9, 40), [0.0, 1e-3, -1e-3]]):
        pk = random_packet(rng, P, float(cfo))
        cases.append(pk)
        for snr in (0.1, 1.0, 10.0):
            cases.append(sg.awgn(pk, snr, rng))
    for seq in cases:
        k, f = ref_fine_cfo(seq, P)
        r = seq[: pre.size] * np.conj(pre)
        band = r @ w
        full = np.fft.fft(r, nfft)
        assert np.all(np.abs(band - full[bins]) <= 1e-12 * np.sum(np.abs(r)))
        assert bins[inner[np.argmax(np.abs(band[inner]))]] == k
        assert abs(sg.fine_cfo(seq, P) - f) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-P.Fs / 2, P.Fs / 2),
       st.sampled_from([0.0, 1.0, 1e3]) | st.floats(0, 1e3),
       st.sampled_from([0.0, 1.0]) | st.floats(0, 10))
def test_fine_cfo_stays_in_band(seed, line, amp, noise):
    # any preamble-length sequence: a wiped-preamble line anywhere in the
    # spectrum, at any strength, under any noise (all zero included)
    rng = np.random.default_rng(seed)
    pre = sg.upsampled_preamble(P)
    t = np.arange(pre.size)
    seq = (amp * pre * np.exp(2j * math.pi * line * t / P.Fs)
           + noise * (rng.standard_normal(pre.size)
                      + 1j * rng.standard_normal(pre.size)))
    assert abs(sg.fine_cfo(seq, P)) <= 37 * P.Fs / (sg._FINE_CFO_PAD * pre.size)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 200), st.integers(1, 8),
       st.sampled_from([4000.0, 10.0]) | st.floats(1.0, 1e5))
def test_fine_band_matches_padded_transform(seed, n, pad, fs):
    # any length, padding and rate, down to rates where +-2*_CFO_SLACK
    # spans the whole padded spectrum and the band stops at its ends
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = sg._fine_band(n, pad, fs)
    nfft = pad * n
    m = w.shape[1] // 2
    bins = np.r_[0:m + 1, nfft - m:nfft]
    assert np.unique(bins).size == bins.size == 2 * m + 1
    # the inner bins are exactly those within the band, as far as it fits
    assert (m - 1) * fs / nfft <= 2 * sg._CFO_SLACK
    assert m * fs / nfft > 2 * sg._CFO_SLACK or 2 * m + 2 >= nfft
    want = np.fft.fft(r, nfft)[bins]
    assert np.all(np.abs(r @ w - want) <= 1e-12 * np.sum(np.abs(r)))


def test_cached_arrays_are_shared_and_read_only():
    w = sg._fine_band(920, sg._FINE_CFO_PAD, P.Fs)
    assert w.shape == (920, 75) and not w.flags.writeable
    assert sg._fine_band(920, sg._FINE_CFO_PAD, P.Fs) is w
    pre = sg.upsampled_preamble(P)
    assert not pre.flags.writeable
    assert sg.upsampled_preamble(SystemParams()) is pre


# ---------------------------------------------------------------------------
# periodogram_cfos against the full-spectrum search it replaced
# ---------------------------------------------------------------------------

def ref_periodogram_cfos(x, p, nfft):
    """Every bin's line test, dB value and median, at transform length nfft."""
    pad = 4
    spec = np.abs(np.fft.fft(x, nfft))
    freqs = np.fft.fftfreq(nfft, 1.0 / p.Fs)
    logmag = 20 * np.log10(np.maximum(spec, 1e-300))
    floor = np.median(logmag)
    min_sep = pad
    limit = p.Fm + sg._CFO_MARGIN
    is_peak = (spec >= np.roll(spec, 1)) & (spec >= np.roll(spec, -1))
    cand = np.flatnonzero(is_peak & (logmag > floor + sg._LINE_DB)
                          & (np.abs(freqs) <= limit))
    cand = cand[np.argsort(spec[cand])[::-1]]
    chosen = []
    for k in cand:
        if all(min(abs(k - c), nfft - abs(k - c)) >= min_sep for c in chosen):
            chosen.append(int(k))
        if len(chosen) >= sg._MAX_LINES:
            break
    out = []
    for k in chosen:
        frac = ref_parabolic(logmag, k)
        out.append(float(freqs[k] + frac * p.Fs / nfft))
    return sorted(out)


def assert_same_cfos(x, p):
    got = sg.periodogram_cfos(x, p)
    want = ref_periodogram_cfos(x, p, sg._fast_len(4 * x.size))
    assert np.array(got).tobytes() == np.array(want).tobytes()
    return got


def tones(rng, p, n, k, snr):
    t = np.arange(n) / p.Fs
    f = rng.uniform(-p.Fm - 15, p.Fm + 15, k)
    amp = rng.uniform(0.2, 1.0, k)
    x = np.sum(amp[:, None] * np.exp(2j * math.pi * f[:, None] * t), axis=0)
    return sg.awgn(x, snr, rng) if k else x


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(64, 8000),
       st.integers(0, 12), st.sampled_from([0.05, 1.0, 100.0]))
def test_periodogram_matches_full_spectrum(seed, n, k, snr):
    rng = np.random.default_rng(seed)
    x = (tones(rng, P, n, k, snr) if k
         else rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert_same_cfos(x, P)


def test_periodogram_matches_full_spectrum_near_the_threshold():
    # short frames with six tones over noise: over this many, some line
    # lands between the 10 dB thresholds set by the even-length median
    # (the mean of the two middle order statistics) and by either
    # middle statistic alone
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(64, 200))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t = np.arange(n) / P.Fs
        for _ in range(6):
            x = x + rng.uniform(0.3, 1.5) * np.exp(
                2j * math.pi * rng.uniform(-110, 110) * t)
        assert_same_cfos(x, P)


@pytest.mark.parametrize("n", [64, 2503, 2531, 8000])
def test_periodogram_matches_full_spectrum_at_edge_lengths(n):
    # 4 * 2503 is a Bluestein length; 2531 pads to the odd 10,125
    assert sg._fast_len(4 * 2503) != 4 * 2503 and sg._fast_len(4 * 2531) == 10125
    rng = np.random.default_rng(n)
    cfos = assert_same_cfos(tones(rng, P, n, 4, 1.0), P)
    assert cfos


def test_periodogram_band_wraps_the_circle():
    # Fm + margin = Fs / 2: every bin is in the band, the Nyquist bin too
    p = SystemParams(Fs=20.0, Tb=0.1, Fm=0.0, W=5.0)
    rng = np.random.default_rng(5)
    for n in (64, 65, 301):
        t = np.arange(n) / p.Fs
        x = (np.exp(2j * math.pi * 9.9 * t) + 0.5 * np.exp(-2j * math.pi * 10.0 * t)
             + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        assert len(assert_same_cfos(x, p)) >= 2
