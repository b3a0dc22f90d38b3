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
  `shifts`, `alt_indptr` and `alt_lags`; peak `positions`, `span` and
  each branch's `cfo`;
- float fields agree within 1e-12 of their operand scale: 1 for drift
  `gains`, sum |x| for branch weights, ||preamble|| * ||x|| for peak
  magnitudes;
- the reference's near-top (alt) threshold carries the argmax's 1e-9
  tie tolerance, as the table's does: where two lags tie in exact
  arithmetic, membership at an exact threshold would be a rounding
  accident.

The reference computes its own CFO grid from the table's rule (1 Hz
steps over twice the widest periodogram line plus the lookup slack), so
the grid is checked too.

Event framing smooths power with a box sum taken as differences of one
running sum. It is checked against scipy.signal.fftconvolve, which it
replaced, and against the direct sum of np.convolve, within 1e-12 of
sum |a|: the running sum rounds differently from either. The transform
length of the complex FFTs is checked against scipy.fft.next_fast_len.

`fine_cfo` computes its 32-times padded spectrum as 32 interleaved
transforms of the preamble length (`_padded_fft`) and reads three bins
of it; the full-spectrum version it replaced is kept as a reference.
The two transforms round differently, so the contract is:

- the interleaved spectrum equals np.fft.fft(r, pad * n) within
  1e-12 * sum |r|, for any length n and pad;
- `fine_cfo` lands on the reference's argmax bin, and its CFO is
  within 1e-9 Hz of the reference's.

`periodogram_cfos` runs its line test and dB conversion on the search
band's bins alone and takes the median from the middle order
statistics. The full-array search it replaced is kept with the
transform length as a parameter; at the receiver's transform length
the two return the same CFO list bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from gfaloha import sigchain as sg
from gfaloha.params import SystemParams

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
    alt_indptr = np.zeros(cfo_grid.size + 1, dtype=np.int64)
    alt_rows = []
    for i in range(cfo_grid.size):
        top = mag[i].max()
        tie = np.flatnonzero(mag[i] >= top * (1.0 - 1e-9))
        tl = lags[tie]
        best = tl[np.lexsort((-np.sign(tl) * np.sign(cfo_grid[i]), np.abs(tl)))][0]
        shifts[i] = canon(int(best))
        gains[i] = top / energy
        alt = lags[mag[i] >= top * 0.8 * (1.0 - 1e-9)]
        near = np.unique([canon(int(v)) for v in alt])
        alt_rows.append(near)
        alt_indptr[i + 1] = alt_indptr[i] + near.size
    return sg.DriftTable(cfo_grid, shifts, gains, n, alt_indptr,
                         np.concatenate(alt_rows))


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
    for name in ("cfos", "shifts", "alt_indptr", "alt_lags"):
        assert_same_array(getattr(got, name), getattr(want, name))
    assert_close_array(got.gains, want.gains, 1.0)
    assert type(got.n_pre) is int and got.n_pre == want.n_pre


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
    return SystemParams(Nzc=nzc, Tb=tb, Fs=fs, Fm=fm, W=fs / 4 - fm)


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
    assert got.shifts[np.isin(got.cfos, [-20.0, 20.0])].tolist() == [-2, 2]


def test_default_table_peak_memory():
    tracemalloc.start()
    try:
        sg.build_drift_table(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


# ---------------------------------------------------------------------------
# Peak map
# ---------------------------------------------------------------------------

def noisy_buffer(rng, p, n, packets):
    n_pkt = round(p.Tp * p.Fs)
    sig = np.zeros(n, dtype=complex)
    for s0, cfo in packets:
        pk = sg.synthesize_packet(None, p, cfo, rng=rng)
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
    pk = sg.synthesize_packet(None, P, 8.0, rng=np.random.default_rng(4))
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
            sig[s0: s0 + n_pkt] += sg.synthesize_packet(None, P, c, rng=rng)
        noisy = sg.awgn(sig, P.gamma, rng)
        for start, stop in sg.frame_events(noisy, P, 1.4 / P.gamma):
            frame = noisy[start:stop]
            cfos = sg.periodogram_cfos(frame, P)
            assert_same_map(sg.peak_map(frame, cfos, P),
                            ref_peak_map(frame, cfos, P), frame, P)


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
    # residuals across the whole spectrum, both signs and the wrap at 0,
    # at SNRs from clean to noise-dominated; plus an all-zero sequence
    # (every bin at the 1e-300 floor, argmax 0)
    rng = np.random.default_rng(2024)
    pre = sg.upsampled_preamble(P)
    cases = [np.zeros(pre.size, complex)]
    for cfo in np.concatenate([rng.uniform(-0.5, 0.5, 40) * P.Fs / 46,
                               [0.0, 1e-3, -1e-3, P.Fs / 2 - 1.0]]):
        pk = sg.synthesize_packet(None, P, float(cfo), rng=rng)
        cases.append(pk)
        for snr in (0.1, 1.0, 10.0):
            cases.append(sg.awgn(pk, snr, rng))
    for seq in cases:
        k, f = ref_fine_cfo(seq, P)
        r = seq[: pre.size] * np.conj(pre)
        spec = np.abs(sg._padded_fft(r, sg._FINE_CFO_PAD)).T.ravel()
        assert int(np.argmax(spec)) == k
        assert abs(sg.fine_cfo(seq, P) - f) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 3, 23, 920, 1009, 1999]) | st.integers(1, 2000),
       st.integers(1, 40))
def test_padded_fft_matches_padded_transform(seed, n, pad):
    # prime lengths included, where both transforms go through Bluestein
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = sg._padded_fft(r, pad)
    assert got.shape == (pad, n)
    want = np.fft.fft(r, pad * n)
    assert np.all(np.abs(got.T.ravel() - want) <= 1e-12 * np.sum(np.abs(r)))


def test_cached_arrays_are_shared_and_read_only():
    w = sg._pad_twiddles(920, sg._FINE_CFO_PAD)
    assert w.shape == (sg._FINE_CFO_PAD, 920) and not w.flags.writeable
    assert sg._pad_twiddles(920, sg._FINE_CFO_PAD) is w
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
