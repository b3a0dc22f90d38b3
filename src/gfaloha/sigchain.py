"""Sample-level receiver front end.

Synthesizes preamble-plus-payload packets with a carrier offset, frames
energy events out of a stream, estimates per-packet CFOs with a
periodogram, locates preambles by matched filtering per CFO branch, and
cross-validates peaks across branches through the frequency-dependent
correlation-peak drift of the Zadoff-Chu preamble. Validated packets
are cut out and demodulated; decode_stream runs the whole chain.
Streams are plain complex arrays sampled at SystemParams.Fs.

Conventions: all SNRs here are per-sample power ratios of the complex
baseband stream (signal power over complex noise variance at rate Fs).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import ZC_ROOT, InvalidParamsError, SystemParams, zc_root_ok

_DRIFT_BLOCK = 64   # drift-table rows per block, half as many |CFO|
                    # transforms, each serving both signs: bounds memory
_ALT_FRAC = 0.8     # drift table: near-top lags reach this share of the top
_ETA = 0.5          # peak map: correlation threshold, share of ||preamble||^2
_SMOOTH_SYMBOLS = 8  # event framing: power smoothing span, symbols
_GAP_SYMBOLS = 2.0   # event framing: longest gap bridged, symbols
_LINE_DB = 10.0      # periodogram: carrier line height over the median, dB
_MAX_LINES = 8       # periodogram: most carrier lines kept
_CFO_MARGIN = 10.0   # periodogram: search band beyond Fm, Hz
_LINE_PAD = 4        # periodogram: zero-padding factor, at least
_MIN_FRAME = 64      # periodogram: shortest frame, samples
_FINE_CFO_PAD = 32   # zero-padding factor of the residual-CFO spectrum
# Cross-branch validation; spc_resolve's docstring gives each one's role.
_TOL = 1             # samples
_CFO_SLACK = 2.5     # Hz
_GATE_SLACK = 1.0    # Hz
_MIN_GAIN = 0.75
_CAND_FLOOR = 0.82
_WEIGHT_FLOOR = 0.5
_PAM_LEVELS = np.array([0.0, 1.0, 2.0, 3.0]) / math.sqrt(3.5)
# Gray labels for level index 0..3
_GRAY_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Waveform types and synthesis
# ---------------------------------------------------------------------------

@dataclass
class PeakBranch:
    cfo: float
    positions: np.ndarray   # sample offsets into the frame
    magnitudes: np.ndarray
    weight: float = 1.0     # carrier-line strength of this branch


@dataclass
class PeakMap:
    branches: list[PeakBranch]
    span: int   # correlation length in samples


@dataclass
class ValidatedPeak:
    cfo: float
    position: int
    magnitude: float


def zc_preamble(nzc: int) -> np.ndarray:
    """Constant-modulus Zadoff-Chu sequence of root ZC_ROOT at symbol rate."""
    if not zc_root_ok(nzc):
        raise InvalidParamsError(
            f"Zadoff-Chu length {nzc} must be odd and >= 3, and the root "
            f"{ZC_ROOT} must lie in (0, length) and be coprime with it")
    n = np.arange(nzc)
    return np.exp(-1j * math.pi * ZC_ROOT * n * (n + 1) / nzc)


def pam4_map(bits) -> np.ndarray:
    """Bit pairs to nonnegative 4-PAM amplitudes, unit mean power, Gray."""
    bits = np.asarray(bits).ravel()
    if bits.size % 2:
        raise InvalidParamsError("bit count must be even for 2 bits/symbol")
    if not np.all((bits == 0) | (bits == 1)):
        raise InvalidParamsError("bits must be 0 or 1")
    a, b = bits.astype(np.int64).reshape(-1, 2).T
    return _PAM_LEVELS[2 * a + (a ^ b)]


def pam4_demap(amplitudes) -> np.ndarray:
    """Nearest-level slicer back to Gray-labeled bit pairs."""
    amp = np.asarray(amplitudes, dtype=float).ravel()
    idx = np.argmin(np.abs(amp[:, None] - _PAM_LEVELS[None, :]), axis=1)
    return _GRAY_BITS[idx].ravel()


def payload_bits_per_packet(p: SystemParams) -> int:
    """Bits filling one Tp packet after the preamble."""
    n_sym = round(p.Tp / p.Tb) - p.Nzc
    if n_sym <= 0:
        raise InvalidParamsError("packet too short for the preamble")
    return 2 * n_sym


def _upsample(symbols: np.ndarray, sps: int) -> np.ndarray:
    # Rectangular pulse: time-frequency support stays Tp x W.
    return np.repeat(symbols, sps)


def _cis(f: np.ndarray, n: int, fs: float) -> np.ndarray:
    """exp(2j*pi*f*k/fs) for k < n, one row per entry of f.

    With k = B*a + b the phasor is the product of a block factor (over
    a) and an in-block factor (over b), so a row costs about 2*sqrt(n)
    complex exponentials instead of n.
    """
    f = np.asarray(f, dtype=float)[:, None]
    b = math.isqrt(n - 1) + 1 if n > 1 else 1   # ceil(sqrt(n))
    a = -(-n // b)
    w = 2j * math.pi * f / fs
    out = (np.exp(w * (b * np.arange(a)))[:, :, None]
           * np.exp(w * np.arange(b))[:, None, :])
    return out.reshape(f.shape[0], a * b)[:, :n]


def synthesize_packet(bits, p: SystemParams, df: float,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Preamble + 4-PAM payload, upsampled to Fs and shifted by df.

    bits=None draws a random full-packet payload from rng.
    """
    p.validate(sample_level=True)
    if bits is None:
        if rng is None:
            raise InvalidParamsError("random payload needs an rng")
        bits = rng.integers(0, 2, size=payload_bits_per_packet(p))
    sps = p.samples_per_symbol
    symbols = np.concatenate([zc_preamble(p.Nzc), pam4_map(bits)])
    x = _upsample(symbols, sps).astype(np.complex128)
    t = np.arange(x.size) / p.Fs
    return x * np.exp(2j * math.pi * df * t)


def awgn(x: np.ndarray, snr: float, rng: np.random.Generator) -> np.ndarray:
    """Add complex white noise at the given per-sample SNR (linear)."""
    if snr <= 0:
        raise InvalidParamsError("snr must be positive")
    power = float(np.mean(np.abs(x) ** 2))
    sigma2 = power / snr
    noise = rng.normal(scale=math.sqrt(sigma2 / 2), size=(x.size, 2))
    # each row's (re, im) pair read as one complex sample
    return x + noise.view(np.complex128)[:, 0]


# ---------------------------------------------------------------------------
# Event framing
# ---------------------------------------------------------------------------

def _fast_len(n: int) -> int:
    """Smallest complex transform length >= n that pocketfft runs fast:
    11-smooth (scipy.fft.next_fast_len's rule for complex input)."""
    m = n
    while True:
        r = m
        for q in (2, 3, 5, 7, 11):
            while r % q == 0:
                r //= q
        if r == 1:
            return m
        m += 1


def _box_sum(a: np.ndarray, win: int) -> np.ndarray:
    """Full linear convolution of a with win ones, from one running sum."""
    c = np.concatenate([[0.0], np.cumsum(a)])
    k = np.arange(a.size + win - 1)   # output k sums a[k-win+1 .. k]
    return c[np.minimum(k + 1, a.size)] - c[np.maximum(k + 1 - win, 0)]


def frame_events(x: np.ndarray, p: SystemParams,
                 power_threshold: float) -> list[tuple[int, int]]:
    """Cut supra-threshold stretches of smoothed power into frames, each
    a (start, stop) index range of the stream.

    Power is box-averaged over eight symbols (several, because the
    nonnegative constellation has a zero level and short zero runs must
    not split a packet); runs separated by gaps of at most two symbols
    merge, and each run is widened by the smoothing span so
    threshold-crossing lag cannot clip a preamble. A run longer than
    Tmax splits into the fewest frames of near-equal length no longer
    than Tmax, so no frame is a sliver too short for the periodogram;
    consecutive frames overlap by one preamble, so every preamble lies
    whole inside some frame (one starting exactly where the later frame
    starts lies in both, and decode_stream drops the duplicate).
    The search sees only the frame; extract_sequences cuts packets from
    the stream itself, so a packet validated near a frame's stop (a deep
    fade can cut a run mid-packet) still comes out whole.
    """
    if power_threshold <= 0:
        raise InvalidParamsError("power threshold must be positive")
    sps = p.samples_per_symbol
    max_len = int(round(p.Tmax * p.Fs))
    overlap = p.Nzc * sps
    if max_len <= overlap:
        raise InvalidParamsError("frame cap Tmax must exceed the preamble length")
    win = _SMOOTH_SYMBOLS * sps
    lead = (win - 1) // 2   # the centered ("same") part of the convolution
    smooth = _box_sum(np.abs(x) ** 2, win)[lead: lead + x.size] / win
    above = smooth > power_threshold
    if not above.any():
        return []
    idx = np.flatnonzero(above)
    breaks = np.flatnonzero(np.diff(idx) > _GAP_SYMBOLS * sps)
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


# ---------------------------------------------------------------------------
# Periodogram CFO estimation
# ---------------------------------------------------------------------------

def _db(mag: np.ndarray) -> np.ndarray:
    return 20 * np.log10(np.maximum(mag, 1e-300))


def _refine(spec: np.ndarray, k: int, fs: float) -> float:
    """Frequency of bin k of the magnitude spectrum spec at rate fs,
    refined parabolically on the dB magnitudes of bins k-1, k and k+1.

    The neighbours are circular, so a peak straddling the FFT wrap
    interpolates across it instead of collapsing to the bin edge.
    """
    nfft = spec.size
    a, b, c = _db(spec[[(k - 1) % nfft, k, (k + 1) % nfft]])
    denom = a - 2 * b + c
    frac = 0.0 if denom == 0 else float(0.5 * (a - c) / denom)
    # bin k's frequency, as np.fft.fftfreq(nfft, 1 / fs)[k] gives it
    f = (k if k < (nfft + 1) // 2 else k - nfft) * (1.0 / (nfft * (1.0 / fs)))
    return float(f + frac * fs / nfft)


def periodogram_cfos(x: np.ndarray, p: SystemParams) -> list[float]:
    """Carrier-line CFO estimates from the spectrum of a frame.

    The nonnegative constellation puts a discrete line at each packet's
    offset; up to eight lines within Fm (plus a margin) of zero, 10 dB
    above the median and at least one resolution bin apart are
    returned, refined parabolically.

    The frame is zero-padded to the first length of at least four times
    its own that pocketfft transforms fast (11-smooth), as peak_map
    does, and lines stay four padded bins apart. Only the bins inside
    the search band are examined (with their two neighbours, for the
    local-maximum test and the refinement); the median is taken from
    the middle order statistics of the magnitudes, dB being monotone.
    """
    if x.size < _MIN_FRAME:
        raise InvalidParamsError("frame too short for a periodogram")
    if not np.any(x):
        return []
    nfft = _fast_len(_LINE_PAD * x.size)
    spec = np.abs(np.fft.fft(x, nfft))
    mid = [(nfft - 1) // 2, nfft // 2]
    floor = np.median(_db(np.partition(spec, mid)[mid]))
    min_sep = _LINE_PAD  # about one pre-padding resolution bin, in padded bins
    limit = p.Fm + _CFO_MARGIN

    # the band's signed bins, each once, at np.fft.fftfreq's frequencies;
    # circular, so a carrier near 0 Hz peaks in the DC bin
    step = 1.0 / (nfft * (1.0 / p.Fs))
    reach = min(int(limit / step) + 2, nfft // 2)
    signed = np.arange(-reach, min(reach, (nfft - 1) // 2) + 1)
    band = np.sort(signed[np.abs(signed * step) <= limit] % nfft)
    mag = spec[band]
    is_peak = (mag >= spec[(band - 1) % nfft]) & (mag >= spec[(band + 1) % nfft])
    cand = band[is_peak & (_db(mag) > floor + _LINE_DB)]
    cand = cand[np.argsort(spec[cand])[::-1]]
    chosen: list[int] = []
    for k in cand:
        if all(min(abs(k - c), nfft - abs(k - c)) >= min_sep for c in chosen):
            chosen.append(int(k))
        if len(chosen) >= _MAX_LINES:
            break
    return sorted(_refine(spec, k, p.Fs) for k in chosen)


# ---------------------------------------------------------------------------
# Preamble correlation
# ---------------------------------------------------------------------------

def upsampled_preamble(p: SystemParams) -> np.ndarray:
    """The preamble at rate Fs; one shared read-only array per shape."""
    return _preamble(p.Nzc, p.samples_per_symbol)


@functools.lru_cache(maxsize=16)
def _preamble(nzc: int, sps: int) -> np.ndarray:
    pre = _upsample(zc_preamble(nzc), sps)
    pre.flags.writeable = False
    return pre


def peak_map(x: np.ndarray, cfos: list[float], p: SystemParams) -> PeakMap:
    """Correlate a frame against the preamble on every CFO branch.

    The frame is demodulated for all branches at once and matched-
    filtered in one batched circular FFT correlation at the frame's
    own transform length: only lags with the whole preamble inside the
    frame are kept, and none of those wraps. Each branch keeps the local
    maxima of |correlation| above _ETA * ||preamble||^2, with non-maximum
    suppression over half a preamble symbol; the clean full-overlap peak
    magnitude equals ||preamble||^2. Each branch also records its
    carrier-line strength (the frame's spectrum sampled at the branch
    CFO, the sum of the demodulated frame): a real arrival concentrates
    a packet-long tone there while sidelobe lines run well below it.
    """
    pre = upsampled_preamble(p)
    span = max(0, x.size - pre.size + 1)
    if len(cfos) == 0:
        return PeakMap([], span)
    y = x * _cis(-np.asarray(cfos, dtype=float), x.size, p.Fs)
    weights = np.abs(y.sum(axis=1))
    if span == 0:
        corr = np.empty((y.shape[0], 0))
    else:
        n = _fast_len(x.size)
        corr = np.abs(np.fft.ifft(np.fft.fft(y, n)
                                  * np.conj(np.fft.fft(pre, n)))[:, :span])
    is_max = np.ones(corr.shape, dtype=bool)
    if span > 1:
        is_max[:, 0] = corr[:, 0] >= corr[:, 1]
        is_max[:, -1] = corr[:, -1] >= corr[:, -2]
        is_max[:, 1:-1] = ((corr[:, 1:-1] >= corr[:, :-2])
                           & (corr[:, 1:-1] >= corr[:, 2:]))
    is_max &= corr > _ETA * float(np.sum(np.abs(pre) ** 2))
    sep = max(1, p.samples_per_symbol // 2)
    branches = []
    for cfo, w, c, m in zip(cfos, weights, corr, is_max):
        cand = np.flatnonzero(m)
        chosen: list[int] = []
        for j in cand[np.argsort(c[cand])[::-1]].tolist():
            if all(abs(j - q) > sep for q in chosen):
                chosen.append(j)
        chosen.sort()
        pos = np.array(chosen, dtype=np.int64)
        branches.append(PeakBranch(cfo, pos, c[pos], float(w)))
    return PeakMap(branches, span)


# ---------------------------------------------------------------------------
# Peak drift table
# ---------------------------------------------------------------------------

@dataclass
class DriftTable:
    cfos: np.ndarray        # Hz, the integers on [-reach, reach]
    shifts: np.ndarray      # samples, argmax drift of the correlation peak
    gains: np.ndarray       # peak magnitude relative to the zero-offset peak
    n_pre: int              # preamble length, samples
    alt_indptr: np.ndarray  # CSR bounds into alt_lags, one row per cfo
    alt_lags: np.ndarray    # samples, near-top lag set of each cfo

    def _index(self, df: float) -> int:
        return int(np.clip(np.rint(df - self.cfos[0]), 0, self.cfos.size - 1))

    def shift_at(self, df: float) -> int:
        return int(self.shifts[self._index(df)])

    def _window(self, df: float, slack: float) -> slice:
        lo = np.searchsorted(self.cfos, df - slack, side="left")
        hi = np.searchsorted(self.cfos, df + slack, side="right")
        lo = max(0, min(lo, self.cfos.size - 1))
        hi = max(lo + 1, min(hi, self.cfos.size))
        return slice(lo, hi)

    def shifts_window(self, df: float, slack: float) -> np.ndarray:
        """Distinct argmax shifts on [df-slack, df+slack]."""
        return np.unique(self.shifts[self._window(df, slack)])

    def alt_window(self, df: float, slack: float) -> np.ndarray:
        """Union of the near-top lag sets on [df-slack, df+slack].

        Where the drift gain collapses several lags tie within noise, so
        an observed image can sit on any of them; cancellation, which
        must cover every place an image can appear, uses this set rather
        than the argmax alone.
        """
        w = self._window(df, slack)
        return np.unique(self.alt_lags[self.alt_indptr[w.start]:
                                       self.alt_indptr[w.stop]])

    def max_gain_window(self, df: float, slack: float) -> float:
        return float(np.max(self.gains[self._window(df, slack)]))


def build_drift_table(p: SystemParams) -> DriftTable:
    """Measure the correlation-peak drift of a CFO-hit preamble.

    The 1 Hz grid on [-reach, reach] covers every offset difference
    spc_resolve reads: a periodogram line lies within Fm + _CFO_MARGIN,
    plus the half padded bin _refine can add, of zero; two differ by at
    most twice that, and lookups widen it by _CFO_SLACK.

    For each offset the clean preamble is correlated against its
    modulated copy and the argmax lag is reduced to its cyclic symbol
    lag, so the stored drift steps through whole symbols and stays within
    +-floor(Nzc/2) symbols of zero by construction. For any preamble
    |corr| at offset -f and lag k equals |corr| at +f and lag -k, so each
    distinct |f| is transformed once and the row at -|f| reads the +|f|
    correlation with its lag axis mirrored. The gain is the
    relative peak magnitude; where it collapses toward the sidelobe
    floor the argmax carries no information and the stored lag is
    meaningless (consumers gate on the gain). Magnitude ties resolve to
    the smallest |lag| with the sign of the offset.

    Alongside the argmax each row keeps the set of lags whose magnitude
    reaches _ALT_FRAC of the top, with the argmax's 1e-9 tie tolerance so
    that lags tying in exact arithmetic stand or fall together: near the
    gain plateaus that set is the argmax alone, but where the gain
    collapses several lags come within noise of each other and an
    observed image can land on any of them.
    """
    p.validate(sample_level=True)
    nzc, fs, sps = p.Nzc, p.Fs, p.samples_per_symbol
    half_bin = fs / (2 * _LINE_PAD * _MIN_FRAME)
    reach = math.ceil(2 * (p.Fm + _CFO_MARGIN + half_bin) + _CFO_SLACK)
    cfo_grid = np.arange(-reach, reach + 1.0)
    pre = _preamble(nzc, sps)
    n = pre.size
    nfft = 1 << int(math.ceil(math.log2(2 * n - 1)))
    f_pre = np.conj(np.fft.fft(pre, nfft))[None, :]
    # lag k in [-(n-1), n-1] sits at circular index k mod nfft
    lags = np.concatenate([np.arange(0, n), np.arange(-(n - 1), 0)])
    idx = np.concatenate([np.arange(0, n), nfft - np.arange(n - 1, 0, -1)])
    # cyclic lag wrapped into half a preamble period, symbol-quantized;
    # linear-correlation complements at Q -+ Nzc*sps are re-expanded by
    # the consumers that need them. Row 1 reads each lag negated: the
    # symbol lags of a +|f| correlation taken as the row at -|f|.
    half = nzc // 2
    sym = np.clip(np.rint(((np.stack([lags, -lags]) + n // 2) % n - n // 2)
                          / sps), -half, half).astype(np.int64)
    # magnitude ties go to the smallest |lag|, then to the lag with the
    # offset's sign (rank - sign product), then to the first index
    rank = 3 * np.abs(lags) + 1
    lag_sign = np.sign(lags)
    energy = float(np.sum(np.abs(pre) ** 2))

    rows = cfo_grid.size
    shifts = np.empty(rows, dtype=np.int64)
    gains = np.empty(rows)
    near = np.zeros((rows, nzc), dtype=bool)   # column: symbol lag + half
    absf, which = np.unique(np.abs(cfo_grid), return_inverse=True)
    neg = (cfo_grid < 0).astype(np.int64)
    per = max(1, _DRIFT_BLOCK // 2)
    for lo in range(0, absf.size, per):
        fa = absf[lo: lo + per]
        corr = np.fft.ifft(np.fft.fft(pre * _cis(fa, n, fs), nfft, axis=1)
                           * f_pre, axis=1)
        mag = np.abs(corr[:, idx])
        top = mag.max(axis=1)
        tie = mag >= (top * (1.0 - 1e-9))[:, None]
        # scored at +|f|; at -|f| the (unique) best lag negates
        score = rank - (fa > 0).astype(np.int64)[:, None] * lag_sign
        best = np.argmin(np.where(tie, score, np.iinfo(np.int64).max), axis=1)
        r, c = np.nonzero(mag >= (top * _ALT_FRAC * (1.0 - 1e-9))[:, None])
        near_abs = np.zeros((2, fa.size, nzc), dtype=bool)
        near_abs[np.arange(2)[:, None], r, sym[:, c] + half] = True
        block = np.flatnonzero((which >= lo) & (which < lo + fa.size))
        j, s = which[block] - lo, neg[block]
        shifts[block] = sym[s, best[j]] * sps
        gains[block] = top[j] / energy
        near[block] = near_abs[s, j]
    alt_indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(near.sum(axis=1), out=alt_indptr[1:])
    alt_lags = (np.nonzero(near)[1] - half).astype(np.int64) * sps
    return DriftTable(cfo_grid, shifts, gains, n, alt_indptr, alt_lags)


# ---------------------------------------------------------------------------
# Successive peak validation
# ---------------------------------------------------------------------------

def spc_resolve(pm: PeakMap, dt: DriftTable) -> list[ValidatedPeak]:
    """Cross-branch validation of correlation peaks, strongest first.

    A peak at p in branch j is real if every other branch k that could
    physically see its ghost shows a peak at p + Q(-(cfo_k - cfo_j))
    within +-_TOL samples. Branches are exempt from giving evidence when
    they hold no peaks at all (a junk carrier line that resolved
    nothing must not veto real packets), when the predicted image gain
    stays below _MIN_GAIN over a tight +-_GATE_SLACK window around the
    offset difference (the image would sit under the correlation
    threshold), or when every predicted position falls outside the
    computed correlation span. Target positions are looked up over the
    wider +-_CFO_SLACK window because Q steps through whole symbols
    within the CFO estimation error.

    Two classes of peak can serve as evidence but are never promoted
    to packets themselves: peaks weaker than _CAND_FLOOR times the
    clean-preamble energy (a true arrival correlates near full energy
    in its own branch while ghost images are attenuated), and peaks in
    branches whose carrier line is weaker than _WEIGHT_FLOOR times the
    strongest line in the map (a real packet concentrates a packet-long
    tone in its own branch; ghost branches ride sidelobe lines several
    times weaker). That floor is also what keeps a candidate whose
    carrier line is under half as strong as another branch's from being
    promoted, however well the stronger branch explains it as an image;
    a line at exactly half the strongest is examined like any other.
    After a peak validates, its predicted image
    constellation is cancelled across all branches before weaker
    candidates are examined, using the full near-top lag sets rather
    than the argmax drifts alone: where the drift gain collapses the
    observed image can sit on any of the near-degenerate lags.
    Survivors within _TOL samples and a few Hz of a stronger validated
    peak are duplicates of it on a neighbouring branch (the drift is
    zero there) and are dropped.
    """
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
    validated: list[ValidatedPeak] = []
    for mag, j, i in pool:
        if (not alive[j][i] or mag < _CAND_FLOOR * energy
                or branches[j].weight < _WEIGHT_FLOOR * wmax):
            continue
        alive[j][i] = False
        pos = int(branches[j].positions[i])
        required = 0
        missing = 0
        for k, bk in enumerate(branches):
            if k == j or bk.positions.size == 0:
                continue
            delta = -(bk.cfo - branches[j].cfo)
            if dt.max_gain_window(delta, _GATE_SLACK) < _MIN_GAIN:
                continue
            targets = pos + dt.shifts_window(delta, _CFO_SLACK)
            targets = targets[(targets >= 0) & (targets < pm.span)]
            if targets.size == 0:
                continue
            required += 1
            live_pos = bk.positions[alive[k]]
            if live_pos.size == 0 or np.min(np.abs(
                    live_pos[:, None] - targets[None, :])) > _TOL:
                missing += 1
        # a predicted gain just above the gate still leaves the image
        # near the correlation threshold, so a minority of absent
        # images does not disqualify once three or more branches are
        # required
        if missing > (required // 3 if required >= 3 else 0):
            continue
        validated.append(ValidatedPeak(branches[j].cfo, pos, mag))
        # cancel the packet's whole image constellation, not just the
        # evidence that confirmed it, so leftover images cannot later
        # masquerade as packets of their own; a linear correlation
        # splits every cyclic lag into a pair Q and Q -+ Nzc*sps, so the
        # complements are cancelled alongside the tabulated shifts
        for k, bk in enumerate(branches):
            delta = -(bk.cfo - branches[j].cfo)
            q = dt.alt_window(delta, _CFO_SLACK)
            targets = pos + np.concatenate([q, q + dt.n_pre, q - dt.n_pre])
            if bk.positions.size:
                near = np.min(np.abs(bk.positions[:, None]
                                     - targets[None, :]), axis=1) <= _TOL
                alive[k][near] = False
    validated.sort(key=lambda v: -v.magnitude)
    kept: list[ValidatedPeak] = []
    for v in validated:
        if any(abs(v.position - u.position) <= _TOL
               and abs(v.cfo - u.cfo) <= 2 * _CFO_SLACK for u in kept):
            continue
        kept.append(v)
    kept.sort(key=lambda v: v.position)
    return kept


# ---------------------------------------------------------------------------
# Sequence extraction and payload decoding
# ---------------------------------------------------------------------------

def extract_sequences(x: np.ndarray, frame: tuple[int, int],
                      validated: list[ValidatedPeak],
                      p: SystemParams) -> list[np.ndarray]:
    """Cut each packet validated in frame = (start, stop) out of the
    stream x and demodulate it.

    A cut runs a packet length from start + position, past stop if need
    be; it is shorter only when the stream itself ends first. The
    carrier is removed on the cut alone, at its own sample indices in
    the frame.
    """
    start, stop = frame
    out = []
    n_pkt = round(p.Tp * p.Fs)
    for v in validated:
        if not (0 <= v.position < stop - start):
            raise InvalidParamsError("validated offset outside the frame")
        seq = x[start + v.position: start + v.position + n_pkt]
        k = np.arange(v.position, v.position + seq.size)
        out.append(seq * np.exp(-2j * math.pi * v.cfo * k / p.Fs))
    return out


@functools.lru_cache(maxsize=4)
def _pad_twiddles(n: int, pad: int) -> np.ndarray:
    """Row j holds exp(-2j*pi*j*t / (pad*n)) for t < n, read-only."""
    nfft = pad * n
    jt = np.arange(pad)[:, None] * np.arange(n)[None, :] % nfft
    w = np.exp(-2j * math.pi * jt / nfft)
    w.flags.writeable = False
    return w


def _padded_fft(r: np.ndarray, pad: int) -> np.ndarray:
    """np.fft.fft(r, pad * r.size) as pad transforms of length r.size.

    Bin pad*m + j of the padded spectrum is entry [j, m]: the length-n
    transform of r modulated by twiddle row j. At the receiver's
    preamble length 920 = 8*5*23 this beats one 29,440-point transform.
    """
    return np.fft.fft(r * _pad_twiddles(r.size, pad), axis=1)


def fine_cfo(seq: np.ndarray, p: SystemParams) -> float:
    """Residual offset from the preamble after coarse demodulation.

    The wiped preamble leaves a tone at the residual, read off its
    zero-padded spectrum and refined on the neighbouring bins.
    """
    pre = upsampled_preamble(p)
    if seq.size < pre.size:
        raise InvalidParamsError("sequence shorter than the preamble")
    r = seq[: pre.size] * np.conj(pre)
    # transposed and flattened into bin order, so ties go to the lowest bin
    spec = np.abs(_padded_fft(r, _FINE_CFO_PAD)).T.ravel()
    return _refine(spec, int(np.argmax(spec)), p.Fs)


def demap_payload(seq: np.ndarray, p: SystemParams) -> np.ndarray:
    """Coherent payload demodulation of an extracted packet.

    Removes the residual CFO measured on the preamble, equalizes with
    the preamble-estimated complex gain, integrates each symbol, and
    slices to Gray bits.
    """
    df = fine_cfo(seq, p)
    x = seq * np.exp(-2j * math.pi * df * np.arange(seq.size) / p.Fs)
    pre = upsampled_preamble(p)
    gain = np.vdot(pre, x[: pre.size]) / np.vdot(pre, pre)
    if gain == 0:
        raise InvalidParamsError("zero preamble gain, nothing to equalize")
    z = x / gain
    payload = z[pre.size:]
    sps = p.samples_per_symbol
    n_sym = payload.size // sps
    sym = payload[: n_sym * sps].reshape(n_sym, sps).mean(axis=1)
    return pam4_demap(sym.real)


def decode_stream(x: np.ndarray, p: SystemParams, dt: DriftTable,
                  power_threshold: float) -> list[tuple]:
    """The full chain over a sample stream: one (position, cfo, bits)
    triple per packet in decoding order, bits None where the stream ends
    before the packet does.

    Frames of a long run overlap by one preamble, so a packet can be
    validated in two of them; a validation within _TOL samples and twice
    the CFO slack of an earlier one is that packet again and is dropped.
    """
    out = []
    n_pkt = round(p.Tp * p.Fs)
    for start, stop in frame_events(x, p, power_threshold):
        buf = x[start:stop]
        vs = spc_resolve(peak_map(buf, periodogram_cfos(buf, p), p), dt)
        for v, seq in zip(vs, extract_sequences(x, (start, stop), vs, p)):
            pos = start + v.position
            if any(abs(pos - q) <= _TOL and abs(v.cfo - c) <= 2 * _CFO_SLACK
                   for q, c, _ in out):
                continue
            out.append((pos, v.cfo,
                        None if seq.size < n_pkt else demap_payload(seq, p)))
    return out
