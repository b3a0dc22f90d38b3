"""Sample-level receiver front end.

Synthesizes preamble-plus-payload packets with a carrier offset, frames
energy events out of a stream, estimates per-packet CFOs with a
periodogram, locates preambles by matched filtering per CFO branch, and
cross-validates peaks across branches through the frequency-dependent
correlation-peak drift of the Zadoff-Chu preamble. Validated packets
are cut out and demodulated after a fine CFO correction, which looks
for the residual tone only within twice the validation slack of zero
(one packet's CFO window), so another packet's stronger carrier line
cannot capture it; decode_stream runs the whole chain.
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


def synthesize_packet(bits, p: SystemParams, df: float) -> np.ndarray:
    """Preamble + 4-PAM payload, upsampled to Fs and shifted by df.

    bits is the full payload: a flat array of payload_bits_per_packet(p)
    bits, so the packet spans Tp. p is not checked here: callers pass one
    that build_drift_table or validate_receiver has validated.
    """
    n_bits = payload_bits_per_packet(p)
    if np.shape(bits) != (n_bits,):
        raise InvalidParamsError(f"payload must be a flat array of {n_bits} bits")
    sps = p.samples_per_symbol
    x = np.concatenate([_preamble(p.Nzc, sps), _upsample(pam4_map(bits), sps)])
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

@functools.lru_cache(maxsize=256)
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
    not split a packet), and each run is widened by that smoothing span
    on both sides so threshold-crossing lag cannot clip a preamble; runs
    whose widened spans touch, those at most two spans (sixteen symbols)
    of sub-threshold samples apart, merge. A run longer than
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
    idx = np.flatnonzero(smooth > power_threshold)
    if idx.size == 0:
        return []
    # run [a, b] widened to [a - win, b + 1 + win) touches the next run
    # exactly when their index gap is at most 2 * win + 1; clamping the
    # spans to the stream changes no such decision
    breaks = np.flatnonzero(np.diff(idx) > 2 * win + 1)
    starts = np.maximum(idx[np.concatenate([[0], breaks + 1])] - win, 0)
    stops = np.minimum(idx[np.concatenate([breaks, [-1]])] + 1 + win, x.size)

    frames = []
    for s, e in zip(starts.tolist(), stops.tolist()):
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


def _refine(mag: np.ndarray, k: int, nfft: int, fs: float) -> float:
    """Frequency of bin k of an nfft-point spectrum at rate fs, refined
    parabolically on the dB values of mag, the magnitudes of bins k-1,
    k and k+1. A negative k names bin nfft + k.

    Callers take the neighbours circularly, so a peak straddling the FFT
    wrap interpolates across it instead of collapsing to the bin edge.
    The vertex is kept within half a bin of k, where it always lies when
    bin k is a local maximum; a band edge that is not one reads no
    further out.
    """
    a, b, c = _db(mag)
    denom = a - 2 * b + c
    frac = 0.0 if denom == 0 else float(0.5 * (a - c) / denom)
    frac = min(max(frac, -0.5), 0.5)
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
    the two middle magnitudes of one partition, dB being monotone, as
    the mean of their dB values.
    """
    if x.size < _MIN_FRAME:
        raise InvalidParamsError("frame too short for a periodogram")
    if not np.any(x):
        return []
    nfft = _fast_len(_LINE_PAD * x.size)
    spec = np.abs(np.fft.fft(x, nfft))
    half = nfft // 2
    part = np.partition(spec, half)
    a, b = _db(np.array([part[:nfft - half].max(), part[half]])).tolist()
    floor = (a + b) / 2
    min_sep = _LINE_PAD  # about one pre-padding resolution bin, in padded bins
    band = _line_band(nfft, p.Fs, p.Fm + _CFO_MARGIN)
    mag = spec[band]
    is_peak = (mag >= spec[(band - 1) % nfft]) & (mag >= spec[(band + 1) % nfft])
    cand = band[is_peak & (_db(mag) > floor + _LINE_DB)]
    cand = cand[np.argsort(spec[cand])[::-1]].tolist()
    chosen: list[int] = []
    for k in cand:
        if all(min(abs(k - c), nfft - abs(k - c)) >= min_sep for c in chosen):
            chosen.append(k)
        if len(chosen) >= _MAX_LINES:
            break
    return sorted(_refine(spec[[(k - 1) % nfft, k, (k + 1) % nfft]], k, nfft,
                          p.Fs) for k in chosen)


@functools.lru_cache(maxsize=64)
def _line_band(nfft: int, fs: float, limit: float) -> np.ndarray:
    """The bins within limit Hz of zero of an nfft-point spectrum at rate
    fs, ascending; read-only.

    Each signed bin is taken once, at np.fft.fftfreq's frequency, and
    circularly, so a carrier near 0 Hz peaks in the DC bin.
    """
    step = 1.0 / (nfft * (1.0 / fs))
    reach = min(int(limit / step) + 2, nfft // 2)
    signed = np.arange(-reach, min(reach, (nfft - 1) // 2) + 1)
    return _read_only(np.sort(signed[np.abs(signed * step) <= limit] % nfft))


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


@functools.lru_cache(maxsize=4)
def _preamble_spectrum(nzc: int, sps: int, n: int) -> np.ndarray:
    """conj(fft(preamble, n)), the matched filter at length n; read-only."""
    f = np.conj(np.fft.fft(_preamble(nzc, sps), n))
    f.flags.writeable = False
    return f


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
    y = _cis(-np.asarray(cfos, dtype=float), x.size, p.Fs)
    y *= x
    weights = np.abs(y.sum(axis=1))
    if span == 0:
        corr = np.empty((y.shape[0], 0))
    else:
        n = _fast_len(x.size)
        spec = np.fft.fft(y, n)
        spec *= _preamble_spectrum(p.Nzc, p.samples_per_symbol, n)
        corr = np.abs(np.fft.ifft(spec, out=spec)[:, :span])
    # local maxima among the above-threshold lags; an end lag is compared
    # with its one neighbour
    rows, cols = np.nonzero(corr > _ETA * float(np.sum(np.abs(pre) ** 2)))
    vals = corr[rows, cols]
    is_max = ((vals >= corr[rows, np.maximum(cols - 1, 0)])
              & (vals >= corr[rows, np.minimum(cols + 1, span - 1)]))
    rows, cols, vals = rows[is_max], cols[is_max], vals[is_max]
    ends = np.searchsorted(rows, np.arange(len(cfos) + 1)).tolist()
    sep = max(1, p.samples_per_symbol // 2)
    branches = []
    for r, (cfo, w, c) in enumerate(zip(cfos, weights, corr)):
        cand = cols[ends[r]: ends[r + 1]]
        chosen: list[int] = []
        for j in cand[np.argsort(vals[ends[r]: ends[r + 1]])[::-1]].tolist():
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
    reach: int              # row r is the offset r - reach Hz
    shifts: np.ndarray      # samples, argmax drift of the correlation peak
    gains: np.ndarray       # peak magnitude relative to the zero-offset peak
    near: np.ndarray        # bool rows x Nzc, the near-top lags of each
                            # row: column c is symbol lag c - Nzc//2
    n_pre: int              # preamble length, samples
    p: SystemParams         # the parameters build_drift_table checked

    def __post_init__(self):
        # gate and images by (start row, stop row), each computed once;
        # plain attributes, so no field the dataclass compares
        self._gates: dict[tuple[int, int], float] = {}
        self._images: dict[tuple[int, int], tuple] = {}

    def _window(self, df: float, slack: float) -> tuple[int, int]:
        """The (start, stop) rows on [df-slack, df+slack]; where none lies
        there, the first row past df-slack, clamped to the grid."""
        rows = self.shifts.size
        lo = min(max(math.ceil(df - slack) + self.reach, 0), rows - 1)
        hi = max(lo + 1, min(math.floor(df + slack) + self.reach + 1, rows))
        return lo, hi

    def gate(self, df: float) -> float:
        """The largest drift gain on [df-_GATE_SLACK, df+_GATE_SLACK]."""
        key = self._window(df, _GATE_SLACK)
        gain = self._gates.get(key)
        if gain is None:
            gain = self._gates[key] = float(np.max(self.gains[key[0]:key[1]]))
        return gain

    def images(self, df: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Image lags at offset difference df from the rows on
        [df-_CFO_SLACK, df+_CFO_SLACK]: the distinct argmax shifts, where
        evidence is looked for, and the lags to cancel. Where the gain
        collapses an image can sit on any near-top lag, so those are the
        union Q of the near-top sets with their linear-correlation
        complements Q + n_pre and Q - n_pre."""
        key = self._window(df, _CFO_SLACK)
        value = self._images.get(key)
        if value is None:
            rows = slice(*key)
            nzc = self.near.shape[1]
            q = ((np.flatnonzero(self.near[rows].any(axis=0)) - nzc // 2)
                 * (self.n_pre // nzc)).tolist()
            value = self._images[key] = (
                tuple(np.unique(self.shifts[rows]).tolist()),
                tuple(q + [v + self.n_pre for v in q] + [v - self.n_pre for v in q]))
        return value


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    pre = _preamble(nzc, sps)
    n = pre.size
    nfft = 1 << int(math.ceil(math.log2(2 * n - 1)))
    f_pre = _preamble_spectrum(nzc, sps, nfft)[None, :]
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

    rows = 2 * reach + 1
    shifts = np.empty(rows, dtype=np.int64)
    gains = np.empty(rows)
    near = np.zeros((rows, nzc), dtype=bool)   # column: symbol lag + half
    absf = np.arange(reach + 1.0)                  # each |offset|, Hz
    which = np.abs(np.arange(rows) - reach)        # row -> index into absf
    neg = (np.arange(rows) < reach).astype(np.int64)
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
    return DriftTable(reach, shifts, gains, near, n, p)


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
    """
    branches = pm.branches
    if not branches:
        return []
    energy = float(dt.n_pre)
    wmax = max(b.weight for b in branches)
    positions = [b.positions.tolist() for b in branches]
    alive = [[True] * len(ps) for ps in positions]
    pool = [(m, j, i)
            for j, b in enumerate(branches)
            for i, m in enumerate(b.magnitudes.tolist())]
    pool.sort(reverse=True)
    validated: list[ValidatedPeak] = []
    for mag, j, i in pool:
        if (not alive[j][i] or mag < _CAND_FLOOR * energy
                or branches[j].weight < _WEIGHT_FLOOR * wmax):
            continue
        alive[j][i] = False
        pos = positions[j][i]
        required = 0
        missing = 0
        for k, bk in enumerate(branches):
            if k == j or not positions[k]:
                continue
            delta = -(bk.cfo - branches[j].cfo)
            if dt.gate(delta) < _MIN_GAIN:
                continue
            targets = [t for t in (pos + s for s in dt.images(delta)[0])
                       if 0 <= t < pm.span]
            if not targets:
                continue
            required += 1
            if not any(live and abs(q - t) <= _TOL
                       for q, live in zip(positions[k], alive[k])
                       for t in targets):
                missing += 1
        # a predicted gain just above the gate still leaves the image
        # near the correlation threshold, so a minority of absent
        # images does not disqualify once three or more branches are
        # required
        if missing > (required // 3 if required >= 3 else 0):
            continue
        validated.append(ValidatedPeak(branches[j].cfo, pos))
        # cancel the packet's whole image constellation, not just the
        # evidence that confirmed it, so leftover images cannot later
        # masquerade as packets of their own; a linear correlation
        # splits every cyclic lag into a pair Q and Q -+ Nzc*sps, so the
        # complements are cancelled alongside the tabulated shifts
        for k, bk in enumerate(branches):
            if not positions[k]:
                continue
            targets = [pos + v for v in dt.images(-(bk.cfo - branches[j].cfo))[1]]
            for i, q in enumerate(positions[k]):
                if any(abs(q - t) <= _TOL for t in targets):
                    alive[k][i] = False
    validated.sort(key=lambda v: v.position)
    return validated


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
def _fine_band(n: int, pad: int, fs: float) -> np.ndarray:
    """Read-only n x (2m+1) matrix whose product with a length-n vector
    gives bins 0..m, then -m..-1, of its pad*n-point zero-padded
    spectrum: m - 1 is the last bin within 2*_CFO_SLACK of zero at rate
    fs, and bins +-m are the outer neighbours the refinement reads.
    """
    nfft = pad * n
    m = min(int(2 * _CFO_SLACK * nfft / fs), (nfft - 3) // 2) + 1
    bins = np.r_[0:m + 1, nfft - m:nfft]
    w = np.exp(-2j * math.pi * (np.arange(n)[:, None] * bins % nfft) / nfft)
    w.flags.writeable = False
    return w


def fine_cfo(seq: np.ndarray, p: SystemParams) -> float:
    """Residual offset from the preamble after coarse demodulation.

    The wiped preamble leaves a tone at the residual, read off its
    32-times zero-padded spectrum and refined on the neighbouring bins.
    Only the bins within 2*_CFO_SLACK of zero are computed, as one
    matrix product: the residual of a packet validated within
    _CFO_SLACK lies there (decode_stream takes validations twice the
    slack apart as one packet), and a stronger line outside it belongs
    to another signal. Ties go to the lowest bin in FFT
    order (0, 1, ..., then the negative bins), and an all-zero sequence
    reads 0.
    """
    pre = upsampled_preamble(p)
    if seq.size < pre.size:
        raise InvalidParamsError("sequence shorter than the preamble")
    r = seq[: pre.size] * np.conj(pre)
    spec = np.abs(r @ _fine_band(pre.size, _FINE_CFO_PAD, p.Fs))
    m = spec.size // 2          # spec[m] and spec[m + 1]: bins +-m, never the peak
    i = int(np.argmax(np.concatenate((spec[:m], (-1.0, -1.0), spec[m + 2:]))))
    return _refine(spec[[i - 1, i, (i + 1) % spec.size]],
                   i if i < m else i - spec.size, _FINE_CFO_PAD * pre.size, p.Fs)


def demap_payload(seq: np.ndarray, p: SystemParams) -> np.ndarray:
    """Coherent payload demodulation of an extracted packet.

    Removes the residual CFO that fine_cfo reads off the preamble within
    2*_CFO_SLACK of zero, equalizes with the preamble-estimated complex
    gain, integrates each symbol, and slices to Gray bits.
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


def decode_stream(x: np.ndarray, dt: DriftTable,
                  power_threshold: float) -> list[tuple]:
    """The full chain over a sample stream: one (position, cfo, bits)
    triple per packet in decoding order, bits None where the stream ends
    before the packet does.

    Frames of a long run overlap by one preamble, so a packet can be
    validated in two of them; a validation within _TOL samples and twice
    the CFO slack of an earlier one is that packet again and is dropped.
    This is also the one duplicate filter within a frame: spc_resolve
    cancels a validated peak's images on every branch, and on a branch
    a few Hz away they include the peak's own position (the drift is
    zero there), so a copy of it there is cancelled before it is
    examined; a copy that still validates is dropped here, after the one
    earlier in position. Frames under _MIN_FRAME are skipped: at few
    samples per symbol a noise blip widened by the margins is one.
    Geometry comes from dt.p, the parameters the table was checked for.
    """
    p = dt.p
    out = []
    n_pkt = round(p.Tp * p.Fs)
    for start, stop in frame_events(x, p, power_threshold):
        if stop - start < _MIN_FRAME:
            continue
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
