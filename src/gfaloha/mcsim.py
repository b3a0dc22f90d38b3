"""Rectangle-level Monte Carlo simulator of the asynchronous channel.

Replicas are Tp-by-W rectangles on a circular time horizon (wrap-around
removes edge effects). The simulator builds the pairwise overlap graph
with a sweep over start times, runs iterative interference cancellation
on it, and feeds failed packets back as retries. Overlap areas, SINRs
and the no-combining threshold are the interference module's rectangle
model, the formulas the analytic chain uses. Slot patterns and CFOs
come from the traffic module's frame draw; each grid cell of a sweep
(run by the experiment module) draws from its own keyed substream. PHY
detail below the rectangle abstraction (waveforms, preambles) lives in
the signal chain module and is validated separately.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .interference import area_threshold, overlap_area, sinr
from .kpi import RA_OPPORTUNITIES, RA_PERIOD
from .params import EnergyParams, InvalidParamsError, SystemParams
from .traffic import draw_frames, generate_arrivals

_SINR_TOL = 1e-12   # relative slack on threshold comparisons
_AREA_TOL = 1e-10   # absolute slack on area-domain comparisons, s*Hz


# ---------------------------------------------------------------------------
# Collision graph
# ---------------------------------------------------------------------------

@dataclass
class CollisionGraph:
    """Pairwise overlap structure of a replica population.

    Edges exist only for strictly positive overlap area, one per
    overlapping pair (the builder drops pairs of two wrapped copies,
    which repeat the pairs of their originals). Replica ea starts first:
    dt is the start-time difference t0[eb] - t0[ea] on the circle,
    0 <= dt < Tp, so the interfered interval inside each rectangle can
    be recovered. p is the (immutable) parameter set the areas were cut
    with; sic_decode decodes under it.
    """

    packet: np.ndarray
    ea: np.ndarray
    eb: np.ndarray
    dt: np.ndarray
    area: np.ndarray
    n_packets: int
    p: SystemParams

    @property
    def n_replicas(self) -> int:
        return len(self.packet)

    @functools.cached_property
    def _sc_setup(self) -> tuple[list, np.ndarray]:
        """The clean-fraction round's setup, which no threshold changes.

        An edge dirties [lo, hi) = [max(0, d), min(tp, d + tp)) of a
        replica, d being the interferer's start relative to the
        replica's: a prefix ending at hi if lo == 0, a suffix starting at
        lo if hi == tp (both if d + tp rounds to tp). Returns the
        (replica, packet, edge, end) entries of the prefixes and the
        (..., start) entries of the suffixes, entry i of the edge-end
        concatenation being edge i mod E, and the packet x (largest
        replica count) table of replica ids: spare slots hold the empty
        stretch n_replicas, a packet without replicas the clean stretch
        n_replicas + 1.
        """
        pkt, tp, npk, nrep = self.packet, self.p.Tp, self.n_packets, self.n_replicas
        rep = np.concatenate([self.ea, self.eb])
        d = np.concatenate([self.dt, -self.dt])
        lo, hi = np.maximum(0.0, d), np.minimum(tp, d + tp)
        sides = [(rep[i], pkt[rep[i]], i % len(self.ea), x[i]) for i, x in
                 ((np.flatnonzero(lo == 0.0), hi), (np.flatnonzero(hi == tp), lo))]
        n_rep_of = np.bincount(pkt, minlength=npk)
        by_pkt = np.argsort(pkt, kind="stable")
        rows = np.full((npk, max(1, int(n_rep_of.max(initial=0)))), nrep)
        rows[pkt[by_pkt], _segment_arange(n_rep_of)] = by_pkt
        rows[n_rep_of == 0, 0] = nrep + 1
        return sides, rows


def _segment_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def build_collision_graph(replicas, p: SystemParams,
                          horizon: float | None = None,
                          decodable: np.ndarray | None = None) -> CollisionGraph:
    """Find all pairwise rectangle intersections via a start-time sweep.

    `replicas` is a (t0, df, packet) triple of arrays: start time, CFO and
    packet id per replica. With a horizon the time axis is circular:
    replicas within Tp of its end reappear as copies shifted left by the
    horizon, so the linear sweep sees the overlaps across the wrap. As
    the horizon exceeds 2*Tp, two replicas overlap directly or across
    the wrap, never both, so a pair of two copies only repeats the pair
    of their originals and is dropped. Each pair is one edge, the
    earlier start in ea. Same-packet pairs are excluded (replicas of one
    attempt sit in distinct slots and cannot overlap). Given
    sic_decode's `decodable` mask, pairs of two undecodable packets are
    left out too: their edges add only to the sums of replicas that
    sic_decode never tests.
    """
    t0, df, packet = (np.asarray(a) for a in replicas)
    n = len(t0)
    n_packets = int(packet.max()) + 1 if n else 0
    ext_t, ext_idx = t0, np.arange(n)
    if horizon is not None:
        if horizon <= 2 * p.M * p.Tp:
            raise InvalidParamsError("circular horizon must exceed 2*M*Tp")
        ext_t = np.mod(t0, horizon)
        wrap = np.flatnonzero(ext_t > horizon - p.Tp)
        ext_t = np.concatenate([ext_t, ext_t[wrap] - horizon])
        ext_idx = np.concatenate([ext_idx, wrap])

    order = np.argsort(ext_t, kind="stable")
    ts = ext_t[order]
    hi = np.searchsorted(ts, ts + p.Tp, side="left")
    counts = hi - np.arange(len(ts)) - 1
    a = np.repeat(np.arange(len(ts)), counts)
    b = np.repeat(np.arange(len(ts)) + 1, counts) + _segment_arange(counts)
    ia, ib = ext_idx[order[a]], ext_idx[order[b]]
    dt = ts[b] - ts[a]  # in [0, Tp]; a pair that only touches gets no area

    # copies (t0 < 0) sort first: a pair whose later end is one is two copies
    keep = (order[b] < n) & (packet[ia] != packet[ib])
    if decodable is not None:
        decodable = np.asarray(decodable, dtype=bool)
        keep &= decodable[packet[ia]] | decodable[packet[ib]]
    ia, ib, dt = ia[keep], ib[keep], dt[keep]
    area = overlap_area(dt, df[ia] - df[ib], p)
    keep = area > 0.0
    return CollisionGraph(packet, ia[keep], ib[keep], dt[keep], area[keep],
                          n_packets, p)


# ---------------------------------------------------------------------------
# Successive interference cancellation
# ---------------------------------------------------------------------------

@dataclass
class SicOutcome:
    decoded: np.ndarray          # bool per packet id
    rounds: int
    residual_replicas: int       # replicas still on air when SIC stalled


def sic_decode(graph: CollisionGraph, *, policy: str = "mrc", cr: float = 0.5,
               max_rounds: int = 32,
               decodable: np.ndarray | None = None) -> SicOutcome:
    """Iterative decoding over the collision graph.

    Per round the undecoded packets are tested under the chosen policy:
      none - some replica alone reaches SINR >= St
      mrc  - the summed replica SINRs reach St
      sc   - the union of interference-free stretches across the
             replicas covers at least the fraction cr of the packet
    Decoded packets are removed (all their replicas) and the next round
    sees the reduced interference; the loop stops at a fixpoint or after
    max_rounds. `decodable` marks packets the receiver may decode; the
    rest (already-failed earlier transmissions) only radiate. The
    thresholds are those of graph.p, the parameters the graph was built
    with.

    Rounds are incremental. Every policy looks only at a packet's own
    replicas and their alive edges, so a packet that failed in round k
    and shares no edge with a packet decoded in round k sees the same
    interference areas and the same dirty stretches in round k+1 and
    fails again. Round 1 tests every decodable packet; round k+1
    tests only that frontier. The result is the same as retesting all
    undecoded packets every round, bit for bit: the interference area
    of a replica is recomputed with a bincount over the alive edges
    (never by subtracting cancelled areas, which drifts in float and can
    flip threshold ties); the sc test takes each replica's clean stretch
    from the max and min of its alive edges' interval ends, which no
    order changes, and adds the stretches dirty on all replicas in
    ascending position, each as the difference of two interval ends,
    as a left-to-right loop over the intersected interval lists does.
    """
    if policy not in ("none", "mrc", "sc"):
        raise ValueError(f"unknown decoding policy {policy!r}")
    if not (0.0 < cr <= 1.0):
        raise InvalidParamsError("coding-rate threshold must lie in (0, 1]")
    npk = graph.n_packets
    decoded = np.zeros(npk, dtype=bool)
    decodable = (np.ones(npk, dtype=bool) if decodable is None
                 else np.asarray(decodable, dtype=bool))
    pkt = graph.packet
    pa, pb = pkt[graph.ea], pkt[graph.eb]
    round_test = _ROUND_TESTS[policy](graph, cr)
    test = decodable.copy()
    rounds = 0

    while rounds < max_rounds:
        rounds += 1
        new = round_test(~decoded[pa] & ~decoded[pb], test)
        if not new.any():
            break
        decoded |= new
        # Next frontier: undecoded packets sharing an edge with a new decode.
        test = np.zeros(npk, dtype=bool)
        test[pb[new[pa]]] = True
        test[pa[new[pb]]] = True
        test &= decodable & ~decoded

    residual = int(np.count_nonzero(~decoded[pkt]))
    return SicOutcome(decoded, rounds, residual)


# Each factory returns round_test(e_alive, test) -> bool per packet: the
# packets of `test` that decode while the edges of `e_alive` are on air.

def _interference_area(graph: CollisionGraph, e_alive: np.ndarray) -> np.ndarray:
    """Overlap area per replica summed over the alive edges."""
    area = graph.area[e_alive]
    return (np.bincount(graph.ea[e_alive], weights=area, minlength=graph.n_replicas)
            + np.bincount(graph.eb[e_alive], weights=area, minlength=graph.n_replicas))


def _no_combining_test(graph: CollisionGraph, cr: float):
    pkt = graph.packet
    area_thresh = area_threshold(graph.p)

    def round_test(e_alive, test):
        m = _interference_area(graph, e_alive)
        new = np.zeros(graph.n_packets, dtype=bool)
        new[pkt[test[pkt] & (m <= area_thresh + _AREA_TOL)]] = True
        return new
    return round_test


def _mrc_test(graph: CollisionGraph, cr: float):
    pkt, p = graph.packet, graph.p

    def round_test(e_alive, test):
        m = _interference_area(graph, e_alive)
        live = test[pkt]
        s = sinr(m[live], p)
        sums = np.bincount(pkt[live], weights=s, minlength=graph.n_packets)
        return test & (sums >= p.St * (1.0 - _SINR_TOL))
    return round_test


def _clean_fraction_test(graph: CollisionGraph, cr: float):
    """Clean-fraction policy: the replicas' clean stretches cover cr*Tp.

    A position inside the packet counts as clean if at least one replica
    carries it free of any overlapping, not yet cancelled replica; even
    partial frequency overlap spoils the stretch it covers. Each alive
    edge dirties a prefix or a suffix of a replica (graph._sc_setup,
    built once per graph and shared by every threshold). So a replica
    is clean on [a, b), a the latest prefix end (or 0) and b the
    earliest suffix start (or Tp), and dirty throughout if b <= a
    (touching stretches merge). max and min ignore the entries' order,
    so no entry is sorted. Each tested packet's stretches, sorted on a
    (an empty one as (0, 0)), are walked with the running maximum
    `reach` of their ends: an a above reach adds the dirty gap
    a - reach, and Tp - reach closes the sum. These
    are the endpoint differences a left-to-right loop over the
    intersected interval lists adds, in its order. A replica without
    alive edges is clean on [0, Tp), so its packet decodes, and so does
    a packet id without replicas.
    """
    tp, npk, nrep = graph.p.Tp, graph.n_packets, graph.n_replicas
    sides, rows = graph._sc_setup
    need = cr * tp - 1e-12

    def round_test(e_alive, test):
        a, b = np.zeros(nrep + 2), np.full(nrep + 2, tp)
        b[nrep] = 0.0
        for out, f, (r, q, e, x) in zip((a, b), (np.maximum, np.minimum), sides):
            on = np.flatnonzero(test[q] & e_alive[e])
            f.at(out, r[on], x[on])
        tested = np.flatnonzero(test)
        a, b = a[rows[tested]], b[rows[tested]]
        clean = b > a
        z = np.sort(a * clean + 1j * (b * clean), axis=1)
        reach, covered = np.zeros((2, tested.size))
        for a_k, b_k in zip(z.real.T, z.imag.T):
            covered += np.maximum(a_k - reach, 0.0)
            np.maximum(reach, b_k, out=reach)
        new = np.zeros(npk, dtype=bool)
        new[tested] = tp - (covered + (tp - reach)) >= need
        return new
    return round_test


_ROUND_TESTS = {"none": _no_combining_test, "mrc": _mrc_test,
                "sc": _clean_fraction_test}


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

@dataclass
class TrialResult:
    """Counts over the measured reports of one grant-free trial. Its delay
    is the mean over delivered reports, not the analytic unconditional
    mean."""

    offered: int            # measured reports
    attempts: int           # transmission attempts of measured reports
    delivered: int
    outage: float           # per-attempt failure probability
    delay: float            # s, mean over delivered reports (inf if none)


def nominal_lambda(load: float, p: SystemParams) -> float:
    """Arrival rate whose first-attempt traffic realizes the given load:
    the inverse of interference.offered_load_of at replica rate N*lambda,
    written out in closed form (the sweep's load axis keeps its bits)."""
    return load * (2.0 * p.Fm + p.W) / (p.W * p.N * p.Tp)


def _measured_arrivals(rng: np.random.Generator, lambda_agg: float,
                       horizon: float, p: SystemParams):
    """Report arrivals over the horizon and the mask of the measured ones:
    both simulators leave out 2*M*Tp of arrivals at each end."""
    if horizon <= 8 * p.M * p.Tp:
        raise InvalidParamsError("horizon too short for warm-up exclusion")
    arrivals = generate_arrivals(rng, lambda_agg, horizon)
    margin = 2.0 * p.M * p.Tp
    return arrivals, (arrivals >= margin) & (arrivals < horizon - margin)


def _wave_graph(rng: np.random.Generator, start: np.ndarray,
                static_t0: np.ndarray, static_df: np.ndarray, horizon: float,
                p: SystemParams):
    """Draw one wave of attempts and build its collision graph.

    Each attempt starting at `start` gets a fresh slot pattern and CFO;
    its replicas (t0, df) lie on the circular horizon under packet id
    i. The static replicas of earlier failed attempts follow, each with
    its own packet id, marked undecodable. Returns t0, df, the graph and
    the decodable mask.
    """
    n_att, n_static = start.size, static_t0.size
    slots, cfo = draw_frames(rng, n_att, p)
    t0 = np.mod(start[:, None] + slots * p.Tp, horizon).ravel()
    df = np.repeat(cfo, p.N)
    pkt = np.concatenate([np.repeat(np.arange(n_att), p.N),
                          n_att + np.arange(n_static)])
    decodable = np.concatenate([np.ones(n_att, bool), np.zeros(n_static, bool)])
    graph = build_collision_graph((np.concatenate([t0, static_t0]),
                                   np.concatenate([df, static_df]), pkt),
                                  p, horizon, decodable)
    return t0, df, graph, decodable


def first_attempt_outage(rng: np.random.Generator, lambda_agg: float,
                         horizon: float, p: SystemParams, crs) -> list[float]:
    """Clean-fraction outage of one first-attempt wave at each threshold.

    Draws the arrivals and the wave of frames run_trial's first wave
    draws, builds the collision graph once and decodes it under the sc
    policy at every cr of `crs`. Entry i is (offered - delivered) /
    offered over the measured reports at crs[i] (0.0 without any), bit
    for bit run_trial(..., "sc", cr=crs[i], max_retries=0).outage.
    Sharing one draw, the thresholds differ only by the receiver.
    """
    arrivals, measured = _measured_arrivals(rng, lambda_agg, horizon, p)
    empty = np.empty(0)
    _, _, graph, decodable = _wave_graph(rng, arrivals, empty, empty, horizon, p)
    offered = int(measured.sum())
    out = []
    for cr in crs:
        ok = sic_decode(graph, policy="sc", cr=cr, decodable=decodable).decoded
        delivered = int((measured & ok).sum())
        out.append((offered - delivered) / offered if offered else 0.0)
    return out


def run_trial(rng: np.random.Generator, lambda_agg: float, horizon: float,
              p: SystemParams, policy: str = "mrc", *,
              cr: float = 0.5, max_retries: int = 5,
              max_rounds: int = 32) -> TrialResult:
    """Simulate one horizon of traffic and measure outage and delay.

    Retries are processed in waves: all first attempts are decoded
    jointly (global SIC on the circular horizon), failures retransmit
    Tack after their frame with a fresh slot pattern and CFO, and each
    retry wave is decoded against the replicas of everything that failed
    before it. Later waves never rewrite earlier outcomes; the first and
    last 2*M*Tp of arrivals are excluded from the statistics.
    """
    arrivals, measured = _measured_arrivals(rng, lambda_agg, horizon, p)
    n_rep = arrivals.size

    # Static interference: replicas of failed attempts stay on air.
    static_t0 = np.empty(0)
    static_df = np.empty(0)

    wave_report = np.arange(n_rep)
    wave_start = arrivals.copy()
    delivered_at = np.full(n_rep, -1)      # wave index of success
    attempts_used = np.zeros(n_rep, dtype=np.int64)

    for wave in range(max_retries + 1):
        if wave_report.size == 0:
            break
        n_att = wave_report.size
        t0, df, graph, decodable = _wave_graph(rng, wave_start, static_t0,
                                               static_df, horizon, p)
        out = sic_decode(graph, policy=policy, cr=cr, max_rounds=max_rounds,
                         decodable=decodable)
        ok = out.decoded[:n_att]

        attempts_used[wave_report] += 1
        delivered_at[wave_report[ok]] = wave

        fail = ~ok
        static_t0 = np.concatenate([static_t0, t0[fail.repeat(p.N)]])
        static_df = np.concatenate([static_df, df[fail.repeat(p.N)]])
        wave_report = wave_report[fail]
        wave_start = np.mod(wave_start[fail] + p.M * p.Tp + p.Tack, horizon)

    # Statistics over measured reports only. A delivered report made
    # exactly one successful attempt, so the rest of the attempts failed.
    offered = int(measured.sum())
    attempts = int(attempts_used[measured].sum())
    got = measured & (delivered_at >= 0)
    delivered = int(got.sum())
    po = (attempts - delivered) / attempts if attempts else 0.0
    delay = delivered_at[got] * (p.M * p.Tp + p.Tack) + p.M * p.Tp
    mean_delay = float(delay.mean()) if delivered else math.inf
    return TrialResult(offered, attempts, delivered, po, mean_delay)


@dataclass
class GrantedTrialResult:
    """One granted-baseline cell.

    Attempts and delay average over delivered reports only. Where the
    simulated RA backlog collapses this hides the loss: at load 0.75 the
    default run's three cells (seed 1234) deliver 3.4%, 0.7% and 10.7%
    of offered reports, against about 100% at load 0.5, and their energy
    efficiency reads 4,393-4,441 bit/J beside the analytic 4,497, while
    kpi.ra_contention calls that load stable.
    """
    offered: int            # measured reports
    delivered: int
    mean_attempts: float    # RA attempts per delivered report
    delay: float            # s, mean over delivered reports (inf if none)


_PICK_CHUNK = 16384     # RA picks drawn per refill: bounded memory at unstable loads
_SMALL_BACKLOG = 24     # backlogs up to this size resolve their picks in plain Python


class _PickStream:
    """The RA picks of one granted run, drawn ahead in bounded chunks.

    Any split of ``rng.integers(0, m, size=k)`` calls, scalar draws
    included, gives the same values and the same final generator state
    as one draw of the total (a test checks this). So the run reads its
    picks from chunks, and `close` leaves the generator where drawing
    exactly the used picks, one period at a time, leaves it.
    """

    def __init__(self, rng: np.random.Generator, m: int):
        self.rng, self.m = rng, m
        self.buf = np.empty(0, dtype=np.int64)
        self.pos = 0            # next unused pick in buf
        self.drawn = 0          # picks the last refill drew
        self.saved: dict = {}   # generator state before the last refill

    def take(self, k: int) -> np.ndarray:
        short = self.pos + k - self.buf.size
        if short > 0:
            self.saved = self.rng.bit_generator.state
            self.drawn = max(short, _PICK_CHUNK)
            more = self.rng.integers(0, self.m, size=self.drawn)
            self.buf = np.concatenate((self.buf[self.pos:], more))
            self.pos = 0
        out = self.buf[self.pos:self.pos + k]
        self.pos += k
        return out

    def close(self) -> None:
        """Redraw, from the state before the last refill, only the part
        of it that was used."""
        unused = self.buf.size - self.pos
        if unused:
            self.rng.bit_generator.state = self.saved
            self.rng.integers(0, self.m, size=self.drawn - unused)


def _contend(rng: np.random.Generator, first_period: np.ndarray,
             n_periods: int, m: int) -> np.ndarray:
    """Period in which each report's RA pick wins, -1 if none does.

    first_period is sorted. In each period every pending report picks
    one of m opportunities, and a pick nobody else made wins. The
    backlog keeps its order (survivors, then that period's arrivals),
    because the order decides which report gets which pick.
    """
    n = first_period.size
    done = np.full(n, -1, dtype=np.int64)
    busy, starts = np.unique(first_period, return_index=True)
    k = int(np.searchsorted(busy, n_periods))   # busy[:k] lie in the horizon
    bounds = starts.tolist() + [n]
    # busy periods with two or more fresh reports, then a sentinel
    crowded = np.flatnonzero(np.diff(bounds)[:k] > 1).tolist() + [k]
    busy_at = busy.tolist()
    picks = _PickStream(rng, m)
    won_by: list[int] = []
    won_at: list[int] = []
    i = c = 0
    while i < k:
        # Empty backlog: each lone report up to the next crowded period
        # wins in its own period. Its pick is still drawn.
        while crowded[c] < i:
            c += 1
        j = crowded[c]
        if j > i:
            done[starts[i:j]] = busy[i:j]
            picks.take(j - i)
            i = j
            continue
        # A crowded period opens a backlog: the survivors of the last
        # resolved period, then every report that arrived since.
        t = busy_at[i]
        kept: list[int] | np.ndarray = []
        lo = bounds[i]
        i += 1
        hi = bounds[i]
        while True:
            b = len(kept) + hi - lo
            if b <= _SMALL_BACKLOG:
                if not isinstance(kept, list):
                    kept = kept.tolist()
                backlog = kept + list(range(lo, hi))
                mine = picks.take(b).tolist()
                count = [0] * m
                for x in mine:
                    count[x] += 1
                kept = backlog
                if 1 in count:
                    kept = []
                    for r, x in zip(backlog, mine):
                        if count[x] == 1:
                            won_by.append(r)
                            won_at.append(t)
                        else:
                            kept.append(r)
                lo = hi
            else:
                mine = picks.take(b)
                count = np.bincount(mine, minlength=m)
                if 1 in count.tolist():
                    backlog = np.concatenate((np.asarray(kept, dtype=np.int64),
                                              np.arange(lo, hi)))
                    won = count[mine] == 1
                    done[backlog[won]] = t
                    kept = backlog[~won]
                    lo = hi
            if len(kept) == 0 and lo == hi:
                break
            t += 1
            if t == n_periods:
                break
            if i < k and busy_at[i] == t:
                i += 1
                hi = bounds[i]
    picks.close()
    done[won_by] = won_at
    return done


def run_granted_baseline(rng: np.random.Generator, lambda_agg: float,
                         horizon: float, p: SystemParams, e: EnergyParams,
                         opportunities: int = RA_OPPORTUNITIES,
                         period: float = RA_PERIOD) -> GrantedTrialResult:
    """Granted-access reference: slotted contention, then a clean grant.

    Devices with a pending report pick one of the period's RA
    opportunities; a singleton pick wins a collision-free data slot.
    Losers retry next period, so a report that wins made one attempt per
    period from its arrival period to its winning one. The delay adds
    synchronization (e.Dsynch) and the data transmission. All picks come
    from one stream (`_PickStream`); the result and the generator's final
    state are those of drawing each period's picks in turn.
    """
    if opportunities < 1:
        raise InvalidParamsError("need at least one RA opportunity")
    if period <= 0:
        raise InvalidParamsError("RA period must be positive")
    arrivals, measured = _measured_arrivals(rng, lambda_agg, horizon, p)
    # A report contends at the RA instant closing its arrival period.
    first_period = np.floor(arrivals / period).astype(np.int64)
    done_period = _contend(rng, first_period, int(math.floor(horizon / period)),
                           opportunities)

    got = measured & (done_period >= 0)
    delivered = int(got.sum())
    offered = int(measured.sum())
    delay = ((done_period[got] + 1) * period - arrivals[got]
             + e.Dsynch + p.Tp)
    attempts = done_period[got] - first_period[got] + 1
    mean_delay = float(delay.mean()) if delivered else math.inf
    mean_att = float(attempts.mean()) if delivered else math.inf
    return GrantedTrialResult(offered, delivered, mean_att, mean_delay)


# ---------------------------------------------------------------------------
# Random substreams
# ---------------------------------------------------------------------------

def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for a grid cell, independent of run order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
