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

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kpi as kpi_mod
from .interference import area_threshold, overlap_area, sinr
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

    Edges exist only for strictly positive overlap area. dt stores the
    signed start-time difference t0[eb] - t0[ea] (unwrapped, |dt| < Tp)
    so the interfered interval inside each rectangle can be recovered.
    """

    t0: np.ndarray
    df: np.ndarray
    packet: np.ndarray
    ea: np.ndarray
    eb: np.ndarray
    dt: np.ndarray
    area: np.ndarray
    n_packets: int

    @property
    def n_replicas(self) -> int:
        return len(self.t0)


def _segment_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total) - np.repeat(starts, counts)


def build_collision_graph(replicas, p: SystemParams,
                          horizon: float | None = None) -> CollisionGraph:
    """Find all pairwise rectangle intersections via a start-time sweep.

    `replicas` is a (t0, df, packet) triple of arrays: start time, CFO and
    packet id per replica. With a horizon the time axis is circular:
    rectangles crossing the end wrap to the start. Same-packet pairs are
    excluded (replicas of one attempt sit in distinct slots and cannot
    overlap).
    """
    t0, df, packet = (np.asarray(a) for a in replicas)
    n = len(t0)
    n_packets = int(packet.max()) + 1 if n else 0
    if horizon is not None:
        if horizon <= 2 * p.M * p.Tp:
            raise InvalidParamsError("circular horizon must exceed 2*M*Tp")
        t0 = np.mod(t0, horizon)

    # Extended population: replicas near the end reappear shifted left so
    # the linear sweep sees wrapped overlaps.
    ext_t = t0
    ext_idx = np.arange(n)
    if horizon is not None and n:
        wrap = np.nonzero(t0 > horizon - p.Tp)[0]
        ext_t = np.concatenate([t0, t0[wrap] - horizon])
        ext_idx = np.concatenate([ext_idx, wrap])

    order = np.argsort(ext_t, kind="stable")
    ts = ext_t[order]
    hi = np.searchsorted(ts, ts + p.Tp, side="left")
    counts = hi - np.arange(len(ts)) - 1
    a = np.repeat(np.arange(len(ts)), counts)
    b = np.repeat(np.arange(len(ts)) + 1, counts) + _segment_arange(counts)
    ia, ib = ext_idx[order[a]], ext_idx[order[b]]
    dt = ts[b] - ts[a]  # in [0, Tp]; a pair that only touches gets no area

    keep = (ia != ib) & (packet[ia] != packet[ib])
    ia, ib, dt = ia[keep], ib[keep], dt[keep]
    area = overlap_area(dt, df[ia] - df[ib], p)
    keep = area > 0.0
    ia, ib, dt, area = ia[keep], ib[keep], dt[keep], area[keep]

    # Canonical orientation plus dedup (a wrapped pair can be seen twice).
    flip = ia > ib
    ia2 = np.where(flip, ib, ia)
    ib2 = np.where(flip, ia, ib)
    dt = np.where(flip, -dt, dt)
    key = ia2.astype(np.int64) * n + ib2
    _, first = np.unique(key, return_index=True)
    return CollisionGraph(t0, df, packet,
                          ia2[first].astype(np.int64), ib2[first].astype(np.int64),
                          dt[first], area[first], n_packets)


# ---------------------------------------------------------------------------
# Successive interference cancellation
# ---------------------------------------------------------------------------

@dataclass
class SicOutcome:
    decoded: np.ndarray          # bool per packet id
    rounds: int
    residual_replicas: int       # replicas still on air when SIC stalled


def sic_decode(graph: CollisionGraph, p: SystemParams, policy: str = "mrc",
               cr: float = 0.5, max_rounds: int = 32,
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
    rest (already-failed earlier transmissions) only radiate.

    Rounds are incremental. Every policy looks only at a packet's own
    replicas and their alive edges, so a packet that failed in round k
    and shares no edge with a packet decoded in round k sees the same
    interference areas and the same dirty stretches in round k+1 and
    fails again. Round 1 tests every decodable packet; round k+1
    tests only that frontier. The result is the same as retesting all
    undecoded packets every round, bit for bit: the interference area
    of a replica is recomputed with a bincount over the alive edges
    (never by subtracting cancelled areas, which drifts in float and can
    flip threshold ties); the sc test takes every merged endpoint from
    one edge's interval, as a loop over interval lists does, and sums
    the stretches dirty on all replicas in ascending position, the
    order of a left-to-right loop over the intersected intervals.
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
    round_test = _ROUND_TESTS[policy](graph, p, cr)
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


def _no_combining_test(graph: CollisionGraph, p: SystemParams, cr: float):
    pkt = graph.packet
    area_thresh = area_threshold(p)

    def round_test(e_alive, test):
        m = _interference_area(graph, e_alive)
        new = np.zeros(graph.n_packets, dtype=bool)
        new[pkt[test[pkt] & (m <= area_thresh + _AREA_TOL)]] = True
        return new
    return round_test


def _mrc_test(graph: CollisionGraph, p: SystemParams, cr: float):
    pkt = graph.packet

    def round_test(e_alive, test):
        m = _interference_area(graph, e_alive)
        live = test[pkt]
        s = sinr(m[live], p)
        sums = np.bincount(pkt[live], weights=s, minlength=graph.n_packets)
        return test & (sums >= p.St * (1.0 - _SINR_TOL))
    return round_test


def _clean_fraction_test(graph: CollisionGraph, p: SystemParams, cr: float):
    """Clean-fraction policy: the replicas' clean stretches cover cr*Tp.

    A position inside the packet counts as clean if at least one replica
    carries it free of any overlapping, not yet cancelled replica; even
    partial frequency overlap spoils the stretch it covers. An alive
    edge dirties [max(0, d), min(Tp, d + Tp)) of a replica, d being the
    interferer's start relative to the replica's: a prefix [0, d + Tp)
    for d < 0, a suffix [d, Tp) otherwise. Sorted by (replica, d) once
    per call, a replica's stretch ends never decrease, so the running
    maximum of the ends is the end itself: a merged stretch runs from a
    start above the previous end to the end of its last member. A +1/-1
    sweep over each packet's merged endpoints then finds the stretches
    where every replica is dirty; a replica without alive edges keeps
    the depth below the replica count, so its packet covers nothing and
    decodes.
    """
    pkt, tp, npk = graph.packet, p.Tp, graph.n_packets
    rep = np.concatenate([graph.ea, graph.eb])
    d = np.concatenate([graph.dt, -graph.dt])
    order = np.argsort(d)
    order = order[np.argsort(rep[order], kind="stable")]
    rep, d = rep[order], d[order]
    lo, hi = np.maximum(0.0, d), np.minimum(tp, d + tp)
    edge = order % len(graph.ea)   # entry i of the concatenation is edge i mod E
    rep_pkt = pkt[rep]
    n_rep_of = np.bincount(pkt, minlength=npk)
    need = cr * tp - 1e-12

    def round_test(e_alive, test):
        sel = np.flatnonzero(test[rep_pkt] & e_alive[edge])
        covered = np.zeros(npk)
        if sel.size:
            r, lo_s, hi_s = rep[sel], lo[sel], hi[sel]
            first = np.ones(sel.size, dtype=bool)
            first[1:] = (r[1:] != r[:-1]) | (lo_s[1:] > hi_s[:-1])
            starts = np.flatnonzero(first)
            ends = np.append(starts[1:], sel.size) - 1
            c_pkt = rep_pkt[sel[starts]]
            # Ends sort before starts at one position, so the depth reaches
            # the replica count only on stretches of positive length.
            pos = np.concatenate([lo_s[starts], hi_s[ends]])
            step = np.repeat(np.array([1, -1], dtype=np.int64), starts.size)
            epk = np.concatenate([c_pkt, c_pkt])
            o = np.lexsort((step, pos, epk))
            pos, epk = pos[o], epk[o]
            full = np.flatnonzero(np.cumsum(step[o]) == n_rep_of[epk])
            covered = np.bincount(epk[full], weights=pos[full + 1] - pos[full],
                                  minlength=npk)
        return test & (tp - covered >= need)
    return round_test


_ROUND_TESTS = {"none": _no_combining_test, "mrc": _mrc_test,
                "sc": _clean_fraction_test}


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

@dataclass
class TrialResult:
    """Counts over the measured reports of one grant-free trial. `kpis`
    follow from the measured outage, but their delay is the mean over
    delivered reports, not the analytic unconditional mean."""

    offered: int            # measured reports
    attempts: int           # transmission attempts of measured reports
    delivered: int
    outage: float           # per-attempt failure probability
    kpis: kpi_mod.KpiReport


def nominal_lambda(load: float, p: SystemParams) -> float:
    """Arrival rate whose first-attempt traffic realizes the given load:
    the inverse of interference.offered_load_of at replica rate N*lambda,
    written out in closed form (the sweep's load axis keeps its bits)."""
    return load * (2.0 * p.Fm + p.W) / (p.W * p.N * p.Tp)


def run_trial(rng: np.random.Generator, lambda_agg: float, horizon: float,
              p: SystemParams, e: EnergyParams, policy: str = "mrc", *,
              cr: float = 0.5, max_retries: int = 5, max_rounds: int = 32,
              trace_path=None) -> TrialResult:
    """Simulate one horizon of traffic and measure the KPI set.

    Retries are processed in waves: all first attempts are decoded
    jointly (global SIC on the circular horizon), failures retransmit
    Tack after their frame with a fresh slot pattern and CFO, and each
    retry wave is decoded against the replicas of everything that failed
    before it. Later waves never rewrite earlier outcomes; the first and
    last 2*M*Tp of arrivals are excluded from the statistics.
    """
    _check_horizon(horizon, p)
    arrivals = generate_arrivals(rng, lambda_agg, horizon)
    n_rep = arrivals.size
    margin = 2.0 * p.M * p.Tp
    measured = (arrivals >= margin) & (arrivals < horizon - margin)

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
        slots, cfo = draw_frames(rng, n_att, p)

        t0 = np.mod(wave_start[:, None] + slots * p.Tp, horizon).ravel()
        df = np.repeat(cfo, p.N)
        pkt = np.repeat(np.arange(n_att), p.N)

        n_static = static_t0.size
        all_t0 = np.concatenate([t0, static_t0])
        all_df = np.concatenate([df, static_df])
        # Static replicas get one dummy packet id each, marked undecodable.
        all_pkt = np.concatenate([pkt, n_att + np.arange(n_static)])
        decodable = np.concatenate([np.ones(n_att, bool),
                                    np.zeros(n_static, bool)])
        graph = build_collision_graph((all_t0, all_df, all_pkt), p, horizon)
        out = sic_decode(graph, p, policy, cr=cr, max_rounds=max_rounds,
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
    delay = delivered_at * (p.M * p.Tp + p.Tack) + p.M * p.Tp

    kpis = kpi_mod.grant_free_kpis(lambda_agg, po, p, e)
    kpis.expected_delay = float(delay[got].mean()) if delivered else math.inf

    if trace_path is not None:
        with open(trace_path, "w") as fh:
            for i in np.nonzero(measured)[0]:
                fh.write(json.dumps({
                    "report": int(i),
                    "arrival": round(float(arrivals[i]), 9),
                    "attempts": int(attempts_used[i]),
                    "delivered": bool(got[i]),
                    "delay": round(float(delay[i]), 9) if got[i] else None,
                }) + "\n")

    return TrialResult(offered, attempts, delivered, po, kpis)


@dataclass
class GrantedTrialResult:
    offered: int            # measured reports
    delivered: int
    mean_attempts: float    # RA attempts per delivered report
    kpis: kpi_mod.KpiReport


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
        self.listed: list[int] | None = None    # buf.tolist(), made on demand
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
            self.listed = None
        out = self.buf[self.pos:self.pos + k]
        self.pos += k
        return out

    def take_list(self, k: int) -> list[int]:
        self.take(k)
        if self.listed is None:
            self.listed = self.buf.tolist()
        return self.listed[self.pos - k:self.pos]

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
                mine = picks.take_list(b)
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


def _check_horizon(horizon: float, p: SystemParams) -> None:
    """Both simulators leave out 2*M*Tp of arrivals at each end."""
    if horizon <= 8 * p.M * p.Tp:
        raise InvalidParamsError("horizon too short for warm-up exclusion")


def run_granted_baseline(rng: np.random.Generator, lambda_agg: float,
                         horizon: float, p: SystemParams, e: EnergyParams,
                         opportunities: int = kpi_mod.RA_OPPORTUNITIES,
                         period: float = kpi_mod.RA_PERIOD) -> GrantedTrialResult:
    """Granted-access reference: slotted contention, then a clean grant.

    Devices with a pending report pick one of the period's RA
    opportunities; a singleton pick wins a collision-free data slot.
    Losers retry next period, so a report that wins made one attempt per
    period from its arrival period to its winning one. Energy uses the
    same accounting as the analytic baseline with the measured attempt
    count. All picks come from one stream (`_PickStream`); the result
    and the generator's final state are those of drawing each period's
    picks in turn.
    """
    _check_horizon(horizon, p)
    if opportunities < 1:
        raise InvalidParamsError("need at least one RA opportunity")
    if period <= 0:
        raise InvalidParamsError("RA period must be positive")
    arrivals = generate_arrivals(rng, lambda_agg, horizon)
    margin = 2.0 * p.M * p.Tp
    measured = (arrivals >= margin) & (arrivals < horizon - margin)
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

    kpis = kpi_mod.granted_path_kpis(lambda_agg, mean_att, mean_delay, p, e)
    return GrantedTrialResult(offered, delivered, mean_att, kpis)


# ---------------------------------------------------------------------------
# Random substreams
# ---------------------------------------------------------------------------

def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for a grid cell, independent of run order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
