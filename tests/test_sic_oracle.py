"""Differential tests: sic_decode against a plain per-packet reference.

The reference below is the straightforward form of the three decoding
policies: every round retests every undecoded packet, and the
clean-fraction test walks each packet's replicas, edges and interval
lists in Python. sic_decode must return the same decoded set, round
count and residual replica count on every graph.

A second reference keeps the vectorized clean-fraction round in an
earlier form: it sorts the edge intervals per replica, merges them into
stretches and finds the stretches dirty on every replica with a +1/-1
sweep over their endpoints under a three-key lexsort. The program's
round computes one clean interval per replica instead and must decide
exactly as the sweep does for any alive-edge and test masks.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from gfaloha.mcsim import (build_collision_graph, nominal_lambda, rng_for,
                           sic_decode, _AREA_TOL, _SINR_TOL,
                           _clean_fraction_test)
from gfaloha.params import SystemParams
from gfaloha.traffic import draw_frames

P = SystemParams()


# ---------------------------------------------------------------------------
# Reference decoder
# ---------------------------------------------------------------------------

def _adjacency(graph):
    """CSR-style neighbor lists over the undirected edge set."""
    src = np.concatenate([graph.ea, graph.eb])
    eidx = np.tile(np.arange(len(graph.ea)), 2)
    forward = np.concatenate([np.ones(len(graph.ea), bool),
                              np.zeros(len(graph.eb), bool)])
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(graph.n_replicas + 1))
    return indptr, eidx[order], forward[order]


def _merge_intervals(iv):
    iv.sort()
    out = []
    for lo, hi in iv:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _intersect_intervals(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _sc_round(graph, m, e_alive, cand, rep_of, adj, cr, p):
    pkt = graph.packet
    new = np.zeros(graph.n_packets, dtype=bool)
    clean_rep = (m == 0.0) & cand[pkt]
    new[pkt[clean_rep]] = True
    indptr, eidx, forward = adj
    for q in np.nonzero(cand & ~new)[0]:
        dirty_sets = []
        for r in rep_of.get(int(q), []):
            iv = []
            for k in range(indptr[r], indptr[r + 1]):
                e = eidx[k]
                if not e_alive[e]:
                    continue
                d = graph.dt[e] if forward[k] else -graph.dt[e]
                iv.append((max(0.0, d), min(p.Tp, d + p.Tp)))
            dirty_sets.append(_merge_intervals(iv))
        inter = dirty_sets[0] if dirty_sets else []
        for s in dirty_sets[1:]:
            inter = _intersect_intervals(inter, s)
            if not inter:
                break
        covered = sum(hi - lo for lo, hi in inter)
        if p.Tp - covered >= cr * p.Tp - 1e-12:
            new[q] = True
    return new


def reference_sic(graph, p, policy, cr=0.5, max_rounds=32, decodable=None):
    """(decoded, rounds, residual_replicas), retesting everything per round."""
    npk, nrep = graph.n_packets, graph.n_replicas
    decoded = np.zeros(npk, dtype=bool)
    if decodable is None:
        decodable = np.ones(npk, dtype=bool)
    wtp = p.W * p.Tp
    area_thresh = wtp * (1.0 / p.St - 1.0 / p.gamma)
    pkt = graph.packet
    rep_of = {}
    for r in range(nrep):
        rep_of.setdefault(int(pkt[r]), []).append(r)
    adj = _adjacency(graph)
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        e_alive = ~decoded[pkt[graph.ea]] & ~decoded[pkt[graph.eb]]
        m = (np.bincount(graph.ea[e_alive],
                         weights=graph.area[e_alive], minlength=nrep)
             + np.bincount(graph.eb[e_alive],
                           weights=graph.area[e_alive], minlength=nrep))
        cand = ~decoded & decodable
        rep_live = cand[pkt]
        if policy == "none":
            ok_rep = rep_live & (m <= area_thresh + _AREA_TOL)
            new = np.zeros(npk, dtype=bool)
            new[pkt[ok_rep]] = True
            new &= cand
        elif policy == "mrc":
            s = 1.0 / (m / wtp + 1.0 / p.gamma)
            sums = np.bincount(pkt[rep_live], weights=s[rep_live], minlength=npk)
            new = cand & (sums >= p.St * (1.0 - _SINR_TOL))
        else:
            new = _sc_round(graph, m, e_alive, cand, rep_of, adj, cr, p)
        if not new.any():
            break
        decoded |= new
    return decoded, rounds, int(np.count_nonzero(~decoded[pkt]))


def ref_clean_fraction_round(graph, p, cr):
    """The clean-fraction round factory sorting with a stable argsort of
    replica ids per call and np.lexsort per round."""
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


def assert_same(graph, p, policy, cr=0.5, max_rounds=32, decodable=None):
    out = sic_decode(graph, policy=policy, cr=cr, max_rounds=max_rounds,
                     decodable=decodable)
    dec, rounds, residual = reference_sic(graph, p, policy, cr, max_rounds,
                                          decodable)
    assert np.array_equal(out.decoded, dec)
    assert out.rounds == rounds
    assert out.residual_replicas == residual
    return out


# ---------------------------------------------------------------------------
# Random populations
# ---------------------------------------------------------------------------

@st.composite
def raw_populations(draw):
    """Small replica populations shaped like one retry wave of run_trial,
    as ((t0, df, packet), p, horizon, decodable).

    Start times and CFOs come from coarse grids, so coincident starts,
    interferers starting exactly at a replica's start and touching
    stretches are common. Half the cases use a circular horizon with
    starts near its end, so replicas wrap around. Static replicas get
    dummy packet ids and are not decodable.
    """
    n = draw(st.integers(1, 4))
    m_slots = draw(st.integers(max(n, 2), 2 * n + 1))
    p = replace(P, N=n, M=m_slots)
    n_att = draw(st.integers(1, 14))
    n_static = draw(st.integers(0, 6))
    circular = draw(st.booleans())
    span = draw(st.integers(2, 3)) * m_slots * p.Tp
    horizon = 2 * m_slots * p.Tp + 0.25 * draw(st.integers(1, 8)) if circular else None
    grid = st.integers(0, int(round(span / (p.Tp / 4))))
    jitter = st.sampled_from([0.0, 0.0, 1e-9, 0.013, 0.2371])
    starts = [(p.Tp / 4) * draw(grid) + draw(jitter) for _ in range(n_att)]
    if circular:
        starts = [horizon - s if i % 2 else s for i, s in enumerate(starts)]
    cfo = st.sampled_from([-p.Fm, -37.5, 0.0, 0.0, 12.25, p.Fm])
    t0, df, pkt = [], [], []
    for q, s in enumerate(starts):
        slots = [0] + sorted(draw(st.permutations(range(1, m_slots)))[: n - 1])
        f = draw(cfo)
        for k in slots:
            t0.append(s + k * p.Tp)
            df.append(f)
            pkt.append(q)
    for j in range(n_static):
        t0.append((p.Tp / 4) * draw(grid) + draw(jitter))
        df.append(draw(cfo))
        pkt.append(n_att + j)
    decodable = np.arange(n_att + n_static) < n_att
    pop = (np.array(t0), np.array(df), np.array(pkt, dtype=np.int64))
    return pop, p, horizon, decodable


def _build(raw):
    pop, p, horizon, decodable = raw
    return build_collision_graph(pop, p, horizon), p, decodable


def populations():
    """raw_populations built into (graph, p, decodable)."""
    return raw_populations().map(_build)


@st.composite
def tied_populations(draw):
    """40 to 80 packets whose replicas start on a quarter-Tp grid with no
    jitter, on a plain or a circular horizon: many replicas start
    together, so stretch ends and endpoint positions tie often."""
    n = draw(st.integers(1, 4))
    m_slots = draw(st.integers(max(n, 2), 2 * n + 1))
    p = replace(P, N=n, M=m_slots)
    n_pk = draw(st.integers(40, 80))
    quarter = p.Tp / 4
    circular = draw(st.booleans())
    horizon = (2 * m_slots * p.Tp + quarter * draw(st.integers(1, 8))
               if circular else None)
    grid = st.integers(0, 4 * m_slots * draw(st.integers(2, 8)))
    cfo = st.sampled_from([-p.Fm, -37.5, 0.0, 0.0, 12.25, p.Fm])
    t0, df, pkt = [], [], []
    for q in range(n_pk):
        s = quarter * draw(grid)
        slots = [0] + sorted(draw(st.permutations(range(1, m_slots)))[: n - 1])
        f = draw(cfo)
        for k in slots:
            t0.append(s + k * p.Tp)
            df.append(f)
            pkt.append(q)
    graph = build_collision_graph(
        (np.array(t0), np.array(df), np.array(pkt, dtype=np.int64)), p, horizon)
    return graph, p, np.ones(n_pk, dtype=bool)


def _masks(graph, seed, alive_share, test_share):
    rng = np.random.default_rng(seed)
    return (rng.random(len(graph.ea)) < alive_share,
            rng.random(graph.n_packets) < test_share)


def assert_round_matches(graph, p, cr, e_alive, test):
    got = _clean_fraction_test(graph, cr)(e_alive, test)
    want = ref_clean_fraction_round(graph, p, cr)(e_alive, test)
    assert np.array_equal(got, want)
    return want


def _decides(graph, p, cr, e_alive, test, q):
    return bool(ref_clean_fraction_round(graph, p, cr)(e_alive, test)[q])


def assert_threshold_scan_matches(graph, p, e_alive, test):
    """Find by bisection on the float bits the smallest cr at which some
    tested packet fails, then compare every decision ulp by ulp across it."""
    lo, hi = 2.0 ** -20, 1.0
    easy = ref_clean_fraction_round(graph, p, lo)(e_alive, test)
    hard = ref_clean_fraction_round(graph, p, hi)(e_alive, test)
    flips = np.flatnonzero(easy & ~hard)
    if flips.size == 0:
        return
    q = flips[0]
    lo_b, hi_b = np.float64(lo).view(np.int64), np.float64(hi).view(np.int64)
    while hi_b - lo_b > 1:
        mid = (lo_b + hi_b) // 2
        if _decides(graph, p, float(np.int64(mid).view(np.float64)), e_alive, test, q):
            lo_b = mid
        else:
            hi_b = mid
    outcomes = set()
    for b in range(hi_b - 8, hi_b + 8):
        cr = float(np.int64(b).view(np.float64))
        outcomes.add(bool(assert_round_matches(graph, p, cr, e_alive, test)[q]))
    assert outcomes == {True, False}


masks = st.tuples(st.integers(0, 2 ** 32 - 1),
                  st.sampled_from([0.0, 0.3, 0.7, 1.0]),
                  st.sampled_from([0.0, 0.5, 1.0]))


crs = st.one_of(st.just(1.0), st.just(0.5),
                st.floats(0.01, 1.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(populations(), crs, st.sampled_from([1, 2, 3, 32]),
       st.sampled_from(["none", "mrc", "sc"]))
def test_sic_matches_reference(pop, cr, max_rounds, policy):
    graph, p, decodable = pop
    assert_same(graph, p, policy, cr, max_rounds, decodable)


@settings(max_examples=200, deadline=None)
@given(populations(), crs, masks)
def test_sc_round_matches_lexsort_round(pop, cr, mask):
    graph, p, _ = pop
    e_alive, test = _masks(graph, *mask)
    assert_round_matches(graph, p, cr, e_alive, test)
    assert_threshold_scan_matches(graph, p, e_alive, test)


@settings(max_examples=60, deadline=None)
@given(tied_populations(), crs, masks)
def test_sc_round_matches_lexsort_round_on_tied_starts(pop, cr, mask):
    graph, p, decodable = pop
    e_alive, test = _masks(graph, *mask)
    assert_round_matches(graph, p, cr, e_alive, test)
    assert_threshold_scan_matches(graph, p, e_alive, test)
    assert_same(graph, p, "sc", cr, 32, decodable)


@settings(max_examples=200, deadline=None)
@given(populations(), crs, st.floats(0.1, 0.9))
def test_sc_lower_threshold_decodes_a_superset(pop, cr_hi, u):
    # A packet clean at cr_hi is clean at any lower threshold, so each
    # round cancels at least as much at cr_lo: the sweep, which decodes
    # one draw at every threshold, shows this order in every cell.
    graph, p, decodable = pop
    cr_lo = u * cr_hi
    for max_rounds in (1, 2, 32):
        hi, lo = (sic_decode(graph, policy="sc", cr=cr, max_rounds=max_rounds,
                             decodable=decodable).decoded
                  for cr in (cr_hi, cr_lo))
        assert not (hi & ~lo).any()


def test_sc_int32_ids_decode_as_int64():
    # A hand-built graph may carry int32 ids. The round indexes the
    # per-replica a/b arrays (through np.maximum.at / np.minimum.at) and
    # the packet rows table with them; int32 and int64 ids must give the
    # same SicOutcome on a graph large enough (replica * 2E past 2**31)
    # that any id product formed in int32 would wrap.
    p = replace(P, N=2, M=4)
    npk = 30000
    rng = rng_for(7, 3)
    horizon = npk / nominal_lambda(0.3, p)
    start = rng.uniform(0.0, horizon, npk)
    slots = rng.integers(1, p.M, npk)
    t0 = np.mod(start[:, None] + np.c_[np.zeros(npk), slots] * p.Tp, horizon)
    df = np.repeat(rng.uniform(-p.Fm, p.Fm, npk), p.N)
    g64 = build_collision_graph(
        (t0.ravel(), df, np.repeat(np.arange(npk), p.N)), p, horizon)
    assert g64.n_replicas * 2 * len(g64.ea) > 2 ** 31
    g32 = replace(g64, packet=g64.packet.astype(np.int32),
                  ea=g64.ea.astype(np.int32), eb=g64.eb.astype(np.int32))
    out32, out64 = sic_decode(g32, policy="sc"), sic_decode(g64, policy="sc")
    assert np.array_equal(out32.decoded, out64.decoded)
    assert (out32.rounds, out32.residual_replicas) == (
        out64.rounds, out64.residual_replicas)


def test_packet_ids_without_replicas():
    # ids 0..2 have no replicas: the clean-fraction test finds nothing
    # dirty and decodes them, the SINR policies do not
    g = build_collision_graph((np.array([0.0, 0.1]), np.zeros(2),
                               np.array([3, 4])), P)
    for policy in ("none", "mrc", "sc"):
        assert_same(g, P, policy)


def assert_scan_across(graph, covered, decodable):
    """Scan cr ulp by ulp across the threshold at which a packet with this
    dirty sum stops decoding: sic_decode must match the reference on both
    sides, so a dirty sum off in its last bit fails."""
    cr = (P.Tp - covered + 1e-12) / P.Tp
    for _ in range(40):
        cr = np.nextafter(cr, 0.0)
    outcomes = set()
    for _ in range(80):
        cr = np.nextafter(cr, 1.0)
        outcomes.add(bool(assert_same(graph, P, "sc", cr, 1, decodable).decoded[0]))
    assert outcomes == {True, False}


def test_sc_threshold_ties_are_bit_exact():
    # Packet 0 sends two replicas at t=0 on disjoint bands; four static
    # interferers leave three stretches dirty on both. Their lengths sum
    # to different floats left to right and right to left, so scanning
    # cr ulp by ulp across the decision threshold checks that sic_decode
    # adds the stretches in the reference's order.
    a1, b1 = 0.11330472023822731, 0.14530135713498024
    a2, b2 = 0.3168790624319622, 0.41107322392013157
    t0 = np.array([0.0, 0.0, a1 - P.Tp, b1, a2 - P.Tp, b2])
    df = np.array([0.0, 250.0, 0.0, 0.0, 250.0, 250.0])
    graph = build_collision_graph((t0, df, np.array([0, 0, 1, 2, 3, 4])), P)
    pieces = [(0.0, (a1 - P.Tp) + P.Tp), (b1, (a2 - P.Tp) + P.Tp), (b2, P.Tp)]
    covered = sum(hi - lo for lo, hi in pieces)
    assert covered != sum(hi - lo for lo, hi in pieces[::-1])
    assert_scan_across(graph, covered, np.arange(5) == 0)


def test_sc_touching_dirty_stretches_merge():
    # Replica 1 of packet 0 is dirty on [0, x) and on [x, Tp). The two
    # stretches touch, so the replica is dirty throughout and has no clean
    # stretch, not an empty one at x. Replica 2, on a disjoint band, is
    # clean on [a2, b2) with b2 < x. Splitting the dirty stretch [b2, Tp)
    # at x changes the dirty sum in its last bit, which the scan sees.
    a2, b2, x = 0.06136720199214035, 0.2391228190495662, 0.3871762237407773
    assert (x - P.Tp) + P.Tp == x
    t0 = np.array([0.0, 0.0, x - P.Tp, x, a2 - P.Tp, b2])
    df = np.array([0.0, 250.0, 0.0, 0.0, 250.0, 250.0])
    graph = build_collision_graph((t0, df, np.array([0, 0, 1, 2, 3, 4])), P)
    a2 = (a2 - P.Tp) + P.Tp
    covered = a2 + (P.Tp - b2)
    assert covered != a2 + (x - b2) + (P.Tp - x)
    assert_scan_across(graph, covered, np.arange(5) == 0)


def test_sc_hand_built_replica_counts():
    # Decodable packets with 3, 2, 1 and 3 replicas, then nine static
    # interferers. Clean stretches: packet 0 [0.25, 0.375), [0, 0.25) and
    # [0.125, 0.4375), so 0.0625 of it is dirty on all three; packet 1
    # [0, 1e-17) and [0, 0.25); packet 2 starts 1e-17 after packet 1's
    # first replica, so that entry is [0, Tp) and packet 2 is dirty
    # throughout until packet 1 is cancelled; packet 3 has one replica
    # hit at its own start, one dirty on two touching stretches and one
    # with no edge at all.
    t0 = np.array([10.0, 11.0, 12.0, 0.0, 1.0, 1e-17, 40.0, 41.0, 42.0,
                   9.75, 10.375, 11.25, 11.625, 12.4375, 1.25, 40.0, 40.75, 41.25])
    pkt = np.array([0, 0, 0, 1, 1, 2, 3, 3, 3, *range(4, 13)])
    decodable = np.arange(13) < 4
    graph = build_collision_graph((t0, np.zeros(t0.size), pkt), P)
    assert not np.isin(8, np.r_[graph.ea, graph.eb])
    e = np.flatnonzero((graph.ea == 3) & (graph.eb == 5))
    assert graph.dt[e].tolist() == [1e-17]      # replica 5 sees d = -1e-17
    assert np.minimum(P.Tp, -graph.dt[e] + P.Tp) == P.Tp
    one_round = [sic_decode(graph, policy="sc", cr=cr, max_rounds=1,
                            decodable=decodable).decoded[:4].tolist()
                 for cr in (1.0, 0.875, 0.5)]
    assert one_round == [[False, False, False, True], [True, False, False, True],
                         [True, True, False, True]]
    out = assert_same(graph, P, "sc", 0.5, 32, decodable)
    assert out.decoded[:4].all() and out.rounds == 3
    alive = np.ones(len(graph.ea), dtype=bool)
    for cr in (1.0, 0.875, 0.5, 0.3, 1e-3):
        assert_same(graph, P, "sc", cr, 32, decodable)
        assert_round_matches(graph, P, cr, alive, decodable)
    assert_threshold_scan_matches(graph, P, alive, decodable)


def _retry_wave(seed, load, n_att, n_static, p):
    """One retry wave as run_trial lays it out: fresh attempts, then the
    replicas of earlier failed attempts as undecodable one-replica
    packets."""
    rng = rng_for(seed, 1)
    lam = nominal_lambda(load, p)
    horizon = n_att / lam
    slots, cfo = draw_frames(rng, n_att, p)
    start = rng.uniform(0.0, horizon, n_att)
    t0 = np.r_[np.mod(start[:, None] + slots * p.Tp, horizon).ravel(),
               rng.uniform(0.0, horizon, n_static)]
    df = np.r_[np.repeat(cfo, p.N), rng.uniform(-p.Fm, p.Fm, n_static)]
    pkt = np.r_[np.repeat(np.arange(n_att), p.N), n_att + np.arange(n_static)]
    return (t0, df, pkt), horizon, np.arange(n_att + n_static) < n_att


def assert_mask_keeps_outcome(pop, p, horizon, decodable, crs=(0.5,)):
    full = build_collision_graph(pop, p, horizon)
    masked = build_collision_graph(pop, p, horizon, decodable)
    # the masked graph is the full one without its static-static edges,
    # in the same order
    keep = decodable[full.packet[full.ea]] | decodable[full.packet[full.eb]]
    for name in ("ea", "eb", "dt", "area"):
        assert np.array_equal(getattr(masked, name), getattr(full, name)[keep])
    for policy in ("none", "mrc", "sc"):
        for cr in crs:
            want = sic_decode(full, policy=policy, cr=cr, decodable=decodable)
            got = sic_decode(masked, policy=policy, cr=cr, decodable=decodable)
            assert np.array_equal(got.decoded, want.decoded)
            assert (got.rounds, got.residual_replicas) == (
                want.rounds, want.residual_replicas)
    return full, masked


def test_retry_wave_graph_leaves_out_static_pairs():
    p = replace(P, N=2, M=4)
    pop, horizon, decodable = _retry_wave(5, 0.75, 600, 900, p)
    full, masked = assert_mask_keeps_outcome(pop, p, horizon, decodable,
                                             crs=(1.0, 0.5, 0.3))
    static = ~decodable[masked.packet]
    assert not (static[masked.ea] & static[masked.eb]).any()
    assert len(masked.ea) < len(full.ea)


@settings(max_examples=150, deadline=None)
@given(raw_populations(), crs)
def test_static_pairs_decide_nothing(raw, cr):
    pop, p, horizon, decodable = raw
    assert_mask_keeps_outcome(pop, p, horizon, decodable, crs=(cr,))


def test_loaded_wave_matches_reference():
    # one first-attempt wave at high load, many SIC rounds
    p = replace(P, N=3, M=6)
    rng = rng_for(5, 1)
    lam = nominal_lambda(0.6, p)
    horizon = 500 / lam
    start = np.sort(rng.uniform(0.0, horizon, 500))
    slots = np.sort(np.argsort(rng.random((500, p.M - 1)), axis=1)[:, :2] + 1,
                    axis=1)
    t0 = np.mod(start[:, None] + np.c_[np.zeros(500), slots] * p.Tp, horizon)
    df = np.repeat(rng.uniform(-p.Fm, p.Fm, 500), p.N)
    graph = build_collision_graph(
        (t0.ravel(), df, np.repeat(np.arange(500), p.N)), p, horizon)
    for policy, cr in (("none", 0.5), ("mrc", 0.5), ("sc", 0.5), ("sc", 0.8)):
        out = assert_same(graph, p, policy, cr)
        assert out.rounds >= 2
