"""Differential tests: sic_decode against a plain per-packet reference.

The reference below is the straightforward form of the three decoding
policies: every round retests every undecoded packet, and the
clean-fraction test walks each packet's replicas, edges and interval
lists in Python. sic_decode must return the same decoded set, round
count and residual replica count on every graph.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from gfaloha.mcsim import (build_collision_graph, nominal_lambda, rng_for,
                           sic_decode, _AREA_TOL, _SINR_TOL)
from gfaloha.params import SystemParams

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


def assert_same(graph, p, policy, cr=0.5, max_rounds=32, decodable=None):
    out = sic_decode(graph, p, policy, cr=cr, max_rounds=max_rounds,
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
def populations(draw):
    """Small replica populations shaped like one retry wave of run_trial.

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
    graph = build_collision_graph(
        (np.array(t0), np.array(df), np.array(pkt, dtype=np.int64)), p, horizon)
    return graph, p, decodable


crs = st.one_of(st.just(1.0), st.just(0.5),
                st.floats(0.01, 1.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(populations(), crs, st.sampled_from([1, 2, 3, 32]),
       st.sampled_from(["none", "mrc", "sc"]))
def test_sic_matches_reference(pop, cr, max_rounds, policy):
    graph, p, decodable = pop
    assert_same(graph, p, policy, cr, max_rounds, decodable)


def test_packet_ids_without_replicas():
    # ids 0..2 have no replicas: the clean-fraction test finds nothing
    # dirty and decodes them, the SINR policies do not
    g = build_collision_graph((np.array([0.0, 0.1]), np.zeros(2),
                               np.array([3, 4])), P)
    for policy in ("none", "mrc", "sc"):
        assert_same(g, P, policy)


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
    decodable = np.arange(5) == 0
    cr = (P.Tp - covered + 1e-12) / P.Tp
    for _ in range(40):
        cr = np.nextafter(cr, 0.0)
    outcomes = set()
    for _ in range(80):
        cr = np.nextafter(cr, 1.0)
        outcomes.add(bool(assert_same(graph, P, "sc", cr, 1, decodable).decoded[0]))
    assert outcomes == {True, False}


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
