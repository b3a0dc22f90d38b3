"""Arrival process and the virtual-frame slot/CFO draw."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from gfaloha.params import InvalidParamsError, SystemParams
from gfaloha.traffic import draw_frames, generate_arrivals


def test_virtual_frame_slot_structure():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        p = SystemParams().with_replicas(n)
        slots, cfo = draw_frames(rng, 500, p)
        assert slots.shape == (500, n) and cfo.shape == (500,)
        assert np.all(slots[:, 0] == 0)
        assert np.all(np.diff(slots, axis=1) > 0)
        assert np.all(slots < p.M)
        assert np.all(np.abs(cfo) <= p.Fm)


def test_virtual_frame_single_replica():
    rng = np.random.default_rng(1)
    slots, _ = draw_frames(rng, 10, SystemParams().with_replicas(1))
    assert slots.tolist() == [[0]] * 10


def test_virtual_frame_zero_cfo_when_fm_zero():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        p = replace(SystemParams().with_replicas(n), Fm=0.0)
        _, cfo = draw_frames(rng, 50, p)
        assert np.all(cfo == 0.0)


def test_virtual_frame_needs_room():
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidParamsError):
        draw_frames(rng, 10, SystemParams(N=5, M=4))


def test_second_slot_uniform():
    # with N=2 the non-anchor slot should cover 1..M-1 evenly
    rng = np.random.default_rng(5)
    p = SystemParams()
    slots, _ = draw_frames(rng, 3000, p)
    counts = np.bincount(slots[:, 1], minlength=p.M)[1:]
    assert counts.min() > 0.8 * 3000 / (p.M - 1)


def test_later_slot_subsets_uniform():
    # with N=3, M=6 the two non-anchor slots form each of the C(5, 2) = 10
    # subsets of 1..5 equally often
    rng = np.random.default_rng(6)
    p = SystemParams().with_replicas(3)
    slots, _ = draw_frames(rng, 10_000, p)
    subsets = list(combinations(range(1, p.M), p.N - 1))
    index = {s: i for i, s in enumerate(subsets)}
    counts = np.bincount([index[tuple(r)] for r in slots[:, 1:].tolist()],
                         minlength=len(subsets))
    expected = 10_000 / len(subsets)
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


def test_generate_arrivals():
    rng = np.random.default_rng(6)
    t = generate_arrivals(rng, lambda_agg=5.0, horizon=2000.0)
    assert np.all(np.diff(t) >= 0)
    assert t[0] >= 0.0 and t[-1] < 2000.0
    # 3-sigma band around the Poisson mean
    assert abs(t.size - 10000) < 3 * np.sqrt(10000)
    assert generate_arrivals(rng, 5.0, 0.0).size == 0
    assert generate_arrivals(rng, 0.0, 100.0).size == 0
    with pytest.raises(InvalidParamsError):
        generate_arrivals(rng, -1.0, 10.0)
