"""Differential tests of the BFS kernel in ``finspace.poset`` and of every
component, distance and witness-chain search built on it, against
networkx on the same graphs."""

import math
import random

import pytest

from finspace import antichain, enumerate_monotone, is_homotopic, min_contraction_chain
from finspace.generators import random_poset
from finspace.homotopy import contains_crown
from finspace.maps import FunctionPoset, _count_partial_maps, _iter_assignments, homotopy_classes
from finspace.poset import Poset, bits, components, shortest_path
from finspace.reduction import core, standard_sequence, verify_strong_deformation

from helpers import pointwise_comparability, random_height1_poset

nx = pytest.importorskip("networkx")


def _graph(n, nbrs):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((v, u) for v in range(n) for u in bits(nbrs(v)))
    return g


def _cover_graph(p):
    g = nx.Graph()
    g.add_nodes_from(range(p.n))
    g.add_edges_from(p.covers)
    return g


@pytest.fixture(scope="module")
def random_posets():
    return [random_poset(1 + seed % 11, 0.1 + 0.1 * (seed % 5), seed) for seed in range(200)]


@pytest.fixture(scope="module")
def height1_posets():
    return [random_height1_poset(random.Random(seed), 12) for seed in range(200)]


def _nx_components(g):
    return sorted((frozenset(c) for c in nx.connected_components(g)), key=min)


def test_components_match_networkx(random_posets, height1_posets):
    for p in random_posets + height1_posets:
        expected = _nx_components(_graph(p.n, p.comparability_mask))
        assert p.components() == expected
        masks = components(p.comparability_mask, p.full_mask)
        assert [frozenset(bits(m)) for m in masks] == expected


def test_components_of_a_mask_match_networkx(random_posets, height1_posets):
    rng = random.Random(7)
    for p in random_posets + height1_posets:
        mask = rng.getrandbits(p.n)
        g = _graph(p.n, lambda v: p.comparability_mask(v) & mask).subgraph(bits(mask))
        masks = components(lambda v: p.comparability_mask(v) & mask, mask)
        assert [frozenset(bits(m)) for m in masks] == _nx_components(g)


def test_function_poset_components_match_networkx(random_posets):
    for k, p in enumerate(random_posets):
        if p.n > 5:
            continue
        c = enumerate_monotone(p, random_poset(1 + k % 3, 0.5, k))
        comp = pointwise_comparability(c)
        assert homotopy_classes(c) == _nx_components(_graph(len(c), comp.__getitem__))


def test_spath_distance_and_ball_match_networkx(random_posets, height1_posets):
    for p in random_posets + height1_posets:
        lengths = dict(nx.all_pairs_shortest_path_length(_graph(p.n, p.comparability_mask)))
        for x in range(p.n):
            for y in range(p.n):
                assert p.spath_distance(x, y) == lengths[x].get(y, math.inf)
            for radius in range(4):
                assert p.ball(x, radius) == {y for y, d in lengths[x].items() if d <= radius}


def test_homotopy_chains_are_shortest_comparability_chains(random_posets):
    for k, p in enumerate(random_posets):
        if p.n > 4:
            continue
        c = enumerate_monotone(p, random_poset(1 + k % 3, 0.5, k))
        comp = pointwise_comparability(c)
        lengths = dict(nx.all_pairs_shortest_path_length(_graph(len(c), comp.__getitem__)))
        for f in range(0, len(c), 3):
            for g in range(len(c)):
                ok, chn = is_homotopic(c, f, g)
                if g not in lengths[f]:
                    assert (ok, chn) == (False, None)
                    continue
                assert ok and chn[0] == f and chn[-1] == g
                assert len(chn) - 1 == lengths[f][g]
                for h, h2 in zip(chn, chn[1:]):
                    assert comp[h] >> h2 & 1


def test_min_contraction_chain_matches_networkx(random_posets):
    for p in random_posets:
        if p.n > 5:
            continue
        c = enumerate_monotone(p, p)
        g = _graph(len(c), pointwise_comparability(c).__getitem__)
        lengths = nx.single_source_shortest_path_length(g, c.identity_index())
        reached = [lengths[k] for k in c.constant_indices() if k in lengths]
        assert min_contraction_chain(p) == min(reached, default=None)


def test_contains_crown_is_a_girth_cycle(height1_posets):
    for p in height1_posets:
        girth = nx.girth(_cover_graph(p))
        cyc = contains_crown(p)
        if girth == math.inf:
            assert cyc is None
            continue
        assert len(cyc) == girth and len(set(cyc)) == len(cyc)
        edges = {frozenset(e) for e in p.covers}
        for i, v in enumerate(cyc):
            assert frozenset((v, cyc[(i + 1) % len(cyc)])) in edges


def test_shortest_path_on_a_cycle():
    # a 6-cycle 0-1-2-3-4-5-0: of the two paths to 3, the lowest neighbours win
    nbrs = lambda v: (1 << (v + 1) % 6) | (1 << (v - 1) % 6)
    assert shortest_path(nbrs, 0, 1 << 2) == [0, 1, 2]
    assert shortest_path(nbrs, 0, 1 << 3) == [0, 1, 2, 3]
    assert shortest_path(nbrs, 3, 1 << 3) == [3]


def _deformation_oracle(trace):
    """Whether a comparability chain through maps X -> X that fix the final
    subspace joins the identity to the composed map, found by networkx."""
    start = trace.start
    fixing = [1 << x if x in trace.final else start.full_mask for x in range(start.n)]
    c = FunctionPoset(start, start, list(_iter_assignments(start, start, fixing)))
    try:
        target = c.index_of(tuple(trace.composed[i] for i in range(start.n)))
    except KeyError:
        return False
    g = _graph(len(c), pointwise_comparability(c).__getitem__)
    return nx.has_path(g, c.identity_index(), target)


# (n, density, seed) of random posets with more than 4,096 self-maps; the
# oracle lists only the maps that fix the final subspace of each trace
CERTIFIED_PAST_THE_GUARD = [(7, 0.2, 9), (7, 0.2, 12), (7, 0.3, 9), (7, 0.3, 22),
                            (8, 0.2, 2), (8, 0.2, 11), (8, 0.2, 21), (8, 0.3, 6)]


def test_verify_strong_deformation_matches_networkx(random_posets, height1_posets):
    large = [random_poset(n, density, seed) for n, density, seed in CERTIFIED_PAST_THE_GUARD]
    assert all(_count_partial_maps(p, p, None, 10**6) > 4096 for p in large)
    for p in [q for q in random_posets + height1_posets if q.n <= 5] + large:
        for trace in (core(p).trace, standard_sequence(p), core(p, p.n - 1).trace):
            assert verify_strong_deformation(trace) == _deformation_oracle(trace)


def test_shortest_chain_past_4096_maps_matches_networkx():
    # C(antichain(2), fence(62) + crown(2)) is Y x Y: 4,356 maps in four
    # classes, with chains of 30 steps and more across fence(62) x fence(62)
    fence_labels = [f"f{i}" for i in range(62)]
    crown_labels = ["a0", "a1", "b0", "b1"]
    y = Poset.from_covers(
        fence_labels + crown_labels,
        [(fence_labels[i], fence_labels[i + 1]) if i % 2 == 0
         else (fence_labels[i + 1], fence_labels[i]) for i in range(61)]
        + [(a, b) for a in ("a0", "a1") for b in ("b0", "b1")])
    c = enumerate_monotone(antichain(2), y)
    assert len(c) == 4356
    comp = pointwise_comparability(c)
    g = _graph(len(c), comp.__getitem__)
    rng = random.Random(5)
    seen = {"longest": 0, "unreachable": 0}
    for start in (c.index_of((0, 0)), c.index_of((30, 61)), c.index_of((62, 5))):
        lengths = nx.single_source_shortest_path_length(g, start)
        goals = rng.sample(range(len(c)), 25)
        for goal in goals:
            chn = c.shortest_chain(start, {goal})
            if goal not in lengths:
                assert chn is None
                seen["unreachable"] += 1
                continue
            assert chn[0] == start and chn[-1] == goal
            assert len(chn) - 1 == lengths[goal]
            assert all(comp[h] >> h2 & 1 for h, h2 in zip(chn, chn[1:]))
            seen["longest"] = max(seen["longest"], lengths[goal])
        reached = [lengths[k] for k in goals if k in lengths]
        chn = c.shortest_chain(start, set(goals))
        if reached:
            assert len(chn) - 1 == min(reached) and chn[-1] in goals
        else:
            assert chn is None
    assert seen["longest"] >= 30 and seen["unreachable"] >= 10, seen
