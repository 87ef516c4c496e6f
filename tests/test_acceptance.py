"""End-to-end acceptance suite.

Each test prints one PASS line (via -s) for its criterion; together they
cover core reduction, oracle agreement, function-space topology, homology,
FPP, the standard sequence, contraction-chain goldens and file round-trips.
"""

import pathlib
import random
import time

import pytest

from finspace import (
    alexandroff_topology,
    antichain,
    are_homotopy_equivalent,
    are_isomorphic,
    chain,
    compact_open_subbasis,
    contractible_height1,
    core,
    crown,
    enumerate_monotone,
    fence,
    generate_topology,
    has_fpp,
    hom_set_interval,
    homotopy_classes,
    is_contractible,
    is_core,
    min_contraction_chain,
    poset_homology,
    specialization_order,
    standard_sequence,
)
from finspace.cli import emit_poset, load_document, parse_poset
from finspace.generators import random_poset
from finspace.maps import count_monotone
from finspace.topology import is_down_set

from helpers import (
    brute_force_homotopy_equivalent, pointwise_order, posets_up_to_iso, random_height1_poset,
    same_homology,
)

DATA = pathlib.Path(__file__).parent / "data"


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_01_core_correctness():
    t0 = time.perf_counter()
    for n in range(1, 51):
        assert core(fence(n)).core.n == 1
    for n in range(2, 21):
        res = core(crown(n))
        assert res.core.n == 2 * n and not res.trace.steps and is_core(res.core)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report("core correctness",
           f"fence(1..50) collapse to a point, crown(2..20) are cores, {dt:.2f}s")


def test_02_oracle_equivalence():
    t0 = time.perf_counter()
    classes = []
    for n in range(1, 5):
        classes.extend(posets_up_to_iso(n))
    checked = 0
    for p in classes:
        for q in classes:
            fast = bool(are_homotopy_equivalent(p, q))
            slow = brute_force_homotopy_equivalent(p, q)
            assert fast == slow, (p.covers, q.covers)
            checked += 1

    def draw(rng, size):
        # redraw until the brute-force search fits its own guards
        while True:
            p = random_poset(size, 0.5, rng.randrange(1 << 30))
            if count_monotone(p, p, guard=10**6) <= 5000:
                return p

    rng = random.Random(20260826)
    pairs = 0
    while pairs < 200:
        p = draw(rng, rng.choice([5, 6]))
        q = draw(rng, rng.choice([5, 6]))
        if count_monotone(p, q, guard=10**6) * count_monotone(q, p, guard=10**6) > 2 * 10**4:
            continue
        assert bool(are_homotopy_equivalent(p, q)) == \
            brute_force_homotopy_equivalent(p, q)
        pairs += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report("oracle equivalence",
           f"{checked} exhaustive pairs (<=4 elements) + 200 random 5-6 pairs, "
           f"0 disagreements, {dt:.1f}s")


def test_03_function_space_topology():
    t0 = time.perf_counter()
    gens = [chain(1), chain(2), chain(3), antichain(2), fence(3), chain(2)]
    pairs = 0
    for x in gens:
        for y in gens:
            c = enumerate_monotone(x, y)
            got = generate_topology(compact_open_subbasis(c))
            want = alexandroff_topology(pointwise_order(c))
            assert got == want
            pairs += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report("function-space topology",
           f"compact-open = Alexandroff on all {pairs} generator pairs, {dt:.2f}s")


def test_04_subbasis_lemma():
    from itertools import combinations

    cases = 0
    small = []
    for n in range(1, 4):
        small.extend(posets_up_to_iso(n))
    for x in small:
        for y in small:
            c = enumerate_monotone(x, y)
            downs = [m for m in range(1 << y.n) if is_down_set(y, m)]
            for r in range(x.n + 1):
                for k in combinations(range(x.n), r):
                    maxima = [a for a in k if not any(x.lt(a, b) for b in k)]
                    for u in downs:
                        assert hom_set_interval(c, k, u) == \
                            hom_set_interval(c, maxima, u)
                        cases += 1
    report("subbasis lemma", f"[K,U]=[max K,U] on {cases} exhaustive cases")


def test_05_identity_component_trivial():
    cores = 0
    for n in range(1, 6):
        for p in posets_up_to_iso(n):
            if not is_core(p):
                continue
            c = enumerate_monotone(p, p)
            ident = c.identity_index()
            id_class = next(part for part in homotopy_classes(c) if ident in part)
            assert id_class == {ident}
            cores += 1
    report("identity component", f"singleton id-class for all {cores} cores <=5")


def test_06_height1_criterion():
    rng = random.Random(6)
    done = 0
    while done < 500:
        p = random_height1_poset(rng, 9)
        if p.n == 0 or p.height() > 1:
            continue
        assert contractible_height1(p) == is_contractible(p)
        done += 1
    report("height-1 criterion", "500 random height-<=1 posets, 0 disagreements")


def test_07_homology():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        prof = poset_homology(crown(n))
        assert prof.betti == (0, 1) and prof.torsion == ((), ())
    for seed in range(100):
        p = random_poset(8, 0.4, seed)
        assert same_homology(poset_homology(p), poset_homology(core(p).core))
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report("homology",
           f"crown circles detected, invariance on 100 random posets, {dt:.1f}s")


def test_08_fpp_invariance():
    classes = []
    for n in range(1, 5):
        classes.extend(posets_up_to_iso(n))
    verdicts = [has_fpp(p)[0] for p in classes]
    for i, p in enumerate(classes):
        for j, q in enumerate(classes):
            if are_homotopy_equivalent(p, q):
                assert verdicts[i] == verdicts[j]
    ok, witness = has_fpp(crown(2))
    assert not ok and witness is not None
    a = witness.assignment
    assert all(a[i] != i for i in range(4))
    for n in range(1, 6):
        assert has_fpp(chain(n)) == (True, None)
    report("fpp invariance",
           f"homotopy-invariant over {len(classes)} iso classes; "
           f"crown(2) witness {a}; chains pass")


def test_09_standard_sequence():
    from finspace import classify

    for seed in range(200):
        p = random_poset(10, 0.35, seed)
        tr = standard_sequence(p)
        final, _ = p.restrict(tr.final)
        assert are_isomorphic(final, core(p).core) is not None
        bound = 2 * classify(p).bp_step_bound + 2
        assert len(tr.steps) <= bound
    report("standard sequence",
           "200 random posets: stabilizes, matches core, within 2n+2 bound")


FENCE_CONTRACTION_GOLDENS = [1, 1, 2, 2, 3]  # n = 2..6, frozen after BFS


def test_10_contraction_chain_goldens():
    got = [min_contraction_chain(fence(n)) for n in range(2, 7)]
    assert got == FENCE_CONTRACTION_GOLDENS
    report("contraction-chain goldens", f"fence(2..6) -> {got}")


@pytest.mark.xfail(reason="the BFS-minimal chain length is ceil((n-1)/2), "
                          "which repeats values; strict growth does not hold",
                   strict=True)
def test_10b_contraction_chain_strictly_increasing():
    got = [min_contraction_chain(fence(n)) for n in range(2, 7)]
    assert all(a < b for a, b in zip(got, got[1:]))


def test_11_round_trips():
    names = ["chain3", "fence6", "crown2", "crown3", "spider22", "khalimsky04"]
    suite = []
    for name in names:
        doc = load_document(DATA / f"{name}.poset")
        again = parse_poset(emit_poset(doc))
        assert (again.elements, sorted(again.covers), again.basepoint) == \
            (doc.elements, sorted(doc.covers), doc.basepoint)
        suite.append(doc.to_poset())
    suite += [chain(4), antichain(3), crown(4), fence(9)]
    for p in suite:
        q = specialization_order(alexandroff_topology(p))
        assert q.rel == p.up
    report("round trips",
           f"{len(names)} corpus files re-parse identically; "
           f"specialization inverts the topology on {len(suite)} posets")
