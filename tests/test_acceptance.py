"""Acceptance gate: nine timed end-to-end checks against independent
oracles.  Each test prints one PASS/FAIL line with its elapsed time and
budget; run with `pytest -s tests/test_acceptance.py` to see the lines.

All timing is integer nanoseconds from time.monotonic_ns; the whole file
(like the package) avoids floating point."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from qmtree.center import tree_center
from qmtree.descent import (
    check_phi_tilde_injective,
    choose_point,
    compute_level,
    galois_twist,
    group_elements,
    load_scenario,
    run_descent,
    verify_minimality,
)
from qmtree.ideal_tree import build_ideal_tree
from qmtree.orders import (
    eichler_order,
    enumerate_left_ideals,
    ideal_product,
    left_ideals_of_norm,
    maximal_order,
    principal_ideal,
    reduced_discriminant,
    two_sided_prime,
)
from qmtree.quaternion import QuaternionAlgebra, hilbert_symbol
from qmtree.tree import ball, distance, geodesic, localize_ideal, neighbors, root

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(label, budget_s):
    t0 = time.monotonic_ns()
    try:
        yield
    except BaseException:
        ms = (time.monotonic_ns() - t0) // 1_000_000
        print(f"FAIL  {label}  [{ms} ms]")
        raise
    ms = (time.monotonic_ns() - t0) // 1_000_000
    if ms >= budget_s * 1000:
        print(f"FAIL  {label}  [{ms} ms, over the {budget_s} s budget]")
        raise AssertionError(f"{label}: {ms} ms exceeds {budget_s} s")
    print(f"PASS  {label}  [{ms} ms, budget {budget_s} s]")


# --------------------------------------------------- 1: local symbols


def _sqfree(n: int) -> int:
    sign = 1 if n > 0 else -1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return sign * out * n


def _odd_primes_of(n: int):
    n = abs(n)
    out = []
    d = 3
    while n % 2 == 0:
        n //= 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _squares(mod: int):
    return frozenset(z * z % mod for z in range(mod))


def _oracle_soluble(a: int, b: int, place) -> bool:
    """Does z^2 = a x^2 + b y^2 have a nonzero solution over the given
    completion?  Brute search over primitive residue triples.

    Removing a square factor m^2 from a coefficient is the substitution
    x -> x/m, a bijection on solutions, so squarefree representatives
    decide the question.  A primitive zero then cannot have both x and y
    divisible by p (it would force p | z and, comparing valuations,
    p^2 | a x^2 + b y^2 fails), so one of x, y is a unit and can be
    scaled to 1.  Precision p^2 (2^5 at p = 2) is enough to lift."""
    a, b = _sqfree(a), _sqfree(b)
    if place is None:
        return a > 0 or b > 0
    p = place
    if p == 2:
        sq = _squares(32)
        return any((a * x * x + b * y * y) % 32 in sq
                   for x in range(32) for y in range(32)
                   if x % 2 or y % 2)
    m = p * p
    sq = _squares(m)
    return (any((a * x * x + b) % m in sq for x in range(m))
            or any((a + b * y * y) % m in sq for y in range(m)))


def test_hilbert_product_formula():
    with criterion("hilbert symbols vs solubility oracle", 10):
        rng = random.Random(20260815)
        for _ in range(200):
            a = 0
            b = 0
            while a == 0:
                a = rng.randint(-50, 50)
            while b == 0:
                b = rng.randint(-50, 50)
            places = [None, 2, 3, 5] + [p for p in _odd_primes_of(a * b)
                                        if p > 5]
            ramified = set()
            for place in places:
                s = hilbert_symbol(a, b, place)
                assert s in (1, -1)
                assert (s == 1) == _oracle_soluble(a, b, place), (a, b, place)
                if s == -1:
                    ramified.add(place)
            assert len(ramified) % 2 == 0, (a, b, sorted(map(str, ramified)))
            B = QuaternionAlgebra(a, b)
            finite = sorted(p for p in ramified if p is not None)
            prod = 1
            for p in finite:
                prod *= p
            assert B.discriminant() == prod
            assert B.is_definite() == (None in ramified)


# -------------------------------------------------- 2: maximal orders


def test_maximal_order_discriminants():
    with criterion("maximal order reduced discriminants", 10):
        algebras = [(-1, 3), (-1, 11), (1, 1)]
        rng = random.Random(977)
        while len(algebras) < 13:
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            if a == 0 or b == 0 or (a < 0 and b < 0):
                continue
            algebras.append((a, b))
        for a, b in algebras:
            B = QuaternionAlgebra(a, b)
            O = maximal_order(B)
            assert reduced_discriminant(O) == B.discriminant(), (a, b)


# ------------------------------------------------- 3: eichler levels


def test_eichler_discriminant_law():
    with criterion("eichler order discriminant law", 10):
        cases = [(-1, 3, 1), (-1, 3, 5), (-1, 3, 7), (-2, 5, 3),
                 (-1, 11, 1)]
        for a, b, N in cases:
            B = QuaternionAlgebra(a, b)
            O = maximal_order(B)
            D = B.discriminant()
            E = eichler_order(O, N)
            assert reduced_discriminant(E) == D * N, (a, b, N)


# ---------------------------------------------- 4: norm-l ideal counts


def test_norm_l_ideals_vs_enumeration():
    with criterion("norm-l ideal lists vs brute enumeration", 60):
        B = QuaternionAlgebra(-1, 3)
        O = maximal_order(B)
        expected = {5: 6, 7: 8, 2: 1, 3: 1}
        for ell, count in expected.items():
            fast = left_ideals_of_norm(O, ell)
            assert len(fast) == count, ell
            for I in fast:
                assert I.norm() == ell and I.is_primitive()
                assert I.is_left_ideal()
            brute = enumerate_left_ideals(O, ell)
            assert ({I.lattice for I in fast}
                    == {J.lattice for J in brute}), ell
        for ell in (2, 3):
            P = two_sided_prime(O, ell)
            square = ideal_product(P, P)
            scaled = principal_ideal(O, B.element(ell))
            assert square.lattice == scaled.lattice, ell


# -------------------------------------------------- 5: tree regularity


def test_tree_regularity_and_distance():
    with criterion("sphere sizes and BFS distance agreement", 30):
        from qmtree.tree import sphere
        for ell in (2, 3, 5):
            r = root(ell)
            assert len(ball(r, 0)) == 1
            for k in range(1, 5):
                assert len(sphere(r, k)) == (ell + 1) * ell ** (k - 1), \
                    (ell, k)
        verts = ball(root(2), 3)
        assert len(verts) == 22
        targets = set(verts)
        for u in verts:
            hops = {u: 0}
            frontier = [u]
            while not targets <= hops.keys():
                nxt = []
                for w in frontier:
                    for x in neighbors(w):
                        if x not in hops:
                            hops[x] = hops[w] + 1
                            nxt.append(x)
                frontier = nxt
            for v in verts:
                assert distance(u, v) == hops[v], (u, v)


# ------------------------------------------------- 6: ideal tree match


def test_ideal_tree_matches_local_ball():
    with criterion("depth-2 ideal tree is the radius-2 ball", 60):
        B = QuaternionAlgebra(-1, 3)
        O = maximal_order(B)
        tr = build_ideal_tree(O, 5, 2)
        assert len(tr.nodes) == 37
        assert [len(tr.level(k)) for k in range(3)] == [1, 6, 30]
        images = [localize_ideal(n.ideal, 5) for n in tr.nodes]
        assert images[0] == root(5)
        assert len(set(images)) == 37
        assert set(images) == set(ball(root(5), 2))
        for i, node in enumerate(tr.nodes):
            assert distance(images[0], images[i]) == node.depth
            if node.parent is not None:
                assert distance(images[i], images[node.parent]) == 1


# --------------------------------------------- 7: center, all subsets


def _isometric_perms(S, dist):
    m = len(S)
    prof = [tuple(sorted(dist[a][b] for b in S)) for a in S]
    cand = [[j for j in range(m) if prof[j] == prof[i]] for i in range(m)]
    out = []
    img = [-1] * m
    used = [False] * m

    def rec(i):
        if i == m:
            out.append(tuple(img))
            return
        for j in cand[i]:
            if used[j]:
                continue
            if all(dist[S[i]][S[k]] == dist[S[j]][S[img[k]]]
                   for k in range(i)):
                used[j] = True
                img[i] = j
                rec(i + 1)
                used[j] = False

    rec(0)
    return out


def test_center_over_all_small_subsets():
    with criterion("center law on every subset of size <= 5", 120):
        verts = ball(root(2), 3)
        n = len(verts)
        idx = {v: i for i, v in enumerate(verts)}
        dist = [[distance(u, v) for v in verts] for u in verts]
        mid = {}
        for i in range(n):
            mid[(i, i)] = frozenset((i,))
            for j in range(i + 1, n):
                g = geodesic(verts[i], verts[j])
                d = len(g) - 1
                if d % 2 == 0:
                    mid[(i, j)] = frozenset((idx[g[d // 2]],))
                else:
                    mid[(i, j)] = frozenset(
                        (idx[g[d // 2]], idx[g[d // 2 + 1]]))
        for size in range(1, 6):
            for S in itertools.combinations(range(n), size):
                diam = max(dist[i][j] for i in S for j in S)
                mids = {mid[(i, j)] for i in S for j in S
                        if i <= j and dist[i][j] == diam}
                assert len(mids) == 1, S
                middle = next(iter(mids))
                c = tree_center([verts[i] for i in S])
                assert c.is_edge() == (len(middle) == 2), S
                assert frozenset(idx[v] for v in c.vertices) == middle, S
                centre = sorted(middle)
                for perm in _isometric_perms(S, dist):
                    # the unique isometry of the spanned subtree extending
                    # the permutation must fix the central vertex or edge;
                    # a subtree vertex is pinned by its distances to S
                    images = []
                    for c0 in centre:
                        hit = [c1 for c1 in centre
                               if all(dist[c1][S[perm[t]]] == dist[c0][S[t]]
                                      for t in range(size))]
                        assert hit, (S, perm)
                        images.append(hit)
                    if len(centre) == 2:
                        a0, a1 = images
                        assert (set(a0) | set(a1)) == set(centre), (S, perm)


# ----------------------------------------------------- 8: descent runs


SCENARIOS = {
    "trivial.json": (1, {}),
    "swap5.json": (5, {"s": [5]}),
    "star5.json": (1, {"s": [], "ss": [], "sss": [], "ssss": [],
                       "sssss": []}),
    "bitflip2.json": (1, {"s": [2]}),
    "bitflip23.json": (1, {"s": [2, 3]}),
    "composite_5_7_2.json": (5, {"s": [2, 5]}),
    "swap5_bit2.json": (5, {"s": [2, 5]}),
    "twogen_15.json": (15, {"s": [5], "t": [3], "st": [3, 5]}),
    "path2_swap2.json": (1, {"s": []}),
    "path3_swap2.json": (2, {"s": [2]}),
    "path2_swap3.json": (1, {"s": []}),
    "cycle3_at2.json": (1, {"s": [], "ss": []}),
    "doubleswap_35.json": (35, {"s": [5, 7]}),
    "twogen_35.json": (35, {"s": [5], "t": [7], "st": [5, 7]}),
    "deep_pair2.json": (2, {"s": [2]}),
}


def test_descent_scenarios_end_to_end():
    with criterion("descent suite: N, cocycle, injectivity", 10):
        assert len(SCENARIOS) >= 12
        for name, (N, cocycle) in SCENARIOS.items():
            s = load_scenario(DATA / name)
            report = run_descent(s)
            assert report["N"] == N, name
            assert report["cocycle"] == cocycle, name
            assert report["checks"]["homomorphism"], name
            assert report["checks"]["phiTildeInjective"], name
            if N > 1:
                assert report["checks"]["minimality"], name
            level, centers = compute_level(s)
            assert level == N
            Q = choose_point(s, centers)
            words = list(group_elements(s))
            twists = {w: galois_twist(s, w, Q) for w in words}
            for w1 in words:
                for w2 in words:
                    assert (galois_twist(s, w1 + w2, Q)
                            == twists[w1] ^ twists[w2]), (name, w1, w2)
            assert check_phi_tilde_injective(Q), name
            assert verify_minimality(s, N)["ok"] == (
                report["checks"]["minimality"]), name
            json.loads(json.dumps(report))


# ------------------------------------- 9: maximal orders, large split primes


def test_maximal_order_at_large_split_primes():
    with criterion("maximal orders with a split prime above 1000", 5):
        for a, b in [(-1, 1009), (3, 2003)]:
            B = QuaternionAlgebra(a, b)
            O = maximal_order(B)
            assert reduced_discriminant(O) == B.discriminant(), (a, b)
