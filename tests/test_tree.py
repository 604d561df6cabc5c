"""Lattice-class tree tests.

The distance formula (elementary divisor gap) is checked against plain
breadth-first search distances inside finite balls, and the ideal
localization is exercised against hand-countable sphere sizes.
"""

import functools
import random
import time
from itertools import count

import pytest

from qmtree import center
from qmtree import linalg as la
from qmtree import orders as od
from qmtree import tree as bt
from qmtree.errors import (InvariantError, PreconditionError, RankError,
                           ResourceError, ValidationError)
from qmtree.quaternion import QuaternionAlgebra, is_prime


@functools.lru_cache(maxsize=None)
def max_order(a, b):
    return od.maximal_order(QuaternionAlgebra(a, b))


def bfs_distance(u, v, cap=8):
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    for d in range(1, cap + 1):
        nxt = []
        for w in frontier:
            for x in bt.neighbors(w):
                if x == v:
                    return d
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    raise AssertionError("BFS cap hit")


def walk_geodesic(u, v):
    """Reference path: step to the one neighbor that is closer to v."""
    path = [u]
    while path[-1] != v:
        left = bt.distance(path[-1], v)
        (nxt,) = [w for w in bt.neighbors(path[-1])
                  if bt.distance(w, v) == left - 1]
        path.append(nxt)
    return tuple(path)


def random_walk(rng, v, n):
    for _ in range(n):
        v = rng.choice(bt.neighbors(v))
    return v


# ---------------------------------------------------------------- canonical

def test_canonicalize_fixed_examples():
    for ell in (2, 5):
        v = bt.canonicalize(ell, ((ell, 0), (0, ell * ell)))
        assert v.mat == ((1, 0), (0, ell))
    assert bt.root(3).mat == ((1, 0), (0, 1))
    # prime-to-ell structure is invisible
    assert bt.canonicalize(2, ((3, 0), (0, 1))).mat == ((1, 0), (0, 1))


def test_canonicalize_invariances():
    rng = random.Random(71)
    for _ in range(60):
        ell = rng.choice([2, 3, 5])
        while True:
            M = tuple(tuple(rng.randint(-9, 9) for _ in range(2))
                      for _ in range(2))
            if la.det(M) != 0:
                break
        v = bt.canonicalize(ell, M)
        # row operations preserve the lattice
        U = ((1, rng.randint(-3, 3)), (0, 1)) if rng.random() < 0.5 \
            else ((0, 1), (-1, rng.randint(-3, 3)))
        assert bt.canonicalize(ell, la.mat_mul(U, M)) == v
        # scaling preserves the class
        from fractions import Fraction
        s = Fraction(rng.choice([1, 2, 3, ell, ell * ell]),
                     rng.choice([1, 2, ell]))
        scaled = tuple(tuple(s * x for x in row) for row in M)
        assert bt.canonicalize(ell, scaled) == v


def test_canonicalize_rejects_singular_and_nonprime():
    with pytest.raises(RankError):
        bt.canonicalize(2, ((1, 2), (2, 4)))
    for ell, rows in ((6, ((1, 0), (0, 1))), (2, ((1, 2, 3, 4),)),
                      (2, ((1,), (2,), (3,), (4,)))):
        with pytest.raises(PreconditionError):
            bt.canonicalize(ell, rows)


def test_prime_guard_on_hand_built_vertices():
    # the tree paths that skip canonicalize keep its prime check
    v = bt.TreeVertex(6, ((1, 0), (0, 1)))
    w = bt.TreeVertex(6, ((1, 0), (0, 6)))
    with pytest.raises(PreconditionError):
        bt.neighbors(v)
    with pytest.raises(PreconditionError):
        bt.geodesic(v, w)
    with pytest.raises(PreconditionError):
        bt.geodesic(v, v)
    I = od.left_ideals_of_norm(max_order(-1, 3), 5)[0]
    with pytest.raises(PreconditionError):
        bt.localize_ideal(I, 6)
    # the cache behind the check is bounded
    assert bt._check_prime.cache_info().maxsize is not None


# hand-built matrices that are not canonical vertices at 2
NON_CANONICAL = {
    "imprimitive": ((2, 0), (0, 2)),
    "b-equal-to-d": ((1, 1), (0, 1)),
    "b-above-d": ((1, 5), (0, 2)),
    "negative-b": ((1, -1), (0, 2)),
    "a-not-an-ell-power": ((3, 0), (0, 1)),
    "d-not-an-ell-power": ((1, 0), (0, 6)),
    "zero-a": ((0, 0), (0, 1)),
    "not-upper-triangular": ((1, 0), (1, 1)),
    "float-entry": ((1.0, 0), (0, 1)),
    "not-2x2": ((1, 0),),
}


@pytest.mark.parametrize("mat", NON_CANONICAL.values(), ids=NON_CANONICAL)
def test_neighbors_reject_hand_built_non_canonical_vertices(mat):
    v, r = bt.TreeVertex(2, mat), bt.root(2)
    with pytest.raises(PreconditionError, match="non-canonical vertex"):
        bt.neighbors(v)
    # so do geodesic at either end and the set operations, whichever
    # member comes first
    for call in (lambda: bt.geodesic(r, v), lambda: bt.geodesic(v, r),
                 lambda: center.tree_center([r, v]),
                 lambda: center.tree_center([v, r]),
                 lambda: center.spanned_subtree([r, v]),
                 lambda: center.spanned_subtree([v, r])):
        with pytest.raises(PreconditionError, match="non-canonical vertex"):
            call()
    # the prime is checked first
    with pytest.raises(PreconditionError, match="6 is not a prime"):
        bt.neighbors(bt.TreeVertex(6, mat))


def test_vertex_is_a_tuple():
    vs = bt.ball(bt.root(3), 2)
    for v in vs:
        assert hash(v) == hash((v.ell, v.mat))
        assert v == (v.ell, v.mat)
        assert repr(v) == bt.format_vertex(v)
    shuffled = list(reversed(vs))
    assert sorted(shuffled) == sorted(shuffled, key=bt.TreeVertex.key)
    v = vs[-1]
    with pytest.raises(AttributeError):
        v.ell = 5
    with pytest.raises(AttributeError):
        v.mat = ((1, 0), (0, 1))
    with pytest.raises(AttributeError):
        v.extra = 1


def test_vertex_text_roundtrip():
    for ell in (2, 3, 5):
        for v in bt.ball(bt.root(ell), 2):
            assert bt.parse_vertex(bt.format_vertex(v)) == v
    with pytest.raises(ValidationError):
        bt.parse_vertex("5:[[1,0],[1,1]]")
    with pytest.raises(ValidationError):
        bt.parse_vertex("2:[[2,0],[0,2]]")  # not primitive
    with pytest.raises(ValidationError):
        bt.parse_vertex("2:[[1,1],[0,1]]")  # b not reduced mod d
    with pytest.raises(ValidationError):
        bt.parse_vertex("6:[[1,0],[0,1]]")  # not a prime
    with pytest.raises(ValidationError):
        bt.parse_vertex("2:[[0,0],[0,1]]")  # singular


# ---------------------------------------------------------------- structure

def test_neighbor_counts_and_symmetry():
    for ell in (2, 3, 5):
        r = bt.root(ell)
        nb = bt.neighbors(r)
        assert len(nb) == ell + 1
        for v in nb:
            assert bt.distance(r, v) == 1
            assert r in bt.neighbors(v)


def test_sphere_sizes():
    r2 = bt.root(2)
    assert [len(bt.sphere(r2, k)) for k in (0, 1, 2, 3)] == [1, 3, 6, 12]
    r3 = bt.root(3)
    assert [len(bt.sphere(r3, k)) for k in (0, 1, 2)] == [1, 4, 12]


def test_each_vertex_has_unique_parent():
    # no cycles: everyone in sphere(k) touches exactly one vertex of
    # sphere(k-1)
    r = bt.root(2)
    spheres = [bt.sphere(r, k) for k in range(4)]
    for k in (1, 2, 3):
        prev = set(spheres[k - 1])
        for v in spheres[k]:
            assert sum(1 for w in bt.neighbors(v) if w in prev) == 1


def test_distance_matches_bfs():
    rng = random.Random(73)
    for ell, radius in ((2, 3), (3, 2)):
        verts = bt.ball(bt.root(ell), radius)
        for _ in range(40):
            u, v = rng.choice(verts), rng.choice(verts)
            assert bt.distance(u, v) == bfs_distance(u, v)
            assert bt.distance(u, v) == bt.distance(v, u)


def test_distance_fixed_values():
    for ell in (2, 5):
        r = bt.root(ell)
        far = bt.canonicalize(ell, ((ell * ell, 0), (0, 1)))
        assert bt.distance(r, far) == 2
        g = bt.geodesic(r, far)
        assert len(g) == 3
        assert g[0] == r and g[2] == far
        assert g[1] == bt.canonicalize(ell, ((ell, 0), (0, 1)))


def test_geodesic_steps_are_edges():
    rng = random.Random(79)
    verts = bt.ball(bt.root(2), 3)
    for _ in range(25):
        u, v = rng.choice(verts), rng.choice(verts)
        g = bt.geodesic(u, v)
        assert g[0] == u and g[-1] == v
        assert len(g) == bt.distance(u, v) + 1
        for a, b in zip(g, g[1:]):
            assert bt.distance(a, b) == 1
        assert len(set(g)) == len(g)


def test_geodesic_matches_neighbor_walk():
    rng = random.Random(97)
    for ell, radius in ((2, 4), (3, 3), (5, 2)):
        verts = bt.ball(bt.root(ell), radius)
        for _ in range(40):
            u, v = rng.choice(verts), rng.choice(verts)
            assert bt.geodesic(u, v) == walk_geodesic(u, v)
    for _ in range(4):
        u = random_walk(rng, bt.root(101), rng.randint(0, 3))
        v = random_walk(rng, u, rng.randint(1, 4))
        assert bt.geodesic(u, v) == walk_geodesic(u, v)


def test_long_geodesic_at_a_large_prime():
    ell = 1009
    rng = random.Random(101)
    u = bt.canonicalize(ell, ((1, rng.randrange(ell)), (0, ell)))
    v = u
    while bt.distance(u, v) < 8:
        v = rng.choice(bt.neighbors(v))
    g = bt.geodesic(u, v)
    assert len(g) == 9 and g[0] == u and g[-1] == v
    for i, (a, b) in enumerate(zip(g, g[1:])):
        assert bt.distance(a, b) == 1
        assert bt.distance(b, v) == 7 - i


def test_mixed_prime_distance_rejected():
    with pytest.raises(PreconditionError):
        bt.distance(bt.root(2), bt.root(3))


# ---------------------------------------------------------------- localize

def test_localize_norm_five_ideals_cover_the_neighbors():
    O = max_order(-1, 3)
    ideals = od.left_ideals_of_norm(O, 5)
    r = bt.root(5)
    verts = {bt.localize_ideal(I, 5) for I in ideals}
    assert verts == set(bt.neighbors(r))


def test_localize_scaled_order_is_the_root():
    O = max_order(-1, 3)
    five = od.principal_ideal(O, O.algebra.element(5))
    assert bt.localize_ideal(five, 5) == bt.root(5)
    two_sided = od.two_sided_prime(O, 2)
    # localizing at a prime away from the support sits at the root too
    assert bt.localize_ideal(two_sided, 5) == bt.root(5)


def test_localize_products_fill_the_second_sphere():
    O = max_order(-1, 3)
    r = bt.root(5)
    second = set(bt.sphere(r, 2))
    seen = set()
    for I in od.left_ideals_of_norm(O, 5):
        for J in od.left_ideals_of_norm(I.right_order(), 5):
            P = od.ideal_product(I, J)
            assert P.norm() == 25
            v = bt.localize_ideal(P, 5)
            if P.is_primitive():
                assert bt.distance(r, v) == 2
                assert v in second
                seen.add(v)
            else:
                # the backtracking product is 5 times the order
                assert v == r
                assert P.lattice == la.lattice_canonical(
                    la.mat_scale(5, O.basis))
    assert len(seen) == 30  # (ell+1)*ell


def test_localize_norm_valuation_relation():
    O = max_order(-2, 5)
    for ell in (3, 7):
        for I in od.left_ideals_of_norm(O, ell):
            assert bt.distance(bt.root(ell),
                               bt.localize_ideal(I, ell)) == 1


def test_distance_checks_the_prime():
    with pytest.raises(PreconditionError):
        bt.distance(bt.TreeVertex(6, ((1, 0), (0, 1))),
                    bt.TreeVertex(6, ((1, 0), (0, 36))))


@pytest.mark.parametrize("lit", [None, 2, ["2:[[1,0],[0,1]]"],
                                 {"v": "2:[[1,0],[0,1]]"}])
def test_parse_vertex_rejects_non_strings(lit):
    with pytest.raises(ValidationError):
        bt.parse_vertex(lit)


def test_parse_vertex_rejects_numbers_past_the_digit_limit():
    with pytest.raises(ValidationError):
        bt.parse_vertex("2:[[1,0],[0," + "1" * 5000 + "]]")


def test_geodesic_length_guard(monkeypatch):
    far = bt.canonicalize(2, ((1, 0), (0, 2 ** 20000)))
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        bt.geodesic(bt.root(2), far)
    assert time.perf_counter() - start < 5
    # the bound is inclusive
    monkeypatch.setattr(bt, "_MAX_PATH", 8)
    v8 = bt.canonicalize(2, ((1, 0), (0, 2 ** 8)))
    assert len(bt.geodesic(bt.root(2), v8)) == 9
    with pytest.raises(ResourceError):
        bt.geodesic(bt.root(2), bt.canonicalize(2, ((1, 0), (0, 2 ** 9))))


def test_line_enumeration_guard(monkeypatch):
    past = next(p for p in count(od._MAX_ELL + 1) if is_prime(p))
    with pytest.raises(ResourceError):
        bt.neighbors(bt.root(past))
    # the bound is inclusive
    monkeypatch.setattr(od, "_MAX_ELL", 7)
    assert len(bt.neighbors(bt.root(7))) == 8
    with pytest.raises(ResourceError):
        bt.neighbors(bt.root(11))
