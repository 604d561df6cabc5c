"""Property tests for the lattice-class tree: closed-form neighbors against
canonicalizing every index-ell sublattice (enumerated here, as the oracle),
on random vertices and on each branch of the closed form, canonical forms
under changes of basis and scaling, the path laws of geodesic and distance,
localization as the inverse of ideal_of_vertex, and the laws of the center
of a vertex set."""

import functools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmtree import center
from qmtree import linalg as la
from qmtree import orders as od
from qmtree import tree as bt
from qmtree.quaternion import QuaternionAlgebra

PRIMES = [2, 3, 5, 7, 101, 1009]


@st.composite
def vertex_at(draw, ell):
    """A canonical vertex ((ell^i, b), (0, ell^j)), 0 <= b < ell^j, primitive."""
    a = ell ** draw(st.integers(0, 3))
    d = ell ** draw(st.integers(0, 3))
    b = draw(st.integers(0, d - 1))
    assume(a % ell or b % ell or d % ell)
    return bt.TreeVertex(ell, ((a, b), (0, d)))


@st.composite
def vertex(draw):
    return draw(vertex_at(draw(st.sampled_from(PRIMES))))


@st.composite
def vertex_pair(draw):
    ell = draw(st.sampled_from(PRIMES))
    return draw(vertex_at(ell)), draw(vertex_at(ell))


def nonsingular():
    entry = st.integers(-30, 30)
    return st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)).filter(
        lambda M: la.det(M) != 0)


@st.composite
def unimodular(draw):
    """A product of elementary row operations, as a 2x2 matrix."""
    U = ((1, 0), (0, 1))
    for kind, k in draw(st.lists(st.tuples(st.integers(0, 3),
                                           st.integers(-5, 5)), max_size=6)):
        E = (((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, 1), (1, 0)),
             ((-1, 0), (0, 1)))[kind]
        U = la.mat_mul(E, U)
    return U


def index_ell_sublattices(L, ell):
    """Row HNF bases of the ell+1 index-ell sublattices of rowspan(L), L in
    row HNF ((a, b), (0, d)): ell*L plus one line of L/ell*L, r1 + t*r2 for
    t = 0..ell-1, then r2, in that order."""
    (a, b), (_, d) = L
    out = [((a, (b + t * d) % (ell * d)), (0, ell * d)) for t in range(ell)]
    out.append(((ell * a, ell * b % d), (0, d)))
    return out


def test_index_ell_sublattices_are_hnf_bases():
    # two levels of honest sublattices below the standard lattice,
    # imprimitive ones included
    for ell in (2, 3, 5):
        level = [((1, 0), (0, 1))]
        for _ in range(2):
            nxt = []
            for L in level:
                r1, r2 = L
                ell_L = (tuple(ell * x for x in r1), tuple(ell * x for x in r2))
                lines = [tuple(x + t * y for x, y in zip(r1, r2))
                         for t in range(ell)] + [r2]
                want = [la.hnf_basis((w,) + ell_L) for w in lines]
                assert index_ell_sublattices(L, ell) == want
                nxt.extend(want)
            level = nxt


def canonicalized_sublattices(v):
    """The neighbor oracle: every index-ell sublattice canonicalized, in key
    order."""
    ell = v.ell
    return tuple(sorted({bt.canonicalize(ell, L)
                         for L in index_ell_sublattices(v.mat, ell)},
                        key=bt.TreeVertex.key))


@settings(max_examples=120, deadline=None)
@given(vertex())
def test_neighbors_match_canonicalized_sublattices(v):
    assert bt.neighbors(v) == canonicalized_sublattices(v)
    assert bt.canonicalize(v.ell, v.mat) == v


def branch_vertices(ell, branch):
    """Vertices ((ell^i, b), (0, ell^j)) up to depth i + j = 10 on which
    neighbors takes one branch: the root, d = 1 with ell | a (the t = 0
    line is the divisible one) and d > 1 (the r2 line is)."""
    if branch == "root":
        return [bt.root(ell)]
    if branch == "d=1":
        return [bt.TreeVertex(ell, ((ell ** i, 0), (0, 1)))
                for i in range(1, 11)]
    out = []
    for depth in range(1, 11):
        for j in sorted({1, (depth + 1) // 2, depth}):
            a, d = ell ** (depth - j), ell ** j
            for b in sorted({0, 1, d // 2, d - 1}):
                if a % ell or b % ell:
                    out.append(bt.TreeVertex(ell, ((a, b), (0, d))))
    return out


@pytest.mark.parametrize("branch", ["root", "d=1", "d>1"])
@pytest.mark.parametrize("ell", PRIMES)
def test_neighbors_match_the_oracle_on_each_branch(ell, branch):
    vs = branch_vertices(ell, branch)
    assert vs
    for v in vs:
        nb = bt.neighbors(v)
        assert nb == canonicalized_sublattices(v), v
        assert len(nb) == ell + 1
        keys = [w.key() for w in nb]
        assert all(x < y for x, y in zip(keys, keys[1:])), v


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), nonsingular(), unimodular(),
       st.integers(-60, 60).filter(bool), st.integers(1, 60))
def test_canonicalize_is_invariant_under_basis_change_and_scaling(
        ell, M, U, p, q):
    v = bt.canonicalize(ell, M)
    assert bt.canonicalize(ell, la.mat_mul(U, M)) == v
    s = Fraction(p, q)
    assert bt.canonicalize(ell, tuple(tuple(s * x for x in row)
                                      for row in M)) == v
    assert bt.canonicalize(ell, tuple(tuple(ell * x for x in row)
                                      for row in M)) == v


@settings(max_examples=300, deadline=None)
@given(vertex_pair())
def test_geodesic_laws(pair):
    u, v = pair
    g = bt.geodesic(u, v)
    assert g[0] == u and g[-1] == v
    assert len(g) - 1 == bt.distance(u, v)
    for a, b in zip(g, g[1:]):
        assert bt.distance(a, b) == 1
    assert bt.geodesic(v, u) == g[::-1]


@functools.lru_cache(maxsize=None)
def split_order(a, b, level):
    return od.eichler_order(od.maximal_order(QuaternionAlgebra(a, b)), level)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(1, 1, 1), (-1, -1, 1), (-1, 3, 1), (-1, -1, 11)]),
       st.sampled_from([2, 3, 5, 7, 13]).flatmap(vertex_at))
@example((-1, 3, 1), bt.root(5))
def test_localize_inverts_the_pullback(key, v):
    """A vertex up to distance 6 from the root comes back from its ideal;
    the root's ideal is the whole order."""
    O = split_order(*key)
    ell = v.ell
    assume(od.reduced_discriminant(O) % ell)
    (a, _), (_, d) = v.mat
    th = od.splitting_data(O, ell, od.valuation(a * d, ell) + 1)
    I = bt.ideal_of_vertex(th, v)
    assert bt._localize(I, th) == v
    if v == bt.root(ell):
        assert I.order_coords == la.identity(4)


@st.composite
def vertex_set(draw):
    """One to seven vertices at one small prime."""
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    return draw(st.lists(vertex_at(ell), min_size=1, max_size=7))


@settings(max_examples=200, deadline=None)
@given(vertex_set())
def test_center_lies_on_every_diametral_geodesic(S):
    c = center.tree_center(S)
    dist = {(u, v): bt.distance(u, v) for u in S for v in S}
    diam = max(dist.values())
    for (u, v), d in dist.items():
        if d == diam:
            assert set(c.vertices) <= set(bt.geodesic(u, v)), (u, v)


@settings(max_examples=150, deadline=None)
@given(vertex_set(), st.randoms(use_true_random=False))
def test_center_ignores_the_order_of_the_set(S, rnd):
    shuffled = list(S)
    rnd.shuffle(shuffled)
    assert center.tree_center(shuffled) == center.tree_center(S)


@settings(max_examples=150, deadline=None)
@given(vertex_set(), nonsingular())
def test_center_commutes_with_tree_isometries(S, g):
    ell = S[0].ell

    def move(v):
        return bt.canonicalize(ell, la.mat_mul(v.mat, g))

    c = center.tree_center(S)
    moved = center.tree_center([move(v) for v in S])
    assert moved.kind == c.kind
    assert moved.vertices == tuple(sorted(move(v) for v in c.vertices))
