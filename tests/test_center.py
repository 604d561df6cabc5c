"""Center and spanned-subtree tests, validated against brute-force
eccentricities over whole balls."""

import itertools
import random

import pytest

from qmtree import tree as bt
from qmtree.center import Center, spanned_subtree, tree_center
from qmtree.errors import PreconditionError


def eccentricity_table(sub):
    return {v: max(bt.distance(v, w) for w in sub.vertices)
            for v in sub.vertices}


def neighbors_in(sub, v):
    out = []
    for a, b in sub.edges:
        if a == v:
            out.append(b)
        elif b == v:
            out.append(a)
    return out


def test_center_of_singleton_and_equal_points():
    r = bt.root(2)
    c = tree_center([r])
    assert c.kind == "vertex" and c.vertices == (r,)
    assert tree_center([r, r]) == c


def test_center_of_adjacent_pair_is_the_edge():
    r = bt.root(3)
    v = bt.neighbors(r)[0]
    c = tree_center([r, v])
    assert c.kind == "edge"
    assert set(c.vertices) == {r, v}
    assert c.vertices == tuple(sorted(c.vertices))


def test_center_of_distance_two_pair_is_the_midpoint():
    for ell in (2, 5):
        r = bt.root(ell)
        far = bt.canonicalize(ell, ((ell * ell, 0), (0, 1)))
        c = tree_center([r, far])
        assert c.kind == "vertex"
        assert c.vertices == (bt.canonicalize(ell, ((ell, 0), (0, 1))),)


def test_center_of_star_is_the_hub_even_if_absent():
    r = bt.root(5)
    c = tree_center(bt.neighbors(r))
    assert c == Center("vertex", (r,))


def test_center_of_odd_path_is_an_edge():
    r = bt.root(2)
    g = bt.geodesic(r, bt.canonicalize(2, ((8, 1), (0, 8))))
    assert len(g) >= 4
    ends = [g[0], g[3]]
    c = tree_center(ends)
    assert c.kind == "edge"
    assert set(c.vertices) == {g[1], g[2]}


def test_center_minimizes_eccentricity():
    rng = random.Random(83)
    verts = bt.ball(bt.root(2), 3)
    for _ in range(25):
        S = rng.sample(verts, rng.randint(1, 5))
        c = tree_center(S)
        sub = spanned_subtree(S)
        ecc = {v: max(bt.distance(v, s) for s in S) for v in sub.vertices}
        best = min(ecc.values())
        for v in c.vertices:
            assert ecc[v] == best
        if c.kind == "edge":
            assert bt.distance(c.vertices[0], c.vertices[1]) == 1


def test_center_of_empty_set_rejected():
    with pytest.raises(PreconditionError):
        tree_center([])


def test_spanned_subtree_of_path_and_star():
    r = bt.root(2)
    far = bt.canonicalize(2, ((4, 0), (0, 1)))
    sub = spanned_subtree([r, far])
    assert len(sub.vertices) == 3
    assert len(sub.edges) == 2
    star = spanned_subtree(bt.neighbors(r))
    assert r in star.vertices
    assert len(star.vertices) == 4
    assert len(star.edges) == 3


def test_spanned_subtree_is_a_tree():
    rng = random.Random(89)
    verts = bt.ball(bt.root(3), 2)
    for _ in range(15):
        S = rng.sample(verts, rng.randint(1, 5))
        sub = spanned_subtree(S)
        assert len(sub.edges) == len(sub.vertices) - 1
        for s in S:
            assert s in sub.vertices
        table = eccentricity_table(sub)
        assert set(table) == set(sub.vertices)


def test_spanned_subtree_is_the_union_of_pairwise_geodesics():
    rng = random.Random(103)
    for ell, radius in ((2, 3), (3, 2), (5, 2)):
        verts = bt.ball(bt.root(ell), radius)
        for _ in range(15):
            S = rng.sample(verts, rng.randint(1, 6))
            nodes = set(S)
            for u, v in itertools.combinations(S, 2):
                nodes.update(bt.geodesic(u, v))
            nodes = sorted(nodes)
            edges = [(u, v) for u, v in itertools.combinations(nodes, 2)
                     if bt.distance(u, v) == 1]
            sub = spanned_subtree(S)
            assert sub.vertices == tuple(nodes)
            assert sub.edges == tuple(edges)
            # edges hold the node objects themselves, not equal copies
            ids = {id(v) for v in sub.vertices}
            assert all(id(a) in ids and id(b) in ids for a, b in sub.edges)


def test_subtree_neighbor_listing():
    r = bt.root(2)
    sub = spanned_subtree(bt.neighbors(r))
    assert sorted(neighbors_in(sub, r)) == sorted(bt.neighbors(r))
    leaf = bt.neighbors(r)[0]
    assert neighbors_in(sub, leaf) == [r]
