"""Ideal tree tests.

The decisive cross-check: the tree levels at small primes must coincide,
as sets of lattices, with blind Hermite-form enumeration of all primitive
ideals of the same norm.
"""

import functools

import pytest

from qmtree import ideal_tree as it
from qmtree import linalg as la
from qmtree import orders as od
from qmtree import tree as bt
from qmtree.errors import AlgebraError, PreconditionError, ResourceError
from qmtree.quaternion import QuaternionAlgebra, is_prime


@functools.lru_cache(maxsize=None)
def max_order(a, b):
    return od.maximal_order(QuaternionAlgebra(a, b))


@functools.lru_cache(maxsize=None)
def split_tree(depth):
    return it.build_ideal_tree(max_order(1, 1), 2, depth)


def test_tree_shape_at_five():
    tr = it.build_ideal_tree(max_order(-1, 3), 5, 2)
    assert [len(tr.level(k)) for k in range(3)] == [1, 6, 30]
    assert len(tr.nodes) == 37
    for i in tr.level(1):
        assert tr.nodes[i].parent == 0
        assert len(tr.nodes[i].children) == 5
    report = it.verify_tree_isomorphism(tr)
    assert report["ok"], report


def test_level_one_matches_direct_construction():
    O = max_order(-1, 3)
    tr = it.build_ideal_tree(O, 5, 1)
    got = {tr.nodes[i].ideal.lattice for i in tr.level(1)}
    want = {I.lattice for I in od.left_ideals_of_norm(O, 5)}
    assert got == want


@pytest.mark.parametrize("depth,counts", [(1, [1, 3]), (2, [1, 3, 6]),
                                          (3, [1, 3, 6, 12])])
def test_split_algebra_level_counts(depth, counts):
    tr = split_tree(depth)
    assert [len(tr.level(k)) for k in range(depth + 1)] == counts


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_levels_match_blind_enumeration(depth):
    O = max_order(1, 1)
    tr = split_tree(3)
    got = {tr.nodes[i].ideal.lattice for i in tr.level(depth)}
    brute = {I.lattice for I in od.enumerate_left_ideals(O, 2 ** depth)
             if I.is_primitive()}
    assert got == brute


def test_children_are_nested_index_four_steps():
    tr = split_tree(2)
    for i, node in enumerate(tr.nodes):
        if node.parent is None:
            continue
        parent = tr.nodes[node.parent]
        assert la.rat_lattice_index(parent.ideal.lattice,
                                    node.ideal.lattice) == 4
        assert node.depth == parent.depth + 1


def test_isomorphism_check_with_other_seed():
    tr = it.build_ideal_tree(max_order(-2, 5), 3, 2, seed=4)
    assert [len(tr.level(k)) for k in range(3)] == [1, 4, 12]
    assert it.verify_tree_isomorphism(tr, seed=4)["ok"]
    # the check may use an independently seeded localization
    assert it.verify_tree_isomorphism(tr, seed=11)["levelsMatchSpheres"]


def test_tree_on_eichler_order():
    E = od.eichler_order(max_order(-1, 3), 7)
    tr = it.build_ideal_tree(E, 5, 1)
    assert len(tr.level(1)) == 6
    assert it.verify_tree_isomorphism(tr)["ok"]


def local_lattice_coords(th, L):
    """The former ideal-tree child construction, kept as the oracle for
    orders._pullback: four congruence sublattices, one per condition that
    a row (u, w) of theta(x) lies in L = ((a, b), (0, d)): a | u and
    a w - b u == 0 mod a d.  Needs a d < ell^k."""
    (a, b), (_, d) = L
    assert a * d < th.modulus
    R = la.identity(4)
    for r in range(2):
        f1 = tuple(th.images[i][r][0] for i in range(4))
        R = la.congruence_sublattice(R, f1, a)
        f2 = tuple(a * th.images[i][r][1] - b * th.images[i][r][0]
                   for i in range(4))
        R = la.congruence_sublattice(R, f2, a * d)
    return R


@pytest.mark.parametrize("a,b,level", [(1, 1, 1), (-1, -1, 1), (-1, -1, 11)])
def test_pullback_matches_congruence_oracle(a, b, level):
    O = od.eichler_order(max_order(a, b), level)
    for ell in (3, 5, 7):
        tr = it.build_ideal_tree(O, ell, 3)
        low = od.splitting_data(O, ell, 3)
        high = od.splitting_data(O, ell, 5)
        for node in tr.nodes:
            R = od._pullback(low, node.local)
            assert R == local_lattice_coords(high, node.local), (ell, node)
            assert od.LeftIdeal.from_order_coords(O, R) == node.ideal


def test_pullback_needs_the_index_to_divide_the_modulus():
    th = od.splitting_data(max_order(1, 1), 3, 2)
    od._pullback(th, ((1, 0), (0, 9)))
    with pytest.raises(PreconditionError):
        od._pullback(th, ((1, 0), (0, 27)))
    with pytest.raises(PreconditionError):
        od._pullback(th, ((1, 0), (0, 2)))


@pytest.mark.parametrize("ell", [0, 1, 4, -5])
def test_tree_rejects_non_primes(ell):
    for depth in (0, 1):
        with pytest.raises(AlgebraError, match=f"{ell} is not a prime"):
            it.build_ideal_tree(max_order(-1, 3), ell, depth)


def test_tree_preconditions_and_guard():
    O = max_order(-1, 3)
    with pytest.raises(PreconditionError):
        it.build_ideal_tree(O, 2, 1)  # ramified
    E = od.eichler_order(O, 7)
    with pytest.raises(PreconditionError):
        it.build_ideal_tree(E, 7, 1)  # divides the level
    with pytest.raises(ResourceError):
        it.build_ideal_tree(O, 5, 4)
    with pytest.raises(PreconditionError):
        it.build_ideal_tree(O, 5, -1)


def test_tree_guards_the_node_count(monkeypatch):
    O = max_order(-1, 3)
    # 1 + (ell + 1)(ell^depth - 1)/(ell - 1) nodes; the bound is inclusive
    with monkeypatch.context() as mp:
        mp.setattr(od, "_MAX_TREE_NODES", 37)
        assert len(it.build_ideal_tree(O, 5, 2).nodes) == 37
        assert len(it.build_ideal_tree(O, 7, 1).nodes) == 9
        for ell, depth in ((7, 2), (5, 3)):
            with pytest.raises(ResourceError, match="ideal-tree guard"):
                it.build_ideal_tree(O, ell, depth)
    # about a million nodes each: refused before any is built
    for ell, depth in ((1009, 2), (101, 3)):
        with pytest.raises(ResourceError, match="ideal-tree guard"):
            it.build_ideal_tree(O, ell, depth)


def test_node_count_guard_admits_every_depth_one_tree_and_l_101_depth_2():
    # the largest prime within the line-enumeration guard
    top = next(p for p in range(od._MAX_ELL, 1, -1) if is_prime(p))
    assert 1 + (top + 1) <= od._MAX_TREE_NODES
    assert 1 + 102 * 102 <= od._MAX_TREE_NODES


def test_isogeny_degree_bookkeeping():
    O = max_order(-1, 3)
    I = od.left_ideals_of_norm(O, 5)[0]
    d = it.isogeny_degree(I)
    assert (d.norm, d.content, d.primitive_norm, d.degree,
            d.is_multiplication) == (5, 1, 5, 25, False)
    for k in (2, 3):
        dk = it.isogeny_degree(od.principal_ideal(O, O.algebra.element(k)))
        assert dk.is_multiplication
        assert (dk.norm, dk.content, dk.degree) == (k * k, k, k ** 4)
    scaled = od.LeftIdeal(O, la.mat_scale(2, I.lattice))
    ds = it.isogeny_degree(scaled)
    assert (ds.norm, ds.content, ds.primitive_norm) == (20, 2, 5)
    assert not ds.is_multiplication


def test_dot_export_is_stable_and_complete():
    tr = split_tree(2)
    dot = it.tree_to_dot(tr)
    assert dot == it.tree_to_dot(split_tree(2))
    assert dot.startswith("digraph")
    assert dot.count("->") == 9
    assert dot.count("label=") == 10
