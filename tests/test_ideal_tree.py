"""Ideal tree tests.

The decisive cross-check: the tree levels at small primes must coincide,
as sets of lattices, with blind Hermite-form enumeration of all primitive
ideals of the same norm.
"""

import functools
import hashlib

import pytest

from qmtree import ideal_tree as it
from qmtree import linalg as la
from qmtree import orders as od
from qmtree import tree as bt
from qmtree.errors import AlgebraError, PreconditionError, ResourceError
from qmtree.quaternion import QuaternionAlgebra, is_prime

from pullback_oracle import four_generator_pullback


@functools.lru_cache(maxsize=None)
def max_order(a, b):
    return od.maximal_order(QuaternionAlgebra(a, b))


@functools.lru_cache(maxsize=None)
def split_tree(depth):
    return it.build_ideal_tree(max_order(1, 1), 2, depth)


def order_coords_oracle(I):
    """The former LeftIdeal.order_coords() derivation from the lattice."""
    X = [tuple(la.triangular_coords(I.order.basis, r)) for r in I.lattice]
    assert all(t.denominator == 1 for row in X for t in row)
    return la.hnf_basis(tuple(tuple(int(t) for t in row) for row in X))


def test_tree_shape_at_five():
    tr = it.build_ideal_tree(max_order(-1, 3), 5, 2)
    assert [len(tr.level(k)) for k in range(3)] == [1, 6, 30]
    for node in tr.nodes:
        assert node.ideal.order_coords == order_coords_oracle(node.ideal)
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


@pytest.mark.parametrize("seed", range(1, 7))
def test_isomorphism_check_uses_the_trees_seed(seed):
    tr = it.build_ideal_tree(max_order(-1, 3), 5, 2, seed=seed)
    report = it.verify_tree_isomorphism(tr)
    assert report["ok"], report
    assert report == it.verify_tree_isomorphism(tr, seed=seed)


def test_tree_on_eichler_order():
    E = od.eichler_order(max_order(-1, 3), 7)
    tr = it.build_ideal_tree(E, 5, 1)
    assert len(tr.level(1)) == 6
    for node in tr.nodes:
        assert node.ideal.order_coords == order_coords_oracle(node.ideal)
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
            assert R == four_generator_pullback(low, node.local), (ell, node)
            assert od.LeftIdeal.from_order_coords(O, R) == node.ideal


def test_pullback_needs_the_index_to_divide_the_modulus():
    th = od.splitting_data(max_order(1, 1), 3, 2)
    od._pullback(th, ((1, 0), (0, 9)))
    with pytest.raises(PreconditionError, match="does not divide"):
        od._pullback(th, ((1, 0), (0, 27)))
    with pytest.raises(PreconditionError, match="does not divide"):
        od._pullback(th, ((1, 0), (0, 2)))
    # a vertex at distance 2 is within the precision, one at 3 is not
    I = bt.ideal_of_vertex(th, bt.TreeVertex(3, ((1, 0), (0, 9))))
    assert I.norm() == 9
    with pytest.raises(PreconditionError, match="does not divide"):
        bt.ideal_of_vertex(th, bt.TreeVertex(3, ((1, 0), (0, 27))))


def test_depth_one_trees_skip_the_generic_elimination(monkeypatch):
    """Every index-ell vertex ideal comes from the line form, as the
    norm-ell ideals do; hnf_mod is for deeper vertices only."""
    def refuse(*args):
        raise AssertionError("a depth-1 vertex went through hnf_mod")

    orders = [max_order(-1, 3), od.eichler_order(max_order(-1, 3), 35)]
    monkeypatch.setattr(la, "hnf_mod", refuse)
    for O in orders:
        for ell in (11, 101):
            assert len(it.build_ideal_tree(O, ell, 1).level(1)) == ell + 1


def test_pullback_needs_a_row_prime_to_ell():
    """A basis inside ell Z^2 is no vertex: no row of it spans it mod its
    index, so no line form applies."""
    th = od.splitting_data(max_order(1, 1), 3, 2)
    for L in (((3, 0), (0, 3)), ((3, 6), (0, 3)), ((-3, 3), (3, 0))):
        with pytest.raises(PreconditionError, match="prime to 3"):
            od._pullback(th, L)
    # one cyclic row suffices, whichever row it is
    assert od._pullback(th, ((3, 0), (0, 1))) == od._pullback(
        th, ((0, 1), (3, 0))) == four_generator_pullback(th, ((3, 0), (0, 1)))


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


# sha256 of tree_to_dot plus each node's (depth, parent, children, local,
# ideal.order_coords) repr, frozen while children came from the index-ell
# sublattices of an honest local lattice with the imprimitive step filtered
# out; (a, b, level), ell, depth, seed.  2 and 3 divide the discriminant 6
# of (-1, 3), so its level-35 Eichler order is walked at 11.
IDEAL_TREE_DIGESTS = {
    ((-1, 3, 1), 5, 3, 0):
        "e9728921e5dba1c958081464ff946ae2b9e48e0437b1b20d4de56343d553b317",
    ((-2, 5, 1), 3, 3, 7):
        "c8f46499c3af4bc19893e2eb4be55b29a8721a6500e2364e3381f310b9664c04",
    ((-1, 3, 35), 11, 3, 0):
        "5d86fa4fd77016087ca044bd1dc1eabf2f83e946077499181490cb26e45ff569",
    ((-1, 7, 1), 13, 2, 0):
        "869e708f83961cb292aa9af7801a1611e3284a26e5b7e5c7f944d5a49b844b52",
    ((-1, 3, 1), 101, 1, 0):
        "d50415c3387968cfbb513debeee7314e7a849f47fb689e58d43c329caf2a0e7c",
    ((-1, 3, 1), 1009, 1, 0):
        "fb44e534cdea46d696c14fc892e736c0e8539c551d3026c1863df940556718d7",
    ((-1, 3, 35), 11, 2, 3):
        "d6b1e02974d1d9e69a547f458a9bdd8e4b97aa650eb535978bd95a27767e86b3",
}


@pytest.mark.parametrize("case,digest", IDEAL_TREE_DIGESTS.items(),
                         ids=[f"{a},{b};N={n};l={ell};depth={k};seed={s}"
                              for (a, b, n), ell, k, s in IDEAL_TREE_DIGESTS])
def test_ideal_tree_matches_the_frozen_digest(case, digest):
    (a, b, level), ell, depth, seed = case
    O = max_order(a, b)
    if level > 1:
        O = od.eichler_order(O, level)
    tr = it.build_ideal_tree(O, ell, depth, seed)
    h = hashlib.sha256(it.tree_to_dot(tr).encode())
    for n in tr.nodes:
        h.update(repr((n.depth, n.parent, n.children, n.local,
                       n.ideal.order_coords)).encode())
    assert h.hexdigest() == digest


def test_dot_export_is_stable_and_complete():
    tr = split_tree(2)
    dot = it.tree_to_dot(tr)
    assert dot == it.tree_to_dot(split_tree(2))
    assert dot.startswith("digraph")
    assert dot.count("->") == 9
    assert dot.count("label=") == 10
