"""Trees of left ideals of ell-power norm, degree bookkeeping, and the
comparison with the lattice-class tree.

Nodes at depth k are the primitive left ideals of norm ell^k.  A child is
cut out of its parent by tightening the local row-lattice by one index-ell
step (skipping the step that falls inside ell times the standard lattice,
which would produce a non-primitive ideal); the root has ell+1 children and
every deeper node has ell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List, Optional, Tuple

from . import linalg as la
from .errors import InvariantError, PreconditionError, ResourceError
from .orders import (LeftIdeal, Order, SplittingData, eichler_level,
                     splitting_data)
from . import tree as bt

Mat2i = Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass
class IdealNode:
    ideal: LeftIdeal
    depth: int
    parent: Optional[int]
    children: Tuple[int, ...]
    local: Mat2i  # honest local row lattice, not just its class


@dataclass
class IdealTree:
    order: Order
    ell: int
    depth: int
    nodes: Tuple[IdealNode, ...]
    seed: int

    def level(self, k: int) -> List[int]:
        return [i for i, n in enumerate(self.nodes) if n.depth == k]


@dataclass(frozen=True)
class IsogenyDegree:
    """Degree data of the map attached to an ideal: norm n gives degree n^2,
    and a content of c means the map factors through multiplication by c."""

    norm: int
    content: int
    primitive_norm: int
    degree: int
    is_multiplication: bool


def isogeny_degree(I: LeftIdeal) -> IsogenyDegree:
    n = I.norm()
    c = la.content(I.order_coords())
    if n % (c * c) != 0:
        raise InvariantError("content does not divide the norm structure")
    n0 = n // (c * c)
    return IsogenyDegree(norm=n, content=c, primitive_norm=n0,
                         degree=n * n, is_multiplication=(n0 == 1))


def _local_lattice_coords(th: SplittingData, L: Mat2i) -> la.IntMatrix:
    """HNF over the order basis of the left ideal of everything whose image
    rows fall in L locally."""
    (a, b), (_, d) = L
    ell = th.ell
    if a * d >= th.modulus:
        raise PreconditionError("splitting precision too low for this depth")
    R = la.identity(4)
    for r in range(2):
        f1 = tuple(th.images[i][r][0] for i in range(4))
        R = la.congruence_sublattice(R, f1, a)
        f2 = tuple(a * th.images[i][r][1] - b * th.images[i][r][0]
                   for i in range(4))
        R = la.congruence_sublattice(R, f2, a * d)
    return R


def build_ideal_tree(order: Order, ell: int, depth: int,
                     seed: int = 0) -> IdealTree:
    """All primitive left ideals of norm ell^k for k <= depth, organized by
    inclusion.  Guarded at depth 3; the prime must avoid discriminant and
    level."""
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    if depth > 3:
        raise ResourceError(f"depth {depth} exceeds the tree guard (3)")
    D = order.algebra.discriminant()
    if (D * eichler_level(order)) % ell == 0:
        raise PreconditionError(
            f"{ell} divides the discriminant or the level")
    root_ideal = LeftIdeal(order, order.basis)
    nodes: List[IdealNode] = [IdealNode(root_ideal, 0, None, (),
                                        ((1, 0), (0, 1)))]
    # order coordinates of each node's ideal, in HNF
    coords: List[la.IntMatrix] = [la.identity(4)]
    # one splitting serves every level: a node at depth k needs its images
    # mod ell^k only, and lower precisions are reductions of this one
    th = splitting_data(order, ell, depth + 2, seed) if depth else None
    frontier = [0]
    for k in range(depth):
        nxt: List[int] = []
        for idx in frontier:
            node = nodes[idx]
            kept = [L for L in bt.index_ell_sublattices(node.local, ell)
                    if any(x % ell for row in L for x in row)]
            expect = ell + 1 if k == 0 else ell
            if len(kept) != expect:
                raise InvariantError("wrong number of primitive steps")
            children = []
            for L in kept:
                R = _local_lattice_coords(th, L)
                J = LeftIdeal.from_order_coords(order, R)
                if la.hnf_index(R) != ell ** (2 * k + 2):
                    raise InvariantError("child ideal has the wrong norm")
                if not node.ideal.order.contains_lattice(J.lattice):
                    raise InvariantError("child left the order")
                if (not all(la.lattice_contains(coords[idx], row) for row in R)
                        or la.hnf_index(R)
                        != la.hnf_index(coords[idx]) * ell * ell):
                    raise InvariantError("child is not an index-ell^2 step")
                if la.content(R) != 1:
                    raise InvariantError("child ideal is imprimitive")
                child = len(nodes)
                nodes.append(IdealNode(J, k + 1, idx, (), L))
                coords.append(R)
                children.append(child)
            node.children = tuple(children)
            nxt.extend(children)
        frontier = nxt
    return IdealTree(order, ell, depth, tuple(nodes), seed)


def verify_tree_isomorphism(tr: IdealTree, seed: int = 0) -> dict:
    """Compare the ideal tree with the abstract lattice-class tree:
    localizations must map level k bijectively onto the radius-k sphere and
    turn parent/child pairs into tree edges."""
    r = bt.root(tr.ell)
    th = splitting_data(tr.order, tr.ell, tr.depth + 1, seed)
    vertex_of: List[bt.TreeVertex] = []
    consistent = True
    for node in tr.nodes:
        v = bt._localize(node.ideal, th)
        vertex_of.append(v)
        if v != bt.canonicalize(tr.ell, node.local):
            consistent = False
    spheres_ok = True
    for k in range(tr.depth + 1):
        level = [vertex_of[i] for i in tr.level(k)]
        want = set(bt.sphere(r, k))
        if len(set(level)) != len(level) or set(level) != want:
            spheres_ok = False
    adjacency_ok = True
    for i, node in enumerate(tr.nodes):
        if node.parent is not None:
            if bt.distance(vertex_of[node.parent], vertex_of[i]) != 1:
                adjacency_ok = False
    ok = consistent and spheres_ok and adjacency_ok
    return {"localConsistent": consistent, "levelsMatchSpheres": spheres_ok,
            "parentChildAdjacent": adjacency_ok, "ok": ok}


def tree_to_dot(tr: IdealTree) -> str:
    """Deterministic DOT rendering (nodes in construction order)."""
    out = ["digraph ideal_tree {"]
    for i, node in enumerate(tr.nodes):
        (a, b), (_, d) = node.local
        out.append(f'  n{i} [label="norm={tr.ell}^{node.depth}'
                   f'\\n[[{a},{b}],[0,{d}]]"];')
    for i, node in enumerate(tr.nodes):
        for c in node.children:
            out.append(f"  n{i} -> n{c};")
    out.append("}")
    return "\n".join(out) + "\n"
