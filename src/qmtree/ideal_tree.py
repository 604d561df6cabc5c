"""Trees of left ideals of ell-power norm, and the comparison with the
lattice-class tree.

Nodes at depth k are the primitive left ideals of norm ell^k.  The tree is
walked on the lattice-class tree: a node's children are the ideals of its
vertex's neighbors other than its parent's, under one splitting of the
order (tree.ideal_of_vertex); the root has ell+1 children and every deeper
node has ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import linalg as la
from .errors import (AlgebraError, InvariantError, PreconditionError,
                     ResourceError)
from .orders import (LeftIdeal, Order, _check_tree_size, _int_coords,
                     eichler_level, splitting_data)
from .quaternion import is_prime
from . import tree as bt


@dataclass
class IdealNode:
    ideal: LeftIdeal
    depth: int
    parent: Optional[int]
    children: Tuple[int, ...]
    local: bt.Mat2i  # canonical matrix of the node's vertex


@dataclass
class IdealTree:
    order: Order
    ell: int
    depth: int
    nodes: Tuple[IdealNode, ...]
    seed: int

    def level(self, k: int) -> List[int]:
        return [i for i, n in enumerate(self.nodes) if n.depth == k]


def build_ideal_tree(order: Order, ell: int, depth: int,
                     seed: int = 0) -> IdealTree:
    """All primitive left ideals of norm ell^k for k <= depth, organized by
    inclusion.  Guarded at depth 3 and at orders._MAX_TREE_NODES nodes; the
    prime must avoid discriminant and level."""
    if not is_prime(ell):
        raise AlgebraError(f"{ell} is not a prime")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    if depth > 3:
        raise ResourceError(f"depth {depth} exceeds the tree guard (3)")
    _check_tree_size(ell, depth)
    D = order.algebra.discriminant()
    if (D * eichler_level(order)) % ell == 0:
        raise PreconditionError(
            f"{ell} divides the discriminant or the level")
    r = bt.root(ell)
    root = LeftIdeal.from_order_coords(order, la.identity(4))
    nodes = [IdealNode(root, 0, None, (), r.mat)]
    # one splitting serves every level: a node at depth k needs its images
    # mod ell^k only, and lower precisions are reductions of this one
    th = splitting_data(order, ell, depth, seed) if depth else None
    # (node index, its vertex, its parent's vertex)
    frontier = [(0, r, None)]
    for k in range(depth):
        nxt = []
        for idx, v, up in frontier:
            node = nodes[idx]
            ws = [w for w in bt.neighbors(v) if w != up]
            if len(ws) != (ell + 1 if k == 0 else ell):
                raise InvariantError("wrong number of children")
            children = []
            P = node.ideal.order_coords
            for w in ws:
                J = bt.ideal_of_vertex(th, w)
                R = J.order_coords
                if (any(_int_coords(P, row) is None for row in R)
                        or la.hnf_index(R) != la.hnf_index(P) * ell * ell):
                    raise InvariantError("child is not an index-ell^2 step")
                child = len(nodes)
                nodes.append(IdealNode(J, k + 1, idx, (), w.mat))
                children.append(child)
                nxt.append((child, w, v))
            node.children = tuple(children)
        frontier = nxt
    return IdealTree(order, ell, depth, tuple(nodes), seed)


def verify_tree_isomorphism(tr: IdealTree, seed: Optional[int] = None) -> dict:
    """Compare the ideal tree with the abstract lattice-class tree:
    localizations, under a splitting seeded as the tree's (or by seed), must
    give back each node's vertex, map level k bijectively onto the radius-k
    sphere and turn parent/child pairs into tree edges."""
    r = bt.root(tr.ell)
    th = splitting_data(tr.order, tr.ell, tr.depth + 1,
                        tr.seed if seed is None else seed)
    vertex_of: List[bt.TreeVertex] = []
    consistent = True
    for node in tr.nodes:
        v = bt._localize(node.ideal, th)
        vertex_of.append(v)
        if v.mat != node.local:
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
