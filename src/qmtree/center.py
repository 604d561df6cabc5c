"""Centers and spanned subtrees of finite vertex sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .errors import PreconditionError
from .tree import TreeVertex, distance, geodesic


@dataclass(frozen=True)
class Center:
    """Either one vertex (kind "vertex") or a closest pair (kind "edge")."""

    kind: str
    vertices: Tuple[TreeVertex, ...]

    def is_edge(self) -> bool:
        return self.kind == "edge"


def _center_of_pair(u: TreeVertex, v: TreeVertex) -> Center:
    g = geodesic(u, v)
    d = len(g) - 1
    if d % 2 == 0:
        return Center("vertex", (g[d // 2],))
    lo, hi = g[(d - 1) // 2], g[(d + 1) // 2]
    if hi < lo:
        lo, hi = hi, lo
    return Center("edge", (lo, hi))


def tree_center(vertices: Iterable[TreeVertex]) -> Center:
    """Midpoint of a diametral pair of the set.

    The pair comes from a double sweep: the member farthest from any
    member, then the member farthest from that one.  In a tree this pair is
    diametral, and all diametral pairs share their midpoint.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise PreconditionError("center of an empty set")
    a = max(vs, key=lambda w: distance(vs[0], w))
    b = max(vs, key=lambda w: distance(a, w))
    return _center_of_pair(a, b)


@dataclass(frozen=True)
class Subtree:
    vertices: Tuple[TreeVertex, ...]
    edges: Tuple[Tuple[TreeVertex, TreeVertex], ...]


def spanned_subtree(vertices: Iterable[TreeVertex]) -> Subtree:
    """Smallest connected subtree containing the set: the union of the
    geodesics from one member to all the others."""
    vs = sorted(set(vertices))
    if not vs:
        raise PreconditionError("span of an empty set")
    # one object per vertex, shared by the node list and the edges
    node = {v: v for v in vs}
    edges = set()
    for v in vs[1:]:
        path = [node.setdefault(w, w) for w in geodesic(vs[0], v)]
        edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return Subtree(tuple(sorted(node)), tuple(sorted(edges)))
