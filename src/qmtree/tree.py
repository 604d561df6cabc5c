"""The (ell+1)-regular tree of local lattice classes at a prime ell.

A vertex is a homothety class of rank-2 lattices over the ell-adic integers.
Every class has a unique primitive integer representative in row Hermite
form [[a, b], [0, d]] with a, d powers of ell and 0 <= b < d, which is what
TreeVertex stores; all tree operations reduce to exact integer matrix work
on these representatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import List, Tuple

from . import linalg as la
from .errors import (InvariantError, PreconditionError, RankError,
                     ValidationError)
from .orders import LeftIdeal, SplittingData, splitting_data, valuation
from .quaternion import is_prime

Mat2i = Tuple[Tuple[int, int], Tuple[int, int]]


# ---------------------------------------------------------------- vertices

@dataclass(frozen=True)
class TreeVertex:
    ell: int
    mat: Mat2i

    def key(self) -> Tuple[int, int, int]:
        return (self.mat[0][0], self.mat[0][1], self.mat[1][1])

    def __lt__(self, other: "TreeVertex"):
        # ((a, b), (0, d)) orders exactly as key() = (a, b, d)
        return self.mat < other.mat

    def __repr__(self):
        return format_vertex(self)


def format_vertex(v: TreeVertex) -> str:
    (a, b), (_, d) = v.mat
    return f"{v.ell}:[[{a},{b}],[0,{d}]]"


_VERTEX_RE = re.compile(
    r"^(\d+):\[\[(\d+),(\d+)\],\[0,(\d+)\]\]$")


def parse_vertex(s: str) -> TreeVertex:
    m = _VERTEX_RE.match(s.strip())
    if not m:
        raise ValidationError(f"bad vertex literal {s!r}")
    ell, a, b, d = (int(t) for t in m.groups())
    v = canonicalize(ell, ((a, b), (0, d)))
    if v.mat != ((a, b), (0, d)):
        raise ValidationError(f"vertex literal {s!r} is not in canonical form")
    return v


def _hnf2_rows(rows) -> Mat2i:
    # row HNF ((a,b),(0,d)) of the span of full-rank integer 2-column rows
    p = q = 0
    d = 0
    for x, y in rows:
        if x == 0:
            d = gcd(d, y)
            continue
        if p == 0:
            p, q = (x, y) if x > 0 else (-x, -y)
            continue
        g, s, t = la.xgcd(p, x)
        d = gcd(d, (p // g) * y - (x // g) * q)
        p, q = g, s * q + t * y
    if p == 0 or d == 0:
        raise RankError("lattice matrix is singular")
    return ((p, q % d), (0, d))


def canonicalize(ell: int, rows) -> TreeVertex:
    """The canonical representative of the lattice class of rowspan(rows).

    rows is a 2x2 matrix of integers or Fractions.  Scaling and changing
    basis leave the result unchanged; prime-to-ell structure is discarded by
    saturating with a large ell-power multiple of the standard lattice,
    which does not move the class at ell.
    """
    if not is_prime(ell):
        raise PreconditionError(f"{ell} is not a prime")
    try:
        (w, x), (y, z) = rows
    except (TypeError, ValueError):
        raise PreconditionError("need a 2x2 matrix") from None
    if not all(isinstance(t, int) for t in (w, x, y, z)):
        ((w, x), (y, z)), _ = la.clear_denominators(((w, x), (y, z)))
    dt = w * z - x * y
    if dt == 0:
        raise RankError("lattice matrix is singular")
    m = ell ** (valuation(dt, ell) + 1)
    (a, b), (_, d) = _hnf2_rows(((w, x), (y, z), (m, 0), (0, m)))
    while a % ell == 0 and b % ell == 0 and d % ell == 0:
        a //= ell
        b //= ell
        d //= ell
    v = TreeVertex(ell, ((a, b), (0, d)))
    _check_canonical(v)
    return v


def _check_canonical(v: TreeVertex) -> None:
    (a, b), (z, d) = v.mat
    ok = (z == 0 and a >= 1 and d >= 1 and 0 <= b < d
          and _is_ell_power(a, v.ell) and _is_ell_power(d, v.ell)
          and (a % v.ell or b % v.ell or d % v.ell))
    if not ok:
        raise InvariantError(f"non-canonical vertex matrix {v.mat}")


def _is_ell_power(n: int, ell: int) -> bool:
    while n % ell == 0:
        n //= ell
    return n == 1


def root(ell: int) -> TreeVertex:
    return canonicalize(ell, ((1, 0), (0, 1)))


def index_ell_sublattices(L: Mat2i, ell: int) -> List[Mat2i]:
    """Row HNF bases of the ell+1 index-ell sublattices of rowspan(L).

    L is in row HNF ((a, b), (0, d)).  Each sublattice is ell*L plus one
    line of L/ell*L: r1 + t*r2 for t = 0..ell-1, then r2, in that order.
    """
    (a, b), (_, d) = L
    out = [((a, (b + t * d) % (ell * d)), (0, ell * d)) for t in range(ell)]
    out.append(((ell * a, ell * b % d), (0, d)))
    return out


def neighbors(v: TreeVertex) -> Tuple[TreeVertex, ...]:
    """The ell+1 classes of index-ell sublattices, in key order."""
    ell = v.ell
    out = {canonicalize(ell, L) for L in index_ell_sublattices(v.mat, ell)}
    if len(out) != ell + 1:
        raise InvariantError("neighbor classes collided")
    return tuple(sorted(out))


def distance(u: TreeVertex, v: TreeVertex) -> int:
    """Gap between the two elementary divisor valuations of the relative
    position matrix; 0 exactly for equal classes."""
    if u.ell != v.ell:
        raise PreconditionError("vertices live at different primes")
    (ua, ub), (_, ud) = u.mat
    (va, vb), (_, vd) = v.mat
    # u.mat times the adjugate of v.mat is upper triangular
    c00 = ua * vd
    c01 = ub * va - ua * vb
    c11 = ud * va
    e1 = gcd(gcd(c00, c01), c11)
    e2 = abs(c00 * c11) // e1
    return valuation(e2, u.ell) - valuation(e1, u.ell)


def geodesic(u: TreeVertex, v: TreeVertex) -> Tuple[TreeVertex, ...]:
    """The unique path from u to v, endpoints included.

    Scale v by a power of ell to M inside u but not inside ell*u; then
    u/M is cyclic of order ell^d at ell and the path is [M + ell^i u] for
    i = 0..d (Serre, Trees, II.1).
    """
    d = distance(u, v)
    if d == 0:
        return (u,)
    ell = u.ell
    (ua, ub), (_, ud) = u.mat
    (va, vb), (_, vd) = v.mat
    # ell-part of the content of v.mat times the adjugate of u.mat
    e = ell ** valuation(gcd(gcd(va * ud, vb * ua - va * ub), vd * ua), ell)
    s = ua * ud // e
    M = tuple(tuple(s * x for x in row) for row in v.mat)
    path = [u]
    for i in range(1, d + 1):
        p = ell ** i
        path.append(canonicalize(ell, _hnf2_rows(
            M + ((p * ua, p * ub), (0, p * ud)))))
    if path[-1] != v:
        raise InvariantError("geodesic does not end at its target")
    return tuple(path)


def ball(center: TreeVertex, radius: int) -> List[TreeVertex]:
    """Breadth-first ball; vertices in (depth, key) order."""
    seen = {center}
    out = [center]
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for u in neighbors(w):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
    return out


def sphere(center: TreeVertex, radius: int) -> List[TreeVertex]:
    return [w for w in ball(center, radius) if distance(center, w) == radius]


# ---------------------------------------------------------------- ideals

def localize_ideal(I: LeftIdeal, ell: int, seed: int = 0) -> TreeVertex:
    """The vertex cut out by a left ideal at a split prime."""
    k = valuation(I.norm(), ell) + 1
    return _localize(I, splitting_data(I.order, ell, k, seed))


def _localize(I: LeftIdeal, th: SplittingData) -> TreeVertex:
    """The vertex of I under a splitting of I's order.

    The precision k must exceed the ell-valuation of the norm: the local
    lattice then contains ell^k times everything, so the row span of the
    images mod ell^k plus ell^k Z^2 is exact.  Splittings at different
    precisions from one seed are lifts of each other, so any such k gives
    the same vertex.
    """
    ell, k = th.ell, th.k
    H = I.order_coords()
    # [O : I] = nrd(I)^2
    if valuation(la.hnf_index(H), ell) >= 2 * k:
        raise PreconditionError("splitting precision too low for this ideal")
    rows = []
    for h in H:
        img = th.apply_coords(h)
        rows.append(img[0])
        rows.append(img[1])
    m = ell ** k
    rows.append((m, 0))
    rows.append((0, m))
    return canonicalize(ell, _hnf2_rows(rows))
