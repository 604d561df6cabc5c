"""The (ell+1)-regular tree of local lattice classes at a prime ell.

A vertex is a homothety class of rank-2 lattices over the ell-adic integers.
Every class has a unique primitive integer representative in row Hermite
form [[a, b], [0, d]] with a, d powers of ell and 0 <= b < d; all tree
operations reduce to exact integer matrix work on these representatives.

TreeVertex is a named tuple (ell, mat) of that prime and representative, so
building, comparing and hashing vertices runs in C.  A vertex equals, and
hashes like, the plain tuple (ell, mat); tuples order by ell first, and
vertices of one prime order as their key() (a, b, d).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from math import gcd
from typing import List, NamedTuple, Tuple

from . import linalg as la
from .errors import (InvariantError, PreconditionError, RankError,
                     ResourceError, ValidationError)
from .orders import (LeftIdeal, SplittingData, _check_line_count,
                     _pullback, splitting_data, valuation)
from .quaternion import is_prime

Mat2i = Tuple[Tuple[int, int], Tuple[int, int]]

# longest path geodesic builds: step i works with ell^i-sized entries, so a
# path of length d costs about d^2 digit operations
_MAX_PATH = 2048


# ---------------------------------------------------------------- vertices

class TreeVertex(NamedTuple):
    ell: int
    mat: Mat2i

    def key(self) -> Tuple[int, int, int]:
        return (self.mat[0][0], self.mat[0][1], self.mat[1][1])

    def __repr__(self):
        return format_vertex(self)


def format_vertex(v: TreeVertex) -> str:
    (a, b), (_, d) = v.mat
    return f"{v.ell}:[[{a},{b}],[0,{d}]]"


_VERTEX_RE = re.compile(
    r"^(\d+):\[\[(\d+),(\d+)\],\[0,(\d+)\]\]$")


def parse_vertex(s: str) -> TreeVertex:
    m = _VERTEX_RE.match(s.strip()) if isinstance(s, str) else None
    if not m:
        raise ValidationError(f"bad vertex literal {s!r}")
    try:
        ell, a, b, d = (int(t) for t in m.groups())
    except ValueError:  # past the interpreter's int digit limit
        raise ValidationError(
            f"bad vertex literal {s[:40]}...: number too long") from None
    try:
        v = canonicalize(ell, ((a, b), (0, d)))
    except (PreconditionError, RankError) as exc:
        raise ValidationError(f"bad vertex literal {s!r}: {exc}") from None
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
    _check_prime(ell)
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
    return _reduce(ell, _hnf2_rows(((w, x), (y, z), (m, 0), (0, m))))


@lru_cache(maxsize=64)
def _check_prime(ell: int) -> None:
    # cached, so each prime pays for its Miller-Rabin test once
    if not is_prime(ell):
        raise PreconditionError(f"{ell} is not a prime")


def _reduce(ell: int, H: Mat2i) -> TreeVertex:
    """The vertex of rowspan(H), for a row HNF H = ((a, b), (0, d)) whose
    a and d are powers of ell.

    Such a lattice already contains a*d*Z^2, so saturating it with an
    ell-power multiple of Z^2, as canonicalize does, leaves H as it is;
    what remains is to divide out ell while it divides every entry.
    """
    (a, b), (_, d) = H
    while a % ell == 0 and b % ell == 0 and d % ell == 0:
        a //= ell
        b //= ell
        d //= ell
    mat = ((a, b), (0, d))
    if not _is_canonical(ell, mat):
        raise InvariantError(f"non-canonical vertex matrix {mat}")
    return TreeVertex(ell, mat)


def _is_canonical(ell: int, mat) -> bool:
    """mat is ((a, b), (0, d)) in integers, a and d powers of ell, 0 <= b <
    d, and ell does not divide all of a, b and d."""
    try:
        (a, b), (z, d) = mat
    except (TypeError, ValueError):
        return False
    # for a, d >= 1 both are ell-powers exactly when a*d is
    return (type(a) is type(b) is type(z) is type(d) is int
            and z == 0 and a >= 1 and d >= 1 and 0 <= b < d
            and _is_ell_power(a * d, ell)
            and (a % ell or b % ell or d % ell) != 0)


def _is_ell_power(n: int, ell: int) -> bool:
    while n % ell == 0:
        n //= ell
    return n == 1


def _check_vertex(v: TreeVertex) -> None:
    """PreconditionError for a composite v.ell, then for a v.mat that is not
    canonical (hand-built, say with b >= d or ell dividing every entry)."""
    _check_prime(v.ell)
    if not _is_canonical(v.ell, v.mat):
        raise PreconditionError(f"non-canonical vertex matrix {v.mat} "
                                f"at {v.ell}")


def root(ell: int) -> TreeVertex:
    _check_prime(ell)
    return TreeVertex(ell, ((1, 0), (0, 1)))


def neighbors(v: TreeVertex) -> Tuple[TreeVertex, ...]:
    """The ell+1 vertices next to v, in key order.

    They are the classes of the index-ell sublattices of v's lattice
    (Serre, Trees, II.1), in closed form for v = ((a, b), (0, d)): the
    lines r1 + t*r2, t < ell, give ((a, b + t*d), (0, ell*d)), already in
    HNF as b < d, and the line r2 gives ((ell*a, ell*b mod d), (0, d)).
    Exactly one of these lattices is divisible by ell: the r2 one (the
    parent) when d > 1, the t = 0 one when d = 1 and ell | a, and none at
    the root.  Only that lattice and the r2 one go through _reduce.

    Raises PreconditionError for a composite ell and then for a v that is
    not canonical (_check_vertex); an ell above orders._MAX_ELL raises
    ResourceError.
    """
    ell = v.ell
    _check_vertex(v)
    _check_line_count(ell)
    (a, b), (_, d) = v.mat
    # v's canonicity gives every child ((a, c), (0, ell*d)), c = b + t*d,
    # its own: a and ell*d are ell-powers and 0 <= c < ell*d as b < d.  As
    # ell | ell*d, a child is imprimitive only if ell | a and ell | c.  When
    # ell | a, v is primitive, so either d > 1, ell | d and ell does not
    # divide b = c mod ell, or d = 1, b = 0 and c = t: only t = 0 is
    # imprimitive, and it is reduced with the r2 lattice below.  The
    # children's keys (a, c, ell*d) increase with c.
    row = (0, ell * d)
    skip = d == 1 and a % ell == 0
    # tuple.__new__ skips the Python-level __new__ of the named tuple
    new = tuple.__new__
    out = [new(TreeVertex, (ell, ((a, c), row)))
           for c in range(b + d if skip else b, ell * d, d)]
    special = [_reduce(ell, ((ell * a, ell * b % d), (0, d)))]
    if skip:
        special.append(_reduce(ell, ((a, b), row)))
    # one prime: tuple order is key order
    for w in special:
        i = bisect_left(out, w)
        if out[i:i + 1] != [w]:
            out.insert(i, w)
    if len(out) != ell + 1:
        raise InvariantError("neighbor classes collided")
    return tuple(out)


def distance(u: TreeVertex, v: TreeVertex) -> int:
    """Gap between the two elementary divisor valuations of the relative
    position matrix; 0 exactly for equal classes.  Unchecked, as it runs in
    inner loops: canonical vertices are the caller's invariant."""
    if u.ell != v.ell:
        raise PreconditionError("vertices live at different primes")
    _check_prime(u.ell)
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
    i = 0..d (Serre, Trees, II.1).  A non-canonical endpoint raises
    PreconditionError, and paths longer than _MAX_PATH raise ResourceError.
    """
    _check_vertex(u)
    _check_vertex(v)
    return _geodesic(u, v)


def _geodesic(u: TreeVertex, v: TreeVertex) -> Tuple[TreeVertex, ...]:
    """geodesic for endpoints the caller has put through _check_vertex."""
    ell = u.ell
    d = distance(u, v)
    if d > _MAX_PATH:
        raise ResourceError(
            f"geodesic at {ell} of length {d} exceeds {_MAX_PATH} steps")
    if d == 0:
        return (u,)
    (ua, ub), (_, ud) = u.mat
    (va, vb), (_, vd) = v.mat
    # ell-part of the content of v.mat times the adjugate of u.mat
    e = ell ** valuation(gcd(gcd(va * ud, vb * ua - va * ub), vd * ua), ell)
    s = ua * ud // e
    M = tuple(tuple(s * x for x in row) for row in v.mat)
    path = [u]
    for i in range(1, d + 1):
        # M + ell^i u contains ell^i*ua*ud*Z^2: its HNF has an ell-power
        # diagonal
        p = ell ** i
        path.append(_reduce(ell, _hnf2_rows(
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
    """The vertex cut out by a left ideal at a split prime; ideal_of_vertex
    goes back."""
    _check_prime(ell)
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
    _check_prime(ell)
    H = I.order_coords
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
    # the rows contain ell^k*Z^2, so the HNF has an ell-power diagonal
    return _reduce(ell, _hnf2_rows(rows))


def ideal_of_vertex(th: SplittingData, v: TreeVertex) -> LeftIdeal:
    """The primitive left ideal {x in O : the rows of theta(x) lie in v's
    lattice} of th's order O, of norm ell^n for v at distance n from the
    root; _localize under th maps it back to v.

    A v that fails _check_vertex, or lies deeper than the precision th.k,
    raises PreconditionError.
    """
    _check_vertex(v)
    (a, _), (_, d) = v.mat
    R = _pullback(th, v.mat)
    # [O : I] = nrd(I)^2 and nrd(I) = det(v.mat)
    if la.hnf_index(R) != (a * d) ** 2:
        raise InvariantError("ideal of the vertex has the wrong norm")
    if la.content(R) != 1:
        raise InvariantError("ideal of the vertex is imprimitive")
    return LeftIdeal.from_order_coords(th.order, R)
