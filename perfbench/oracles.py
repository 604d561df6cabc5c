"""Reference arithmetic the benchmark checks qmtree's answers against.

Nothing here imports qmtree.  Each check recomputes what it needs with its
own small routines (2x2 Hermite forms, elementary divisors, the Hilbert
symbol, a rational determinant), so a defect in the program cannot pass
through the program's own code on its way into the oracle.  A check raises
``WrongAnswer`` on a wrong result and returns ``None`` otherwise.

Tree vertices are handled as their literal strings ``"ell:[[a,b],[0,d]]"``
or as ``(a, b, d)`` keys of that canonical form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_VERTEX_RE = re.compile(r"^(\d+):\[\[(\d+),(\d+)\],\[0,(\d+)\]\]$")


class WrongAnswer(Exception):
    """An operation returned a result that its oracle rejects."""


def require(ok, what):
    if not ok:
        raise WrongAnswer(what)


# ---------------------------------------------------------------- integers

def valuation(n, p):
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_factors(n):
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    return n >= 2 and prime_factors(n) == [n]


def primes_between(lo, hi):
    return [n for n in range(lo, hi) if is_prime(n)]


def is_squarefree(n):
    return all(n % (p * p) for p in prime_factors(n))


def _legendre(u, p):
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert(a, b, p):
    """(a, b)_p for nonzero integers a, b and a prime p."""
    alpha, beta = valuation(a, p), valuation(b, p)
    u, v = a // p ** alpha, b // p ** beta
    if p == 2:
        e = (((u - 1) // 2) * ((v - 1) // 2)
             + alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8))
        return -1 if e % 2 else 1
    s = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if alpha % 2:
        s *= _legendre(v, p)
    if beta % 2:
        s *= _legendre(u, p)
    return s


def algebra_discriminant(a, b):
    """Product of the finite primes at which (a, b)_Q is ramified."""
    D = 1
    for p in prime_factors(2 * a * b):
        if hilbert(a, b, p) == -1:
            D *= p
    return D


# ---------------------------------------------------------------- orders

def _det(rows):
    M = [[Fraction(x) for x in row] for row in rows]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


def reduced_discriminant(a, b, basis):
    """Reduced discriminant of the lattice with these rows over (1, i, j, k).

    The trace form of (a, b) is diag(2, 2a, 2b, -2ab), so the Gram
    determinant is det(B)^2 * 16 a^2 b^2 and its square root 4|ab||det B|.
    """
    d = 4 * abs(a * b) * abs(_det(basis))
    require(d.denominator == 1, "reduced discriminant is not an integer")
    return int(d)


def check_order_discriminant(a, b, basis, want):
    got = reduced_discriminant(a, b, basis)
    require(got == want, f"reduced discriminant {got}, expected {want}")


def check_ideals_of_norm(order_basis, ideal_bases, ell):
    """ell + 1 distinct lattices, each of index ell^2 in the order."""
    require(len(ideal_bases) == ell + 1,
            f"{len(ideal_bases)} ideals of norm {ell}, expected {ell + 1}")
    require(len({tuple(map(tuple, B)) for B in ideal_bases}) == ell + 1,
            "ideals of norm ell repeat")
    vol = _det(order_basis)
    for B in ideal_bases:
        require(abs(_det(B) / vol) == ell * ell, "ideal norm is not ell")


# ---------------------------------------------------------------- the tree

def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def vertex_key(ell, rows):
    """Canonical (a, b, d) of the ell-adic class of the span of two rows."""
    (w, x), (y, z) = rows
    det = w * z - x * y
    require(det != 0, "singular lattice")
    m = ell ** (valuation(det, ell) + 1)
    # Hermite form of span(rows, m*Z^2): ((a, b), (0, d))
    a, b, d = 0, 0, m
    for r0, r1 in ((w, x), (y, z), (m, 0)):
        if r0 == 0:
            d = gcd(d, r1)
        elif a == 0:
            a, b = (r0, r1) if r0 > 0 else (-r0, -r1)
        else:
            g, s, t = _xgcd(a, r0)
            d = gcd(d, (a // g) * r1 - (r0 // g) * b)
            a, b = g, s * b + t * r1
    if a < 0:
        a, b = -a, -b
    b %= d
    while a % ell == 0 and b % ell == 0 and d % ell == 0:
        a, b, d = a // ell, b // ell, d // ell
    return a, b, d


def parse_vertex(lit):
    m = _VERTEX_RE.match(lit)
    require(m is not None, f"bad vertex literal {lit!r}")
    ell, a, b, d = (int(t) for t in m.groups())
    return ell, (a, b, d)


def vertex_literal(ell, key):
    a, b, d = key
    return f"{ell}:[[{a},{b}],[0,{d}]]"


def distance(ell, u, v):
    """Tree distance between keys: the gap of the elementary divisors of
    u times the adjugate of v."""
    ua, ub, ud = u
    va, vb, vd = v
    c00, c01, c11 = ua * vd, ub * va - ua * vb, ud * va
    e1 = gcd(gcd(c00, c01), c11)
    return valuation(c00 * c11 // e1, ell) - valuation(e1, ell)


def step(ell, key, t):
    """Neighbor number t (0 <= t <= ell) of a vertex."""
    a, b, d = key
    if t < ell:
        return vertex_key(ell, ((a, b + t * d), (0, ell * d)))
    return vertex_key(ell, ((0, d), (ell * a, ell * b)))


def check_geodesic(ell, u, v, path):
    require(path[0] == u and path[-1] == v, "geodesic has wrong endpoints")
    require(len(path) == distance(ell, u, v) + 1, "geodesic has wrong length")
    for x, y in zip(path, path[1:]):
        require(distance(ell, x, y) == 1, "geodesic steps are not edges")


def check_neighbors(ell, v, nbrs):
    require(len(set(nbrs)) == ell + 1, "wrong number of neighbors")
    for w in nbrs:
        require(vertex_key(ell, ((w[0], w[1]), (0, w[2]))) == w,
                "neighbor is not canonical")
        require(distance(ell, v, w) == 1, "neighbor is not adjacent")


def check_center(ell, S, kind, center):
    """The center radius law, from distances alone.

    With diameter D of S: for even D the center is the one vertex whose
    farthest point of S is at D/2; for odd D it is the one edge whose ends
    both have farthest point at (D+1)/2.  Both are unique in a tree.
    """
    diam = max(distance(ell, x, y) for x in S for y in S)

    def ecc(c):
        return max(distance(ell, c, s) for s in S)
    if diam % 2 == 0:
        require(kind == "vertex" and len(center) == 1, "center should be a vertex")
        require(ecc(center[0]) == diam // 2, "center radius is not D/2")
    else:
        require(kind == "edge" and len(center) == 2, "center should be an edge")
        u, w = center
        require(distance(ell, u, w) == 1, "center edge is not an edge")
        require(ecc(u) == ecc(w) == (diam + 1) // 2,
                "center edge ends are not at radius (D+1)/2")


def check_subtree(ell, S, nodes, edges):
    """The smallest subtree holding S: a tree (distinct tree edges, |E| =
    |V| - 1, connected) that contains S and whose leaves all lie in S."""
    require(len(set(nodes)) == len(nodes), "subtree repeats a vertex")
    require(set(S) <= set(nodes), "subtree misses a set vertex")
    require(len(edges) == len(nodes) - 1, "subtree has |E| != |V| - 1")
    require(len({frozenset(e) for e in edges}) == len(edges),
            "subtree repeats an edge")
    root = {v: v for v in nodes}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v
    degree = dict.fromkeys(nodes, 0)
    for u, w in edges:
        require(u in root and w in root, "edge leaves the subtree")
        require(distance(ell, u, w) == 1, "subtree edge is not an edge")
        root[find(u)] = find(w)
        degree[u] += 1
        degree[w] += 1
    require(len({find(v) for v in nodes}) == 1, "subtree is not connected")
    require(all(v in S for v, deg in degree.items() if deg <= 1),
            "subtree has a leaf outside the set")


# ---------------------------------------------------------------- transport

def random_gl2z(rng, bound):
    """A random element of GL2(Z): E(t) F(s) E(u) W^e with |t|, |s|, |u|
    below bound, E and F the elementary unipotents, W the swap."""
    t, s, u = (rng.randint(-bound, bound) for _ in range(3))
    g = ((1 + t * s, t + u + t * s * u), (s, 1 + s * u))
    if rng.randrange(2):
        g = (g[1], g[0])
    return g


def _mul(x, g):
    return tuple(sum(x[t] * g[t][j] for t in range(2)) for j in range(2))


def transport(ell, key, h):
    """The image of a vertex under the isometry x -> x g1 diag(1, ell^k) g2
    of the tree, given as h = (g1, k, g2)."""
    g1, k, g2 = h
    a, b, d = key
    rows = [_mul(r, g1) for r in ((a, b), (0, d))]
    rows = [_mul((x, y * ell ** k), g2) for x, y in rows]
    return vertex_key(ell, rows)


def random_isometry(rng, ell, max_k):
    k = rng.randint(1, max_k)
    bound = ell ** (k + 2)
    return random_gl2z(rng, bound), k, random_gl2z(rng, bound)


def transport_scenario(obj, rng, max_k=6):
    """A copy of a scenario JSON object moved by one random isometry per
    prime; the action is carried along literal by literal."""
    out = dict(obj)
    local = {}
    for prime, entry in obj.get("local", {}).items():
        ell = int(prime)
        h = random_isometry(rng, ell, max_k)

        def move(lit, ell=ell, h=h):
            return vertex_literal(ell, transport(ell, parse_vertex(lit)[1], h))
        local[prime] = {
            "vertices": [move(x) for x in entry["vertices"]],
            "action": {s: [move(x) for x in imgs]
                       for s, imgs in entry["action"].items()},
        }
    out["local"] = local
    return out


def descent_summary(report):
    """The parts of a descent report that an isometry must not change."""
    return report["N"], report["cocycle"], report["checks"]
