"""Orders and one-sided ideals in rational quaternion algebras.

Lattices are full-rank rows over the ambient basis (1, i, j, k).  An order is
stored as (B, d), B an integer HNF and d the least denominator of basis = B/d,
and a left ideal as its integer HNF over its order, so equality of objects is
equality of lattices; rational bases are derived on first read.  With D =
den(a) den(b), the scaled product D (x y) of integer rows is integral, so the
multiplication table, the trace and norm forms and the order check are
exact integer back-substitutions over B, products inside an order run on
integer coordinates through the table, and an order built over another is
hnf(R B) over den d.  Each maximalization step is the left order of one
two-sided ideal, read off one kernel mod ell.  Left ideals come from an
explicit local splitting O (x) Z_ell ~ M2(Z_ell): a local lattice of index
ell^k is cyclic mod ell^k, spanned there by any of its rows with an entry
prime to ell, so it pulls back to ell^k O plus the plane of preimages of
the two matrices with that row as one row and 0 as the other.  At index ell
(the ell + 1 norm-ell ideals, the tree's depth-1 vertices) the Hermite
form is the plane's reduced echelon form mod ell, read off in closed form;
above it, one elimination mod ell^k (hnf_mod).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd, isqrt
from operator import mul
from typing import Dict, List, Sequence, Tuple

from . import linalg as la
from .errors import (AlgebraError, InvariantError, PreconditionError,
                     RankError, ResourceError, ValidationError)
from .quaternion import (QuatElement, QuaternionAlgebra, _legendre, factorize,
                         is_prime, sqrt_mod)

Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]

# largest ell whose ell + 1 lines mod ell are enumerated (norm-ell ideals,
# tree neighbors, ideal-tree children); time and memory grow linearly in ell
_MAX_ELL = 2 ** 14
# most nodes an ideal tree may have; every depth-1 tree within _MAX_ELL fits
_MAX_TREE_NODES = 2 ** 14


def _check_line_count(ell: int) -> None:
    if ell > _MAX_ELL:
        raise ResourceError(
            f"{ell} + 1 lines exceed the enumeration guard ({_MAX_ELL})")


def _check_tree_size(ell: int, depth: int) -> None:
    size = 1 + (ell + 1) * (ell ** depth - 1) // (ell - 1)
    if size > _MAX_TREE_NODES:
        raise ResourceError(
            f"{size} nodes exceed the ideal-tree guard ({_MAX_TREE_NODES})")


def valuation(n: int, ell: int) -> int:
    if ell < 2:
        raise PreconditionError(f"valuation at {ell}: the base must be at "
                                "least 2")
    n = abs(int(n))
    if n == 0:
        raise PreconditionError("valuation of 0")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for _, e in factorize(n))


# ---------------------------------------------------------------- orders

@dataclass(frozen=True)
class Order:
    """A full-rank lattice stored as cleared = (B, d), B its integer HNF,
    d >= 1 and gcd(content(B), d) = 1, so basis = B/d.  Order(A, rows)
    canonicalizes ambient rows, order.over(R, den) integer coordinates; the
    order check is order_diagnostics / validate."""

    algebra: QuaternionAlgebra
    cleared: Tuple[la.IntMatrix, int]

    def __init__(self, algebra: QuaternionAlgebra, rows):
        if not rows or any(len(r) != 4 for r in rows):
            raise RankError("an order basis needs rows of 4 entries")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "cleared",
                           la.clear_denominators(la.lattice_canonical(rows)))

    def over(self, R, den: int = 1) -> "Order":
        """The lattice with coordinates R/den over this basis, R an integer
        generating matrix: (hnf(R B)/g, den d/g), g = gcd(content, den d)."""
        B, d = self.cleared
        H = la.hnf_basis(la.mat_mul(R, B))
        g = gcd(la.content(H), den * d)
        O = object.__new__(Order)
        object.__setattr__(O, "algebra", self.algebra)
        object.__setattr__(O, "cleared", (tuple(tuple(x // g for x in row)
                                                for row in H), den * d // g))
        return O

    @cached_property
    def basis(self) -> la.RatMatrix:
        """The canonical ambient basis B/d."""
        B, d = self.cleared
        return tuple(tuple(Fraction(x, d) for x in row) for row in B)

    def elements(self) -> Tuple[QuatElement, ...]:
        return tuple(self.algebra.element(*r) for r in self.basis)

    def coords(self, x: QuatElement):
        """Coordinates of x over the order basis (Fractions)."""
        return tuple(la.triangular_coords(self.basis, x.coeffs))

    def validate(self) -> None:
        bad = _diagnose(self)
        if bad:
            raise InvariantError("not an order: " + "; ".join(bad))

    def __repr__(self):
        # no computation: the lattice need not be an order
        rows = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.basis)
        return f"Order({self.algebra!r}, [{rows}])"


def order_diagnostics(A: QuaternionAlgebra, rows) -> List[str]:
    """Reasons rows fail to span an order (empty list means none)."""
    try:
        return _diagnose(Order(A, rows))
    except RankError:
        return ["basis is not full rank"]


def _diagnose(order: Order) -> List[str]:
    B, d = order.cleared
    k = _scaled_constants(order.algebra)
    out = []
    if _int_coords(B, (d, 0, 0, 0)) is None:
        out.append("1 is not in the lattice")
    try:
        _mult_table(order)
    except InvariantError:
        out.append("not closed under multiplication")
    if any(2 * x[0] % d or _int_pair(k, x, x) % (k[0] * d * d) for x in B):
        out.append("basis element with non-integral trace or norm")
    return out


def standard_order(A: QuaternionAlgebra) -> Order:
    """Z<1, s*i, t*j, st*k> with s, t clearing the structure constants."""
    s = Fraction(A.a).denominator
    t = Fraction(A.b).denominator
    rows = ((1, 0, 0, 0), (0, s, 0, 0), (0, 0, t, 0), (0, 0, 0, s * t))
    O = Order(A, rows)
    O.validate()
    return O


@lru_cache(maxsize=256)
def reduced_discriminant(order: Order) -> int:
    """Positive d with d^2 = |det trd(e_i e_j)|; InvariantError otherwise."""
    d2 = int(abs(la.det(_trace_pairing(_trace_norm_form(order)))))
    r = isqrt(d2)
    if r * r != d2:
        raise InvariantError(f"trace pairing determinant {d2} is not a square")
    return r


def _scaled_constants(A: QuaternionAlgebra) -> Tuple[int, int, int, int]:
    """(D, D a, D b, D a b) with D = den(a) den(b), all integers."""
    a, b = A.a, A.b
    return (a.denominator * b.denominator, a.numerator * b.denominator,
            b.numerator * a.denominator, a.numerator * b.numerator)


def _int_mul(k, x, y) -> Tuple[int, ...]:
    """D (x y) for integer ambient rows x, y: integral, k = (D, Da, Db, Dab)
    being the scaled structure constants."""
    D, Da, Db, Dab = k
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (D * x0 * y0 + Da * x1 * y1 + Db * x2 * y2 - Dab * x3 * y3,
            D * (x0 * y1 + x1 * y0) - Db * (x2 * y3 - x3 * y2),
            D * (x0 * y2 + x2 * y0) + Da * (x1 * y3 - x3 * y1),
            D * (x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1))


def _int_pair(k, x, y) -> int:
    """D (x0 y0 - a x1 y1 - b x2 y2 + a b x3 y3) for integer ambient rows:
    D nrd(x) at y = x, and D trd(x y^*) / 2 in general."""
    D, Da, Db, Dab = k
    return (D * x[0] * y[0] - Da * x[1] * y[1] - Db * x[2] * y[2]
            + Dab * x[3] * y[3])


def _int_coords(L, v) -> Tuple[int, ...] | None:
    """The integer coordinates of v over the integer triangular 4x4 basis L,
    or None as soon as one division is not exact: back-substitution in Z,
    unrolled, as this runs once per entry of every multiplication table."""
    ((p0, a01, a02, a03), (z10, p1, a12, a13),
     (z20, z21, p2, a23), (z30, z31, z32, p3)) = L
    if not (p0 and p1 and p2 and p3) or z10 or z20 or z21 or z30 or z31 or z32:
        raise PreconditionError("basis is not upper triangular")
    v0, v1, v2, v3 = v
    x0, r = divmod(v0, p0)
    if r:
        return None
    x1, r = divmod(v1 - x0 * a01, p1)
    if r:
        return None
    x2, r = divmod(v2 - x0 * a02 - x1 * a12, p2)
    if r:
        return None
    x3, r = divmod(v3 - x0 * a03 - x1 * a13 - x2 * a23, p3)
    if r:
        return None
    return x0, x1, x2, x3


def _mult_table(order: Order) -> Tuple[la.IntMatrix, ...]:
    """T with row j of T[t] = order coordinates of e_t * e_j: the order's
    integer structure constants.

    With (B, d) = order.cleared, e_t e_j = D (B_t B_j) / (D d^2), so its
    coordinates c solve c (D d B) = D (B_t B_j) in integers; a division that
    is not exact means the lattice is not closed (InvariantError)."""
    B, d = order.cleared
    k = _scaled_constants(order.algebra)
    L = la.mat_scale(k[0] * d, B)
    out = []
    for x in B:
        rows = []
        for y in B:
            c = _int_coords(L, _int_mul(k, x, y))
            if c is None:
                raise InvariantError("lattice is not multiplicatively closed")
            rows.append(c)
        out.append(tuple(rows))
    return tuple(out)


def _mul(T, x, y, m: int = 0) -> Tuple[int, ...]:
    """Order coordinates of the product of the elements with order
    coordinates x and y, through the table T; reduced mod m if m."""
    out = [0, 0, 0, 0]
    for xt, Mt in zip(x, T):
        if xt:
            for yj, row in zip(y, Mt):
                c = xt * yj
                if c:
                    for s in range(4):
                        out[s] += c * row[s]
    return tuple(v % m for v in out) if m else tuple(out)


def _unit_coords(order: Order) -> Tuple[int, ...]:
    """Order coordinates of 1 = (d, 0, 0, 0)/d."""
    B, d = order.cleared
    one = _int_coords(B, (d, 0, 0, 0))
    if one is None:
        raise InvariantError("1 is not in the order")
    return one


# ------------------------------------------------------- lattice orders

def _stack_blocks(blocks) -> la.RatMatrix:
    return tuple(tuple(x for blk in blocks for x in blk[r])
                 for r in range(len(blocks[0])))


def lattice_left_order(A: QuaternionAlgebra, rows) -> Order:
    """{x : x L <= L} for the full lattice L spanned by rows."""
    L = la.lattice_canonical(rows)
    amb = A.basis()
    blocks = []
    for g_row in L:
        g = A.element(*g_row)
        # row r = coordinates over L of e_r * g
        blocks.append(tuple(tuple(la.triangular_coords(L, (e * g).coeffs))
                            for e in amb))
    return Order(A, la.integrality_lattice(_stack_blocks(blocks)))


# ------------------------------------------------------- maximalization

def _trace_norm_form(order: Order):
    """Integer coefficients (t, q) of trd and nrd over the order basis.

    x = sum c_i e_i has trd(x) = sum t_i c_i and nrd(x) = sum over i <= j
    of q[i, j] c_i c_j, with q[i, i] = nrd(e_i) and q[i, j] = trd(e_i e_j^*).
    Over (B, d) = order.cleared, t_i = 2 B_i0 / d and q[i, j] is the polar
    form of B_i and B_j over D d^2; InvariantError if one is not integral.
    """
    B, d = order.cleared
    k = _scaled_constants(order.algebra)
    s = k[0] * d * d
    t = tuple(_integral(2 * x[0], d) for x in B)
    q = {(i, j): _integral((1 if i == j else 2) * _int_pair(k, B[i], B[j]), s)
         for i in range(4) for j in range(i, 4)}
    return t, q


def _integral(n: int, m: int) -> int:
    if n % m:
        raise InvariantError("non-integral trace pairing")
    return n // m


def _char_poly(form, c) -> Tuple[int, int]:
    """(trd, nrd) of the element with order coordinates c."""
    t, q = form
    return (sum(ti * ci for ti, ci in zip(t, c)),
            sum(qij * c[i] * c[j] for (i, j), qij in q.items()))


def _trace_pairing(form) -> la.IntMatrix:
    """trd(e_i e_j) = t_i t_j - trd(e_i e_j^*) over the order basis."""
    t, q = form
    return tuple(tuple(t[i] * t[j] - (2 * q[i, i] if i == j
                                      else q[min(i, j), max(i, j)])
                       for j in range(4)) for i in range(4))


def radical_coords(order: Order, ell: int) -> List[Tuple[int, ...]]:
    """Order-coordinate vectors, a basis over F_ell of the radical of O/(ell):
    the kernel of nrd mod ell on the kernel K of the trace pairing.  On K the
    polar form trd(x y^*) = trd(x) trd(y) - trd(x y) of nrd vanishes, so nrd
    is additive, x is a unit if nrd(x) is, and x is quasi-regular, nrd(1 - a
    x) = 1 for every a, if nrd(x) = 0.  At odd ell, 2 nrd(x) = trd(x)^2 -
    trd(x^2) vanishes on K, which is then the radical itself."""
    return _radical(_trace_norm_form(order), ell)


def _radical(form, ell: int) -> List[Tuple[int, ...]]:
    K = la.kernel_mod_p(_trace_pairing(form), ell)
    n = [_char_poly(form, x)[1] % ell for x in K]
    if not any(n):
        return K
    # ell = 2, where nrd is F_2-linear on K: its kernel is spanned by the
    # x + nrd(x) y for y one vector of K with odd norm
    y = K[n.index(1)]
    return [tuple((a + m * b) % 2 for a, b in zip(x, y))
            for x, m in zip(K, n) if x != y]


def radical_lattice(order: Order, ell: int) -> la.RatMatrix:
    """ell*O + (lift of the radical of O/ell O), as an ambient lattice."""
    return order.over([*la.mat_scale(ell, la.identity(4)),
                       *radical_coords(order, ell)]).basis


def _idealizer(T, gens, ell: int) -> la.IntMatrix | None:
    """HNF over O's basis of ell O_L(M), M = ell O + span(gens) a right ideal
    of the order with table T that must be two-sided (else InvariantError),
    or None when O_L(M) = O: as ell O <= M, ell O_L(M) = {c in O : c M <=
    ell M}, ell O plus the lifts of the kernel of c -> (coordinates of c h
    over M's HNF, h in M's basis) mod ell."""
    # M is ell O alone when gens is empty
    H = la.hnf_mod(gens or [(0, 0, 0, 0)], ell, ell)
    cols = []
    for g in la.identity(4):
        col = []
        for h in H:
            c = _int_coords(H, _mul(T, g, h))
            if c is None:
                raise InvariantError(f"the ideal at {ell} is not two-sided")
            col += c
        cols.append(col)
    K = la.kernel_mod_p(la.transpose(cols), ell)
    return la.hnf_mod(K, ell, ell) if K else None


def _split_char_roots(t: int, n: int, ell: int):
    """Distinct roots of T^2 - tT + n mod ell in increasing order, or None.

    Odd ell: they exist iff the discriminant t^2 - 4n is a nonzero square,
    and are (t +- sqrt)/2.
    """
    if ell == 2:
        roots = tuple(r for r in (0, 1) if (r * r - t * r + n) % 2 == 0)
        return roots if len(roots) == 2 else None
    disc = (t * t - 4 * n) % ell
    if disc == 0 or _legendre(disc, ell) != 1:
        return None
    w = sqrt_mod(disc, ell)
    half = (ell + 1) // 2
    return tuple(sorted(((t + w) * half % ell, (t - w) * half % ell)))


def _split_basis_vector(form, ell: int):
    """(c, (r, s)): c the coordinates of the last basis vector with distinct
    char roots r < s mod ell.  In an order Eichler of level ell at ell, x is
    split iff its diagonal entries mod ell differ, a linear condition, so c
    is the lexicographically first split element of [0, ell)^4."""
    t, q = form
    for i in (3, 2, 1, 0):
        roots = _split_char_roots(t[i], q[i, i], ell)
        if roots is not None:
            return tuple(int(j == i) for j in range(4)), roots
    raise InvariantError(f"no basis element splits at {ell}")


def _split_idempotent(T, one, c, roots, ell: int, k: int) -> Tuple[int, ...]:
    """Order coordinates mod ell^k of an idempotent lifting (x - s)/(r - s)
    for the split element x with coordinates c and char roots (r, s), given
    the table T and the coordinates one of 1: the Hensel step
    e -> 3e^2 - 2e^3 doubles the precision."""
    r, s = roots
    mod = ell ** k
    inv = pow(r - s, -1, ell)
    e = tuple((ci - s * u) * inv % ell for ci, u in zip(c, one))
    prec = 1
    while prec < k:
        e2 = _mul(T, e, e, mod)
        e = tuple((3 * a - 2 * b) % mod
                  for a, b in zip(e2, _mul(T, e2, e, mod)))
        prec *= 2
    if _mul(T, e, e, mod) != e:
        raise InvariantError(f"idempotent lift failed mod {ell}^{k}")
    return e


def _climb(order: Order, ell: int, v: int) -> Tuple[Order, int]:
    """The next order O' up at ell from O, and v_ell(d(O')), for v =
    v_ell(d(O)) above its maximal value: O' = O_L(M), M = J = ell O +
    rad(O/ell O) at v > 1, where O is not hereditary at ell.  At v = 1 ell
    is split and O, of index ell in a maximal order, is Eichler of level
    ell at ell: O_L(J) = O, and the maximal orders over O are the left
    orders O + (1/ell) e O (1 - e) of the maximal two-sided ideals J + e O,
    e idempotent.  M = J + (c - s) O, c from _split_basis_vector, is J + e O
    for e lifting (c - s)/(r - s)."""
    T, form = _mult_table(order), _trace_norm_form(order)
    gens = _radical(form, ell)
    if v == 1:
        c, (_, s) = _split_basis_vector(form, ell)
        x = tuple(ci - s * u for ci, u in zip(c, _unit_coords(order)))
        gens += [_mul(T, x, g) for g in la.identity(4)]
    S = _idealizer(T, gens, ell)
    if S is None:
        raise InvariantError(f"maximalization stalled at {ell} with "
                             f"discriminant valuation {v}")
    # ell O' has HNF S over O, so [O' : O] = ell^4 / det S, and d(O) =
    # d(O') [O' : O]
    return order.over(S, ell), v - 4 + valuation(la.hnf_index(S), ell)


def maximalize_at(order: Order, ell: int) -> Order:
    """Enlarge by _climb until v_ell(d) is 1 (ramified) or 0 (split).  The
    valuation is read off d once and then carried by _climb."""
    target = 1 if order.algebra.is_ramified_at(ell) else 0
    v = valuation(reduced_discriminant(order), ell)
    while v != target:
        if v < target:
            raise InvariantError("discriminant below the ramified floor")
        order, v = _climb(order, ell, v)
    return order


def maximal_order(A: QuaternionAlgebra) -> Order:
    """A maximal order, deterministically: maximalize the standard order
    prime by prime.  Ends with reduced discriminant equal to the algebra's."""
    O = standard_order(A)
    for ell, _ in factorize(reduced_discriminant(O)):
        O = maximalize_at(O, ell)
    if reduced_discriminant(O) != A.discriminant():
        raise InvariantError("maximalization did not reach the discriminant")
    return O


# ------------------------------------------------------- local splittings

@dataclass(frozen=True)
class SplittingData:
    """An isomorphism O (x) Z/ell^k ~ M2(Z/ell^k), stored as the images of
    the order basis."""

    order: Order
    ell: int
    k: int
    images: Tuple[Mat2, Mat2, Mat2, Mat2]
    inverse: Tuple[Tuple[int, ...], ...]  # theta^-1 of E00, E01, E10, E11

    @property
    def modulus(self) -> int:
        return self.ell ** self.k

    def apply_coords(self, coords: Sequence[int]) -> Mat2:
        m = self.modulus
        acc = [[0, 0], [0, 0]]
        for t, img in zip(coords, self.images):
            for r in range(2):
                for s in range(2):
                    acc[r][s] = (acc[r][s] + int(t) * img[r][s]) % m
        return (tuple(acc[0]), tuple(acc[1]))


def _mat2_mul(X: Mat2, Y: Mat2, m: int) -> Mat2:
    return (((X[0][0] * Y[0][0] + X[0][1] * Y[1][0]) % m,
             (X[0][0] * Y[0][1] + X[0][1] * Y[1][1]) % m),
            ((X[1][0] * Y[0][0] + X[1][1] * Y[1][0]) % m,
             (X[1][0] * Y[0][1] + X[1][1] * Y[1][1]) % m))


def splitting_data(order: Order, ell: int, k: int = 1,
                   seed: int = 0) -> SplittingData:
    """Split O at a prime ell away from discriminant and level.

    Preconditions: the algebra is split at ell and v_ell of the order's
    reduced discriminant is 0.  The search for a split element is seeded
    and deterministic for a fixed seed.
    """
    A = order.algebra
    if A.is_ramified_at(ell):
        raise PreconditionError(f"algebra is ramified at {ell}")
    if valuation(reduced_discriminant(order), ell) != 0:
        raise PreconditionError(f"order is not maximal at {ell}")
    if k < 1:
        raise PreconditionError("precision must be at least 1")
    # the seed stream must not involve k: splittings at different precisions
    # then share the mod-ell idempotent, and the Hensel iteration makes the
    # higher-precision map a lift of the lower one, so localizations done at
    # different precisions land in consistent tree coordinates
    rng = random.Random(f"{seed}:{ell}")
    mod, at = ell ** k, f"mod {ell}^{k}"
    form = _trace_norm_form(order)

    roots = None
    for _ in range(400):
        c = tuple(rng.randrange(ell) for _ in range(4))
        if not any(c):
            continue
        roots = _split_char_roots(*_char_poly(form, c), ell)
        if roots is not None:
            break
    if roots is None:
        raise InvariantError(f"no split element found {at}")
    T = _mult_table(order)
    one = _unit_coords(order)
    units = la.identity(4)
    e = _split_idempotent(T, one, c, roots, ell, k)

    # a basis of the column module O*e mod ell^k: e itself plus one g*e,
    # with pivot rows (a_, b_) where its 2x2 minor is a unit
    cands = [e] + [_mul(T, g, e, mod) for g in units]
    pairs = ((u, v) for i, u in enumerate(cands) for v in cands[i + 1:])
    found = next(((V, piv) for V in pairs
                  if (piv := _unit_minor(*V, ell))), None)
    if found is None:
        raise InvariantError(f"no rank-2 basis of the splitting module {at}")
    V, (a_, b_, dmin) = found
    dinv = pow(dmin, -1, mod)

    def express(wc) -> Tuple[int, int]:
        c1 = (wc[a_] * V[1][b_] - wc[b_] * V[1][a_]) * dinv % mod
        c2 = (V[0][a_] * wc[b_] - V[0][b_] * wc[a_]) * dinv % mod
        for t in range(4):
            if (c1 * V[0][t] + c2 * V[1][t] - wc[t]) % mod:
                raise InvariantError(f"splitting module is not free {at}")
        return c1, c2

    images = []
    for g in units:
        col1 = express(_mul(T, g, V[0], mod))
        col2 = express(_mul(T, g, V[1], mod))
        images.append(((col1[0], col2[0]), (col1[1], col2[1])))
    # theta is onto mod ell iff ell does not divide det of the images
    try:
        inverse = la.mat_inv_mod([sum(img, ()) for img in images], mod)
    except RankError:
        raise InvariantError(f"splitting is not bijective {at}") from None
    data = SplittingData(order, ell, k, tuple(images), inverse)

    # ring homomorphism and unitality, on the nose
    if data.apply_coords(one) != ((1, 0), (0, 1)):
        raise InvariantError(f"splitting does not send 1 to the identity {at}")
    # the basis elements map to their own images
    for Mt, X in zip(T, images):
        for xy, Y in zip(Mt, images):
            if data.apply_coords(xy) != _mat2_mul(X, Y, mod):
                raise InvariantError(f"splitting is not multiplicative {at}")
    return data


def _pullback(th: SplittingData, L) -> la.IntMatrix:
    """HNF order coordinates of I_L = {x in O : the rows of theta(x) lie in
    L} for a 2x2 integer basis L with m = |det L| dividing ell^k.

    A row r of L with an entry prime to ell generates L mod m: Z r has
    index m in Z^2 / m Z^2, as L does, so L = Z r + m Z^2.  I_L is then m O
    plus the preimages of the two matrices with r as one row and 0 as the
    other: a line form mod ell at m = ell (_line_hnf), one elimination mod
    m above it.  Only a basis inside ell Z^2 has no such row."""
    (p, q), (s, t) = L
    ell, m = th.ell, abs(p * t - q * s)
    if m == 0 or th.modulus % m:
        raise PreconditionError(f"index {m} does not divide {th.modulus}")
    r = next((r for r in L if r[0] % ell or r[1] % ell), None)
    if r is None:
        raise PreconditionError(f"no row of {L} has an entry prime to {ell}")
    # theta^-1 of E00, E01 put r in row 0, those of E10, E11 in row 1
    (r0, r1), (g0, g1, h0, h1) = r, th.inverse
    u = tuple([(r0 * x + r1 * y) % m for x, y in zip(g0, g1)])
    w = tuple([(r0 * x + r1 * y) % m for x, y in zip(h0, h1)])
    if m == ell:
        return _line_hnf(u, w, ell)
    return la.hnf_mod((u, w), ell, m)


_PAIRS = tuple(combinations(range(4), 2))


def _unit_minor(u, w, ell: int) -> Tuple[int, int, int] | None:
    """(i, j, minor) for the lexicographically first columns i < j where the
    2x2 minor of the rows u, w is prime to ell, or None if u, w have rank
    below 2 mod ell."""
    for i, j in _PAIRS:
        det = u[i] * w[j] - u[j] * w[i]
        if det % ell:
            return i, j, det
    return None


def _line_hnf(u, w, ell: int) -> la.IntMatrix:
    """HNF over O's basis of ell O + span(u, w) for order coordinates u, w
    of rank 2 mod ell, in closed form.  The index is ell^2, so the form is
    the reduced row echelon form of span(u, w) mod ell with ell e_c filling
    every other row c: the pivots are the first columns (i, j) with a unit
    minor (_unit_minor), and rows i and j are the vectors of the span with
    entries (1, 0) and (0, 1) there, reduced into [0, ell)."""
    piv = _unit_minor(u, w, ell)
    if piv is None:
        raise InvariantError(f"line generators have rank below 2 mod {ell}")
    i, j, det = piv
    inv = pow(det, -1, ell)
    a, b, c, d = w[j] * inv, u[j] * inv, u[i] * inv, w[i] * inv
    rows = [(ell, 0, 0, 0), (0, ell, 0, 0), (0, 0, ell, 0), (0, 0, 0, ell)]
    rows[i] = tuple([(a * x - b * y) % ell for x, y in zip(u, w)])
    rows[j] = tuple([(c * y - d * x) % ell for x, y in zip(u, w)])
    return tuple(rows)


# ------------------------------------------------------- Eichler orders

def eichler_order(order: Order, N: int, seed: int = 0) -> Order:
    """Level-N Eichler suborder of a maximal order, N squarefree and prime
    to the discriminant: upper-triangular congruences at each ell | N."""
    A = order.algebra
    D = A.discriminant()
    if N < 1 or not is_squarefree(N):
        raise PreconditionError(f"level {N} is not a squarefree positive int")
    if gcd(N, D) != 1:
        raise PreconditionError("level must be prime to the discriminant")
    if reduced_discriminant(order) != D:
        raise PreconditionError("need a maximal order")
    R = la.identity(4)
    for ell, _ in factorize(N):
        th = splitting_data(order, ell, 1, seed)
        f = tuple(th.images[i][1][0] for i in range(4))
        R = la.congruence_sublattice(R, f, ell)
    E = order.over(R)
    E.validate()
    if reduced_discriminant(E) != D * N:
        raise InvariantError("congruence sublattice has the wrong level")
    return E


def eichler_level(order: Order) -> int:
    return reduced_discriminant(order) // order.algebra.discriminant()


# ------------------------------------------------------- left ideals

@dataclass(frozen=True)
class LeftIdeal:
    """A full lattice I with O*I <= I for the stated order, held as
    order_coords, its integer HNF over O's basis.  Both are canonical, so
    equality of objects is equality of ideals; the ambient lattice is
    derived on first read."""

    order: Order
    order_coords: la.IntMatrix

    def __init__(self, order: Order, rows):
        """Spanned by ambient rows; derives order_coords (InvariantError if
        the rows leave the order)."""
        X, d = la.clear_denominators([la.triangular_coords(order.basis, r)
                                      for r in la.lattice_canonical(rows)])
        if d != 1:
            raise InvariantError("ideal is not inside its order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "order_coords", la.hnf_basis(X))

    @classmethod
    def from_order_coords(cls, order: Order, R: la.IntMatrix) -> "LeftIdeal":
        """The ideal with the 4x4 integer HNF R over the order basis (else
        InvariantError)."""
        # unrolled, as this runs once per norm-ell line
        ((r00, r01, r02, r03), (r10, r11, r12, r13),
         (r20, r21, r22, r23), (r30, r31, r32, r33)) = R
        if (r10 or r20 or r21 or r30 or r31 or r32 or r00 <= 0 or not (
                0 <= r01 < r11 and 0 <= r02 < r22 and 0 <= r12 < r22
                and 0 <= r03 < r33 and 0 <= r13 < r33 and 0 <= r23 < r33)):
            raise InvariantError("order coordinates are not in Hermite form")
        I = object.__new__(cls)
        object.__setattr__(I, "order", order)
        object.__setattr__(I, "order_coords", R)
        return I

    @cached_property
    def lattice(self) -> la.RatMatrix:
        """The canonical ambient basis hnf(R B)/d, (B, d) = order.cleared."""
        return self.order.over(self.order_coords).basis

    def index_in_order(self) -> int:
        return la.hnf_index(self.order_coords)

    def norm(self) -> int:
        idx = self.index_in_order()
        r = isqrt(idx)
        if r * r != idx:
            raise InvariantError(f"ideal index {idx} is not a perfect square")
        return r

    def is_primitive(self) -> bool:
        return la.content(self.order_coords) == 1

    def is_left_ideal(self) -> bool:
        """Whether e_t h lies in I for each e_t of O's basis and h of I's."""
        T, R = _mult_table(self.order), self.order_coords
        return all(la.lattice_contains(R, _mul(T, g, h))
                   for g in la.identity(4) for h in R)

    def right_order(self) -> Order:
        """{x : I x <= I}, which is O_left(conj I): conjugation reverses
        products and fixes every order."""
        return lattice_left_order(self.order.algebra, self.conjugate_lattice())

    def conjugate_lattice(self) -> la.RatMatrix:
        rows = tuple(self.order.algebra.element(*r).conjugate().coeffs
                     for r in self.lattice)
        return la.lattice_canonical(rows)

    def __repr__(self):
        return f"LeftIdeal(norm={self.norm()})"


def lattice_product(A: QuaternionAlgebra, X, Y) -> la.RatMatrix:
    """Canonical basis of the lattice spanned by all products x*y."""
    rows = []
    for xr in X:
        x = A.element(*xr)
        for yr in Y:
            rows.append((x * A.element(*yr)).coeffs)
    return la.lattice_canonical(tuple(rows))


def ideal_product(I: LeftIdeal, J: LeftIdeal) -> LeftIdeal:
    if I.order.algebra != J.order.algebra:
        raise PreconditionError("ideals in different algebras")
    return LeftIdeal(I.order,
                     lattice_product(I.order.algebra, I.lattice, J.lattice))


def principal_ideal(order: Order, x: QuatElement) -> LeftIdeal:
    rows = tuple((order.algebra.element(*r) * x).coeffs for r in order.basis)
    return LeftIdeal(order, rows)


def two_sided_prime(order: Order, ell: int) -> LeftIdeal:
    """The unique two-sided prime above a ramified ell (order maximal there)."""
    A = order.algebra
    if not A.is_ramified_at(ell):
        raise PreconditionError(f"{ell} does not divide the discriminant")
    if valuation(reduced_discriminant(order), ell) != 1:
        raise PreconditionError(f"order is not maximal at {ell}")
    P = LeftIdeal.from_order_coords(
        order, la.hnf_mod(radical_coords(order, ell), ell, ell))
    if P.norm() != ell:
        raise InvariantError("radical above a ramified prime has wrong norm")
    return P


def left_ideals_of_norm(order: Order, ell: int,
                        seed: int = 0) -> List[LeftIdeal]:
    """All primitive left ideals of reduced norm ell.

    Split ell away from the level: for v = (1, 0), ..., (1, ell-1), (0, 1)
    in that order, {x : theta(x) v = 0 mod ell}, the pullback of the local
    lattice ell Z^2 + Z(-v_1, v_0), read off the splitting in closed form:
    ell O plus the preimages of the two matrices with (-v_1, v_0) as one
    row and 0 as the other (_line_hnf).  Ramified ell: just the two-sided
    prime.  ell dividing the level: direct enumeration.
    """
    if not is_prime(ell):
        raise AlgebraError(f"{ell} is not a prime")
    A = order.algebra
    D = A.discriminant()
    level = eichler_level(order)
    if D % ell == 0:
        return [two_sided_prime(order, ell)]
    if level % ell == 0:
        return [I for I in enumerate_left_ideals(order, ell)
                if I.is_primitive()]
    _check_line_count(ell)
    # theta^-1 of E00, E01, E10, E11; the line (1, t) is spanned by
    # g1 - t g0 and h1 - t h0, the line (0, 1) by g0 and h0
    g0, g1, h0, h1 = splitting_data(order, ell, 1, seed).inverse
    spans = []
    u, w = g1, h1
    for _ in range(ell):
        spans.append((u, w))
        u = tuple([(x - y) % ell for x, y in zip(u, g0)])
        w = tuple([(x - y) % ell for x, y in zip(w, h0)])
    spans.append((g0, h0))
    out = []
    for u, w in spans:
        R = _line_hnf(u, w, ell)
        if la.hnf_index(R) != ell * ell:
            raise InvariantError("line pullback has the wrong norm")
        out.append(LeftIdeal.from_order_coords(order, R))
    return out


def enumerate_left_ideals(order: Order, n: int) -> List[LeftIdeal]:
    """Every left ideal of reduced norm n, by exhausting Hermite forms.

    Any such ideal contains n*O, so the HNF over the order basis has
    diagonal entries dividing n with product n^2.  Guarded: n <= 13.
    """
    if n < 1:
        raise PreconditionError("norm must be positive")
    if n > 13:
        raise ResourceError(f"norm {n} exceeds the enumeration guard (13)")
    # columns of each M_t, so a row's image is one dot product per column
    cols = [tuple(zip(*Mt)) for Mt in _mult_table(order)]
    divs = [d for d in range(1, n + 1) if n % d == 0]
    target = n * n
    found = []
    for diag in product(divs, repeat=4):
        if diag[0] * diag[1] * diag[2] * diag[3] != target:
            continue
        free_pos = [(i, j) for j in range(4) for i in range(j)]
        ranges = [range(diag[j]) for _, j in free_pos]
        for vals in product(*ranges):
            H = [[0] * 4 for _ in range(4)]
            for t in range(4):
                H[t][t] = diag[t]
            for (i, j), x in zip(free_pos, vals):
                H[i][j] = x
            if all(la.lattice_contains(H, [sum(map(mul, row, c)) for c in C])
                   for C in cols for row in H):
                found.append(LeftIdeal.from_order_coords(order, la.imat(H)))
    return found


# ------------------------------------------------------- serialization

def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_frac(s) -> Fraction:
    try:
        f = Fraction(str(s))
        str(f)  # past the int-to-str digit limit, f could not be printed
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad rational {s!r}: {e}") from None
    return f


def _basis_to_json(B) -> List[List[str]]:
    return [[_frac_str(x) for x in row] for row in B]


def _basis_from_json(rows) -> la.RatMatrix:
    if (not isinstance(rows, list) or len(rows) != 4
            or any(not isinstance(r, list) or len(r) != 4 for r in rows)):
        raise ValidationError("basis must be a 4x4 array")
    return tuple(tuple(_parse_frac(x) for x in row) for row in rows)


def algebra_to_json(A: QuaternionAlgebra) -> Dict:
    return {"a": _frac_str(A.a), "b": _frac_str(A.b)}


def algebra_from_json(d) -> QuaternionAlgebra:
    if not isinstance(d, dict) or "a" not in d or "b" not in d:
        raise ValidationError("algebra needs fields a and b")
    return QuaternionAlgebra(_parse_frac(d["a"]), _parse_frac(d["b"]))


def order_to_json(order: Order) -> Dict:
    return {"algebra": algebra_to_json(order.algebra),
            "basis": _basis_to_json(order.basis)}


def order_from_json(d) -> Order:
    if not isinstance(d, dict) or "algebra" not in d or "basis" not in d:
        raise ValidationError("order needs fields algebra and basis")
    A = algebra_from_json(d["algebra"])
    B = _basis_from_json(d["basis"])
    bad = order_diagnostics(A, B)
    if bad:
        raise ValidationError("not an order: " + "; ".join(bad))
    return Order(A, B)


def ideal_to_json(I: LeftIdeal) -> Dict:
    return {"algebra": algebra_to_json(I.order.algebra),
            "leftOrder": _basis_to_json(I.order.basis),
            "basis": _basis_to_json(I.lattice)}


def ideal_from_json(d) -> LeftIdeal:
    if not isinstance(d, dict) or "basis" not in d or "leftOrder" not in d:
        raise ValidationError("ideal needs fields algebra, leftOrder, basis")
    A = algebra_from_json(d.get("algebra", {}))
    B = _basis_from_json(d["leftOrder"])
    bad = order_diagnostics(A, B)
    if bad:
        raise ValidationError("leftOrder is not an order: " + "; ".join(bad))
    O = Order(A, B)
    L = _basis_from_json(d["basis"])
    if not all(la.lattice_contains(O.basis, r) for r in L):
        raise ValidationError("lattice is not inside the order")
    I = LeftIdeal(O, L)
    if not I.is_left_ideal():
        raise ValidationError("lattice is not a left ideal of the order")
    return I
