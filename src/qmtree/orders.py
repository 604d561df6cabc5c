"""Orders and one-sided ideals in rational quaternion algebras.

Lattices are 4x4 rational row matrices over the ambient basis (1, i, j, k),
always stored in canonical form, so equality of objects is equality of
lattices.  The two workhorse constructions are the left/right order of a
lattice (an integrality computation) and the pullback of a local lattice
to a left ideal through an explicit local splitting O (x) Z_ell ~ M2(Z_ell).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
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


def _elt(A: QuaternionAlgebra, row) -> QuatElement:
    return A.element(*row)


# ---------------------------------------------------------------- orders

@dataclass(frozen=True)
class Order:
    """A full-rank lattice with a distinguished (canonical) basis.

    The constructor only canonicalizes; whether the lattice really is an
    order is checked by order_diagnostics / validate.
    """

    algebra: QuaternionAlgebra
    basis: la.RatMatrix

    def __init__(self, algebra: QuaternionAlgebra, rows):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "basis", la.lattice_canonical(rows))

    def elements(self) -> Tuple[QuatElement, ...]:
        return tuple(_elt(self.algebra, r) for r in self.basis)

    def coords(self, x: QuatElement):
        """Coordinates of x over the order basis (Fractions)."""
        return tuple(la.triangular_coords(self.basis, x.coeffs))

    def contains_lattice(self, rows) -> bool:
        return all(la.lattice_contains(self.basis, r) for r in rows)

    def validate(self) -> None:
        bad = order_diagnostics(self.algebra, self.basis)
        if bad:
            raise InvariantError("not an order: " + "; ".join(bad))

    def __repr__(self):
        # no computation: the lattice need not be an order
        rows = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.basis)
        return f"Order({self.algebra!r}, [{rows}])"


def order_diagnostics(A: QuaternionAlgebra, rows) -> List[str]:
    """Reasons rows fail to span an order (empty list means none)."""
    out = []
    try:
        B = la.lattice_canonical(rows)
    except RankError:
        return ["basis is not full rank"]
    elts = [_elt(A, r) for r in B]
    if not la.lattice_contains(B, (1, 0, 0, 0)):
        out.append("1 is not in the lattice")
    if not all(la.lattice_contains(B, (x * y).coeffs)
               for x in elts for y in elts):
        out.append("not closed under multiplication")
    for x in elts:
        if x.trd().denominator != 1 or x.nrd().denominator != 1:
            out.append("basis element with non-integral trace or norm")
            break
    return out


def standard_order(A: QuaternionAlgebra) -> Order:
    """Z<1, s*i, t*j, st*k> with s, t clearing the structure constants."""
    s = Fraction(A.a).denominator
    t = Fraction(A.b).denominator
    rows = ((1, 0, 0, 0), (0, s, 0, 0), (0, 0, t, 0), (0, 0, 0, s * t))
    O = Order(A, la.rmat(rows))
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


def structure_matrices(order: Order) -> Tuple[la.IntMatrix, ...]:
    """M_t with row j = order-coordinates of e_t * e_j (integral by closure)."""
    elts = order.elements()
    out = []
    for x in elts:
        rows = []
        for y in elts:
            c = order.coords(x * y)
            if not all(t.denominator == 1 for t in c):
                raise InvariantError("lattice is not multiplicatively closed")
            rows.append(tuple(int(t) for t in c))
        out.append(tuple(rows))
    return tuple(out)


def _from_order_coords(order: Order, rows) -> la.RatMatrix:
    return la.mat_mul(la.rmat(rows), order.basis)


# ------------------------------------------------------- lattice orders

def _stack_blocks(blocks) -> la.RatMatrix:
    return tuple(tuple(x for blk in blocks for x in blk[r])
                 for r in range(len(blocks[0])))


def lattice_left_order(A: QuaternionAlgebra, rows) -> Order:
    """{x : x L <= L} for the full lattice L spanned by rows."""
    L = la.lattice_canonical(rows)
    amb = [A.element(1), A.element(0, 1), A.element(0, 0, 1),
           A.element(0, 0, 0, 1)]
    blocks = []
    for g_row in L:
        g = _elt(A, g_row)
        # row r = coordinates over L of e_r * g
        blocks.append(tuple(tuple(la.triangular_coords(L, (e * g).coeffs))
                            for e in amb))
    return Order(A, la.integrality_lattice(_stack_blocks(blocks)))


# ------------------------------------------------------- maximalization

def _trace_norm_form(order: Order):
    """Integer coefficients (t, q) of trd and nrd over the order basis.

    x = sum c_i e_i has trd(x) = sum t_i c_i and nrd(x) = sum over i <= j
    of q[i, j] c_i c_j, with q[i, i] = nrd(e_i) and q[i, j] = trd(e_i e_j^*)
    = nrd(e_i + e_j) - nrd(e_i) - nrd(e_j).
    """
    elts = order.elements()
    t = tuple(_integral(x.trd()) for x in elts)
    n = [_integral(x.nrd()) for x in elts]
    q = {}
    for i in range(4):
        q[i, i] = n[i]
        for j in range(i + 1, 4):
            q[i, j] = _integral((elts[i] + elts[j]).nrd()) - n[i] - n[j]
    return t, q


def _integral(x) -> int:
    if x.denominator != 1:
        raise InvariantError("non-integral trace pairing")
    return int(x)


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
    """Order-coordinate vectors spanning the radical of O/(ell) over F_ell.

    Odd ell: kernel of the trace pairing (its kernel is a nil ideal, and the
    radical pairs to zero, so the two agree).  ell = 2: the trace form can
    vanish identically, so fall back to quasi-regularity over the 16
    residues: x is in the radical iff 1 - a x is a unit for every a.
    """
    form = _trace_norm_form(order)
    T = _trace_pairing(form)
    if ell != 2:
        return la.kernel_mod_p(tuple(tuple(x % ell for x in row) for row in T),
                               ell)
    # nrd(1 - y x) = 1 - trd(y x) + nrd(y) nrd(x), all from the form
    residues = [tuple(c) for c in product(range(2), repeat=4)]
    nrd = {c: _char_poly(form, c)[1] for c in residues}
    rad = []
    for c in residues:
        if not any(c):
            continue
        Tc = [sum(T[i][j] * c[j] for j in range(4)) for i in range(4)]
        if all((1 - sum(ai * x for ai, x in zip(a, Tc)) + nrd[a] * nrd[c]) % 2
               for a in residues):
            rad.append(c)
    return rad


def radical_lattice(order: Order, ell: int) -> la.RatMatrix:
    """ell*O + (lift of the radical of O/ell O), as an ambient lattice."""
    rows = [tuple(ell * int(v == i) for v in range(4)) for i in range(4)]
    rows += [tuple(int(c) for c in v) for v in radical_coords(order, ell)]
    return la.lattice_canonical(_from_order_coords(order, la.imat(rows)))


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


def _lex_split_elements(form, ell: int):
    """(c, roots) for each nonzero c in [0, ell)^4, lexicographically, whose
    characteristic polynomial has distinct roots mod ell.

    For odd ell, a block of c sharing a prefix on which the discriminant
    t(c)^2 - 4 n(c) vanishes identically mod ell holds no such c and is
    skipped: the discriminant has degree at most 2 < ell in each coordinate,
    so it vanishes on the block iff its coefficients there do.  (The radical
    of O/ell O is such a block, often the very first.)
    """
    t, q = form
    D = {(i, j): (t[i] * t[j] * (1 if i == j else 2) - 4 * qij) % ell
         for (i, j), qij in q.items()}

    def dead(prefix):
        k = len(prefix)
        return (not any(D[i, j] for i in range(k, 4) for j in range(i, 4))
                and not any(sum(D[i, j] * prefix[i] for i in range(k)) % ell
                            for j in range(k, 4))
                and sum(D[i, j] * prefix[i] * prefix[j] for i in range(k)
                        for j in range(i, k)) % ell == 0)

    def walk(prefix):
        if len(prefix) == 4:
            roots = _split_char_roots(*_char_poly(form, prefix), ell)
            if roots is not None and any(prefix):
                yield prefix, roots
            return
        for x in range(ell):
            c = prefix + (x,)
            if ell == 2 or len(c) == 4 or not dead(c):
                yield from walk(c)

    return walk(())


def _split_idempotent(order: Order, c, roots, ell: int, k: int):
    """Order coordinates mod ell^k of an idempotent lifting (x - s)/(r - s)
    for the split element x with coordinates c and char roots (r, s)."""
    r, s = roots
    inv = pow(r - s, -1, ell)
    e0 = tuple((ci - s * int(oc)) * inv % ell
               for ci, oc in zip(c, order.coords(order.algebra.one())))
    return _lift_idempotent(order, e0, ell, k)


def _lift_idempotent(order: Order, coords, ell: int, k: int):
    """Hensel-lift order-coordinates of an idempotent mod ell to mod ell^k."""
    A = order.algebra
    mod = ell ** k
    e = _elt(A, la.mat_mul((tuple(coords),), order.basis)[0])
    prec = 1
    while prec < k:
        e = 3 * (e * e) - 2 * (e * e * e)
        prec *= 2
        c = tuple(int(t) % mod for t in order.coords(e))
        e = _elt(A, la.mat_mul((c,), order.basis)[0])
    c = tuple(int(t) % mod for t in order.coords(e))
    if any(int(t) % mod for t in order.coords(e * e - e)):
        raise InvariantError("idempotent lift failed")
    return c


def _hereditary_split(order: Order, ell: int) -> Order:
    """One step up from a hereditary non-maximal spot: ell exactly divides
    the discriminant but the algebra is split at ell.  Radical idealizing
    stalls here, so climb via a nontrivial idempotent e of O/ell O and
    adjoin (1/ell) e O (1-e) (or the mirror image)."""
    A = order.algebra
    elts = order.elements()
    d = reduced_discriminant(order)
    for c, roots in _lex_split_elements(_trace_norm_form(order), ell):
        ec = _split_idempotent(order, c, roots, ell, 4)
        e = _elt(A, la.mat_mul((ec,), order.basis)[0])
        f = A.one() - e
        for left, right in ((e, f), (f, e)):
            rows = [tuple(Fraction(int(v == i)) for v in range(4))
                    for i in range(4)]
            for g in elts:
                w = left * g * right
                rows.append(tuple(Fraction(t, ell) for t in order.coords(w)))
            cand_rows = _from_order_coords(order, la.rmat(rows))
            if order_diagnostics(A, cand_rows):
                continue
            cand = Order(A, cand_rows)
            if reduced_discriminant(cand) == d // ell:
                return cand
    raise InvariantError(f"no hereditary enlargement found at {ell}")


def maximalize_at(order: Order, ell: int) -> Order:
    """Enlarge until v_ell(discriminant) is 1 (ramified) or 0 (split)."""
    A = order.algebra
    target = 1 if A.is_ramified_at(ell) else 0
    O = order
    while True:
        v = valuation(reduced_discriminant(O), ell)
        if v == target:
            return O
        if v < target:
            raise InvariantError("discriminant below the ramified floor")
        J = radical_lattice(O, ell)
        O2 = lattice_left_order(A, J)
        if la.rat_lattice_index(O2.basis, O.basis) > 1:
            O = O2
            continue
        # the radical idealizer fixes exactly the hereditary orders
        if v != 1 or target != 0:
            raise InvariantError(f"maximalization stalled at {ell} with "
                                 f"discriminant valuation {v}")
        O = _hereditary_split(O, ell)


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
    the order basis.  apply() is the induced map on arbitrary elements."""

    order: Order
    ell: int
    k: int
    images: Tuple[Mat2, Mat2, Mat2, Mat2]
    inverse: Tuple[Tuple[int, ...], ...]  # theta^-1 of E00, E01, E10, E11

    @property
    def modulus(self) -> int:
        return self.ell ** self.k

    def apply(self, x: QuatElement) -> Mat2:
        c = self.order.coords(x)
        if not all(t.denominator == 1 for t in c):
            raise PreconditionError("element is not in the order")
        return self.apply_coords(tuple(int(t) for t in c))

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
    elts = order.elements()
    mod = ell ** k
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
        raise InvariantError(f"no split element found mod {ell}")
    ec = _split_idempotent(order, c, roots, ell, k)
    e = _elt(A, la.mat_mul((ec,), order.basis)[0])

    # a basis of the column module O*e mod ell^k: e itself plus one g*e
    cands = [e] + [g * e for g in elts]
    pair = None
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            M = (tuple(int(t) % ell for t in order.coords(cands[i])),
                 tuple(int(t) % ell for t in order.coords(cands[j])))
            rank2 = any((M[0][a] * M[1][b] - M[0][b] * M[1][a]) % ell
                        for a in range(4) for b in range(4))
            if rank2:
                pair = (cands[i], cands[j])
                break
        if pair:
            break
    if pair is None:
        raise InvariantError("no rank-2 basis of the splitting module")
    v1, v2 = pair
    V = tuple(tuple(int(t) % mod for t in order.coords(v)) for v in (v1, v2))
    # pivot rows with a unit 2x2 minor
    piv = next(((a, b) for a in range(4) for b in range(4) if a != b and
                (V[0][a] * V[1][b] - V[0][b] * V[1][a]) % ell), None)
    if piv is None:
        raise InvariantError("splitting module basis has no unit minor")
    a_, b_ = piv
    dmin = (V[0][a_] * V[1][b_] - V[0][b_] * V[1][a_]) % mod
    dinv = pow(dmin, -1, mod)

    def express(w: QuatElement) -> Tuple[int, int]:
        wc = tuple(int(t) % mod for t in order.coords(w))
        c1 = (wc[a_] * V[1][b_] - wc[b_] * V[1][a_]) * dinv % mod
        c2 = (V[0][a_] * wc[b_] - V[0][b_] * wc[a_]) * dinv % mod
        for t in range(4):
            if (c1 * V[0][t] + c2 * V[1][t] - wc[t]) % mod:
                raise InvariantError("splitting module is not free")
        return c1, c2

    images = []
    for g in elts:
        col1 = express(g * v1)
        col2 = express(g * v2)
        images.append(((col1[0], col2[0]), (col1[1], col2[1])))
    # theta is onto mod ell iff ell does not divide det of the images
    try:
        inverse = la.mat_inv_mod([sum(img, ()) for img in images], mod)
    except RankError:
        raise InvariantError("splitting is not bijective mod ell") from None
    data = SplittingData(order, ell, k, tuple(images), inverse)

    # ring homomorphism and unitality, on the nose
    if data.apply(A.one()) != ((1, 0), (0, 1)):
        raise InvariantError("splitting does not send 1 to the identity")
    # the basis elements map to their own images
    for x, X in zip(elts, images):
        for y, Y in zip(elts, images):
            if data.apply(x * y) != _mat2_mul(X, Y, mod):
                raise InvariantError("splitting is not multiplicative")
    return data


def _pullback(th: SplittingData, L) -> la.IntMatrix:
    """HNF order coordinates of I_L = {x in O : the rows of theta(x) lie in
    L} for a 2x2 integer basis L with m = |det L| dividing ell^k: I_L is m O
    plus the preimages of the matrices with one row in L and the other 0."""
    (w, x), (y, z) = L
    m = abs(w * z - x * y)
    if m == 0 or th.modulus % m:
        raise PreconditionError(f"index {m} does not divide {th.modulus}")
    # (E00, E01) put a row (p, q) in row 0, (E10, E11) put it in row 1
    gens = tuple(tuple(p * s + q * t for s, t in zip(u, v))
                 for p, q in L for u, v in (th.inverse[:2], th.inverse[2:]))
    return la.hnf_mod(gens, th.ell, m)


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
    E = Order(A, _from_order_coords(order, R))
    E.validate()
    if reduced_discriminant(E) != D * N:
        raise InvariantError("congruence sublattice has the wrong level")
    return E


def eichler_level(order: Order) -> int:
    return reduced_discriminant(order) // order.algebra.discriminant()


# ------------------------------------------------------- left ideals

@dataclass(frozen=True)
class LeftIdeal:
    """A full lattice I with O*I <= I for the stated order."""

    order: Order
    lattice: la.RatMatrix

    def __init__(self, order: Order, rows):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "lattice", la.lattice_canonical(rows))

    @classmethod
    def from_order_coords(cls, order: Order, R: la.IntMatrix) -> "LeftIdeal":
        """The ideal spanned by the integer rows R over the order basis.

        Its lattice is hnf(R B)/d for (B, d) = clear_denominators(basis),
        which is lattice_canonical(R * basis) since hnf(kM) = k hnf(M).
        """
        return cls._from_cleared(order, la.clear_denominators(order.basis), R)

    @classmethod
    def _from_cleared(cls, order: Order, cleared, R: la.IntMatrix):
        """from_order_coords with (B, d) = clear_denominators(order.basis)
        given, so that a run of ideals over one order clears it once."""
        B, d = cleared
        H = la.hnf_basis(la.mat_mul(R, B))
        I = object.__new__(cls)
        object.__setattr__(I, "order", order)
        object.__setattr__(I, "lattice", tuple(
            tuple(Fraction(x, d) for x in row) for row in H))
        return I

    def order_coords(self) -> la.IntMatrix:
        X = tuple(tuple(la.triangular_coords(self.order.basis, r))
                  for r in self.lattice)
        if any(t.denominator != 1 for row in X for t in row):
            raise InvariantError("ideal is not inside its order")
        return la.hnf_basis(tuple(tuple(int(t) for t in row) for row in X))

    def index_in_order(self) -> int:
        return la.hnf_index(self.order_coords())

    def norm(self) -> int:
        idx = self.index_in_order()
        r = isqrt(idx)
        if r * r != idx:
            raise InvariantError(f"ideal index {idx} is not a perfect square")
        return r

    def is_primitive(self) -> bool:
        return la.content(self.order_coords()) == 1

    def is_left_ideal(self) -> bool:
        A = self.order.algebra
        for g_row in self.order.basis:
            g = _elt(A, g_row)
            for h_row in self.lattice:
                if not la.lattice_contains(self.lattice,
                                           (g * _elt(A, h_row)).coeffs):
                    return False
        return True

    def right_order(self) -> Order:
        """{x : I x <= I}, which is O_left(conj I): conjugation reverses
        products and fixes every order."""
        return lattice_left_order(self.order.algebra, self.conjugate_lattice())

    def conjugate_lattice(self) -> la.RatMatrix:
        rows = tuple(_elt(self.order.algebra, r).conjugate().coeffs
                     for r in self.lattice)
        return la.lattice_canonical(rows)

    def __repr__(self):
        return f"LeftIdeal(norm={self.norm()})"


def lattice_product(A: QuaternionAlgebra, X, Y) -> la.RatMatrix:
    """Canonical basis of the lattice spanned by all products x*y."""
    rows = []
    for xr in X:
        x = _elt(A, xr)
        for yr in Y:
            rows.append((x * _elt(A, yr)).coeffs)
    return la.lattice_canonical(tuple(rows))


def ideal_product(I: LeftIdeal, J: LeftIdeal) -> LeftIdeal:
    if I.order.algebra != J.order.algebra:
        raise PreconditionError("ideals in different algebras")
    return LeftIdeal(I.order,
                     lattice_product(I.order.algebra, I.lattice, J.lattice))


def principal_ideal(order: Order, x: QuatElement) -> LeftIdeal:
    rows = tuple((_elt(order.algebra, r) * x).coeffs for r in order.basis)
    return LeftIdeal(order, rows)


def two_sided_prime(order: Order, ell: int) -> LeftIdeal:
    """The unique two-sided prime above a ramified ell (order maximal there)."""
    A = order.algebra
    if not A.is_ramified_at(ell):
        raise PreconditionError(f"{ell} does not divide the discriminant")
    if valuation(reduced_discriminant(order), ell) != 1:
        raise PreconditionError(f"order is not maximal at {ell}")
    P = LeftIdeal(order, radical_lattice(order, ell))
    if P.norm() != ell:
        raise InvariantError("radical above a ramified prime has wrong norm")
    return P


def left_ideals_of_norm(order: Order, ell: int,
                        seed: int = 0) -> List[LeftIdeal]:
    """All primitive left ideals of reduced norm ell.

    Split ell away from the level: for v = (1, 0), ..., (1, ell-1), (0, 1)
    in that order, {x : theta(x) v = 0 mod ell}, the pullback of the local
    lattice ell Z^2 + Z(-v_1, v_0).  Ramified ell: just the two-sided
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
    th = splitting_data(order, ell, 1, seed)
    cleared = la.clear_denominators(order.basis)
    out = []
    for L in [((-t, 1), (ell, 0)) for t in range(ell)] + [((-1, 0), (0, ell))]:
        R = _pullback(th, L)
        if la.hnf_index(R) != ell * ell:
            raise InvariantError("line pullback has the wrong norm")
        out.append(LeftIdeal._from_cleared(order, cleared, R))
    return out


def _divisors(n: int) -> List[int]:
    return sorted(d for d in range(1, n + 1) if n % d == 0)


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
    cols = [tuple(zip(*Mt)) for Mt in structure_matrices(order)]
    cleared = la.clear_denominators(order.basis)
    divs = _divisors(n)
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
                found.append(LeftIdeal._from_cleared(order, cleared,
                                                     la.imat(H)))
    return found


# ------------------------------------------------------- serialization

def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad rational {s!r}: {e}") from None


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
    I = LeftIdeal(O, _basis_from_json(d["basis"]))
    if not I.is_left_ideal():
        raise ValidationError("lattice is not a left ideal of the order")
    return I
