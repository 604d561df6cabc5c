"""Exact integer and rational matrix algebra.

Hermite and Smith normal forms, lattice indices, kernels mod p, and the
row-lattice utilities the rest of the package is built on.  A canonical
lattice basis is upper triangular, so coordinates, membership and indices
all come from one forward substitution (triangular_coords).  Matrices are
immutable tuples of row tuples; integer matrices carry Python ints, rational
ones fractions.Fraction.  All arithmetic is arbitrary precision and exact.

HNF convention (frozen -- tree-vertex canonicalization depends on it):
row-style echelon form H = U*M with U unimodular, pivots strictly positive,
entries above each pivot reduced into [0, pivot), zero rows at the bottom.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .errors import PreconditionError, RankError

IntMatrix = Tuple[Tuple[int, ...], ...]
RatMatrix = Tuple[Tuple[Fraction, ...], ...]
IntVector = Tuple[int, ...]


# ---------------------------------------------------------------- basics

def imat(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def rmat(rows: Sequence[Sequence]) -> RatMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def mat_mul(A, B):
    """Exact matrix product; entry types follow the operands."""
    n = len(B)
    if A and len(A[0]) != n:
        raise PreconditionError("matrix dimensions do not match")
    Bt = list(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


def mat_scale(c, M):
    return tuple(tuple(c * x for x in row) for row in M)


def det(M) -> Fraction:
    """Determinant by exact fraction Gaussian elimination."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise PreconditionError("determinant of a non-square matrix")
    A = [[Fraction(x) for x in row] for row in M]
    sign = 1
    prod = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        prod *= A[c][c]
        inv = 1 / A[c][c]
        for i in range(c + 1, n):
            if A[i][c] != 0:
                f = A[i][c] * inv
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return sign * prod


def mat_inv(M) -> RatMatrix:
    """Exact inverse; raises RankError on singular input."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c] != 0), None)
        if piv is None:
            raise RankError("matrix is singular")
        A[c], A[piv] = A[piv], A[c]
        inv = 1 / A[c][c]
        A[c] = [x * inv for x in A[c]]
        for i in range(n):
            if i != c and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return tuple(tuple(row[n:]) for row in A)


def mat_inv_mod(M: IntMatrix, m: int) -> IntMatrix:
    """Inverse of a square integer matrix modulo a prime power m, entries in
    [0, m).  Gauss-Jordan with unit pivots; raises RankError when M is
    singular modulo the prime, which is exactly when no unit pivot exists."""
    n = len(M)
    A = [[x % m for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        piv = next((i for i in range(c, n) if gcd(A[i][c], m) == 1), None)
        if piv is None:
            raise RankError(f"matrix is singular modulo {m}")
        A[c], A[piv] = A[piv], A[c]
        inv = pow(A[c][c], -1, m)
        A[c] = [x * inv % m for x in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % m for x, y in zip(A[i], A[c])]
    return tuple(tuple(row[n:]) for row in A)


def content(M) -> int:
    """Gcd of all entries (0 for the zero matrix)."""
    g = 0
    for row in M:
        for x in row:
            g = gcd(g, x)
    return g


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd(a,b) >= 0 and a*x + b*y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------- HNF / SNF

def hnf(M: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form.

    Args:
        M: integer matrix (any shape, any rank).

    Returns:
        H = U*M for some unimodular U, in the frozen convention: echelon,
        pivots positive, entries above a pivot in [0, pivot), zero rows
        last.  H is unique for the convention.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    H: List[List[int]] = [list(row) for row in M]
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if H[i][c] == 0:
                continue
            a, b = H[r][c], H[i][c]
            if a != 0 and b % a == 0:
                q = b // a
                H[i] = [v - q * u for u, v in zip(H[r], H[i])]
                continue
            g, x, y = xgcd(a, b)
            # unimodular 2x2 transform: det = (x*a + y*b)/g = 1
            p, q = -(b // g), a // g
            hr, hi = H[r], H[i]
            H[r] = [x * u + y * v for u, v in zip(hr, hi)]
            H[i] = [p * u + q * v for u, v in zip(hr, hi)]
        if H[r][c] == 0:
            continue
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
        piv = H[r][c]
        for i in range(r):
            q = H[i][c] // piv
            if q:
                H[i] = [u - q * v for u, v in zip(H[i], H[r])]
        r += 1
    return tuple(tuple(row) for row in H)


def hnf_basis(M: IntMatrix, expect_rank: int | None = None) -> IntMatrix:
    """Nonzero rows of hnf(M): the canonical basis of the row lattice.

    With expect_rank set (default: the column count), raises RankError if the
    lattice has lower rank.
    """
    rows = tuple(row for row in hnf(M) if any(row))
    want = len(M[0]) if (expect_rank is None and M) else expect_rank
    if want is not None and len(rows) != want:
        raise RankError(f"row lattice has rank {len(rows)}, expected {want}")
    return rows


def hnf_mod(M: IntMatrix, ell: int, m: int) -> IntMatrix:
    """hnf_basis of m Z^n + rowspan(M) for m a power of the prime ell.

    The lattice contains m Z^n, so it is read off an elimination mod m
    (Cohen, GTM 138, 2.4.2): in each column the pivot is a row whose entry
    has the least ell-valuation v, scaled by a unit to ell^v; it clears the
    column in the other rows, and (m / ell^v) times it, which vanishes in
    the column, joins them, as in a Howell form.  A column with no pivot
    gets m e_c.  Reducing above the pivots then gives the frozen convention.
    """
    n = len(M[0]) if M else 0
    rest = [r for r in ([x % m for x in row] for row in M) if any(r)]
    H: List[List[int]] = []
    for c in range(n):
        best = None
        for i, row in enumerate(rest):
            x = row[c]
            if x:
                v = 0
                while x % ell == 0:
                    x //= ell
                    v += 1
                if best is None or v < best[0]:
                    best = (v, i, x)
                    if v == 0:
                        break
        if best is None:
            H.append([m if j == c else 0 for j in range(n)])
            continue
        v, i, u = best
        piv = ell ** v
        uinv = pow(u, -1, m)
        p = [x * uinv % m for x in rest.pop(i)]
        nxt = []
        for row in rest:
            q = row[c] // piv
            if q:
                row = [(x - q * y) % m for x, y in zip(row, p)]
                if not any(row):
                    continue
            nxt.append(row)
        if v:
            nxt.append([x * (m // piv) % m for x in p])
        rest = nxt
        H.append(p)
    for c in range(n):
        piv = H[c][c]
        for i in range(c):
            q = H[i][c] // piv
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[c])]
    return tuple(tuple(row) for row in H)


def snf(M: IntMatrix) -> Tuple[int, ...]:
    """Elementary divisors e1 | e2 | ... of a nonsingular square matrix.

    Args:
        M: square integer matrix with det != 0.

    Returns:
        Positive integers with the divisibility chain and product |det M|.

    Raises:
        RankError: singular input.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise PreconditionError("snf needs a square matrix")
    A = [list(row) for row in M]
    for k in range(n):
        while True:
            piv = next(((i, j) for i in range(k, n) for j in range(k, n)
                        if A[i][j] != 0), None)
            if piv is None:
                raise RankError("singular matrix in snf")
            i, j = piv
            if i != k:
                A[k], A[i] = A[i], A[k]
            if j != k:
                for row in A:
                    row[k], row[j] = row[j], row[k]
            # clear column k below with row ops; plain subtraction when the
            # pivot divides (keeps the pivot row fixed, which is what makes
            # the alternation below terminate)
            for i in range(k + 1, n):
                a, b = A[k][k], A[i][k]
                if b == 0:
                    continue
                if a != 0 and b % a == 0:
                    q = b // a
                    A[i] = [v - q * u for u, v in zip(A[k], A[i])]
                    continue
                g, x, y = xgcd(a, b)
                p, q = -(b // g), a // g
                rk, ri = A[k], A[i]
                A[k] = [x * u + y * v for u, v in zip(rk, ri)]
                A[i] = [p * u + q * v for u, v in zip(rk, ri)]
            # clear row k to the right with column ops
            for j in range(k + 1, n):
                a, b = A[k][k], A[k][j]
                if b == 0:
                    continue
                if a != 0 and b % a == 0:
                    q = b // a
                    for row in A:
                        row[j] -= q * row[k]
                    continue
                g, x, y = xgcd(a, b)
                p, q = -(b // g), a // g
                for row in A:
                    u, v = row[k], row[j]
                    row[k], row[j] = x * u + y * v, p * u + q * v
            if any(A[i][k] for i in range(k + 1, n)):
                continue  # column ops disturbed the cleared column
            bad = next(((i, j) for i in range(k + 1, n) for j in range(k + 1, n)
                        if A[i][j] % A[k][k] != 0), None)
            if bad is None:
                break
            A[k] = [u + v for u, v in zip(A[k], A[bad[0]])]
        if A[k][k] < 0:
            A[k] = [-x for x in A[k]]
    return tuple(A[k][k] for k in range(n))


# ---------------------------------------------------------------- lattices

def kernel_mod_p(M: IntMatrix, p: int) -> List[IntVector]:
    """Basis of {v : M v = 0 over the field with p elements} (column vectors)."""
    m = len(M)
    n = len(M[0]) if m else 0
    A = [[x % p for x in row] for row in M]
    pivots: List[Tuple[int, int]] = []  # (col, row)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [(x * inv) % p for x in A[r]]
        for i in range(m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append((c, r))
        r += 1
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for c in range(n):
        if c in pivot_cols:
            continue
        v = [0] * n
        v[c] = 1
        for pc, pr in pivots:
            v[pc] = (-A[pr][c]) % p
        basis.append(tuple(v))
    return basis


def clear_denominators(M: RatMatrix) -> Tuple[IntMatrix, int]:
    """(d*M as an integer matrix, d) with d the lcm of all denominators."""
    F = [[Fraction(x) for x in row] for row in M]
    d = 1
    for row in F:
        for x in row:
            d = lcm(d, x.denominator)
    A = tuple(tuple(x.numerator * (d // x.denominator) for x in row)
              for row in F)
    return A, d


def lattice_canonical(M) -> RatMatrix:
    """Canonical basis of the full-rank rational row lattice spanned by M.

    Unique per lattice: scale to integers, take the HNF basis, scale back.
    Accepts any generating set (possibly more rows than columns).
    """
    R = rmat(M)
    A, d = clear_denominators(R)
    H = hnf_basis(A, expect_rank=len(R[0]))
    return tuple(tuple(Fraction(x, d) for x in row) for row in H)


def triangular_coords(L, v):
    """The coordinates x of the row vector v over the basis L (x L = v).

    L is upper triangular with a nonzero diagonal, as every canonical basis
    (an HNF, possibly scaled) is.  Forward substitution yields x_0, x_1, ...
    one at a time, so a membership test can stop at the first non-integral
    coordinate.  Integer input stays integer while the divisions are exact.
    """
    x = []
    for j, row in enumerate(L):
        p = row[j]
        if p == 0 or any(row[:j]):
            raise PreconditionError("basis is not upper triangular")
        s = v[j]
        for i in range(j):
            c = L[i][j]
            if c:
                s -= x[i] * c
        if type(s) is not int:
            s = s / p
        elif s % p == 0:
            s //= p
        else:
            s = Fraction(s, p)
        x.append(s)
        yield s


def lattice_contains(L, v) -> bool:
    """Whether the row vector v lies in the lattice with triangular basis L."""
    for c in triangular_coords(L, v):
        if c.denominator != 1:
            return False
    return True


def hnf_index(H) -> int:
    """|det H| of a triangular basis with positive diagonal: the product of
    the diagonal, which for an integer HNF basis is its index in Z^n."""
    out = 1
    for i, row in enumerate(H):
        out *= row[i]
    return out


def lattice_index(L, M) -> int:
    """Index [L : M] of one full-rank row lattice in another.

    L and M are any bases, integer or rational; both are canonicalized.
    Raises PreconditionError if M is not contained in L, RankError if either
    basis is singular.
    """
    L, M = lattice_canonical(L), lattice_canonical(M)
    if not all(lattice_contains(L, row) for row in M):
        raise PreconditionError("row lattice of M is not contained in L")
    return int(hnf_index(M) / hnf_index(L))


# the former name for rational bases, still wrapped by perfbench/spans.py
rat_lattice_index = lattice_index


def integrality_lattice(A: RatMatrix) -> RatMatrix:
    """Basis of {v in Q^n : v*A is integral}, for A of full row rank n.

    This is the workhorse behind left/right order computations: conditions of
    the form "v times each of several matrices stays integral" are expressed
    by stacking those matrices into A column-wise.
    """
    P, d = clear_denominators(rmat(A))
    Ht = hnf(transpose(P))
    n = len(A)
    top = tuple(row for row in Ht if any(row))
    if len(top) != n:
        raise RankError("integrality constraints are rank-deficient")
    # v*P integral*d  <=>  v*H0^T in d*Z^n with H0 the column-HNF core of P
    B = mat_scale(d, mat_inv(transpose(top)))
    return lattice_canonical(B)


def congruence_kernel(f: Sequence[int], m: int) -> IntMatrix:
    """Basis of {t in Z^n : t . f == 0 (mod m)} for m >= 1.

    The rows (f_i | e_i) and (m | 0) span {(t . f + k m, t)}; below the one
    pivot in column 0, the HNF rows are those with t . f + k m = 0.
    """
    n = len(f)
    rows = tuple((int(x),) + tuple(int(i == j) for j in range(n))
                 for i, x in enumerate(f)) + ((m,) + (0,) * n,)
    return tuple(row[1:] for row in hnf_basis(rows)[1:])


def congruence_sublattice(R: IntMatrix, c: Sequence[int], m: int) -> IntMatrix:
    """Sublattice {x in rowspan(R) : x . c == 0 (mod m)}, basis in HNF."""
    f = tuple(sum(r * int(ci) for r, ci in zip(row, c)) for row in R)
    T = congruence_kernel(f, m)
    return hnf_basis(mat_mul(T, R), expect_rank=len(R[0]))
