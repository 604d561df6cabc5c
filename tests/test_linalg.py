"""Exact linear algebra tests.

Oracles here are deliberately independent of the production code paths:
Smith divisors via gcds of k x k minors, lattice indices via coset closure,
kernels by exhaustive enumeration.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from qmtree.errors import PreconditionError, RankError
from qmtree import linalg as la


# ---------------------------------------------------------------- oracles

def minor_gcd_snf(M):
    """Smith divisors via determinantal divisors: e_k = d_k / d_{k-1}."""
    n = len(M)
    d = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = tuple(tuple(M[i][j] for j in cols) for i in rows)
                g = gcd(g, int(la.det(sub)))
        if g == 0:
            raise ZeroDivisionError("singular")
        d.append(g)
    return tuple(d[k] // d[k - 1] for k in range(1, n + 1))


def reduce_mod_rows(v, H):
    # ascending pass: row i only disturbs coordinates >= i
    v = list(v)
    for i in range(len(v)):
        q = v[i] // H[i][i]
        v = [x - q * h for x, h in zip(v, H[i])]
    return tuple(v)


def coset_count(X):
    """Index of rowspan(X) in Z^n by closure under unit-vector steps."""
    H = la.hnf_basis(X)
    n = len(H)
    seen = {reduce_mod_rows((0,) * n, H)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                for s in (1, -1):
                    w = list(v)
                    w[i] += s
                    w = reduce_mod_rows(w, H)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return len(seen)


def brute_kernel_mod_p(M, p):
    n = len(M[0])
    out = []
    for v in product(range(p), repeat=n):
        if any(v) and all(sum(r * x for r, x in zip(row, v)) % p == 0
                          for row in M):
            out.append(v)
    return set(out)


def hnf_with_transform(M):
    """(H, U) with H = U*M the frozen-convention HNF and U unimodular: the
    earlier production hnf, which carried U through every row operation."""
    m = len(M)
    n = len(M[0]) if m else 0
    H = [list(row) for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
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
                U[i] = [v - q * u for u, v in zip(U[r], U[i])]
                continue
            g, x, y = la.xgcd(a, b)
            p, q = -(b // g), a // g
            hr, hi = H[r], H[i]
            H[r] = [x * u + y * v for u, v in zip(hr, hi)]
            H[i] = [p * u + q * v for u, v in zip(hr, hi)]
            ur, ui = U[r], U[i]
            U[r] = [x * u + y * v for u, v in zip(ur, ui)]
            U[i] = [p * u + q * v for u, v in zip(ur, ui)]
        if H[r][c] == 0:
            continue
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        piv = H[r][c]
        for i in range(r):
            q = H[i][c] // piv
            if q:
                H[i] = [u - q * v for u, v in zip(H[i], H[r])]
                U[i] = [u - q * v for u, v in zip(U[i], U[r])]
        r += 1
    return tuple(tuple(row) for row in H), tuple(tuple(row) for row in U)


def congruence_kernel_oracle(f, m):
    """{t : t . f == 0 mod m} from the transform of the column HNF of f:
    its first row scaled by m / gcd(g, m), then the rows that kill f."""
    n = len(f)
    H, U = hnf_with_transform(tuple((x,) for x in f))
    g = H[0][0] if H and H[0] else 0
    m1 = m // gcd(g, m)
    rows = [tuple(m1 * x for x in U[0])] + [tuple(U[i]) for i in range(1, n)]
    return la.hnf_basis(tuple(rows), expect_rank=n)


def random_unimodular(rng, n):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        U[i] = [-a for a in U[i]]
    return tuple(tuple(r) for r in U)


# ---------------------------------------------------------------- HNF

def test_hnf_identity_fixed():
    I4 = la.identity(4)
    H, U = hnf_with_transform(I4)
    assert H == I4 and U == I4
    assert la.hnf(I4) == H


def test_hnf_diag_fixed():
    M = la.imat([[2, 0], [0, 1]])
    H, U = hnf_with_transform(M)
    assert H == M
    assert U == la.identity(2)
    assert la.hnf(M) == H


def test_hnf_structure_and_transform():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        H, U = hnf_with_transform(M)
        assert la.hnf(M) == H
        assert la.mat_mul(U, M) == H
        assert abs(la.det(U)) == 1
        # echelon: pivot columns strictly increase, zero rows at the bottom
        last = -1
        seen_zero = False
        for row in H:
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                seen_zero = True
                continue
            assert not seen_zero
            assert nz > last
            last = nz
            assert row[nz] > 0
        # entries above a pivot reduced into [0, pivot)
        for r, row in enumerate(H):
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                continue
            for i in range(r):
                assert 0 <= H[i][nz] < row[nz]


def test_hnf_unique_per_row_lattice():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 4)
        while True:
            M = tuple(tuple(rng.randint(-6, 6) for _ in range(n))
                      for _ in range(n))
            if la.det(M) != 0:
                break
        V = random_unimodular(rng, n)
        H1, _ = hnf_with_transform(M)
        H2, _ = hnf_with_transform(la.mat_mul(V, M))
        assert H1 == H2
        assert la.hnf(M) == H1 and la.hnf(la.mat_mul(V, M)) == H2


def test_hnf_basis_rank_guard():
    with pytest.raises(RankError):
        la.hnf_basis(la.imat([[1, 2], [2, 4]]))
    assert la.hnf_basis(la.imat([[1, 2], [2, 4]]), expect_rank=1) == ((1, 2),)


def test_hnf_mod_fixed_values():
    # 2 (1, 1) and 4 e_1 span the column-1 annihilator that a plain
    # echelon mod 8 would miss: 4 (1, 1) = (4, 4) = (4, 0) mod 8
    assert la.hnf_mod(((2, 2),), 2, 8) == ((2, 2), (0, 8))
    assert la.hnf_mod(((4, 2),), 2, 8) == ((4, 2), (0, 4))
    assert la.hnf_mod(((0, 0, 0),), 3, 9) == ((9, 0, 0), (0, 9, 0), (0, 0, 9))
    assert la.hnf_mod(((5, 7), (-3, 14)), 7, 7) == ((1, 0), (0, 7))


def test_hnf_mod_matches_hnf_of_the_stacked_lattice():
    rng = random.Random(71)
    for _ in range(400):
        ell = rng.choice([2, 3, 5, 7, 613])
        m = ell ** rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.choice([0, rng.randint(-3 * m, 3 * m),
                                    ell * rng.randint(-m, m)])
                        for _ in range(n)) for _ in range(rng.randint(1, 6)))
        mI = tuple(tuple(m * int(i == j) for j in range(n)) for i in range(n))
        assert la.hnf_mod(M, ell, m) == la.hnf_basis(mI + M), (ell, m, M)


def test_mat_inv_mod_matches_the_fraction_inverse():
    rng = random.Random(73)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 101])
        m = p ** rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-2 * m, 2 * m) for _ in range(n))
                  for _ in range(n))
        d = la.det(M)
        if d % p == 0:
            with pytest.raises(RankError):
                la.mat_inv_mod(M, m)
            continue
        want = tuple(tuple(x.numerator * pow(x.denominator, -1, m) % m
                           for x in row) for row in la.mat_inv(M))
        assert la.mat_inv_mod(M, m) == want


# ---------------------------------------------------------------- SNF

def test_snf_fixed_values():
    assert la.snf(la.imat([[2, 1], [0, 2]])) == (1, 4)
    assert la.snf(la.identity(2)) == (1, 1)
    assert la.snf(la.imat([[6]])) == (6,)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 4)
        while True:
            M = tuple(tuple(rng.randint(-8, 8) for _ in range(n))
                      for _ in range(n))
            if la.det(M) != 0:
                break
        got = la.snf(M)
        assert got == minor_gcd_snf(M)
        for a, b in zip(got, got[1:]):
            assert b % a == 0
        prod = 1
        for e in got:
            prod *= e
        assert prod == abs(int(la.det(M)))


def test_snf_singular_rejected():
    with pytest.raises(RankError):
        la.snf(la.imat([[1, 2], [2, 4]]))


# ---------------------------------------------------------------- indices

def test_lattice_index_fixed_values():
    Z4 = la.identity(4)
    assert la.lattice_index(Z4, la.mat_scale(2, Z4)) == 16
    assert la.lattice_index(la.identity(2), la.imat([[5, 0], [0, 1]])) == 5


def test_lattice_index_matches_coset_oracle():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        while True:
            X = tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                      for _ in range(n))
            d = la.det(X)
            if d != 0 and abs(d) <= 60:
                break
        assert la.lattice_index(la.identity(n), X) == coset_count(X)


def test_lattice_index_multiplicative_in_towers():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 4)
        L = la.identity(n)
        while True:
            A = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                      for _ in range(n))
            if la.det(A) != 0:
                break
        B = la.hnf_basis(la.mat_scale(2, A))
        assert (la.lattice_index(L, B)
                == la.lattice_index(L, A) * la.lattice_index(A, B))


def test_lattice_index_rejects_non_sublattice():
    with pytest.raises(PreconditionError):
        la.lattice_index(la.imat([[2, 0], [0, 2]]), la.identity(2))


def test_lattice_index_rejects_singular_bases():
    singular = la.rmat([[1, 2], [Fraction(1, 2), 1]])
    with pytest.raises(RankError):
        la.lattice_index(la.identity(2), singular)
    with pytest.raises(RankError):
        la.lattice_index(singular, la.identity(2))


# ---------------------------------------------------------------- kernels

def test_kernel_mod_p_matches_enumeration():
    rng = random.Random(41)
    for p in (2, 3, 5):
        for _ in range(25):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = tuple(tuple(rng.randint(-6, 6) for _ in range(n))
                      for _ in range(m))
            basis = la.kernel_mod_p(M, p)
            spanned = set()
            for coeffs in product(range(p), repeat=len(basis)):
                v = [0] * n
                for c, b in zip(coeffs, basis):
                    v = [(x + c * y) % p for x, y in zip(v, b)]
                if any(v):
                    spanned.add(tuple(v))
            assert spanned == brute_kernel_mod_p(M, p)


def test_kernel_mod_p_full_rank_is_trivial():
    assert la.kernel_mod_p(la.identity(3), 5) == []


# ---------------------------------------------------------------- lattices over Q

def test_lattice_canonical_presentation_independent():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 4)
        while True:
            B = tuple(tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                            for _ in range(n)) for _ in range(n))
            if la.det(B) != 0:
                break
        U = random_unimodular(rng, n)
        assert la.lattice_canonical(B) == la.lattice_canonical(la.mat_mul(U, B))
        # redundant generators change nothing
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        extra = tuple(sum(c * row[j] for c, row in zip(coeffs, B))
                      for j in range(n))
        assert (la.lattice_canonical(B)
                == la.lattice_canonical(B + (extra,)))


def test_lattice_contains_basic():
    L = la.rmat([[Fraction(1, 2), 0], [0, 1]])
    assert la.lattice_contains(L, (Fraction(3, 2), 4))
    assert not la.lattice_contains(L, (Fraction(1, 3), 0))


def test_triangular_coords_reject_non_triangular_basis():
    for L in (la.imat([[1, 0], [1, 1]]), la.imat([[1, 1], [0, 0]])):
        with pytest.raises(PreconditionError):
            tuple(la.triangular_coords(L, (1, 1)))


def test_integrality_lattice_exact_dual_description():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(2, 3)
        k = rng.randint(n, n + 2)
        while True:
            A = tuple(tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                            for _ in range(k)) for _ in range(n))
            try:
                B = la.integrality_lattice(A)
                break
            except RankError:
                continue
        # every basis vector satisfies the defining condition
        for row in B:
            img = la.mat_mul((row,), A)[0]
            assert all(x.denominator == 1 for x in img)
        # vectors satisfying the condition land inside the lattice
        for _ in range(40):
            v = tuple(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
                      for _ in range(n))
            img = la.mat_mul((v,), A)[0]
            if all(x.denominator == 1 for x in img):
                assert la.lattice_contains(B, v)


def test_congruence_kernel_index_and_membership():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.choice([2, 3, 4, 5, 6])
        f = tuple(rng.randint(-7, 7) for _ in range(n))
        K = la.congruence_kernel(f, m)
        assert K == congruence_kernel_oracle(f, m)
        for row in K:
            assert sum(a * b for a, b in zip(row, f)) % m == 0
        g = 0
        for x in f:
            g = gcd(g, x)
        assert la.lattice_index(la.identity(n), K) == m // gcd(g, m)


def test_congruence_sublattice_respects_ambient():
    R = la.imat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    S = la.congruence_sublattice(R, (1, 1, 0), 3)
    assert la.lattice_index(R, S) == 3
    for row in S:
        assert (row[0] + row[1]) % 3 == 0
        assert row[0] % 2 == 0
