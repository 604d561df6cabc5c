"""Quaternion arithmetic and local symbol tests.

The symbol oracle is a direct search: the ternary form z^2 = a x^2 + b y^2
is checked for primitive solutions modulo p^2 (odd p) or 2^5, which decides
p-adic solubility for squarefree coefficients.
"""

import random
from fractions import Fraction

import pytest

from qmtree import quaternion
from qmtree.errors import AlgebraError, InvariantError, ResourceError
from qmtree.quaternion import (QuaternionAlgebra, factorize, hilbert_symbol,
                               is_prime, sqrt_mod, squarefree_part)


# ---------------------------------------------------------------- oracle

def naive_squarefree(r):
    n = Fraction(r).numerator * Fraction(r).denominator
    s = -1 if n < 0 else 1
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    return s * n


def brute_symbol(a, b, p):
    a = naive_squarefree(a)
    b = naive_squarefree(b)
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    M = 2 ** 5 if p == 2 else p ** 2
    squares = {(z * z) % M for z in range(M)}
    for x in range(M):
        axx = a * x * x
        for y in range(M):
            if x % p == 0 and y % p == 0:
                continue
            if (axx + b * y * y) % M in squares:
                return 1
    return -1


# ---------------------------------------------------------------- primes

def test_is_prime_small_range():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for m in range(i * i, 2000, i):
                sieve[m] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n]


def test_is_prime_larger_samples():
    assert is_prime(10 ** 9 + 7)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(10 ** 42 + 63)
    assert is_prime(2 ** 127 - 1) and is_prime(2 ** 521 - 1)
    assert not is_prime((2 ** 89 - 1) * (2 ** 127 - 1))


# the least strong pseudoprimes to the first twelve and thirteen prime bases
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_psi_12_and_psi_13():
    # Miller-Rabin with the bases 2..37 alone passes both, and with 2..41
    # still passes PSI_13: base 41 rejects PSI_12, the Lucas test PSI_13
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)
    assert PSI_13 == quaternion._PSI_13


# the strong Lucas pseudoprimes (Selfridge parameters) below 2 * 10^5
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
    162133, 176399, 176471, 189419, 192509, 197801]


def test_strong_lucas_passes_primes_and_the_known_pseudoprimes_only():
    N = 2 * 10 ** 5
    sieve = bytearray([1]) * N
    sieve[0] = sieve[1] = 0
    for i in range(2, 448):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, N, i)))
    passed = [n for n in range(3, N, 2) if quaternion._strong_lucas(n)]
    assert [n for n in passed if not sieve[n]] == STRONG_LUCAS_PSEUDOPRIMES
    assert len(passed) == sum(sieve) - 1 + len(STRONG_LUCAS_PSEUDOPRIMES)


def test_sqrt_mod_roots_and_non_residues():
    for p in (3, 5, 7, 13, 17, 97, 101, 1009):
        squares = {z * z % p for z in range(p)}
        for u in range(p):
            if u in squares:
                r = sqrt_mod(u, p)
                assert 0 <= r < p and r * r % p == u
            else:
                with pytest.raises(InvariantError):
                    sqrt_mod(u, p)
    # p - 1 = 2^9 * 15: the Tonelli-Shanks loop runs several rounds
    assert sqrt_mod(2, 7681) ** 2 % 7681 == 2


def test_sqrt_mod_terminates_on_composite_moduli():
    for m in (9, 15, 21, 25, 45, 91, 561, 1105, 65 * 97):
        for u in range(min(m, 300)):
            try:
                r = sqrt_mod(u, m)
            except InvariantError:
                continue
            assert r * r % m == u % m


def test_factorize_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 10 ** 6)
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
        assert fac == sorted(fac)


def test_factorize_guard_on_large_cofactors():
    p, q = 1000003, 1000033
    assert is_prime(p) and is_prime(q)
    with pytest.raises(ResourceError):
        factorize(p * q)
    # a prime cofactor past the trial bound is still returned
    m61 = 2 ** 61 - 1
    assert factorize(12 * m61) == [(2, 2), (3, 1), (m61, 1)]
    assert factorize(p * 7) == [(7, 1), (p, 1)]
    # both factors of PSI_12 lie past the trial bound
    with pytest.raises(ResourceError):
        factorize(PSI_12)


def test_squarefree_part_values():
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(Fraction(4, 9)) == 1
    assert squarefree_part(Fraction(-3, 2)) == -6
    with pytest.raises(AlgebraError):
        squarefree_part(0)


# ---------------------------------------------------------------- symbols

def test_hilbert_symbol_rejects_a_composite_place():
    with pytest.raises(AlgebraError, match="4 is not a prime"):
        hilbert_symbol(2, 3, 4)


def test_hilbert_symbol_fixed_values():
    assert hilbert_symbol(-1, 3, 3) == -1
    assert hilbert_symbol(-1, 3, 2) == -1
    assert hilbert_symbol(-1, 3, 5) == 1
    assert hilbert_symbol(-1, -1, None) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    for b in (-7, -1, 2, 3, 30):
        for v in (None, 2, 3, 5, 7):
            assert hilbert_symbol(1, b, v) == 1


def _count_factorize(monkeypatch):
    calls = []
    real = quaternion.factorize

    def spy(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(quaternion, "factorize", spy)
    return calls


@pytest.mark.parametrize("a,b,disc", [
    (-1, 10 ** 42 + 63, 2 * (10 ** 42 + 63)),
    (12, Fraction(-45, 7), 35),
    (50, Fraction(98, 3), 6),
    (-2, -1, 2),
    (Fraction(4, 9), -7, 1),
])
def test_algebra_factors_a_and_b_once(monkeypatch, a, b, disc):
    calls = _count_factorize(monkeypatch)
    B = QuaternionAlgebra(a, b)
    assert B.discriminant() == disc
    ram = B.ramified_primes()
    assert all(B.is_ramified_at(p) for p in ram)
    assert B.is_ramified_at(None) == B.is_definite()
    assert B.is_split() == (disc == 1)
    assert len(calls) <= 2
    # the cached square classes give the public symbol's answers
    primes = {2, *(q for q, _ in factorize(
        squarefree_part(a) * squarefree_part(b)))}
    assert ram == sorted(p for p in primes if hilbert_symbol(a, b, p) == -1)


def test_hilbert_symbol_at_the_real_place_factors_nothing(monkeypatch):
    calls = _count_factorize(monkeypatch)
    assert hilbert_symbol(-1, -(1000003 * 1000033), None) == -1
    assert hilbert_symbol(Fraction(-1, 2), 3, None) == 1
    assert calls == []
    with pytest.raises(AlgebraError, match="0 has no square class"):
        hilbert_symbol(0, -1, None)


def test_hilbert_symbol_matches_search_small_grid():
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a == 0 or b == 0:
                continue
            for p in (None, 2, 3, 5):
                assert hilbert_symbol(a, b, p) == brute_symbol(a, b, p), \
                    (a, b, p)


def test_hilbert_symbol_matches_search_random():
    rng = random.Random(17)
    for _ in range(50):
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        p = rng.choice([None, 2, 3, 5, 7, 11, 13])
        assert hilbert_symbol(a, b, p) == brute_symbol(a, b, p), (a, b, p)


def test_hilbert_symbol_rational_square_class_invariance():
    rng = random.Random(19)
    for _ in range(60):
        a = Fraction(rng.choice([-3, -1, 2, 5, 6]))
        b = Fraction(rng.choice([-2, -1, 3, 7, 10]))
        s = Fraction(rng.randint(1, 9)) ** 2 * rng.choice([1, Fraction(1, 4)])
        p = rng.choice([None, 2, 3, 5, 7])
        assert hilbert_symbol(a * s, b, p) == hilbert_symbol(a, b, p)
        assert hilbert_symbol(a, b * s, p) == hilbert_symbol(a, b, p)


def test_hilbert_symbol_bilinearity_in_first_slot():
    rng = random.Random(23)
    for _ in range(60):
        a1 = rng.choice([-5, -2, -1, 2, 3, 7])
        a2 = rng.choice([-7, -3, -1, 2, 5, 11])
        b = rng.choice([-6, -2, -1, 3, 5, 13])
        p = rng.choice([None, 2, 3, 5, 7, 11])
        assert (hilbert_symbol(a1 * a2, b, p)
                == hilbert_symbol(a1, b, p) * hilbert_symbol(a2, b, p))


def test_product_formula():
    rng = random.Random(29)
    for _ in range(40):
        a = rng.choice([x for x in range(-20, 21) if x])
        b = rng.choice([x for x in range(-20, 21) if x])
        places = {None, 2}
        for p, _ in factorize(abs(a)):
            places.add(p)
        for p, _ in factorize(abs(b)):
            places.add(p)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


# ---------------------------------------------------------------- algebras

def test_discriminants_fixed():
    assert QuaternionAlgebra(-1, -1).discriminant() == 2
    assert QuaternionAlgebra(-1, 3).discriminant() == 6
    assert QuaternionAlgebra(-2, 5).discriminant() == 10
    assert QuaternionAlgebra(-1, 11).discriminant() == 22
    assert QuaternionAlgebra(1, 1).discriminant() == 1
    assert QuaternionAlgebra(1, 1).is_split()
    assert not QuaternionAlgebra(-1, 3).is_split()


def test_ramified_primes_and_definite():
    A = QuaternionAlgebra(-1, 3)
    assert A.ramified_primes() == [2, 3]
    assert not A.is_definite()
    B = QuaternionAlgebra(-1, -1)
    assert B.ramified_primes() == [2]
    assert B.is_definite()


def test_bad_structure_constants():
    with pytest.raises(AlgebraError):
        QuaternionAlgebra(0, 5)


# ---------------------------------------------------------------- elements

def rand_elt(rng, A, span=6):
    return A.element(*[Fraction(rng.randint(-span, span),
                                rng.choice([1, 1, 2, 3])) for _ in range(4)])


def test_basis_relations():
    A = QuaternionAlgebra(-1, 3)
    one, i, j, k = A.basis()
    a, b = A.a, A.b
    assert i * i == a * one
    assert j * j == b * one
    assert i * j == k
    assert j * i == -k
    assert k * k == -a * b * one
    assert i * k == a * j
    assert k * i == -a * j
    assert j * k == -b * i
    assert k * j == b * i


def test_ring_axioms_random():
    rng = random.Random(31)
    A = QuaternionAlgebra(-2, 5)
    for _ in range(40):
        x, y, z = (rand_elt(rng, A) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x * A.one() == x and A.one() * x == x


def test_norm_trace_conjugation():
    rng = random.Random(37)
    for a, b in ((-1, -1), (-1, 3), (-2, 5), (1, 1)):
        A = QuaternionAlgebra(a, b)
        for _ in range(25):
            x, y = rand_elt(rng, A), rand_elt(rng, A)
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
            assert (x * y).nrd() == x.nrd() * y.nrd()
            assert (x * y).trd() == (y * x).trd()
            assert x * x.conjugate() == A.element(x.nrd())
            # Cayley-Hamilton in degree 2
            assert x * x - x.trd() * x + A.element(x.nrd()) == A.element(0)
            if x.nrd() != 0:
                assert x * x.inverse() == A.one()
                assert x.inverse() * x == A.one()


def test_pow_matches_repeated_multiplication():
    A = QuaternionAlgebra(-1, 3)
    x = A.element(1, 2, Fraction(1, 2), -1)
    acc = A.one()
    for n in range(6):
        assert x ** n == acc
        acc = acc * x


def test_cross_algebra_operations_rejected():
    x = QuaternionAlgebra(-1, 3).element(1, 1, 0, 0)
    y = QuaternionAlgebra(-1, 7).element(1, 1, 0, 0)
    with pytest.raises(AlgebraError):
        _ = x * y
    with pytest.raises(AlgebraError):
        _ = x + y


def test_zero_norm_has_no_inverse():
    A = QuaternionAlgebra(1, 1)  # split: zero divisors exist
    x = A.element(1, 1, 0, 0)  # nrd = 1 - 1 = 0
    assert x.nrd() == 0
    with pytest.raises(AlgebraError):
        x.inverse()
