"""Quaternion algebras over Q with exact rational arithmetic.

An algebra is fixed by the pair (a, b): basis 1, i, j, k with i*i = a,
j*j = b, i*j = -j*i = k.  Elements carry Fraction coordinates in that basis.
Local behaviour (split or ramified at each place) comes from the Hilbert
symbol in closed form; the finite ramified places determine the reduced
discriminant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Tuple

from .errors import AlgebraError, InvariantError, ResourceError

# place tokens: a prime for a finite place, None for the real place
Place = Optional[int]


# ---------------------------------------------------------------- primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _MR_BASES
_PSI_13 = 3317044064679887385961981
# trial divisors stop here; a cofactor left beyond it must test prime
_TRIAL_LIMIT = 10 ** 6


def is_prime(n: int) -> bool:
    """Miller-Rabin with the thirteen prime bases 2..41, and from psi_13 on
    a strong Lucas test as well.

    Exact below psi_13 = 3317044064679887385961981 (Sorenson and Webster,
    2015).  From psi_13 on, base 2 and the Lucas test make this the
    Baillie-PSW test: no composite is known to pass it, but that is not a
    proof, so a prime answer there is the one stated limit of exactness.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 1."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable prime test for odd n > 1, with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D + 2 if D < 0 else -D - 2
    if j == 0:
        return abs(D) == n
    Q, half = (1 - D) // 4, (n + 1) // 2  # half = 1/2 mod n
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # (U_k, V_k, Q^k) from k = 0 along the bits of d: k -> 2k, then
    # 2k -> 2k + 1 on a set bit
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def factorize(n: int) -> List[Tuple[int, int]]:
    """Sorted (prime, exponent) pairs of |n|, n != 0.

    Trial division up to _TRIAL_LIMIT; a larger cofactor that is not
    prime raises ResourceError.
    """
    if n == 0:
        raise AlgebraError("cannot factor 0")
    n = abs(n)
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        if f > _TRIAL_LIMIT:
            if not is_prime(n):
                raise ResourceError(
                    f"cannot factor a {n.bit_length()}-bit cofactor "
                    f"without a prime factor below {_TRIAL_LIMIT}")
            break
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def squarefree_part(r) -> int:
    """The squarefree integer in the square class of a nonzero rational."""
    r = Fraction(r)
    if r == 0:
        raise AlgebraError("0 has no square class")
    n = r.numerator * r.denominator
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(n):
        if e % 2:
            out *= p
    return out


def _legendre(u: int, p: int) -> int:
    t = pow(u % p, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(u: int, p: int) -> int:
    """A square root of the quadratic residue u modulo the odd prime p, by
    Tonelli-Shanks.

    Every loop is bounded (the non-residue search by p, the order search by
    the 2-part of p - 1), so a composite p raises InvariantError instead of
    spinning; so does a u that is not a square.
    """
    u %= p
    if u == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next((z for z in range(2, p) if _legendre(z, p) == -1), None)
    if z is None:
        raise InvariantError(f"no quadratic non-residue mod {p}")
    c, t, r = pow(z, q, p), pow(u, q, p), pow(u, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            if i == s - 1:
                raise InvariantError(f"{u} has no square root mod {p}")
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    if r * r % p != u:
        raise InvariantError(f"{u} has no square root mod {p}")
    return r


def hilbert_symbol(a, b, place: Place) -> int:
    """Hilbert symbol (a, b) at a finite prime or (place=None) the real place.

    Closed form on squarefree representatives; returns +1 or -1.
    """
    a = squarefree_part(a)
    b = squarefree_part(b)
    if place is None:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not is_prime(p):
        raise AlgebraError(f"{p} is not a prime")
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1
    if p == 2:
        def eps(u):
            return ((u - 1) // 2) % 2

        def omega(u):
            return ((u * u - 1) // 8) % 2

        e = eps(a) * eps(b) + alpha * omega(b) + beta * omega(a)
        return -1 if e % 2 else 1
    e = alpha * beta * ((p - 1) // 2)
    s = (-1) ** (e % 2)
    if beta:
        s *= _legendre(a, p)
    if alpha:
        s *= _legendre(b, p)
    return s


# ---------------------------------------------------------------- algebra

@dataclass(frozen=True)
class QuaternionAlgebra:
    """The rational quaternion algebra with i*i = a, j*j = b."""

    a: Fraction
    b: Fraction

    def __init__(self, a, b):
        a = Fraction(a)
        b = Fraction(b)
        if a == 0 or b == 0:
            raise AlgebraError("structure constants must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def element(self, x0=0, x1=0, x2=0, x3=0) -> "QuatElement":
        return QuatElement(self, (Fraction(x0), Fraction(x1),
                                  Fraction(x2), Fraction(x3)))

    def one(self) -> "QuatElement":
        return self.element(1)

    def basis(self) -> Tuple["QuatElement", ...]:
        return (self.element(1), self.element(0, 1),
                self.element(0, 0, 1), self.element(0, 0, 0, 1))

    def is_ramified_at(self, place: Place) -> bool:
        return hilbert_symbol(self.a, self.b, place) == -1

    def ramified_primes(self) -> List[int]:
        """Sorted finite ramified primes.  Their count has the same parity as
        ramification at the real place (product formula), which is checked."""
        cand = {2}
        cand.update(p for p, _ in factorize(squarefree_part(self.a)) if p > 0)
        cand.update(p for p, _ in factorize(squarefree_part(self.b)) if p > 0)
        ram = sorted(p for p in cand if self.is_ramified_at(p))
        real = self.is_ramified_at(None)
        if len(ram) % 2 != (1 if real else 0):
            raise InvariantError("product formula violated")
        return ram

    def discriminant(self) -> int:
        d = 1
        for p in self.ramified_primes():
            d *= p
        return d

    def is_definite(self) -> bool:
        return self.is_ramified_at(None)

    def is_split(self) -> bool:
        return self.discriminant() == 1

    def __repr__(self):
        return f"QuaternionAlgebra({self.a}, {self.b})"


@dataclass(frozen=True)
class QuatElement:
    """x0 + x1*i + x2*j + x3*k with Fraction coordinates."""

    algebra: QuaternionAlgebra
    coeffs: Tuple[Fraction, Fraction, Fraction, Fraction]

    def _same(self, other: "QuatElement"):
        if self.algebra != other.algebra:
            raise AlgebraError("elements live in different algebras")

    def __add__(self, other):
        other = self._coerce(other)
        self._same(other)
        return QuatElement(self.algebra, tuple(
            x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        self._same(other)
        return QuatElement(self.algebra, tuple(
            x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return QuatElement(self.algebra, tuple(-x for x in self.coeffs))

    def _coerce(self, other):
        if isinstance(other, QuatElement):
            return other
        return self.algebra.element(Fraction(other))

    def __mul__(self, other):
        if not isinstance(other, QuatElement):
            return QuatElement(self.algebra, tuple(
                x * Fraction(other) for x in self.coeffs))
        self._same(other)
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        y0, y1, y2, y3 = other.coeffs
        return QuatElement(self.algebra, (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ))

    def __rmul__(self, other):
        # scalars commute; anything else goes through __mul__
        return QuatElement(self.algebra, tuple(
            Fraction(other) * x for x in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.algebra.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuatElement":
        x0, x1, x2, x3 = self.coeffs
        return QuatElement(self.algebra, (x0, -x1, -x2, -x3))

    def trd(self) -> Fraction:
        return 2 * self.coeffs[0]

    def nrd(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self) -> "QuatElement":
        n = self.nrd()
        if n == 0:
            raise AlgebraError("element of reduced norm 0 has no inverse")
        return QuatElement(self.algebra,
                           tuple(c / n for c in self.conjugate().coeffs))

    def __repr__(self):
        names = ("", "i", "j", "k")
        parts = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            parts.append(f"{c}{'*' + name if name else ''}")
        return " + ".join(parts) if parts else "0"
