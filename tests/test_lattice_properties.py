"""Property tests: coordinates, membership and indices over canonical bases
against a matrix-inverse reference."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmtree import linalg as la
from qmtree.errors import PreconditionError


def square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: tuple(tuple(r) for r in rows))


def rational(bound=6):
    return st.builds(Fraction, st.integers(-bound, bound),
                     st.sampled_from([1, 1, 2, 3, 6]))


@st.composite
def lattice_case(draw):
    """(n, integer?, a generating basis, a lattice in it or not, a vector)."""
    n = draw(st.integers(1, 4))
    integer = draw(st.booleans())
    entry = st.integers(-6, 6) if integer else rational()
    A = draw(square(n, entry))
    assume(la.det(A) != 0)
    U = draw(square(n, st.integers(-3, 3)))
    assume(la.det(U) != 0)
    # M = U A lies in L; dividing one row by a prime usually leaves L
    M = la.mat_mul(U, A)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        p = draw(st.sampled_from([2, 3, 5]))
        M = tuple(tuple(Fraction(x, p) for x in row) if i == k else row
                  for i, row in enumerate(M))
    v = tuple(draw(entry) for _ in range(n))
    return n, integer, A, M, v


def reference_coords(L, v):
    return la.mat_mul((tuple(Fraction(x) for x in v),), la.mat_inv(L))[0]


@settings(max_examples=300, deadline=None)
@given(lattice_case())
def test_triangular_routine_matches_inverse_reference(case):
    n, integer, A, M, v = case
    L = la.hnf_basis(A) if integer else la.lattice_canonical(A)
    want = reference_coords(L, v)
    got = tuple(la.triangular_coords(L, v))
    assert got == want
    if integer:
        # integer input never turns into a float on the way
        assert all(isinstance(x, (int, Fraction)) for x in got)
    assert la.lattice_contains(L, v) == all(x.denominator == 1 for x in want)
    # every lattice vector is a member
    w = tuple(sum(c * row[j] for c, row in zip(range(1, n + 1), L))
              for j in range(n))
    assert la.lattice_contains(L, w)

    X = la.mat_mul(la.rmat(M), la.mat_inv(la.rmat(A)))
    if all(x.denominator == 1 for row in X for x in row):
        want_index = abs(la.det(X))
        assert la.lattice_index(A, M) == want_index
        assert la.lattice_index(L, M) == want_index
        assert la.rat_lattice_index(A, M) == want_index
    else:
        with pytest.raises(PreconditionError):
            la.lattice_index(A, M)
