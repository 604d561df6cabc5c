"""Property tests: coordinates, membership and indices over canonical bases
against a matrix-inverse reference, and the Hermite forms against the stacked
integer HNF and against sympy."""

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


@st.composite
def mod_case(draw):
    """(ell, m = ell^k, M): 0-6 rows of width 1-4 with zero rows, multiples
    of ell and entries out to +-3m."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 13]))
    m = ell ** draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3 * m, 3 * m),
                      st.integers(-m, m).map(lambda x: ell * x))
    row = st.one_of(st.just((0,) * n),
                    st.tuples(*[entry] * n))
    M = tuple(draw(st.lists(row, min_size=0, max_size=6)))
    return ell, m, n, M


@settings(max_examples=400, deadline=None)
@given(mod_case())
def test_hnf_mod_is_the_hnf_of_m_identity_plus_the_rows(case):
    ell, m, n, M = case
    mI = tuple(tuple(m * int(i == j) for j in range(n)) for i in range(n))
    # with no rows the width comes from one zero row
    got = la.hnf_mod(M or ((0,) * n,), ell, m)
    assert got == la.hnf_basis(mI + M)


@pytest.fixture(scope="module")
def sympy_hnf():
    pytest.importorskip("sympy")
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    def rows_basis(M):
        # sympy's HNF is column-style: its columns span the column lattice
        # of the input, so feed it M^T and read its columns as rows
        H = hermite_normal_form(Matrix(M).T)
        return Matrix(H).T
    return rows_basis


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2).flatmap(lambda extra: st.lists(
        st.tuples(*[st.integers(-20, 20)] * n),
        min_size=n + extra, max_size=n + extra)))))
def test_hnf_spans_the_lattice_of_sympys_hnf(sympy_hnf, case):
    from sympy import Matrix
    n, M = case
    H = la.hnf(tuple(M))
    top = tuple(row for row in H if any(row))
    assume(len(top) == n)
    S = sympy_hnf(M)
    assert S.shape == (n, n)
    # each basis lies in the other's lattice
    assert all(la.lattice_contains(top, tuple(int(x) for x in S.row(i)))
               for i in range(n))
    X = Matrix(top) * S.inv()
    assert all(x.is_integer for x in X)
    assert la.hnf_index(top) == abs(S.det())
