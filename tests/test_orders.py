"""Order and ideal tests.

Cross-checks: the mod-ell radical against a quasi-regularity enumeration,
congruence-built ideals against blind Hermite-form enumeration, and a stack
of frozen discriminants and ideal counts.
"""

import functools
import hashlib
import json
import random
from fractions import Fraction
from itertools import islice, product
from math import gcd

import pytest

from qmtree import linalg as la
from qmtree import orders as od
from qmtree.errors import (AlgebraError, InvariantError, PreconditionError,
                           RankError, ResourceError, ValidationError)
from qmtree.ideal_tree import build_ideal_tree
from qmtree.quaternion import (QuatElement, QuaternionAlgebra, factorize,
                               is_prime)

from pullback_oracle import four_generator_pullback


def alg(a, b):
    return QuaternionAlgebra(a, b)


@functools.lru_cache(maxsize=None)
def max_order(a, b):
    return od.maximal_order(alg(a, b))


def is_order(A, rows):
    return not od.order_diagnostics(A, rows)


# ---------------------------------------------------------------- orders

def test_standard_order_is_order_with_expected_disc():
    O = od.standard_order(alg(-1, -1))
    assert od.reduced_discriminant(O) == 4
    O2 = od.standard_order(alg(Fraction(-1, 2), Fraction(3, 5)))
    assert is_order(O2.algebra, O2.basis)


def test_order_diagnostics_flag_failures():
    A = alg(-1, 3)
    no_one = la.rmat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert any("1 is not" in m for m in od.order_diagnostics(A, no_one))
    not_closed = la.rmat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                          [0, 0, 0, Fraction(1, 2)]])
    assert any("closed" in m for m in od.order_diagnostics(A, not_closed))
    assert od.order_diagnostics(A, od.standard_order(A).basis) == []


def test_maximal_order_discriminants_fixed():
    for (a, b), d in [((-1, -1), 2), ((-1, 3), 6), ((-2, 5), 10),
                      ((-1, 11), 22), ((1, 1), 1)]:
        O = max_order(a, b)
        assert od.reduced_discriminant(O) == d
        O.validate()
        # already maximal: a second pass is the identity
        for ell in (2, 3, 5):
            assert od.maximalize_at(O, ell) == O


def test_maximal_order_contains_standard():
    for a, b in [(-1, -1), (-1, 3), (-2, 5), (1, 1)]:
        O0 = od.standard_order(alg(a, b))
        O = od.maximal_order(alg(a, b))
        assert all(la.lattice_contains(O.basis, r) for r in O0.basis)


def test_discriminant_index_relation():
    # d(O0) = d(O) * [O : O0] for O0 inside O
    for a, b in [(-1, 3), (-2, 5), (1, 1)]:
        O0 = od.standard_order(alg(a, b))
        O = od.maximal_order(alg(a, b))
        idx = la.rat_lattice_index(O.basis, O0.basis)
        assert (od.reduced_discriminant(O0)
                == od.reduced_discriminant(O) * idx)


# ---------------------------------------------------------------- radical

def quasi_regular_radical(order, ell):
    """Independent radical: x with 1 - a*x invertible for every residue a.

    Integer ambient arithmetic over the cleared basis B/d: with D = den(a)
    den(b), an element y = Y/d has w = D d^2 (1 - y x) = D d^2 - D (Y X)
    integral, and nrd(1 - y x) = D nrd(w) / (D^3 d^4)."""
    a, b = order.algebra.a, order.algebra.b
    D = a.denominator * b.denominator
    Da, Db, Dab = int(D * a), int(D * b), int(D * a * b)
    B, d = la.clear_denominators(order.basis)
    one, scale = D * d * d, D ** 3 * d ** 4

    def unit_defect(Y, X):
        """nrd(1 - y x) for y = Y/d and x = X/d."""
        y0, y1, y2, y3 = Y
        x0, x1, x2, x3 = X
        w = (one - D * y0 * x0 - Da * y1 * x1 - Db * y2 * x2 + Dab * y3 * x3,
             -D * (y0 * x1 + y1 * x0) + Db * (y2 * x3 - y3 * x2),
             -D * (y0 * x2 + y2 * x0) - Da * (y1 * x3 - y3 * x1),
             -D * (y0 * x3 + y3 * x0 + y1 * x2 - y2 * x1))
        n = (D * w[0] ** 2 - Da * w[1] ** 2 - Db * w[2] ** 2
             + Dab * w[3] ** 2)
        assert n % scale == 0
        return n // scale

    residues = [tuple(c) for c in product(range(ell), repeat=4)]
    rows = {c: la.mat_mul((c,), B)[0] for c in residues}
    return {c for c in residues
            if all(unit_defect(rows[a], rows[c]) % ell for a in residues)}


def span_mod(vectors, ell):
    out = set()
    for coeffs in product(range(ell), repeat=len(vectors)):
        v = (0, 0, 0, 0)
        for t, vec in zip(coeffs, vectors):
            v = tuple((a + t * b) % ell for a, b in zip(v, vec))
        out.add(v)
    return out


def standard(a, b):
    return od.standard_order(alg(a, b))


def eichler_two(a, b):
    return od.eichler_order(max_order(a, b), 2)


# the maximal orders keep their former ids; at ell = 2 the standard orders
# are cases where the norm condition cuts the trace-pairing kernel down
RADICAL_CASES = [pytest.param(max_order, a, b, ell, id=f"{a}-{b}-{ell}")
                 for a, b, ell in [(-1, -1, 2), (-1, 3, 2), (-1, 3, 3),
                                   (-2, 5, 5), (1, 1, 2), (1, 1, 3)]] + [
    pytest.param(max_order, Fraction(-3, 4), Fraction(5, 9), 5,
                 id="a6-b6-5"),
    pytest.param(standard, -1, -1, 2, id="standard--1--1-2"),
    pytest.param(standard, 1, 1, 2, id="standard-1-1-2"),
    pytest.param(standard, -1, 3, 2, id="standard--1-3-2"),
    pytest.param(eichler_two, 1, 1, 2, id="eichler-1-1-2"),
]


@pytest.mark.parametrize("build,a,b,ell", RADICAL_CASES)
def test_radical_matches_quasi_regularity(build, a, b, ell):
    O = build(a, b)
    got = span_mod(od.radical_coords(O, ell), ell)
    assert got == quasi_regular_radical(O, ell)


def test_radical_of_nonmaximal_order_at_odd_prime():
    O = od.eichler_order(max_order(-1, 3), 5)
    got = span_mod(od.radical_coords(O, 5), 5)
    assert got == quasi_regular_radical(O, 5)


# ---------------------------------------------------------------- splitting

def apply(th, x):
    """theta(x) for an element x of th's order: its coordinates over the
    order basis must be integral."""
    c = th.order.coords(x)
    assert all(t.denominator == 1 for t in c)
    return th.apply_coords(tuple(int(t) for t in c))


def test_splitting_data_is_an_isomorphism():
    rng = random.Random(5)
    O = max_order(-1, 3)
    E35 = od.eichler_order(O, 35)
    cases = [(O, 5, 1), (O, 5, 3), (O, 7, 2), (O, 11, 1),
             (max_order(1, 1), 2, 3), (E35, 11, 1)]
    for O, ell, k in cases:
        th = od.splitting_data(O, ell, k)
        m = ell ** k
        assert apply(th, O.algebra.one()) == ((1, 0), (0, 1))
        for _ in range(20):
            c1 = [rng.randint(-8, 8) for _ in range(4)]
            c2 = [rng.randint(-8, 8) for _ in range(4)]
            x = O.algebra.element(*la.mat_mul((c1,), O.basis)[0])
            y = O.algebra.element(*la.mat_mul((c2,), O.basis)[0])
            X, Y = apply(th, x), apply(th, y)
            assert apply(th, x * y) == od._mat2_mul(X, Y, m)
            assert (X[0][0] + X[1][1] - int(x.trd())) % m == 0
            assert (X[0][0] * X[1][1] - X[0][1] * X[1][0]
                    - int(x.nrd())) % m == 0


def test_splitting_inverse_is_integer_and_matches_the_fraction_inverse(
        monkeypatch):
    cases = [(max_order(-1, 3), 5, 3), (max_order(-1, 3), 1009, 1),
             (max_order(-2, 5), 101, 2), (max_order(1, 1), 2, 4)]

    def no_fractions(M):
        raise AssertionError("splitting_data inverted over the rationals")
    with monkeypatch.context() as mp:
        mp.setattr(la, "mat_inv", no_fractions)
        got = [od.splitting_data(O, ell, k) for O, ell, k in cases]
    for th in got:
        m = th.modulus
        want = la.mat_inv([sum(img, ()) for img in th.images])
        assert th.inverse == tuple(
            tuple(x.numerator * pow(x.denominator, -1, m) % m for x in row)
            for row in want)


def test_splitting_data_deterministic_per_seed():
    O = max_order(-2, 5)
    assert od.splitting_data(O, 3, 2) == od.splitting_data(O, 3, 2)
    alt = od.splitting_data(O, 3, 2, seed=99)
    m = 9
    x = O.elements()[1] * O.elements()[2]
    X = apply(alt, x)
    assert (X[0][0] + X[1][1] - int(x.trd())) % m == 0


def test_splitting_data_preconditions():
    O = max_order(-1, 3)
    with pytest.raises(PreconditionError):
        od.splitting_data(O, 2)  # ramified
    E = od.eichler_order(O, 5)
    with pytest.raises(PreconditionError):
        od.splitting_data(E, 5)  # not maximal there
    # but fine away from level and discriminant
    od.splitting_data(E, 7)


def split_idempotent_reference(order, c, roots, ell, k):
    """The former QuatElement Hensel lift: order coordinates mod ell^k of
    the idempotent lifting (x - s)/(r - s), through ambient products and
    Fraction coordinates at every step."""
    A = order.algebra
    r, s = roots
    mod = ell ** k
    inv = pow(r - s, -1, ell)
    e0 = tuple((ci - s * int(u)) * inv % ell
               for ci, u in zip(c, order.coords(A.one())))
    e = A.element(*la.mat_mul((e0,), order.basis)[0])
    prec = 1
    while prec < k:
        e = 3 * (e * e) - 2 * (e * e * e)
        prec *= 2
        c = tuple(int(t) % mod for t in order.coords(e))
        e = A.element(*la.mat_mul((c,), order.basis)[0])
    assert not any(int(t) % mod for t in order.coords(e * e - e))
    return tuple(int(t) % mod for t in order.coords(e))


def table_test_orders():
    return [max_order(-1, 3), max_order(-2, 5), max_order(3, 7),
            od.eichler_order(max_order(-1, 3), 35)]


def test_split_idempotent_matches_the_quaternion_hensel_lift():
    for O in table_test_orders():
        T = od._mult_table(O)
        one = od._unit_coords(O)
        assert one == tuple(int(t) for t in O.coords(O.algebra.one()))
        for ell in (3, 7, 11):
            for c, roots in full_scan_split_elements(O, ell, 20):
                for k in range(1, 5):
                    assert (od._split_idempotent(T, one, c, roots, ell, k)
                            == split_idempotent_reference(O, c, roots, ell,
                                                          k)), (O, ell, c, k)


def hereditary_inputs(monkeypatch, algebras):
    """The (order, ell) pairs at which maximal_order climbs out of a
    hereditary order: the _climb steps at discriminant valuation 1."""
    seen = []
    real = od._climb

    def spy(order, ell, v):
        if v == 1:
            seen.append((order, ell))
        return real(order, ell, v)

    monkeypatch.setattr(od, "_climb", spy)
    for a, b in algebras:
        od.maximal_order(alg(a, b))
    monkeypatch.setattr(od, "_climb", real)
    return seen


def test_mult_table_products_match_quaternion_arithmetic(monkeypatch):
    rng = random.Random(11)
    inter = [O for O, _ in hereditary_inputs(monkeypatch, [(-19, 5)])]
    assert len(inter) >= 2
    for O in table_test_orders() + [max_order(1, 1)] + inter:
        T = od._mult_table(O)
        for _ in range(30):
            x = [rng.randint(-20, 20) for _ in range(4)]
            y = [rng.randint(-20, 20) for _ in range(4)]
            X, Y = (O.algebra.element(*la.mat_mul((v,), O.basis)[0])
                    for v in (x, y))
            want = tuple(int(t) for t in O.coords(X * Y))
            assert od._mul(T, x, y) == want
            assert od._mul(T, x, y, 49) == tuple(t % 49 for t in want)


def test_split_idempotent_errors_name_the_prime():
    O = max_order(-1, 3)
    T, one = od._mult_table(O), od._unit_coords(O)
    for ell in (101, 103):
        c, (r, s) = full_scan_split_elements(O, ell, 1)[0]
        # (x - s)/(r' - s) squares to (r - s)/(r' - s) times itself
        wrong = ((r + 1) % ell if (r + 1) % ell != s else (r + 2) % ell, s)
        with pytest.raises(InvariantError, match=f"mod {ell}\\^1"):
            od._split_idempotent(T, one, c, wrong, ell, 1)


def test_splitting_data_errors_name_the_prime_and_precision(monkeypatch):
    def singular(M, m):
        raise RankError("singular")
    monkeypatch.setattr(la, "mat_inv_mod", singular)
    with pytest.raises(InvariantError, match="not bijective mod 7\\^3"):
        od.splitting_data(max_order(-1, 3), 7, 3)


# ------------------------------------------------------- split search

def brute_split_roots(t, n, ell):
    roots = sorted({r for r in range(ell) if (r * r - t * r + n) % ell == 0})
    return tuple(roots) if len(roots) == 2 else None


def test_split_roots_match_residue_scan():
    for ell in (2, 3, 5, 7, 11, 13):
        for t in range(ell):
            for n in range(ell):
                assert (od._split_char_roots(t, n, ell)
                        == brute_split_roots(t, n, ell)), (t, n, ell)
    rng = random.Random(17)
    for ell in (17, 97, 1009):
        for _ in range(300):
            t, n = rng.randrange(-ell, 2 * ell), rng.randrange(-ell, 2 * ell)
            assert (od._split_char_roots(t, n, ell)
                    == brute_split_roots(t, n, ell)), (t, n, ell)


def test_trace_norm_form_matches_quaternion_arithmetic():
    rng = random.Random(3)
    orders = [max_order(-1, 3), max_order(-2, 5), max_order(1, 1),
              od.standard_order(alg(Fraction(-1, 2), Fraction(3, 5))),
              od.eichler_order(max_order(-1, 3), 35)]
    for O in orders:
        form = od._trace_norm_form(O)
        for _ in range(25):
            c = [rng.randint(-50, 50) for _ in range(4)]
            x = O.algebra.element(*la.mat_mul((c,), O.basis)[0])
            assert od._char_poly(form, c) == (int(x.trd()), int(x.nrd()))
        T = od._trace_pairing(form)
        E = O.elements()
        assert T == tuple(tuple(int((x * y).trd()) for y in E) for x in E)


def test_trace_norm_form_rejects_non_integral_norm():
    # e_1 = (1 + i)/2 has trace 1 but norm 1/2
    O = od.Order(alg(-1, -1), la.rmat([[Fraction(1, 2), Fraction(1, 2), 0, 0],
                                       [0, 1, 0, 0], [0, 0, 1, 0],
                                       [0, 0, 0, 1]]))
    with pytest.raises(InvariantError, match="non-integral trace pairing"):
        od._trace_norm_form(O)
    with pytest.raises(InvariantError, match="non-integral trace pairing"):
        od.reduced_discriminant(O)


# ------------------------------------------- integer structure constants

def mult_table_reference(order):
    """The former _mult_table: 16 quaternion products, each read back over
    the order basis by Fraction forward substitution."""
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


def integral_reference(x):
    if x.denominator != 1:
        raise InvariantError("non-integral trace pairing")
    return int(x)


def trace_norm_form_reference(order):
    """The former _trace_norm_form, from QuatElement traces and norms:
    q[i, j] = nrd(e_i + e_j) - nrd(e_i) - nrd(e_j)."""
    elts = order.elements()
    t = tuple(integral_reference(x.trd()) for x in elts)
    n = [integral_reference(x.nrd()) for x in elts]
    q = {}
    for i in range(4):
        q[i, i] = n[i]
        for j in range(i + 1, 4):
            q[i, j] = (integral_reference((elts[i] + elts[j]).nrd())
                       - n[i] - n[j])
    return t, q


def order_diagnostics_reference(A, rows):
    """The former order_diagnostics: 1 and the 16 quaternion products
    tested against the Fraction lattice, then QuatElement traces and
    norms."""
    try:
        B = la.lattice_canonical(rows)
    except RankError:
        return ["basis is not full rank"]
    elts = [A.element(*r) for r in B]
    out = []
    if not la.lattice_contains(B, (1, 0, 0, 0)):
        out.append("1 is not in the lattice")
    if not all(la.lattice_contains(B, (x * y).coeffs)
               for x in elts for y in elts):
        out.append("not closed under multiplication")
    if any(x.trd().denominator != 1 or x.nrd().denominator != 1
           for x in elts):
        out.append("basis element with non-integral trace or norm")
    return out


def radical_idealizer_reference(order, ell):
    """The former radical step: the left order of ell O + rad, by
    integrality over the ambient lattice, or None when it is O itself."""
    O2 = od.lattice_left_order(order.algebra, od.radical_lattice(order, ell))
    return O2 if la.rat_lattice_index(O2.basis, order.basis) > 1 else None


def outcome(f, *args):
    """f(*args), or the InvariantError message it raises."""
    try:
        return f(*args)
    except InvariantError as e:
        return "InvariantError: " + str(e)


SMALL_ALGEBRAS = [(a, b) for a in range(-5, 6) for b in (-3, -1, 2, 5)
                  if a]
FRACTIONAL_ALGEBRAS = [(Fraction(1, 2), 3), (Fraction(-3, 4), Fraction(5, 9)),
                       (Fraction(-7, 6), Fraction(-11, 9)),
                       (Fraction(1, 2), Fraction(-5, 2))]


def visited_orders(monkeypatch, algebras):
    """Every order maximal_order reaches on the way up: the standard order,
    each intermediate order and the maximal one, as the orders whose
    discriminant it reads and the orders _climb returns."""
    seen = {}
    real_disc, real_climb = od.reduced_discriminant, od._climb

    def disc(order):
        seen.setdefault(order, None)
        return real_disc(order)

    def climb(order, ell, v):
        up, w = real_climb(order, ell, v)
        seen.setdefault(up, None)
        return up, w

    with monkeypatch.context() as mp:
        mp.setattr(od, "reduced_discriminant", disc)
        mp.setattr(od, "_climb", climb)
        for a, b in algebras:
            od.maximal_order(alg(a, b))
    return list(seen)


@pytest.mark.parametrize("algebras", [SMALL_ALGEBRAS, FRACTIONAL_ALGEBRAS],
                         ids=["small", "fractional"])
def test_integer_structure_matches_quaternion_arithmetic(monkeypatch,
                                                         algebras):
    orders = visited_orders(monkeypatch, algebras)
    assert len(orders) > 2 * len(algebras)
    steps = hereditary = 0
    for O in orders:
        A = O.algebra
        assert od._mult_table(O) == mult_table_reference(O), O
        assert od._trace_norm_form(O) == trace_norm_form_reference(O), O
        assert od._unit_coords(O) == tuple(int(t)
                                           for t in O.coords(A.one()))
        assert od.order_diagnostics(A, O.basis) == []
        assert order_diagnostics_reference(A, O.basis) == []
        d = od.reduced_discriminant(O)
        for ell, _ in factorize(d):
            S = od._idealizer(od._mult_table(O), od.radical_coords(O, ell),
                              ell)
            want = radical_idealizer_reference(O, ell)
            assert (S is None) == (want is None), (O, ell)
            # None exactly at valuation 1: O is maximal at a ramified ell
            # and hereditary at a split one, where _climb adds (c - s) O
            assert (S is None) == (od.valuation(d, ell) == 1), (O, ell)
            if S is not None:
                steps += 1
                assert O.over(S, ell) == want
            elif not A.is_ramified_at(ell):
                hereditary += 1
    assert steps >= len(algebras)
    assert hereditary >= 1


NON_ORDERS = {
    "no-one": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    "not-closed": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "non-integral-norm": [[Fraction(1, 2), Fraction(1, 2), 0, 0],
                          [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "all-three": [[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0],
                  [0, 0, 0, 1]],
    "singular": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]],
}


@pytest.mark.parametrize("a,b", [(-1, 3), (-1, -1)] + FRACTIONAL_ALGEBRAS)
def test_non_orders_match_the_quaternion_checks(a, b):
    A = alg(a, b)
    for name, rows in NON_ORDERS.items():
        got = od.order_diagnostics(A, rows)
        assert got == order_diagnostics_reference(A, rows), name
        assert got, name
        if name == "singular":
            continue
        O = od.Order(A, rows)
        for f, ref in ((od._mult_table, mult_table_reference),
                       (od._trace_norm_form, trace_norm_form_reference)):
            assert outcome(f, O) == outcome(ref, O), (name, f)
    if (a, b) == (-1, 3):
        assert [od.order_diagnostics(A, rows) for rows in NON_ORDERS.values()
                ] == [["1 is not in the lattice"],
                      ["not closed under multiplication"],
                      # a closed lattice is integral
                      ["not closed under multiplication",
                       "basis element with non-integral trace or norm"],
                      ["1 is not in the lattice",
                       "not closed under multiplication",
                       "basis element with non-integral trace or norm"],
                      ["basis is not full rank"]]


def test_order_constructions_build_no_quaternion_product(monkeypatch):
    def no_products(self, other):
        raise AssertionError("a QuatElement product was built")

    with monkeypatch.context() as mp:
        mp.setattr(QuatElement, "__mul__", no_products)
        for a, b in [(-19, 5), (3, 7), (Fraction(-7, 6), Fraction(-11, 9))]:
            od.maximal_order(alg(a, b))
        O = od.maximal_order(alg(-1, 3))
        E = od.eichler_order(O, 35)
        od.splitting_data(O, 7, 3)
        for order, ell in ((O, 2), (O, 11), (E, 5), (E, 13)):
            od.left_ideals_of_norm(order, ell)


def test_order_constructions_canonicalize_only_ambient_input(monkeypatch):
    """New orders are built over old ones in integers: only the standard
    order, given by ambient rows, goes through lattice_canonical."""
    calls = []
    real = la.lattice_canonical

    def spy(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(la, "lattice_canonical", spy)
    for a, b in [(-19, 5), (3, 7), (Fraction(-7, 6), Fraction(-11, 9)),
                 (-1, 3)]:
        calls.clear()
        O = od.maximal_order(alg(a, b))
        assert len(calls) == 1, (a, b)
    calls.clear()
    E = od.eichler_order(O, 35)
    od.splitting_data(O, 7, 3)
    for order, ell in ((O, 2), (O, 11), (E, 5), (E, 13)):
        od.left_ideals_of_norm(order, ell)
    build_ideal_tree(O, 5, 2)
    assert calls == []


WRONG_SHAPES = {
    "empty": [],
    "3x3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "4x3": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "4x5": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0]],
    "ragged": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
}


@pytest.mark.parametrize("rows", WRONG_SHAPES.values(), ids=WRONG_SHAPES)
def test_wrong_shape_bases_are_not_full_rank(rows):
    A = alg(-1, 3)
    with pytest.raises(RankError):
        od.Order(A, rows)
    assert od.order_diagnostics(A, rows) == ["basis is not full rank"]


# sha256 over order_to_json of the maximal orders of GRID_ALGEBRAS and of
# their Eichler orders of level 5, 7 and 35 where prime to the discriminant
# (or the name of the exception raised), frozen before Order moved to its
# integer cleared basis
GRID_ALGEBRAS = ([(a, b) for a in range(-8, 9) if a for b in range(1, 9)]
                 + [(Fraction(1, 2), 3), (Fraction(1, 2), Fraction(-5, 2))])
GRID_DIGEST = ("3e9d929092dafc7fe1721fb239d5e7fa"
               "44d8b66cc1a4f9443bd329da16f12f48")


def test_order_bases_over_a_grid_match_the_frozen_digest():
    def dump(f, *args):
        try:
            out = od.order_to_json(f(*args))
        except Exception as e:
            out = type(e).__name__
        return json.dumps(out, sort_keys=True).encode()

    h = hashlib.sha256()
    for a, b in GRID_ALGEBRAS:
        h.update(dump(max_order, a, b))
        for N in (5, 7, 35):
            if gcd(N, alg(a, b).discriminant()) == 1:
                h.update(dump(lambda: od.eichler_order(max_order(a, b), N)))
    assert h.hexdigest() == GRID_DIGEST


# sha256 over order_to_json of maximal orders with large square parts in a,
# frozen before maximalize_at carried the discriminant valuation through
# its steps
LARGE_SQUARE_DIGESTS = {
    (2 * 10 ** 300, 3):
        "01a2f91fa65b1371c639285ffaa69bc3dbb86da92e32878da2a0bfed142c27d7",
    (2 * 10 ** 300, -7):
        "4935fdd7a002bc1fd18c36cad2e95d6dddea669885f6b5f90c39f50f0bd1fb96",
    (7 * 3 ** 500, 3):
        "436ac7d4f3ba5cf6c27e7eab76b06c7a8c2b86816f295d813eb75aad13a554fa",
    (7 * 3 ** 500, -7):
        "be294df00f9ee3122e4f2dc9f82a62201b1f3daec2abba6098c8a6026524792e",
    (-5 ** 400, 3):
        "3ae5b4a1c6257fa8310037d7950f8d67f961df7cf925144077a96dc2103c70a4",
    (-5 ** 400, -7):
        "fd1d7a0ed3e49c3dc3b03a0c16569d0facba7a85f1775cd074005d5fb83e5ec2",
}


@pytest.mark.parametrize("ab,digest", LARGE_SQUARE_DIGESTS.items(),
                         ids=["2e300,3", "2e300,-7", "7*3^500,3",
                              "7*3^500,-7", "-5^400,3", "-5^400,-7"])
def test_large_square_parts_match_the_frozen_digest(ab, digest):
    out = od.order_to_json(od.maximal_order(alg(*ab)))
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_climb_returns_the_valuation_of_the_new_discriminant(monkeypatch):
    steps = []
    real = od._climb

    def spy(order, ell, v):
        assert od.valuation(od.reduced_discriminant(order), ell) == v
        up, w = real(order, ell, v)
        steps.append((ell, v, w))
        assert od.valuation(od.reduced_discriminant(up), ell) == w
        return up, w

    monkeypatch.setattr(od, "_climb", spy)
    for a, b in [(-19, 5), (4 * 27, -25), (2 ** 9, 3)] + HEREDITARY_CASES:
        od.maximal_order(alg(a, b))
    # steps at valuation 1 and steps that drop it by 2 were both taken
    assert any(v == 1 for _, v, _ in steps)
    assert any(v - w >= 2 for _, v, w in steps)


@pytest.mark.parametrize("ell", [1, 0, -3])
def test_valuation_rejects_a_base_below_two(ell):
    with pytest.raises(PreconditionError, match=f"valuation at {ell}"):
        od.valuation(12, ell)


def test_valuation_of_zero_is_refused():
    with pytest.raises(PreconditionError, match="valuation of 0"):
        od.valuation(0, 3)


def test_splitting_data_refuses_precision_zero():
    with pytest.raises(PreconditionError, match="precision must be at least"):
        od.splitting_data(max_order(-1, 3), 5, 0)


def test_json_readers_name_the_missing_fields():
    with pytest.raises(ValidationError, match="algebra needs fields a and b"):
        od.algebra_from_json({})
    O = max_order(-1, 3)
    obj = od.ideal_to_json(od.left_ideals_of_norm(O, 5)[0])
    assert od.ideal_from_json(obj).order == O
    del obj["leftOrder"]
    with pytest.raises(ValidationError, match="ideal needs fields"):
        od.ideal_from_json(obj)


def test_order_repr_computes_nothing():
    # the lattice of the test above is not an order; its repr still works
    O = od.Order(alg(-1, -1), la.rmat([[Fraction(1, 2), Fraction(1, 2), 0, 0],
                                       [0, 1, 0, 0], [0, 0, 1, 0],
                                       [0, 0, 0, 1]]))
    assert repr(O) == ("Order(QuaternionAlgebra(-1, -1), [[1/2, 1/2, 0, 0], "
                       "[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])")


def lex_split_elements(order, ell):
    """(c, roots) for each nonzero c in [0, ell)^4, lexicographically, whose
    characteristic polynomial has distinct roots mod ell: an unpruned scan
    through quaternion arithmetic."""
    A = order.algebra
    elts = order.elements()
    for c in product(range(ell), repeat=4):
        if not any(c):
            continue
        x = sum((ci * e for ci, e in zip(c, elts)), A.element(0))
        roots = brute_split_roots(int(x.trd()), int(x.nrd()), ell)
        if roots is not None:
            yield c, roots


def full_scan_split_elements(order, ell, count):
    """The first split elements of the unpruned lexicographic scan."""
    return list(islice(lex_split_elements(order, ell), count))


# algebras split at one odd prime below 30 (some also at 2), plus one split
# at 83: maximal_order climbs out of a hereditary order at each such prime
HEREDITARY_CASES = [(7, -13), (-85, 91), (-5, 31), (35, -83), (15, 89),
                    (5, -46), (-19, -66), (-15, 97), (-34, -65), (-22, -41),
                    (-23, -38), (-2, 19), (-22, 83)]


def test_split_basis_vector_is_the_first_split_element(monkeypatch):
    """The hereditary step adjoins (c - s) O for the split basis vector c,
    which must be the first split element of the lexicographic scan: that
    element fixes which maximal order comes back."""
    seen = []
    for a, b in HEREDITARY_CASES:
        found = hereditary_inputs(monkeypatch, [(a, b)])
        assert found, (a, b)
        seen += found
    assert len(seen) >= 10
    for O, ell in seen:
        assert (od._split_basis_vector(od._trace_norm_form(O), ell)
                == full_scan_split_elements(O, ell, 1)[0]), (O, ell)


def hereditary_split_reference(order, ell):
    """The former _hereditary_split: idempotents lifted mod ell^4 through
    quaternion products, candidates checked by order_diagnostics and by
    their reduced discriminant."""
    A = order.algebra
    d = od.reduced_discriminant(order)
    for c, roots in lex_split_elements(order, ell):
        ec = split_idempotent_reference(order, c, roots, ell, 4)
        e = A.element(*la.mat_mul((ec,), order.basis)[0])
        for left, right in ((e, A.one() - e), (A.one() - e, e)):
            rows = [tuple(int(v == i) for v in range(4)) for i in range(4)]
            rows += [tuple(Fraction(t, ell) for t in order.coords(left * g
                                                                  * right))
                     for g in order.elements()]
            cand_rows = la.mat_mul(la.rmat(rows), order.basis)
            if od.order_diagnostics(A, cand_rows):
                continue
            cand = od.Order(A, cand_rows)
            if od.reduced_discriminant(cand) == d // ell:
                return cand
    raise AssertionError(f"no hereditary enlargement at {ell}")


def test_hereditary_split_matches_the_quaternion_construction(monkeypatch):
    seen = hereditary_inputs(monkeypatch, [(-19, 5)] + HEREDITARY_CASES)
    assert {ell for O, ell in seen[:3]} == {2, 5, 19}
    for O, ell in seen:
        assert od._climb(O, ell, 1)[0] == hereditary_split_reference(
            O, ell), (O, ell)


def test_maximal_order_has_no_hereditary_enlargement():
    # at a split prime of a maximal order, J + (c - s) O is a right ideal
    # that is not two-sided, and O + (1/ell) e O (1-e) has index ell over O
    # but is not closed under products
    with pytest.raises(InvariantError, match="ideal at 3 is not two-sided"):
        od._climb(max_order(-2, 5), 3, 1)
    with pytest.raises(AssertionError, match="no hereditary enlargement"):
        hereditary_split_reference(max_order(-2, 5), 3)


def test_splitting_reduces_to_lower_precision():
    for O in (max_order(-1, 3), max_order(-2, 5), max_order(1, 1),
              od.eichler_order(max_order(-1, 3), 5)):
        D = od.reduced_discriminant(O)
        for ell in (3, 7, 11, 101):
            if D % ell == 0:
                continue
            for seed in (0, 5):
                top = od.splitting_data(O, ell, 5, seed)
                for k in range(1, 5):
                    m = ell ** k
                    low = od.splitting_data(O, ell, k, seed)
                    assert low.images == tuple(
                        tuple(tuple(x % m for x in row) for row in img)
                        for img in top.images), (ell, k, seed)
                    assert low.inverse == tuple(
                        tuple(x % m for x in row) for row in top.inverse)
                    # the flattened images times theta^-1, both ways round
                    F = tuple(sum(img, ()) for img in low.images)
                    for P in (la.mat_mul(F, low.inverse),
                              la.mat_mul(low.inverse, F)):
                        assert tuple(tuple(x % m for x in row)
                                     for row in P) == la.identity(4)


# ---------------------------------------------------------------- Eichler

def test_eichler_order_level_five():
    O = max_order(-1, 3)
    E = od.eichler_order(O, 5)
    E.validate()
    assert od.reduced_discriminant(E) == 30
    assert la.rat_lattice_index(O.basis, E.basis) == 5
    assert od.eichler_level(E) == 5


def test_eichler_order_composite_level():
    O = max_order(-1, 3)
    E = od.eichler_order(O, 35)
    assert od.reduced_discriminant(E) == 6 * 35
    assert la.rat_lattice_index(O.basis, E.basis) == 35
    # deterministic for a fixed seed
    assert E == od.eichler_order(O, 35)
    # the level-5 constraint alone gives an intermediate order
    E5 = od.eichler_order(O, 5)
    assert all(la.lattice_contains(E5.basis, r) for r in E.basis)


def test_eichler_order_preconditions():
    O = max_order(-1, 3)
    with pytest.raises(PreconditionError):
        od.eichler_order(O, 4)
    with pytest.raises(PreconditionError):
        od.eichler_order(O, 3)  # divides the discriminant
    with pytest.raises(PreconditionError):
        od.eichler_order(od.standard_order(alg(-1, 3)), 5)


def test_level_one_is_the_order_itself():
    O = max_order(-2, 5)
    assert od.eichler_order(O, 1) == O


# ---------------------------------------------------------------- ideals

def test_two_sided_prime_squares_to_ell():
    for (a, b), ells in [((-1, 3), (2, 3)), ((-2, 5), (2, 5))]:
        O = max_order(a, b)
        for ell in ells:
            P = od.two_sided_prime(O, ell)
            assert P.norm() == ell
            assert P.is_primitive()
            assert P.is_left_ideal()
            assert P.right_order() == O
            sq = od.ideal_product(P, P)
            assert sq.lattice == la.lattice_canonical(
                la.mat_scale(ell, O.basis))


def test_two_sided_prime_requires_ramification():
    with pytest.raises(PreconditionError):
        od.two_sided_prime(max_order(-1, 3), 5)


def test_norm_ideal_counts_split_prime():
    O = max_order(-1, 3)
    for ell, want in [(5, 6), (7, 8)]:
        ideals = od.left_ideals_of_norm(O, ell)
        assert len(ideals) == want
        assert len({I.lattice for I in ideals}) == want
        for I in ideals:
            assert I.norm() == ell
            assert I.is_primitive()
            assert I.is_left_ideal()
            assert od.reduced_discriminant(I.right_order()) == 6


def test_norm_ideal_counts_ramified_prime():
    O = max_order(-1, 3)
    ideals = od.left_ideals_of_norm(O, 2)
    assert len(ideals) == 1
    assert ideals[0].lattice == od.two_sided_prime(O, 2).lattice


def test_norm_ideal_count_at_level_prime():
    # level prime: the two projective lines glued along the radical
    E5 = od.eichler_order(max_order(-1, 3), 5)
    assert len(od.left_ideals_of_norm(E5, 5)) == 2 * 5 + 1
    E3 = od.eichler_order(max_order(-2, 5), 3)
    assert len(od.left_ideals_of_norm(E3, 3)) == 2 * 3 + 1


@pytest.mark.parametrize("ell", [0, 1, 4, -5])
def test_norm_ideals_reject_non_primes(ell):
    for O in (max_order(-1, 3), od.eichler_order(max_order(-1, 3), 5)):
        with pytest.raises(AlgebraError, match=f"{ell} is not a prime"):
            od.left_ideals_of_norm(O, ell)


def test_norm_ideals_guard_the_line_count(monkeypatch):
    O = max_order(-1, 3)
    monkeypatch.setattr(od, "_MAX_ELL", 100)
    assert len(od.left_ideals_of_norm(O, 97)) == 98
    with pytest.raises(ResourceError):
        od.left_ideals_of_norm(O, 101)


def test_norm_ideal_lattices_match_fraction_products():
    O = max_order(-2, 5)
    for ell in (101, 1009):
        th = od.splitting_data(O, ell, 1)
        ideals = od.left_ideals_of_norm(O, ell)
        lines = [(1, x) for x in range(ell)] + [(0, 1)]
        assert len(ideals) == len(lines)
        for I, v in zip(ideals, lines):
            R = la.identity(4)
            for r in range(2):
                f = [(th.images[i][r][0] * v[0] + th.images[i][r][1] * v[1])
                     % ell for i in range(4)]
                R = la.congruence_sublattice(R, f, ell)
            want = la.lattice_canonical(la.mat_mul(la.rmat(R), O.basis))
            assert I.lattice == want, (ell, v)
            assert I.index_in_order() == la.rat_lattice_index(O.basis,
                                                              I.lattice)


LINE_ALGEBRAS = [(-1, -1), (-1, 3), (-2, 5), (-1, 7), (3, 7), (6, -5),
                 (-3, -7)]


def line_sweep_orders():
    """The maximal orders of LINE_ALGEBRAS and the level-35 Eichler order
    over each whose discriminant is prime to 35."""
    for a, b in LINE_ALGEBRAS:
        O = max_order(a, b)
        yield O
        if gcd(O.algebra.discriminant(), 35) == 1:
            yield od.eichler_order(O, 35)


def test_norm_ideal_lines_match_the_pullback():
    """The closed-form line HNFs equal the pullback of each local lattice
    ell Z^2 + Z(-v_1, v_0), line by line and in order, and the four-generator
    pullback through hnf_mod that shares no code with the line form; the
    sweep must reach pivot columns other than (0, 1)."""
    lines = other_pivots = 0
    for O in line_sweep_orders():
        DN = od.reduced_discriminant(O)
        for ell in (2, 3, 5, 7, 11, 13, 101):
            if DN % ell == 0:
                continue
            local = [((-t, 1), (ell, 0)) for t in range(ell)]
            local.append(((-1, 0), (0, ell)))
            for seed in (0, 1, 2):
                th = od.splitting_data(O, ell, 1, seed)
                got = od.left_ideals_of_norm(O, ell, seed)
                assert len(got) == ell + 1
                for I, L in zip(got, local):
                    assert I.order_coords == od._pullback(th, L), (O, ell, L)
                    assert I.order_coords == four_generator_pullback(th, L)
                    diag = [I.order_coords[c][c] for c in range(4)]
                    other_pivots += diag[:2] != [1, 1]
                lines += ell + 1
    # 159 of the 4,572 lines pivot elsewhere
    assert lines == 4572 and other_pivots > 0


def test_line_hnf_rejects_a_rank_deficient_pair():
    for u, w in [((1, 2, 3, 4), (2, 4, 6, 8)), ((0, 0, 0, 0), (1, 0, 0, 0)),
                 ((5, 10, 0, 5), (1, 2, 0, 1))]:
        with pytest.raises(InvariantError, match="rank below 2 mod 5"):
            od._line_hnf(u, w, 5)
    assert od._line_hnf((0, 0, 5, 3), (0, 0, 1, 2), 5) == (
        (5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_norm_ideals_skip_the_generic_pullback(monkeypatch):
    def refuse(*args):
        raise AssertionError("a norm-ell line went through hnf_mod")

    orders = [max_order(-1, 3), od.eichler_order(max_order(-1, 3), 35)]
    monkeypatch.setattr(od, "_pullback", refuse)
    monkeypatch.setattr(la, "hnf_mod", refuse)
    for O in orders:
        for ell in (11, 13, 101):
            assert len(od.left_ideals_of_norm(O, ell)) == ell + 1


def test_norm_ideals_at_the_largest_prime_within_the_line_guard():
    ell = 16381
    assert is_prime(ell) and not any(
        is_prime(p) for p in range(ell + 1, od._MAX_ELL + 1))
    ideals = od.left_ideals_of_norm(max_order(-1, 3), ell)
    assert len(ideals) == ell + 1
    assert len({I.order_coords for I in ideals}) == ell + 1
    assert all(I.is_primitive() and I.norm() == ell for I in ideals)


def int_coords_cases(rng, n):
    """Upper triangular integer bases with nonzero pivots of either sign,
    each with a vector in its lattice and one that is usually not."""
    for _ in range(n):
        L = [[0] * 4 for _ in range(4)]
        for j in range(4):
            L[j][j] = rng.choice([-1, 1]) * rng.randint(1, 9)
            for k in range(j + 1, 4):
                L[j][k] = rng.randint(-30, 30)
        L = la.imat(L)
        x = [rng.randint(-20, 20) for _ in range(4)]
        yield L, tuple(sum(xi * r[c] for xi, r in zip(x, L))
                       for c in range(4))
        yield L, tuple(rng.randint(-300, 300) for _ in range(4))


def test_int_coords_match_the_triangular_substitution():
    rng = random.Random(2113)
    hits = misses = 0
    for L, v in int_coords_cases(rng, 400):
        want = tuple(la.triangular_coords(L, v))
        got = od._int_coords(L, v)
        if all(c.denominator == 1 for c in want):
            assert got == want and all(type(c) is int for c in got)
            hits += 1
        else:
            assert got is None
            misses += 1
    assert hits >= 400 and misses >= 100


@pytest.mark.parametrize("L", [
    ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 2, 1)),
    ((1, 0, 0, 0), (3, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
])
def test_int_coords_reject_a_non_triangular_basis(L):
    with pytest.raises(PreconditionError, match="not upper triangular"):
        od._int_coords(L, (0, 0, 0, 0))


def order_coords_oracle(I):
    """The former LeftIdeal.order_coords() derivation: coordinates of each
    lattice row over the order basis by forward substitution, then an HNF."""
    X = [tuple(la.triangular_coords(I.order.basis, r)) for r in I.lattice]
    assert all(t.denominator == 1 for row in X for t in row)
    return la.hnf_basis(tuple(tuple(int(t) for t in row) for row in X))


@pytest.mark.parametrize("ell", [2, 5, 7, 613])
def test_norm_ideal_order_coords_match_the_lattice(ell):
    for I in od.left_ideals_of_norm(max_order(-1, 3), ell):
        assert I.order_coords == order_coords_oracle(I)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerated_order_coords_match_the_lattice(n):
    for I in od.enumerate_left_ideals(max_order(-1, 3), n):
        assert I.order_coords == order_coords_oracle(I)


HNF = ((1, 0, 2, 3), (0, 1, 4, 0), (0, 0, 5, 0), (0, 0, 0, 5))


@pytest.mark.parametrize("R", [
    (HNF[1], HNF[0], HNF[2], HNF[3]),
    HNF[:3] + ((0, 0, 0, -5),),
    ((1, 0, 7, 3),) + HNF[1:],
    (HNF[0], (0, 1, -1, 0)) + HNF[2:],
], ids=["swapped-rows", "negative-pivot", "above-pivot-too-large",
        "above-pivot-negative"])
def test_from_order_coords_rejects_non_hermite_forms(R):
    O = max_order(-1, 3)
    assert od.LeftIdeal.from_order_coords(O, HNF).order_coords == HNF
    with pytest.raises(InvariantError, match="Hermite"):
        od.LeftIdeal.from_order_coords(O, R)


def assert_one_identity(I):
    """An ideal equals (and hashes as) its rebuild from the ambient lattice
    and from JSON, and its lazy lattice is the canonical R B."""
    O = I.order
    J = od.LeftIdeal(O, I.lattice)
    assert J == I and hash(J) == hash(I)
    assert od.ideal_from_json(od.ideal_to_json(I)) == I
    assert I.lattice == la.lattice_canonical(la.mat_mul(I.order_coords,
                                                        O.basis))


@pytest.mark.parametrize("ell", [2, 3, 5, 613])
def test_norm_ideals_have_one_identity(ell):
    for I in od.left_ideals_of_norm(max_order(-1, 3), ell):
        assert_one_identity(I)


def test_ideal_tree_nodes_have_one_identity():
    for node in build_ideal_tree(max_order(-1, 3), 5, 2).nodes:
        assert_one_identity(node.ideal)


@pytest.mark.parametrize("a,b", [(-1, 3), (-2, 5), (-1, 11), (-1, -1)])
def test_two_sided_prime_is_the_radical_lattice(a, b):
    O = max_order(a, b)
    for p in O.algebra.ramified_primes():
        P = od.two_sided_prime(O, p)
        assert P == od.LeftIdeal(O, od.radical_lattice(O, p))
        assert_one_identity(P)


def is_left_ideal_reference(I):
    """O*I <= I through quaternion products of the ambient bases."""
    A = I.order.algebra
    return all(la.lattice_contains(I.lattice,
                                   (A.element(*g) * A.element(*h)).coeffs)
               for g in I.order.basis for h in I.lattice)


def test_is_left_ideal_matches_quaternion_products():
    rng = random.Random(23)
    ideals = []
    for O in (max_order(-1, 3), od.eichler_order(max_order(-2, 5), 3)):
        norm5 = od.left_ideals_of_norm(O, 5)
        ideals += od.left_ideals_of_norm(O, 3) + norm5
        # right ideals, and lattices stable under one basis element only
        ideals += [od.LeftIdeal(O, I.conjugate_lattice()) for I in norm5]
        for g in O.elements():
            x = O.algebra.element(*la.mat_mul(
                ([rng.randint(-4, 4) for _ in range(4)],), O.basis)[0])
            ideals.append(od.LeftIdeal(O, (x.coeffs, (g * x).coeffs)
                                       + la.mat_scale(5, O.basis)))
        for _ in range(20):
            R = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
            ideals.append(od.LeftIdeal(O, la.mat_mul(
                la.rmat(R) + la.mat_scale(6, la.rmat(la.identity(4))),
                O.basis)))
    # Z<1, i, j, k> is stable under i, j and k but not under O's e_0
    O = max_order(-1, 3)
    ideals.append(od.LeftIdeal(O, od.standard_order(O.algebra).basis))
    got = [I.is_left_ideal() for I in ideals]
    assert got == [is_left_ideal_reference(I) for I in ideals]
    assert True in got and False in got


def test_suborder_is_not_a_left_ideal():
    O = max_order(-1, 3)
    S = od.LeftIdeal(O, (O.algebra.one().coeffs,) + la.mat_scale(5, O.basis))
    assert not S.is_left_ideal()
    with pytest.raises(ValidationError, match="not a left ideal"):
        od.ideal_from_json(od.ideal_to_json(S))


def test_ambient_ideal_outside_its_order_is_refused_at_construction():
    O = max_order(-1, 3)
    with pytest.raises(InvariantError, match="not inside its order"):
        od.LeftIdeal(O, la.mat_scale(Fraction(1, 2), O.basis))
    with pytest.raises(InvariantError, match="not inside its order"):
        od.principal_ideal(O, O.algebra.element(Fraction(1, 3)))


def explicit_right_order(A, rows):
    """{x : L x <= L} from the definition: g x = sum_r x_r g e_r must have
    integral coordinates over L for every basis vector g of L."""
    L = la.lattice_canonical(rows)
    Linv = la.mat_inv(L)
    amb = [A.element(1), A.element(0, 1), A.element(0, 0, 1),
           A.element(0, 0, 0, 1)]
    blocks = []
    for g_row in L:
        g = A.element(*g_row)
        Ng = tuple((g * e).coeffs for e in amb)
        blocks.append(la.mat_mul(Ng, Linv))
    stacked = tuple(tuple(x for blk in blocks for x in blk[r])
                    for r in range(4))
    return od.Order(A, la.integrality_lattice(stacked))


def test_right_order_by_conjugation_matches_the_definition():
    ideals = []
    for a, b in [(-1, 3), (-2, 5), (-1, -1)]:
        O = max_order(a, b)
        for ell in (5, 7):
            ideals += od.left_ideals_of_norm(O, ell)
    E = od.eichler_order(max_order(-1, 3), 5)
    ideals += od.left_ideals_of_norm(E, 7) + od.left_ideals_of_norm(E, 5)
    ideals.append(od.two_sided_prime(max_order(-2, 5), 5))
    for I in ideals:
        assert I.right_order() == explicit_right_order(I.order.algebra,
                                                        I.lattice)


def test_conjugate_product_is_norm_times_order():
    O = max_order(-1, 3)
    for I in od.left_ideals_of_norm(O, 5):
        NI = od.lattice_product(O.algebra, I.lattice, I.conjugate_lattice())
        assert NI == la.lattice_canonical(la.mat_scale(5, O.basis))


def test_principal_ideal_norm_matches_element_norm():
    O = max_order(-2, 5)
    for k in (1, 2, 3, 10):
        I = od.principal_ideal(O, O.algebra.element(k))
        assert I.norm() == k * k
    x = O.elements()[1] + O.elements()[2]
    I = od.principal_ideal(O, x)
    assert I.norm() == abs(int(x.nrd()))


# ------------------------------------------------------- enumeration

def canonical_set(ideals):
    return {I.lattice for I in ideals}


def test_enumerate_norm_one_is_the_order():
    O = max_order(-1, 3)
    found = od.enumerate_left_ideals(O, 1)
    assert len(found) == 1
    assert found[0].lattice == O.basis


def test_enumeration_agrees_with_construction():
    O = max_order(-1, 3)
    for ell in (2, 3, 5, 7):
        brute = [I for I in od.enumerate_left_ideals(O, ell)]
        assert canonical_set(brute) == canonical_set(
            od.left_ideals_of_norm(O, ell))


def test_enumeration_counts_on_split_algebra():
    O = max_order(1, 1)
    assert len(od.enumerate_left_ideals(O, 2)) == 3
    norm4 = od.enumerate_left_ideals(O, 4)
    prim = [I for I in norm4 if I.is_primitive()]
    assert len(prim) == 2 * 2 + 2  # lattice-counting law at distance two
    assert len(norm4) == len(prim) + 1  # plus 2*O


def test_enumeration_guard():
    O = max_order(-1, 3)
    with pytest.raises(ResourceError):
        od.enumerate_left_ideals(O, 14)
    with pytest.raises(PreconditionError):
        od.enumerate_left_ideals(O, 0)


def test_scaled_ideal_norm_and_primitivity():
    O = max_order(-1, 3)
    for k in (2, 3):
        I = od.principal_ideal(O, O.algebra.element(k))
        assert I.norm() == k * k
        assert not I.is_primitive()


# ------------------------------------------------------- serialization

def test_order_json_roundtrip():
    for a, b in [(-1, 3), (-2, 5), (1, 1)]:
        O = max_order(a, b)
        assert od.order_from_json(od.order_to_json(O)) == O


def test_ideal_json_roundtrip():
    O = max_order(-1, 3)
    for I in od.left_ideals_of_norm(O, 5)[:2]:
        J = od.ideal_from_json(od.ideal_to_json(I))
        assert J.lattice == I.lattice
        assert J.order == I.order


def test_json_validation_errors():
    O = max_order(-1, 3)
    good = od.order_to_json(O)
    with pytest.raises(ValidationError):
        od.order_from_json({"algebra": good["algebra"]})
    with pytest.raises(ValidationError):
        od.order_from_json({"algebra": {"a": "x", "b": "3"},
                            "basis": good["basis"]})
    with pytest.raises(ValidationError):
        od.order_from_json({"algebra": good["algebra"],
                            "basis": [["1", "0", "0"]] * 4})
    bad = [list(r) for r in good["basis"]]
    bad[0][0] = "1/3"  # breaks closure
    with pytest.raises(ValidationError):
        od.order_from_json({"algebra": good["algebra"], "basis": bad})
    I = od.left_ideals_of_norm(O, 5)[0]
    dd = od.ideal_to_json(I)
    dd["basis"][0][0] = "1/7"
    with pytest.raises(ValidationError):
        od.ideal_from_json(dd)
    # half the order is a left ideal of it, but not inside it
    half = {"algebra": good["algebra"], "leftOrder": good["basis"],
            "basis": [[str(Fraction(x) / 2) for x in row]
                      for row in good["basis"]]}
    with pytest.raises(ValidationError, match="not inside the order"):
        od.ideal_from_json(half)


def test_singular_basis_is_a_validation_error():
    good = od.order_to_json(max_order(-1, 3))
    singular = [list(r) for r in good["basis"]]
    singular[3] = singular[2]
    with pytest.raises(ValidationError, match="basis is not full rank"):
        od.order_from_json({"algebra": good["algebra"], "basis": singular})
    ideal = od.ideal_to_json(od.left_ideals_of_norm(max_order(-1, 3), 5)[0])
    ideal["leftOrder"] = singular
    with pytest.raises(ValidationError, match="basis is not full rank"):
        od.ideal_from_json(ideal)
