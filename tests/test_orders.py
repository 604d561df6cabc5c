"""Order and ideal tests.

Cross-checks: the mod-ell radical against a quasi-regularity enumeration,
congruence-built ideals against blind Hermite-form enumeration, and a stack
of frozen discriminants and ideal counts.
"""

import functools
import random
from fractions import Fraction
from itertools import islice, product

import pytest

from qmtree import linalg as la
from qmtree import orders as od
from qmtree.errors import (AlgebraError, InvariantError, PreconditionError,
                           ResourceError, ValidationError)
from qmtree.quaternion import QuaternionAlgebra


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
        assert O.contains_lattice(O0.basis)


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
    """Independent radical: x with 1 - a*x invertible for every residue a."""
    A = order.algebra
    residues = [tuple(c) for c in product(range(ell), repeat=4)]
    elts = {c: A.element(*la.mat_mul((c,), order.basis)[0]) for c in residues}
    one = A.one()
    out = set()
    for c in residues:
        x = elts[c]
        if all(int((one - elts[a] * x).nrd()) % ell != 0 for a in residues):
            out.add(c)
    return out


def span_mod(vectors, ell):
    out = set()
    for coeffs in product(range(ell), repeat=len(vectors)):
        v = (0, 0, 0, 0)
        for t, vec in zip(coeffs, vectors):
            v = tuple((a + t * b) % ell for a, b in zip(v, vec))
        out.add(v)
    return out


@pytest.mark.parametrize("a,b,ell", [
    (-1, -1, 2), (-1, 3, 2), (-1, 3, 3), (-2, 5, 5), (1, 1, 2), (1, 1, 3),
])
def test_radical_matches_quasi_regularity(a, b, ell):
    O = max_order(a, b)
    got = span_mod(od.radical_coords(O, ell), ell)
    assert got == quasi_regular_radical(O, ell)


def test_radical_of_nonmaximal_order_at_odd_prime():
    O = od.eichler_order(max_order(-1, 3), 5)
    got = span_mod(od.radical_coords(O, 5), 5)
    assert got == quasi_regular_radical(O, 5)


# ---------------------------------------------------------------- splitting

def test_splitting_data_is_an_isomorphism():
    rng = random.Random(5)
    O = max_order(-1, 3)
    for ell, k in [(5, 1), (5, 3), (7, 2), (11, 1)]:
        th = od.splitting_data(O, ell, k)
        m = ell ** k
        assert th.apply(O.algebra.one()) == ((1, 0), (0, 1))
        for _ in range(20):
            c1 = [rng.randint(-8, 8) for _ in range(4)]
            c2 = [rng.randint(-8, 8) for _ in range(4)]
            x = O.algebra.element(*la.mat_mul((c1,), O.basis)[0])
            y = O.algebra.element(*la.mat_mul((c2,), O.basis)[0])
            X, Y = th.apply(x), th.apply(y)
            assert th.apply(x * y) == od._mat2_mul(X, Y, m)
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
    X = alt.apply(x)
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


def test_order_repr_computes_nothing():
    # the lattice of the test above is not an order; its repr still works
    O = od.Order(alg(-1, -1), la.rmat([[Fraction(1, 2), Fraction(1, 2), 0, 0],
                                       [0, 1, 0, 0], [0, 0, 1, 0],
                                       [0, 0, 0, 1]]))
    assert repr(O) == ("Order(QuaternionAlgebra(-1, -1), [[1/2, 1/2, 0, 0], "
                       "[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])")


def full_scan_split_elements(order, ell, count):
    """The first split elements of the unpruned lexicographic scan."""
    A = order.algebra
    elts = order.elements()
    out = []
    for c in product(range(ell), repeat=4):
        if not any(c):
            continue
        x = sum((ci * e for ci, e in zip(c, elts)), A.element(0))
        roots = brute_split_roots(int(x.trd()), int(x.nrd()), ell)
        if roots is not None:
            out.append((c, roots))
            if len(out) == count:
                return out
    return out


# algebras split at one odd prime below 30 (some also at 2), plus one split
# at 83: maximal_order climbs out of a hereditary order at each such prime
HEREDITARY_CASES = [(7, -13), (-85, 91), (-5, 31), (35, -83), (15, 89),
                    (5, -46), (-19, -66), (-15, 97), (-34, -65), (-22, -41),
                    (-23, -38), (-2, 19), (-22, 83)]


def test_pruned_split_search_keeps_the_first_split_elements(monkeypatch):
    seen = []
    real = od._hereditary_split

    def spy(order, ell):
        seen.append((order, ell))
        return real(order, ell)

    monkeypatch.setattr(od, "_hereditary_split", spy)
    for a, b in HEREDITARY_CASES:
        before = len(seen)
        od.maximal_order(alg(a, b))
        assert len(seen) > before, (a, b)
    assert len(seen) >= 10
    for O, ell in seen:
        want = full_scan_split_elements(O, ell, 3)
        got = list(islice(od._lex_split_elements(od._trace_norm_form(O), ell),
                          len(want)))
        assert got == want, (O, ell)


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
    assert od.eichler_order(O, 5).contains_lattice(E.basis)


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
