"""An independent pullback of local lattices, for the tests of
orders._pullback and orders._line_hnf."""

from qmtree import linalg as la


def four_generator_pullback(th, L):
    """The former orders._pullback: hnf_mod of m = |det L| times the order
    plus the preimages of the four matrices with one row of L as one row
    and 0 as the other, (E00, E01) placing a row (p, q) in row 0 and
    (E10, E11) in row 1.  It uses both rows of L, where _pullback reads one
    cyclic row, and never the closed line form."""
    (w, x), (y, z) = L
    m = abs(w * z - x * y)
    gens = tuple(tuple(p * s + q * t for s, t in zip(u, v))
                 for p, q in L for u, v in (th.inverse[:2], th.inverse[2:]))
    return la.hnf_mod(gens, th.ell, m)
