"""Exact quaternion orders, their left-ideal trees, and descent reports.

The layers, bottom to top:

- ``linalg``: lattice arithmetic; SNF and inverse are read off the HNF
- ``quaternion``: rational quaternion algebras and Hilbert symbols
- ``orders``: orders, maximalization, Eichler suborders, left ideals
- ``tree``: the (ell+1)-regular tree of local lattice classes
- ``center``: centers and spanned subtrees of finite vertex sets
- ``ideal_tree``: primitive ideals of norm ell^k organized by inclusion
- ``descent``: scenario evaluation, twists, cocycles, reports
- ``cli``: the ``qmtree`` command

Everything is exact: integers and ``fractions.Fraction`` throughout.
"""

from .errors import (
    AlgebraError,
    InconsistencyError,
    InvariantError,
    PreconditionError,
    QmtreeError,
    RankError,
    ResourceError,
    ValidationError,
)
from .quaternion import QuaternionAlgebra, QuatElement, hilbert_symbol
from .orders import (
    LeftIdeal,
    Order,
    eichler_order,
    enumerate_left_ideals,
    left_ideals_of_norm,
    maximal_order,
    reduced_discriminant,
    splitting_data,
)
from .tree import TreeVertex, distance, geodesic, localize_ideal, neighbors
from .center import Center, spanned_subtree, tree_center
from .ideal_tree import build_ideal_tree, tree_to_dot
from .descent import (
    AdelicPoint,
    GaloisScenario,
    atkin_lehner,
    choose_point,
    compute_level,
    galois_apply,
    galois_twist,
    phi,
    phi_tilde,
    run_descent,
    scenario_from_json,
    verify_minimality,
)

__all__ = [
    "AdelicPoint",
    "AlgebraError",
    "Center",
    "GaloisScenario",
    "InconsistencyError",
    "InvariantError",
    "LeftIdeal",
    "Order",
    "PreconditionError",
    "QmtreeError",
    "QuatElement",
    "QuaternionAlgebra",
    "RankError",
    "ResourceError",
    "TreeVertex",
    "ValidationError",
    "atkin_lehner",
    "build_ideal_tree",
    "choose_point",
    "compute_level",
    "distance",
    "eichler_order",
    "enumerate_left_ideals",
    "galois_apply",
    "galois_twist",
    "geodesic",
    "hilbert_symbol",
    "left_ideals_of_norm",
    "localize_ideal",
    "maximal_order",
    "neighbors",
    "phi",
    "phi_tilde",
    "reduced_discriminant",
    "run_descent",
    "scenario_from_json",
    "spanned_subtree",
    "splitting_data",
    "tree_center",
    "tree_to_dot",
    "verify_minimality",
]

__version__ = "0.1.0"
