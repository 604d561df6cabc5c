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

``import qmtree`` loads only ``errors``.  Every other public name is
resolved on first use from the layer that defines it (PEP 562), so
``from qmtree import maximal_order`` imports ``orders`` and what it builds
on, and nothing above it.
"""

from importlib import import_module

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

# public name -> the layer that defines it; each layer is imported on the
# first lookup of one of its names, so ``import qmtree`` loads only errors
_LAYER_OF = {
    **dict.fromkeys(("QuaternionAlgebra", "QuatElement", "hilbert_symbol"),
                    "quaternion"),
    **dict.fromkeys(("LeftIdeal", "Order", "eichler_order",
                     "enumerate_left_ideals", "left_ideals_of_norm",
                     "maximal_order", "reduced_discriminant",
                     "splitting_data"), "orders"),
    **dict.fromkeys(("TreeVertex", "distance", "geodesic", "localize_ideal",
                     "neighbors"), "tree"),
    **dict.fromkeys(("Center", "spanned_subtree", "tree_center"), "center"),
    **dict.fromkeys(("build_ideal_tree", "tree_to_dot"), "ideal_tree"),
    **dict.fromkeys(("AdelicPoint", "GaloisScenario", "atkin_lehner",
                     "choose_point", "compute_level", "galois_apply",
                     "galois_twist", "phi", "phi_tilde", "run_descent",
                     "scenario_from_json", "verify_minimality"), "descent"),
}


def __getattr__(name):
    # the value is looked up in its layer on every call, never cached here,
    # so a name patched or restored in its layer reads the same from here
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


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
