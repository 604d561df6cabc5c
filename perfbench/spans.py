"""Timing spans around qmtree's layer functions, installed from outside.

``Tracer.install()`` replaces each function named in ``LAYERS`` by a
wrapper, in every qmtree module that holds a reference to it (so calls
made through ``from .tree import geodesic`` are caught too), and
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.

Each span is one call: name, start and end in integer nanoseconds, the
span that was open when it began (its parent) and the benchmark op it
belongs to.  Spans are kept in flat integer arrays while the run lasts and
written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# layer -> functions wrapped, bottom to top.  A dotted entry is a method.
LAYERS = {
    "linalg": ["hnf", "hnf_basis", "snf", "det", "mat_inv", "lattice_index",
               "kernel_mod_p", "lattice_canonical", "rat_lattice_index",
               "integrality_lattice", "congruence_sublattice"],
    "quaternion": ["QuatElement.__mul__", "factorize", "hilbert_symbol"],
    "orders": ["maximal_order", "maximalize_at", "radical_lattice",
               "lattice_left_order", "reduced_discriminant", "splitting_data",
               "eichler_order", "left_ideals_of_norm"],
    "tree": ["canonicalize", "neighbors", "distance", "geodesic", "sphere",
             "parse_vertex", "localize_ideal"],
    "center": ["tree_center", "spanned_subtree"],
    "ideal_tree": ["build_ideal_tree", "verify_tree_isomorphism"],
    "descent": ["scenario_from_json", "compute_level", "group_elements",
                "check_phi_tilde_injective", "verify_minimality",
                "run_descent"],
    "cli": ["main"],
}

NO_PARENT = -1


def span_name(layer, fn):
    return f"{layer}.{fn.replace('.__', '.').rstrip('_')}"


class Tracer:
    def __init__(self, modules):
        """``modules`` maps a layer name to the imported qmtree module."""
        self.modules = modules
        self.names = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.op = array("q")
        self.notes = {}
        self.current = NO_PARENT
        self.op_id = NO_PARENT
        self._patches = []
        self._build_patches()

    # -- wrapping

    def _build_patches(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "qmtree" or n.startswith("qmtree.")]
        sig = inspect.signature(self.modules["orders"].splitting_data)
        for layer, fns in LAYERS.items():
            mod = self.modules[layer]
            for fn in fns:
                if "." in fn:
                    cls, meth = fn.split(".")
                    owner = getattr(mod, cls)
                    targets = [(owner, meth)]
                    orig = owner.__dict__[meth]
                else:
                    orig = getattr(mod, fn)
                    targets = [(ns, attr) for ns in namespaces
                               for attr, val in vars(ns).items()
                               if val is orig]
                name = span_name(layer, fn)
                note = None
                if name == "tree.geodesic":
                    def note(args, kwargs, result):
                        return args[0].ell, len(result) - 1
                elif name == "orders.splitting_data":
                    def note(args, kwargs, result, sig=sig):
                        b = sig.bind(*args, **kwargs)
                        b.apply_defaults()
                        return tuple(b.arguments.values())
                wrapper = self._wrap(len(self.names), orig, note)
                self.names.append(name)
                for owner, attr in targets:
                    self._patches.append((owner, attr, orig, wrapper))

    def _wrap(self, nid, fn, note):
        clock = time.perf_counter_ns
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            up = self.current
            start.append(clock())
            end.append(0)
            parent.append(up)
            name.append(nid)
            op.append(self.op_id)
            self.current = i
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                self.current = up
            if note is not None:
                self.notes[i] = note(args, kwargs, result)
            return result
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- results

    def self_times(self):
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, up in enumerate(self.parent):
            if up != NO_PARENT:
                own[up] -= dur[i]
        return dur, own

    def ancestor(self, name):
        """For each span, the nearest enclosing span called ``name``, or
        NO_PARENT."""
        nid = self.names.index(name)
        out = []
        for up in self.parent:
            if up == NO_PARENT:
                out.append(NO_PARENT)
            else:
                out.append(up if self.name[up] == nid else out[up])
        return out

    def write(self, stem):
        """Spans to ``stem.spans`` (five int64 arrays, one after the other)
        and the layout with the name table to ``stem.json``."""
        with open(f"{stem}.spans", "wb") as fh:
            for col in (self.start, self.end, self.parent, self.op):
                col.tofile(fh)
            array("q", self.name).tofile(fh)
        layout = {"count": len(self.start), "dtype": "int64",
                  "columns": ["start_ns", "end_ns", "parent", "op", "name"],
                  "parent_none": NO_PARENT, "names": self.names}
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(layout, fh, indent=1)
