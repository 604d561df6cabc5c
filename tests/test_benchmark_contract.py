"""What the benchmark under perfbench/ needs from the library.

perfbench/spans.py wraps qmtree's layer functions by name, perfbench/run.py
reads the reduced-discriminant cache statistics and the workloads read tree
vertices through TreeVertex.key(), so renaming or folding one of those names
breaks the benchmark without failing any other test.
spans.py is loaded from its file and never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    if not SPANS.is_file():
        pytest.skip("perfbench/spans.py is not in this checkout")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves(spans):
    missing = []
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"qmtree.{layer}")
        for name in names:
            if "." in name:
                cls, meth = name.split(".")
                ok = meth in vars(getattr(module, cls, object))
            else:
                ok = callable(getattr(module, name, None))
            if not ok:
                missing.append(f"{layer}.{name}")
    assert not missing
    from qmtree import orders, tree
    assert callable(orders.reduced_discriminant.cache_info)
    # perfbench/workloads.py reads tree vertices through key()
    assert callable(tree.TreeVertex.key)


def test_tracer_installs_and_restores_the_layer_functions(spans):
    from qmtree import QuaternionAlgebra
    modules = {layer: importlib.import_module(f"qmtree.{layer}")
               for layer in spans.LAYERS}
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name == "qmtree" or name.startswith("qmtree.")}
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        # looked up after install, as callers inside qmtree do
        modules["orders"].maximal_order(QuaternionAlgebra(-1, 3))
    finally:
        tracer.uninstall()
    assert "orders.maximal_order" in {tracer.names[i] for i in tracer.name}
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in attrs.items()), name
