"""Each entry point loads only the layers it runs.

``import qmtree`` loads ``errors`` alone and resolves every other public
name from its layer on first use; each CLI command imports its own
layers.  Every case runs in a fresh interpreter, which prints the sorted
qmtree modules it holds at the end.
"""

import subprocess
import sys
from importlib import import_module

import pytest

import qmtree
from qmtree import errors

# run the command as ``python -m qmtree`` does, then list the modules
PROBE = """
import runpy, sys
sys.argv = ["qmtree", *sys.argv[1:]]
try:
    runpy.run_module("qmtree", run_name="__main__")
except SystemExit:
    pass
print(*sorted(k for k in sys.modules if k.startswith("qmtree")))
"""


def loaded(*argv, code=PROBE):
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("qmtree.")
            for name in proc.stdout.splitlines()[-1].split()}


def test_import_qmtree_loads_only_errors():
    code = ("import sys, qmtree; "
            "print(*sorted(k for k in sys.modules if k.startswith('qmtree')))")
    assert loaded(code=code) == {"qmtree", "errors"}


def test_help_loads_no_layer():
    assert loaded("--help") == {"qmtree", "errors", "cli"}


def test_qa_info_adds_only_cli_and_quaternion():
    assert loaded("qa", "info", "--a", "-1", "--b", "3") == {
        "qmtree", "errors", "cli", "quaternion"}


@pytest.mark.parametrize("argv", [
    ["order", "maximal", "--a", "-1", "--b", "3"],
    ["ideals", "norm-l", "--l", "5"],
])
def test_order_commands_load_no_tree_layer(argv):
    mods = loaded(*argv)
    assert "orders" in mods
    assert not mods & {"tree", "center", "ideal_tree", "descent"}


@pytest.mark.parametrize("command", ["geodesic", "center"])
def test_tree_commands_load_neither_ideal_tree_nor_descent(command, tmp_path):
    u, v = "2:[[1,0],[0,1]]", "2:[[1,0],[0,8]]"
    if command == "center":
        path = tmp_path / "vertices.txt"
        path.write_text(f"{u}\n{v}\n", encoding="utf-8")
        mods = loaded("bt", "center", "--vertices", str(path))
    else:
        mods = loaded("bt", "geodesic", "--u", u, "--v", v)
    assert "tree" in mods
    assert not mods & {"ideal_tree", "descent"}


def test_lazy_names_are_the_public_names_outside_errors():
    assert set(qmtree._LAYER_OF) == set(qmtree.__all__) - set(dir(errors))
    for name, layer in qmtree._LAYER_OF.items():
        module = import_module(f"qmtree.{layer}")
        assert getattr(qmtree, name) is getattr(module, name), name


def test_lazy_names_follow_their_layer(monkeypatch):
    from qmtree import orders
    monkeypatch.setattr(orders, "maximal_order", "patched")
    assert qmtree.maximal_order == "patched"
    monkeypatch.undo()
    assert qmtree.maximal_order is orders.maximal_order


def test_dir_lists_every_public_name():
    assert set(qmtree.__all__) <= set(dir(qmtree))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        qmtree.nope
    assert not hasattr(qmtree, "nope")
