"""Rules the library source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmtree"


def test_library_has_no_assert_statements():
    """Invariants raise InvariantError: python -O strips assert."""
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_reads_no_environment_variables():
    """Output depends on the command line and the input files only: no
    module reads os.environ or calls os.getenv (or imports either)."""
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("environ", "environb", "getenv", "getenvb"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# public names that only __init__, the tests or the benchmark reach; drop a
# name once a src/ caller uses it or it is deleted, and add none
UNREFERENCED = {
    "galois_apply", "phi_tilde",  # descent
    "snf",  # linalg
    "radical_lattice", "ideal_product", "principal_ideal",
    "ideal_from_json",  # orders
    "localize_ideal",  # tree
}


def test_public_names_have_a_caller_in_the_library():
    """Every public module-level function and class of src/qmtree is
    referenced by a src/ module, outside its own definition and
    __init__.py, or is on the shrinking UNREFERENCED list."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    assert len(defined) >= 50
    assert defined - used == UNREFERENCED


# public methods and properties that only the tests or the benchmark reach;
# the same rules as for UNREFERENCED
UNREFERENCED_METHODS = {
    "AdelicPoint.vertex_map",  # descent
    "LeftIdeal.right_order", "Order.coords", "Order.elements",  # orders
    "QuatElement.trd",  # quaternion
    "TreeVertex.key",  # tree
}


def _attributes(node):
    """Attribute names referenced under node: a method is only reached as
    x.name, so a local variable or parameter of the same name is no call."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr


def test_public_methods_have_a_caller_in_the_library():
    """Every public method or property of a src/qmtree class is referenced
    as an attribute in a src/ module, outside its own definition and
    __init__.py, or is on the shrinking UNREFERENCED_METHODS list."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    counts = {}
    for tree in trees:
        for name in _attributes(tree):
            counts[name] = counts.get(name, 0) + 1
    methods, unreferenced = 0, set()
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("_")):
                    continue
                methods += 1
                own = sum(name == node.name for name in _attributes(node))
                if counts.get(node.name, 0) == own:
                    unreferenced.add(f"{cls.name}.{node.name}")
    assert methods >= 30
    assert unreferenced == UNREFERENCED_METHODS


def test_functools_caches_are_bounded():
    """Every lru_cache or cache decorator in src/qmtree has an integer
    maxsize, so a long-lived process cannot grow a cache without end."""
    caches, unbounded = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for dec in getattr(node, "decorator_list", ()):
                call = dec if isinstance(dec, ast.Call) else None
                fn = call.func if call else dec
                if getattr(fn, "id", getattr(fn, "attr", None)) not in (
                        "lru_cache", "cache"):
                    continue
                caches += 1
                sizes = call.args[:1] + [k.value for k in call.keywords
                                         if k.arg == "maxsize"] if call else []
                if not (sizes and isinstance(sizes[0], ast.Constant)
                        and type(sizes[0].value) is int):
                    unbounded.append(f"{path.name}:{node.name}")
    assert caches >= 2
    assert unbounded == []


# each module imports only the siblings listed before it
LAYERS = ("errors", "linalg", "quaternion", "orders", "tree", "center",
          "ideal_tree", "descent", "cli")


def _sibling_imports(tree):
    """The qmtree modules an AST imports, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "qmtree" if node.level == 1 else ""
            base = ".".join(filter(None, (base, node.module)))
            names = ([f"qmtree.{alias.name}" for alias in node.names]
                     if base == "qmtree" else [base])
        else:
            continue
        yield from (n.split(".")[1] for n in names
                    if n.startswith("qmtree."))


def test_modules_import_only_lower_layers():
    """The package is layered as LAYERS: orders cannot import tree, for
    one.  __init__ and __main__ sit on top and are exempt."""
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(
        LAYERS + ("__init__", "__main__"))
    upward = [f"{name} imports {sibling}"
              for rank, name in enumerate(LAYERS)
              for sibling in _sibling_imports(ast.parse(
                  (SRC / f"{name}.py").read_text(encoding="utf-8")))
              if sibling not in LAYERS[:rank]]
    assert upward == []


def test_cli_imports_its_layers_inside_the_commands():
    """cli.py's module-level imports name no qmtree sibling but errors:
    each command imports the layers it runs, so a process compiles only
    those.  A layer imported at the top would load for every command."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    siblings = {name for node in tree.body
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                for name in _sibling_imports(node)}
    assert siblings == {"errors"}
