"""The package holds no definition that only the tests use.

An AST scan of src/kropina: every top-level function and class must be
used by name, and every method of a top-level class by name or as an
attribute, somewhere in src/ outside its own body.  An import alone is
not a use.  Dunder methods run through Python's protocols and are not
scanned.  Oracles that only the tests call belong in tests/oracles.py.
A second scan holds every module (but __init__.py) to using each name it
imports.  A method whose name is also a field, a `self.<name> =`
attribute or another method elsewhere in src/ passes the first scan on
any use of that name, so a third scan lists every such method, and each
must be named in SHARED_NAMES with its real caller.
"""
import ast
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kropina"

# kept although nothing in src/ names them, each for its reason
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "jets.Jet.partial": "read accessor for one Taylor coefficient",
}


# methods whose name something else in src/ also has, each with the
# caller that really uses the method
SHARED_NAMES = {
    "jets.JetSpace.seed": "einstein._tree_pass and _x_stage, "
                          "riemann.MetricPoint.from_exprs",
    "jets.Jet.value": "jets.Jet.__repr__",
    "riemann.MetricPoint.riemann": "riemann.MetricPoint.ricci",
    "riemann.MetricPoint.ricci": "forms.kropina_ricci_closed, "
                                 "forms.nav_ricci_isotropic",
    "riemann.FieldPoint.s": "riemann.FieldPoint.s_up and s_vec, "
                            "forms.AbFields.dsv",
    "scenarios.Scenario.space": "workbench.run_check, run_verify and "
                                "run_convert",
}


def _uses(node, attributes):
    """Every name used under node as a Name, and with attributes also
    every attribute name."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif attributes and isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _definitions(tree, module):
    """(qualified name, name, node, is_method) of each scanned
    definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, defs[:2])
                        and not (member.name.startswith("__")
                                 and member.name.endswith("__"))):
                    yield (f"{module}.{node.name}.{member.name}",
                           member.name, member, True)


def unreferenced(src=SRC):
    """Qualified names of the definitions under src that nothing in src
    uses apart from their own bodies."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    uses = {False: Counter(), True: Counter()}
    for tree in trees.values():
        for attributes in uses:
            uses[attributes].update(_uses(tree, attributes))
    found = []
    for module, tree in trees.items():
        for qualname, name, node, is_method in _definitions(tree, module):
            if uses[is_method][name] == _uses(node, is_method).count(name):
                found.append(qualname)
    return sorted(found)


def test_every_definition_in_the_package_has_a_caller_in_the_package():
    assert unreferenced() == sorted(ALLOWED)


def _self_attributes(tree):
    """Every name assigned as self.<name> under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    yield sub.attr


def shared_names(src=SRC):
    """Qualified names of the methods under src whose name is also a
    field (an annotated name in a class body), a self.<name> attribute
    or another method somewhere in src."""
    methods, others = defaultdict(set), Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qualname, name, node, is_method in _definitions(tree, path.stem):
            if is_method:
                methods[name].add(qualname)
            elif isinstance(node, ast.ClassDef):
                others.update(m.target.id for m in node.body
                              if isinstance(m, ast.AnnAssign)
                              and isinstance(m.target, ast.Name))
        others.update(_self_attributes(tree))
    return sorted(q for name, quals in methods.items() for q in quals
                  if len(quals) > 1 or others[name])


def test_every_method_with_a_shared_name_is_listed_with_its_caller():
    assert shared_names() == sorted(SHARED_NAMES)


def unused_imports(src=SRC):
    """module.name of every name a module of src imports and never uses
    as a Name: `from __future__` imports and the package's __init__.py,
    whose imports are its exports, are not scanned."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = set(_uses(tree, attributes=False))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.stem}.{name}")
    return sorted(found)


def test_every_import_in_the_package_is_used():
    assert unused_imports() == []
