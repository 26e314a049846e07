"""Checks on the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
import types
from collections import Counter
from pathlib import Path

import mvcodes
from mvcodes import chain_wajsberg, convert
from mvcodes.algebras import axiom_suite


def test_no_assert_statements_in_the_package():
    # invariants must be real checks: python -O strips assert statements
    found = []
    for path in sorted(Path(mvcodes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_dataclasses_when_it_loads():
    # importing dataclasses loads inspect, ast, dis and tokenize: a third of
    # the package's cold start; only a function body may import it
    found = []

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names):
            found.append(f"{path.name}:{node.lineno}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses" and not node.level:
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    for path in sorted(Path(mvcodes.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path)
    assert found == []


def test_records_write_their_state_in_their_own_init():
    # a record checks its arguments and writes __dict__ in one __init__: no
    # dataclass-style __post_init__ hop, no _keep, no object.__setattr__
    found = []
    for path in sorted(Path(mvcodes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("__post_init__", "_keep"):
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("__post_init__", "_keep"):
                found.append(f"{path.name}:{node.lineno} reads {name}")
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__" and getattr(node.value, "id", None) == "object":
                found.append(f"{path.name}:{node.lineno} calls object.__setattr__")
    assert found == []


def test_records_declare_their_fields_only_as_init_parameters():
    # _Record reads a record's fields off its __init__: a class-body field
    # annotation or a _view name would repeat them
    found = []
    for path in sorted(Path(mvcodes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            bases = {getattr(base, "id", None) for base in getattr(node, "bases", ())}
            if isinstance(node, ast.ClassDef) and bases & {"_Record", "_LazyRows"}:
                for statement in node.body:
                    if isinstance(statement, ast.AnnAssign):
                        found.append(f"{path.name}:{statement.lineno} annotates a field of {node.name}")
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "_view":
                found.append(f"{path.name}:{node.lineno} names _view")
    assert found == []


def test_every_private_helper_is_used_in_the_package():
    # a module-level private function or class that only tests call is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in Path(mvcodes.__file__).parent.glob("*.py")}

    def names(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr

    everywhere = Counter(name for tree in trees.values() for name in names(tree))
    dead = [
        f"{module}:{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and everywhere[node.name] == Counter(names(node))[node.name]
    ]
    assert dead == []


def _defaulted(trees):
    """Each module-level private function of ``trees``: its positional
    parameters, and the names of its parameters that have a default."""
    defaulted = {}
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            keyword = [a for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            defaulted[node.name] = (positional, {a.arg for a in positional[len(positional) - len(args.defaults) :] + keyword})
    return defaulted


def test_every_default_of_a_private_helper_is_used_in_the_package():
    # a default that every package call overrides serves only the tests
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(mvcodes.__file__).parent.glob("*.py")]
    defaulted = _defaulted(trees)
    left_out = set()
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        given = {kw.arg for kw in call.keywords}
        if name in defaulted and None not in given and not any(isinstance(a, ast.Starred) for a in call.args):
            positional, names = defaulted[name]
            given.update(a.arg for a in positional[: len(call.args)])
            left_out.update((name, arg) for arg in names - given)
    unused = sorted((name, arg) for name, (_, names) in defaulted.items() for arg in names if (name, arg) not in left_out)
    assert unused == []


def test_every_default_of_a_private_helper_is_overridden_in_the_package():
    # a parameter that no package call sets is generality nothing uses; a
    # starred argument counts as setting every parameter
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(mvcodes.__file__).parent.glob("*.py")]
    defaulted = _defaulted(trees)
    overridden = set()
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name in defaulted:
            positional, names = defaulted[name]
            given = {kw.arg for kw in call.keywords} | {a.arg for a in positional[: len(call.args)]}
            if None in given or any(isinstance(a, ast.Starred) for a in call.args):
                given = names
            overridden.update((name, arg) for arg in names & given)
    unset = sorted((name, arg) for name, (_, names) in defaulted.items() for arg in names if (name, arg) not in overridden)
    assert unset == []


def test_presentations_are_told_apart_only_in_parts():
    # one isinstance chain, algebras._parts, knows the three presentation classes
    classes = {"BckAlgebra", "MvAlgebra", "WajsbergAlgebra"}
    found = []
    for path in sorted(Path(mvcodes.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                    tested = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                    if tested & classes:
                        found.append(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert found == ["algebras.py:_parts"] * 3


def test_each_axiom_is_named_once_in_its_suite():
    # a suite row carries its name, arity, predicate and byte filter, so no
    # second table of axiom names needs keeping in step with the suites
    names = [row[0] for kind in ("bck", "mv", "wajsberg") for row in axiom_suite(convert(chain_wajsberg(2), kind))]
    tree = ast.parse((Path(mvcodes.__file__).parent / "algebras.py").read_text(encoding="utf-8"))
    literals = Counter(node.value for node in ast.walk(tree) if isinstance(node, ast.Constant))
    assert len(names) == 19
    assert {name: literals[name] for name in names} == dict.fromkeys(names, 1)


def test_order_masks_have_one_home():
    # columns become masks only in order._up_down, by strided slices, and the
    # Birkhoff helpers live next to it
    home = ["_up_down", "_chain_masks", "_product_iso", "_product_masks", "_all_isos"]
    defined, transposed = {}, []
    for path in sorted(Path(mvcodes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in home:
                defined.setdefault(node.name, []).append(path.name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_masks":
                zips = [n for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "zip"]
                if any(isinstance(a, ast.Starred) for z in zips for a in z.args):
                    transposed.append(f"{path.name}:{node.lineno}")
    assert transposed == []
    assert defined == {name: ["order.py"] for name in home}


def test_each_public_name_is_declared_once():
    # a module's __all__ names what it defines; the package's __all__ joins
    # those lists and names exactly what the package binds, modules aside
    misplaced, declared = [], []
    for path in sorted(Path(mvcodes.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"mvcodes.{path.stem}")
        if not hasattr(module, "__all__"):
            continue
        defined, imported = set(), set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mvcodes")):
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        declared += module.__all__
        misplaced += [f"{path.stem}.{name}" for name in module.__all__ if name not in defined or name in imported or not hasattr(module, name)]
    assert misplaced == []
    assert len(mvcodes.__all__) == len(set(mvcodes.__all__))
    assert sorted(declared) == sorted(mvcodes.__all__)
    public = {name for name, value in vars(mvcodes).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(mvcodes.__all__) == sorted(public)


def test_reloading_the_package_keeps_its_public_names():
    # a reload finds ``convert`` bound to the function, not to its module
    script = textwrap.dedent(
        """
        import importlib
        import mvcodes
        import test_source

        before = sorted(mvcodes.__all__)
        importlib.reload(mvcodes)
        assert sorted(mvcodes.__all__) == before, before
        test_source.test_each_public_name_is_declared_once()
        print(len(before))
        """
    )
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(mvcodes.__file__).parents[1]), str(here)]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(mvcodes.__all__)}\n"
