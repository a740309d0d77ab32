"""Layering guards: outside ``words.py`` the library reaches a
``CoxeterGroup`` only through its public surface, the only sign
decision it makes is whether two walls meet, and the only conjugation
descent it runs is the one to the canonical generators."""

import ast
from pathlib import Path

import coxlab
from coxlab.words import CoxeterGroup

SRC = Path(coxlab.__file__).parent


def _group_private_names():
    """Private methods and class attributes of CoxeterGroup, and the
    private attributes its ``__init__`` assigns on ``self``."""
    names = {n for n in vars(CoxeterGroup)
             if n.startswith("_") and not n.startswith("__")}
    tree = ast.parse((SRC / "words.py").read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "CoxeterGroup")
    init = next(n for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    for node in ast.walk(init):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self" and node.attr.startswith("_"):
            names.add(node.attr)
    return names


def test_group_privates_are_read_only_in_words():
    private = _group_private_names()
    assert {"_mult_word", "_root_list", "_intern"} <= private
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "words.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private \
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self"):
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
    assert reads == []


def _call_scopes(tree, name):
    """Enclosing class and function names of each call of ``name``."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if called == name:
                    out.append(scope)
            visit(child, scope)

    visit(tree, ())
    return out


def test_only_order_of_product_decides_signs():
    calls = [(path.name,) + scope
             for path in sorted(SRC.glob("*.py"))
             for scope in _call_scopes(ast.parse(path.read_text()),
                                       "sign_raw")]
    assert calls == [("words.py", "CoxeterGroup", "order_of_product")]


def test_only_canonical_generators_conjugates_walls():
    calls = [(path.name,) + scope
             for path in sorted(SRC.glob("*.py"))
             for scope in _call_scopes(ast.parse(path.read_text()),
                                       "conjugate_wall")]
    assert calls == [("subgroups.py", "canonical_generators")]
