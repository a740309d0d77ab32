"""Layering guards: outside ``words.py`` the library reaches a
``CoxeterGroup`` only through its public surface, the only sign
decision it makes is whether two walls meet, the only conjugation
descent it runs is the one to the canonical generators, word reduction
and the ShortLex automaton walk the elementary-root table with no
field arithmetic, a product is one table walk with no memo, ``ball``
walks the automaton alone, only
``panel_root`` walks a root through a word, only ``wall_between``
builds a ``Wall``, only ``_new_element`` an ``Element`` (for ``_id``
and ``ball``), only ``FieldSpec.rotation_order`` reads an order off the
field's table, and
only ``angle_sites`` an ``AngleSite``, which no reader of a polytope's
sites calls, a site is its five fields, only the residue count check
and the one exit walk walk an arc, while the group keeps residue bases
per chamber record; a census member is born with its site counts, and
no polytope links to its parent; the site table alone states j | m and
2j <= m; the chamber layer forms no group product;
``Value`` alone writes the immutable-value protocol; ``polytopes``
streams its census through ``census_line`` with no materialised list;
the stacan suite takes no hull per glued pair, and the Andreev check
asks no order of a matrix with no finite label; and no module imports a
sibling's underscore names."""

import ast
from pathlib import Path

import coxlab
from coxlab.davis import AngleSite, ChamberPolytope
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
    # the one sign decision sits in ``order_of_roots``: ``order_of_product``
    # delegates to it, and the andreev check asks it on root ids, with no
    # wall built
    calls = [(path.name,) + scope
             for path in sorted(SRC.glob("*.py"))
             for scope in _call_scopes(ast.parse(path.read_text()),
                                       "sign_raw")]
    assert calls == [("words.py", "CoxeterGroup", "order_of_roots")]


def test_davis_forms_no_product_and_no_conjugate_meeting():
    # the chamber layer decides whether walls meet on residue root masks:
    # it forms no group product, asks orders on root ids rather than walls,
    # takes its spherical sets whole from ``matrices``, and the conjugate
    # meeting test lives in the test oracles
    named = _named(ast.parse((SRC / "davis.py").read_text()))
    assert not named & {"multiply", "inverse", "order_of_product",
                        "is_finite", "_meeting"}


def test_only_canonical_generators_conjugates_walls():
    calls = [(path.name,) + scope
             for path in sorted(SRC.glob("*.py"))
             for scope in _call_scopes(ast.parse(path.read_text()),
                                       "conjugate_wall")]
    assert calls == [("subgroups.py", "canonical_generators")]


def test_only_panel_root_tracks_roots():
    # ``panel_root`` is a call of ``_panel_root``, its memo keyed on words
    calls = [(path.name,) + scope
             for path in sorted(SRC.glob("*.py"))
             for scope in _call_scopes(ast.parse(path.read_text()),
                                       "_reflect_id")]
    assert calls == [("words.py", "CoxeterGroup", "_panel_root")]


def test_only_wall_between_builds_walls():
    calls = [(path.name,) + scope
             for path in sorted(SRC.glob("*.py"))
             for scope in _call_scopes(ast.parse(path.read_text()), "Wall")]
    assert calls == [("words.py", "CoxeterGroup", "wall_between")]


def _name_scopes(tree, name):
    """Enclosing class and function names of each load of the name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Name) and child.id == name and \
                    isinstance(child.ctx, ast.Load):
                out.append(scope)
            visit(child, inner)

    visit(tree, ())
    return out


def test_only_element_builds_elements():
    # every element is built by the one cheap constructor: the group's
    # one interned object per word, with its chamber record in ``_id``,
    # and ``ball``'s own, as interning a whole ball costs the walk more
    # than its elements gain.  ``Element(`` is written nowhere in the
    # module outside the class and that constructor
    uses = [(path.name,) + scope
            for path in sorted(SRC.glob("*.py"))
            for scope in _name_scopes(ast.parse(path.read_text()),
                                      "_new_element")]
    assert uses == [("words.py", "CoxeterGroup", "_id"),
                    ("words.py", "CoxeterGroup", "ball")]
    text = (SRC / "words.py").read_text()
    tree = ast.parse(text)
    inside = set()
    for node in tree.body:
        if getattr(node, "name", None) in ("Element", "_new_element"):
            inside.update(range(node.lineno, node.end_lineno + 1))
    lines = [k for k, line in enumerate(text.splitlines(), 1)
             if "Element(" in line and k not in inside]
    assert lines == []
    assert all(_call_scopes(ast.parse(path.read_text()), "Element") == []
               for path in sorted(SRC.glob("*.py")))


def test_only_value_defines_the_value_protocol():
    # the immutability and pickle protocol is written once, in
    # ``words.Value``, which the value classes subclass
    defining = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(n, ast.FunctionDef) and n.name in (
                        "__setattr__", "__delattr__", "__reduce__")
                    for n in node.body):
                defining.append((path.name, node.name))
    assert defining == [("words.py", "Value")]


def test_only_rotation_order_reads_the_order_table():
    # the rule that turns a form value into an order is written once, in
    # the field: the word layer names no table index, field order or gcd
    named = _named(ast.parse((SRC / "words.py").read_text()))
    assert not named & {"gcd", "N", "two_cos_index", "_two_cos_index"}
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "_two_cos_index"
                    and isinstance(n.ctx, ast.Load) for n in ast.walk(fn)):
                readers.append((path.name, fn.name))
    assert readers == [("algebraic.py", "rotation_order")]


def test_only_angle_sites_builds_sites():
    # a polytope's sites are residue counts; only the public
    # ``angle_sites`` builds ``AngleSite`` values
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites += [(path.name,) + s for s in _call_scopes(tree, "AngleSite")]
    assert sites == [("davis.py", "angle_sites")]


def test_sites_are_plain_values_with_one_exit_walk():
    # an arc is walked by the residue count check and by the one exit
    # walk; a site holds its five fields alone, and a polytope keeps its
    # residue counts as its only site record
    tree = ast.parse((SRC / "davis.py").read_text())
    assert sorted(_call_scopes(tree, "_arc")) == [("_exits",),
                                                   ("_residue_counts",)]
    assert AngleSite.__slots__ == ("base", "pair", "m", "j",
                                   "boundary_walls")
    assert "_counts" in ChamberPolytope.__slots__
    assert "_sites" not in ChamberPolytope.__slots__


def _identifiers(node):
    """Every name, attribute, argument, keyword and string constant under
    ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.arg):
            yield n.arg
        elif isinstance(n, ast.keyword) and n.arg:
            yield n.arg
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _davis_defs():
    tree = ast.parse((SRC / "davis.py").read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_no_polytope_links_to_its_parent():
    # a census child holds its own site counts from birth, so no polytope
    # keeps an ``_origin`` link to the parent it was grown from
    found = []
    for path in sorted(SRC.glob("*.py")):
        if "_origin" in _identifiers(ast.parse(path.read_text())):
            found.append(path.name)
    assert found == []
    assert "_origin" not in ChamberPolytope.__slots__


def test_site_counts_names_no_parent():
    # the lazy count of a polytope outside the census counts every
    # chamber: it passes no inherited map and names no parent
    fn = _davis_defs()["_site_counts"]
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)
             and getattr(n.func, "id", None) == "_residue_counts"]
    assert calls
    for call in calls:
        assert isinstance(call.args[3], ast.Constant)
        assert call.args[3].value is None
    assert not set(_identifiers(fn)) & {"_origin", "origin", "parent",
                                        "inherited"}


def test_census_counts_sites_at_birth():
    # the census counts each member's sites before it yields the member
    scopes = _call_scopes(ast.parse((SRC / "davis.py").read_text()),
                          "_residue_counts")
    assert ("enumerate_convex_polytopes",) in scopes


def test_site_readers_build_no_sites():
    # the census line, the angle predicates and the stacan search read
    # the counts: no function they reach in ``davis`` calls angle_sites
    defs = _davis_defs()
    for name in ("census_line", "is_acute_angled", "is_coxeter_polytope",
                 "_obtuse_roots", "glued_translates"):
        seen, todo = set(), [name]
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            assert not _call_scopes(defs[fn], "angle_sites"), (name, fn)
            todo.extend(_named(defs[fn]) & defs.keys())
    assert "_site_counts" in seen


def test_angle_formulas_are_stated_once():
    # the site table (``_angle``) alone decides j | m and 2j <= m; the
    # census line, the angle predicates and the stacan search read it
    tree = ast.parse((SRC / "davis.py").read_text())
    texts = [ast.unparse(n) for n in ast.walk(tree)
             if isinstance(n, (ast.BinOp, ast.Compare))]
    assert texts.count("m % j") == 1
    assert texts.count("2 * j <= m") == 1
    assert sorted(t for t in texts if "% j" in t or "2 * j" in t
                  or "j * 2" in t) == ["2 * j", "2 * j <= m", "m % j",
                                       "m % j == 0"]
    defs = _davis_defs()
    for name in ("census_line", "angle_flags", "_obtuse_roots"):
        assert _call_scopes(defs[name], "_angle"), name


def test_group_has_no_residue_memo():
    # residue bases live in the chamber records (``residues``), not in a
    # memo keyed by (chamber id, s, t)
    assert "_residue_memo" not in _group_private_names()
    assert "residues" in vars(CoxeterGroup)


def _group_methods():
    tree = ast.parse((SRC / "words.py").read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "CoxeterGroup")
    return {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}


def _named(node):
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} \
        | {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_reduction_does_no_field_arithmetic():
    # the methods that reduce words, and the ShortLex automaton that
    # ``ball`` walks, name nothing of the field or of the interned roots:
    # crossings and transitions come off the table alone
    methods = _group_methods()
    field = {"field", "_form_row", "_reflect_id", "_intern", "_root_list",
             "_intern_lock"}
    assert "_canonical" not in methods
    for name in ("_crossing", "_mult_gen", "_mult_word", "_row", "ball"):
        named = _named(methods[name])
        assert not named & field, name
        assert not any(n.startswith("raw_") for n in named), name


def test_product_is_one_memo_free_table_walk():
    # ``_mult_gen`` reads the elementary-root table alone: no automaton,
    # no recursion and no memo
    named = _named(_group_methods()["_mult_gen"])
    assert "_small_table" in named
    assert not named & {"_row", "_state", "_mult_gen"}
    assert not [n for n in named if n.startswith("_")
                and n.endswith(("memo", "cache"))]


def test_ball_walks_the_automaton_alone():
    named = _named(_group_methods()["ball"])
    assert "_row" in named
    assert not named & {"_canonical", "_mult_gen", "_mult_word", "step",
                        "normal_form", "_crossing"}


def test_sign_decision_names_no_fraction():
    # a sign is decided on integer brackets alone: FieldSpec.sign_raw and
    # every function of the module it reaches name no Fraction
    tree = ast.parse((SRC / "algebraic.py").read_text())
    defs = {n.name: n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), ["sign_raw"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        named = {n.attr for n in ast.walk(defs[name])
                 if isinstance(n, ast.Attribute)} | \
            {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert "Fraction" not in named, name
        todo.extend(named & defs.keys())
    assert {"sign_raw", "_power_table", "_minpoly_scaled"} <= seen


def test_no_private_imports_between_modules():
    # a module reaches a sibling only through its public names
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("coxlab")):
                imports += [f"{path.name}:{node.lineno} {a.name}"
                            for a in node.names if a.name.startswith("_")]
    assert imports == []


def test_polytopes_streams_its_census():
    # ``polytopes`` writes each census line as its member is yielded: no
    # function ``cmd_polytopes`` reaches in ``cli`` names the materialised
    # ``census_list``, and the lines come from ``davis.census_line``, not
    # from a generic encoder of a record
    tree = ast.parse((SRC / "cli.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), ["cmd_polytopes"]
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        assert "census_list" not in _named(defs[fn]), fn
        todo.extend(_named(defs[fn]) & defs.keys())
    assert {"capped_census", "_emitting"} <= seen
    assert _call_scopes(defs["cmd_polytopes"], "census_line")
    assigned = {t.id for n in tree.body if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    assert "_encode_line" not in assigned | defs.keys()


def _calls(body):
    """(object, method) of each method call on a name in the statements."""
    return {(n.func.value.id, n.func.attr) for stmt in body
            for n in ast.walk(stmt) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name)}


def test_stacan_takes_no_hull_per_pair():
    # the stacan suite reads each union's convexity off the pair loop's
    # mask test: outside the branch that displays a counterexample it
    # names no hull, no convexity test on a mask and no chamber set, and
    # nothing the pair loop reaches in ``davis``, but the census it may
    # build, takes a hull or a region
    tree = ast.parse((SRC / "cli.py").read_text())
    suite = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name == "suite_stacan")
    shown = [n for n in ast.walk(suite) if isinstance(n, ast.If)
             and ("bad", "append") in _calls(n.body)]
    assert len(shown) == 1
    inside = _named(ast.Module(body=shown[0].body, type_ignores=[]))
    outside = _named(suite) - inside
    banned = {"is_convex_mask", "_hull_limited", "chambers_of", "is_convex",
              "region"}
    assert "glued_unions" in outside and not outside & banned
    assert "chambers_of" in inside
    tree = ast.parse((SRC / "davis.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), ["glued_unions"]
    while todo:
        fn = todo.pop()
        if fn in seen or fn == "enumerate_convex_polytopes":
            continue
        seen.add(fn)
        assert not _named(defs[fn]) & banned, fn
        todo.extend(_named(defs[fn]) & defs.keys())
    assert {"translate", "union_is_convex", "_obtuse_roots"} <= seen


def test_andreev_asks_no_order_without_a_finite_label():
    # ``check_andreev`` reads ``finite_pairs`` before it reads a panel or
    # asks an order, and returns at once when there is none
    tree = ast.parse((SRC / "davis.py").read_text())
    check = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name == "check_andreev")
    first = check.body[1]  # after the docstring
    assert isinstance(first, ast.If) and "finite_pairs" in _named(first.test)
    assert isinstance(first.body[0], ast.Return)
    lines = {}
    for node in ast.walk(check):
        if isinstance(node, ast.Attribute):
            lines.setdefault(node.attr, []).append(node.lineno)
    assert min(lines["finite_pairs"]) < min(lines["order_of_roots"])
    assert min(lines["finite_pairs"]) < min(lines["_panels"])
