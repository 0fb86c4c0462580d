"""Source-level invariants of the library."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sigmabuild"


def test_library_has_no_assert_statements():
    # python -O strips asserts, so library invariants must raise real exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_library_raises_its_own_errors():
    # invariants raise the module's error class, not a bare AssertionError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []


def test_library_catches_no_broad_exceptions():
    # `except Exception` and bare `except:` would report internal bugs as
    # mathematical failures
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ExceptHandler)
        and (
            node.type is None
            or any(
                isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
                for n in ast.walk(node.type)
            )
        )
    ]
    assert found == []


def _outside_class(tree, name):
    """The nodes of a module outside the body of the class with this name."""
    stack = [tree]
    while stack:
        n = stack.pop()
        if not (isinstance(n, ast.ClassDef) and n.name == name):
            yield n
            stack.extend(ast.iter_child_nodes(n))


def test_only_the_height_form_reads_its_integer_scale():
    # `HeightForm` owns the integer levels d * h and the rounding of a level
    # onto their grid: no other code reads its scaled coefficients, and the
    # modules that compare heights round no level themselves
    found = [
        f"{path.name}:{n.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for n in _outside_class(ast.parse(path.read_text(), str(path)), "HeightForm")
        if (isinstance(n, ast.Attribute) and n.attr == "_scaled")
        or (path.stem in ("building", "windows") and isinstance(n, ast.Name) and n.id in ("ceil", "floor"))
    ]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def _functions_naming(tree, name):
    """The innermost function around each use of a name or attribute, None outside any."""
    found = []

    def visit(node, fn):
        for c in ast.iter_child_nodes(node):
            if (isinstance(c, ast.Name) and c.id == name) or (isinstance(c, ast.Attribute) and c.attr == name):
                found.append(fn)
            visit(c, c.name if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(tree, None)
    return found


def test_only_the_hermite_kernel_takes_diagonal_valuations():
    # a building vertex is the pair (key, exps) that the kernel returns, and
    # its diagonal exponents are computed once: by the pivot search of
    # `_hermite_form` and the homothety shift of `_reduced_key`; the group
    # action takes v_p(det g.num) and reads the rest from the vertex table
    path = SRC / "building.py"
    found = _functions_naming(ast.parse(path.read_text(), str(path)), "valuation")
    assert sorted(map(str, found)) == ["_hermite_form", "_reduced_key", "act_on_vertex"]


def test_only_the_public_group_constructor_scales_fraction_rows():
    # the generators, the torus projection and the group operations write
    # their canonical integer rows directly; only GroupElement(rows) reads
    # integer rows off Fraction rows with `linalg.scaled`
    path = SRC / "chevalley.py"
    tree = ast.parse(path.read_text(), str(path))
    (init,) = (
        m
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == "GroupElement"
        for m in c.body
        if isinstance(m, ast.FunctionDef) and m.name == "__init__"
    )
    found = _functions_naming(tree, "scaled")
    assert found == ["__init__"] and len(_functions_naming(init, "scaled")) == 1


def test_alcove_geometry_takes_no_fraction_dot_products():
    # root functionals are integer rows dotted with a point's integer
    # numerators (`linalg.scaled`), so coxeter needs no Fraction dot product
    path = SRC / "coxeter.py"
    imported = {
        alias.name
        for n in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
    }
    assert "scaled" in imported
    assert imported.isdisjoint({"dot", "matvec"})


def test_only_homology_chooses_the_chain_complex_of_a_query():
    # every homology query reads a prefix of one chain complex, and only
    # `homology` decides which: a height filtration builds its own, and the
    # F2 pivot loop is named only inside ChainComplexF2
    builders = {}
    for path in sorted(SRC.glob("*.py")):
        found = _functions_naming(ast.parse(path.read_text(), str(path)), "ChainComplexF2")
        if found and path.stem != "homology":
            builders[path.stem] = sorted(map(str, found))
    assert builders == {"building": ["chain_complex"]}
    pivot_loop = {"_reduction", "_eliminate"}
    found = [
        f"{path.name}:{n.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for n in _outside_class(ast.parse(path.read_text(), str(path)), "ChainComplexF2")
        if (isinstance(n, ast.Attribute) and n.attr in pivot_loop)
        or (isinstance(n, ast.Name) and n.id in pivot_loop)
        or (isinstance(n, ast.FunctionDef) and n.name in pivot_loop)
    ]
    assert found == []


def _names(node, skip):
    """Identifiers a node names: names, attributes, imports and dotted strings.

    An attribute or a part of a dotted string is also listed with a leading
    dot, the only form in which it can name a method.
    """
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.update((n.attr, "." + n.attr))
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in skip:
            if re.fullmatch(r"\.?[A-Za-z_][\w.]*", n.value):  # e.g. f"{CC}.kernel_basis"
                parts = [p for p in n.value.split(".") if p]
                out.update(parts)
                if "." in n.value:
                    out.update("." + p for p in parts)
        stack.extend(c for c in ast.iter_child_nodes(n) if id(c) not in skip)
    return out


def test_every_definition_is_reached():
    # A module-level function or class, or a public method, of the library
    # stays only if the library, a demo or the benchmark reaches it: named
    # from code outside any such definition, or from one already reached.
    # A method is reached only through an attribute or a dotted string, so a
    # local variable of the same name does not keep it.  Of the benchmark,
    # only the files that call the library count: the tracer and the
    # per-layer metrics name functions as strings without calling them.
    # Reference code that only tests call lives beside the tests.
    root = SRC.parent.parent
    callers = ("workloads", "checks", "session", "worker", "run")
    paths = (
        sorted(SRC.glob("*.py"))
        + sorted(root.glob("demos/*.py"))
        + [root / "perfbench" / f"{name}.py" for name in callers]
    )
    reached, bodies = set(), {}
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        skip = {  # docstrings: their prose names nothing
            id(n.body[0].value)
            for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)
        }
        defs = {}
        if path.parent == SRC:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defs[f"{path.stem}.{node.name}"] = node, node.name
                    for m in node.body if isinstance(node, ast.ClassDef) else ():
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                            defs[f"{path.stem}.{node.name}.{m.name}"] = m, "." + m.name
        skip |= {id(n) for n, _ in defs.values()}
        reached |= _names(tree, skip)
        bodies.update((qual, (name, _names(n, skip))) for qual, (n, name) in defs.items())
    todo = dict(bodies)
    while alive := [qual for qual, (name, _) in todo.items() if name in reached]:
        for qual in alive:
            reached |= todo.pop(qual)[1]
    assert bodies
    assert not todo, "reached by tests only: " + ", ".join(sorted(todo))
