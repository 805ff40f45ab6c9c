"""Every module-level function and class of the package is either used inside
the package or exported through `planefol.__all__`, every private
module-level constant (`_NAME = ...`) is used inside the package, every
private method of a module-level class is used outside its own body, every
name a module of the package or of the tests imports is used in that module,
every parameter of a module-level function or method is read in its body,
and every defaulted parameter of an unexported module-level function is set
by some call.

Uses are read from the source: a name counts as used when it appears as a
name or an attribute anywhere in `src/planefol` outside its own definition.
Imports alone do not count, so a helper that is imported but never called is
still reported.
"""

import ast
from collections import Counter
from pathlib import Path

import planefol

SRC = Path(planefol.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def _definitions_and_uses():
    defs = []  # (module, name, index of the defining top-level statement)
    uses = {}  # (module, index of top-level statement) -> names used there
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, stmt.name, i))
            elif isinstance(stmt, ast.Assign):
                # private module-level constants, `_NAME = ...`
                defs += [(path.stem, t.id, i) for t in stmt.targets
                         if isinstance(t, ast.Name) and t.id.startswith("_")
                         and not t.id.startswith("__")]
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            uses[(path.stem, i)] = names
    return defs, uses


def test_every_helper_is_used_or_exported():
    defs, uses = _definitions_and_uses()
    exported = set(planefol.__all__)
    dead = sorted(
        f"{module}.{name}"
        for module, name, i in defs
        if name not in exported
        and not any(name in names for key, names in uses.items() if key != (module, i))
    )
    assert dead == []


def test_every_private_method_is_used():
    # a private method (`_name`, not a dunder) of a module-level class counts
    # as used when its name appears anywhere in the package outside its own
    # body; a call from a sibling method is a use
    everywhere = Counter()
    methods = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        everywhere += _names_in(tree)
        methods += [(f"{path.stem}.{stmt.name}.{item.name}", item)
                    for stmt in tree.body if isinstance(stmt, ast.ClassDef)
                    for item in stmt.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name.startswith("_") and not item.name.startswith("__")]
    assert methods
    dead = [name for name, fn in methods
            if everywhere[fn.name] - _names_in(fn)[fn.name] == 0]
    assert dead == []


def _names_in(tree):
    """How often each name appears as a name or an attribute in `tree`."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add((alias.asname or alias.name).split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported) if name not in used]
    assert unused == []


def _functions_and_methods():
    """(qualified name, node) for each module-level function and each method
    of a module-level class; functions nested in a body are not included."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{stmt.name}", stmt
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{path.stem}.{stmt.name}.{item.name}", item


def test_every_parameter_is_read():
    unused = []
    for name, fn in _functions_and_methods():
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{name} ({p})" for p in params if p not in read]
    assert unused == []


def _sets(call, index, name):
    """Does `call` pass the parameter `name`, at position `index` (None for
    keyword-only)? A starred or double-starred argument counts as passing it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args)


def test_every_private_knob_is_set():
    # a default that no call in the package or the benchmark overrides is a
    # constant dressed as an option; exported functions may keep theirs for
    # outside callers
    calls = {}
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    exported = set(planefol.__all__)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            if not isinstance(stmt, functions) or stmt.name in exported:
                continue
            a = stmt.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            knobs = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            knobs += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            unset += [f"{path.stem}.{stmt.name}({p})" for i, p in knobs
                      if not any(_sets(call, i, p) for call in calls.get(stmt.name, []))]
    assert unset == []


def test_singularities_is_used_through_its_public_api():
    # the Q[t]/(f) helpers live in `algebraic`, the chart helpers in
    # `foliation` and `mpoly`; no module borrows a private name of
    # `singularities`
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "singularities":
                private += [f"{path.stem}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_no_module_substitutes_through_subs():
    # substitution is the Horner step `algebraic._horner_mod` (shifts, shears,
    # cluster translations) or an exponent map (charts, pullbacks): no module
    # defines, reads or calls an attribute named `subs`
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "subs":
                found.append(f"{path.stem}:{node.lineno} defines subs")
            elif isinstance(node, ast.Attribute) and node.attr == "subs":
                found.append(f"{path.stem}:{node.lineno} uses .subs")
    assert found == []
