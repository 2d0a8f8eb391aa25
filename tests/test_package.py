"""Static checks on the package source, with the standard library's ``ast``.

No linter ships with the project, so these stand in for the six checks
that matter after a deletion: a module still importing a name it no longer
uses, the package's ``__all__`` drifting from what ``__init__.py`` imports,
an error class that nothing raises any more, a private function, class or
method that nothing calls any more, a private module-level constant that
nothing reads any more, and a public function or class that the package
does not use and the README does not name; a seventh keeps each error
template's ``{}`` fields matched to the values raised with it, and an eighth
keeps the standard library's ``json`` out of every module but ``jsonio``.
"""

import ast
import pathlib
import re
from collections import Counter

import pytest

import parbelos

PACKAGE = pathlib.Path(parbelos.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}


def test_all_matches_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    public = {name for name in imported_names(tree) if not name.startswith("_")}
    assert len(parbelos.__all__) == len(set(parbelos.__all__))
    assert [name for name in parbelos.__all__ if not hasattr(parbelos, name)] == []
    assert public - set(parbelos.__all__) == set()


def test_only_jsonio_imports_the_json_module():
    """``jsonio.dumps`` is the one JSON writer: no other module imports the
    standard library's ``json`` or one of its submodules."""
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in modules):
                importers.add(path.stem)
    assert importers == {"jsonio"}


def raised_names(tree: ast.Module) -> set[str]:
    """The names in ``raise X`` and ``raise X(...)`` statements, also as ``module.X``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    """Each error class but the base class is raised somewhere in the package."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        raised |= raised_names(ast.parse(path.read_text(encoding="utf-8")))
    assert defined - raised - {"GeometryError"} == set()


def test_every_error_template_has_one_field_per_value():
    """``raise Error(template, *values)`` fills each ``{}`` with one value when
    printed, so a template with more fields than values would make ``str``
    raise IndexError, and one with fewer would drop a value."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    templates, mismatched = 0, []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) in defined):
                continue
            if len(call.args) < 2 or not isinstance(call.args[0], ast.Constant):
                continue
            templates += 1
            template = call.args[0].value
            fields = template.count("{}")
            if fields != len(call.args) - 1 or template.count("{") != fields:
                mismatched.append(f"{path.name}:{node.lineno}")
    assert templates >= 10 and mismatched == []


def references(node: ast.AST) -> Counter:
    """Each name ``node`` uses as a name, an attribute or a string constant."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def test_every_private_function_is_referenced():
    """Each module-level ``_name`` function or class, and each ``_method`` but
    the dunders, is used somewhere in the package outside its own body.

    A string constant counts, since the ``fuzz.SUITES`` rows name their case
    functions by string."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    used = sum((references(tree) for tree in trees), Counter())
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    private = []
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            private += [d for d in (node, *members) if isinstance(d, definitions)]
    private = [d for d in private if d.name.startswith("_") and not d.name.endswith("__")]
    unused = [d.name for d in private if used[d.name] == references(d)[d.name]]
    assert len(private) >= 40 and unused == []


def test_every_private_constant_is_read():
    """Each module-level ``_NAME`` bound by assignment (a table, a pattern, a
    parser) is read somewhere in the package outside its own binding, so a
    table or parser whose last reader is gone cannot stay behind."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    used = sum((references(tree) for tree in trees), Counter())
    bound = []
    for tree in trees:
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            bound += [(name, node) for name in names if name.startswith("_") and not name.endswith("__")]
    unread = [name for name, node in bound if used[name] == references(node)[name]]
    assert len(bound) >= 9 and unread == []


def readme_code() -> str:
    """The code that README.md shows: its fenced blocks and its inline code spans."""
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```.*?^```", text, re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))
    return "\n".join(blocks + spans)


def test_every_public_function_is_exported_or_referenced():
    """Each public module-level function or class is used by the package or
    exported in the README, so a name that only tests reach is either part of
    the documented API or gone.

    It counts as used when another package module but ``__init__`` imports
    it by name, or when its own module uses it as a name outside its
    definition.  It counts as exported when README.md names it in code (a
    code block or an inline code span).  A place in ``parbelos.__all__``
    counts for neither: ``__init__`` imports every name it lists."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    exported = set(re.findall(r"\w+", readme_code()))

    def named(node: ast.AST, name: str) -> int:
        return sum(isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node))

    public, unreached = 0, []
    for stem, tree in trees.items():
        for node in tree.body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            public += 1
            name = node.name
            if not ((stem, name) in imported or named(tree, name) > named(node, name) or name in exported):
                unreached.append(f"{stem}.{name}")
    assert public >= 80 and unreached == []
