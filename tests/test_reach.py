"""Regrowth guard: every public top-level function or class of cellab, and
every public method of its classes, is reached, by name over the AST, from
the CLI, the acceptance suites, module-level code or a name the benchmark
harness reads. An attribute on a cellab class name (`Cls.member`) reaches
that class's member only. Any other attribute is matched by name only: a
member that shares its name with a reached one counts as reached. Dunder
methods run implicitly and are exempt; their bodies count as part of their
class."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _methods(node: ast.AST) -> list[ast.FunctionDef]:
    """The non-dunder methods of a class; none for a function."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [m for m in node.body if isinstance(m, ast.FunctionDef)
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def _attribute(sub: ast.Attribute, classes: set[str]) -> str:
    """`Cls.member` for an attribute on a cellab class name, else the bare
    member name."""
    if isinstance(sub.value, ast.Name) and sub.value.id in classes:
        return f"{sub.value.id}.{sub.attr}"
    return sub.attr


def _mentions(node: ast.AST, classes: set[str]) -> set[str]:
    """Names a definition reads; a class's methods are left to their own
    names."""
    skip = {id(m) for m in _methods(node)}
    out = set()
    todo = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(_attribute(sub, classes))
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        todo.extend(c for c in ast.iter_child_nodes(sub) if id(c) not in skip)
    return out


def test_every_public_definition_is_reached():
    modules = [(path.stem, ast.parse(path.read_text()))
               for path in sorted((ROOT / "src" / "cellab").glob("*.py"))
               if path.stem != "__init__"]
    classes = {node.name for _, tree in modules for node in tree.body
               if isinstance(node, ast.ClassDef)}
    # a method is reached by its bare name or as Cls.method
    defs: dict[str, list[ast.AST]] = {}
    public: list[tuple[tuple[str, ...], str]] = []
    todo: set[str] = set()
    for stem, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                public.append(((node.name,), node.name))
                for m in _methods(node):
                    qualified = f"{node.name}.{m.name}"
                    defs.setdefault(m.name, []).append(m)
                    defs.setdefault(qualified, []).append(m)
                    public.append(((m.name, qualified), qualified))
                if stem in ("cli", "acceptance"):
                    todo.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= _mentions(node, classes)
    # perfbench reads cellab by attribute, by import and by name in strings
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Attribute):
                todo.add(_attribute(sub, classes))
            elif isinstance(sub, ast.ImportFrom) and (sub.module or "").startswith("cellab"):
                todo |= {a.name for a in sub.names}
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                todo.add(sub.value)
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo |= _mentions(node, classes) - reached
    unreached = sorted(label for names, label in public
                       if not label.split(".")[-1].startswith("_")
                       and reached.isdisjoint(names))
    assert not unreached, f"public definitions reached from no root: {unreached}"
