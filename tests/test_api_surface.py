"""Every top-level function and class in `src/rmtt` has a use.

A definition is reachable when the CLI (`cli.py`), the acceptance suite
(`acceptance.py`), the corpus generator (`corpus.py`) or the benchmark
(`perfbench/`) reaches it, directly or through other definitions, or
when the README's library-API bullet names it.  Tests do not count: a
definition only tests call is either library API, and then the README
says what it decides, or a test helper, and then it lives in `tests/`.

References are matched by name, over-approximately: a definition is used
wherever its name is read (`f(...)`, `mod.f`, or `from .mod import f`
inside a function).  Imports at module level are not uses, so a
re-export alone keeps nothing alive.  A method is a definition of its
own, `Class.method`, used wherever its name is read; special methods
(`__init__`, `__eq__`, ...) count as part of their class.
"""

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "rmtt"
ROOT_MODULES = ("cli", "acceptance", "corpus")
BENCHMARK = REPO / "perfbench"


def _module(path):
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _uses(*nodes):
    names = set()
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def _methods(cls):
    return [s for s in cls.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (s.name.startswith("__") and s.name.endswith("__"))]


def definitions():
    """(module, name, the name a use reads, is def or class, names it
    uses) for every top-level function, class and assignment of the
    package and every method of its classes."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module(path)
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                methods = _methods(stmt)
                rest = [s for s in stmt.body if s not in methods]
                out.append((module, stmt.name, stmt.name, True, _uses(*rest, *stmt.bases, *stmt.decorator_list)))
                out += [(module, f"{stmt.name}.{m.name}", m.name, True, _uses(m)) for m in methods]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((module, stmt.name, stmt.name, True, _uses(stmt)))
            elif isinstance(stmt, ast.Assign):
                # a constant is used where its first name is read
                first = next(n.id for n in ast.walk(stmt.targets[0]) if isinstance(n, ast.Name))
                out.append((module, first, first, False, _uses(stmt)))
    return out


def readme_library_api():
    """The `module.name` items listed under the README's library-API bullet."""
    lines = (REPO / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- Library API"))
    names = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        m = re.match(r"  - `((?:\w+\.)+\w+)", line)
        if m:
            names.append(m.group(1))
    return names


def unreachable():
    defs = definitions()
    named = {n.rsplit(".", 1)[1] for n in readme_library_api()}
    by_name = {}
    for d in defs:
        by_name.setdefault(d[2], []).append(d)
    todo = [d for d in defs if d[0] in ROOT_MODULES or d[2] in named]
    todo += [(None, path.name, None, False, _uses(ast.parse(path.read_text()))) for path in BENCHMARK.glob("*.py")]
    seen = set()
    while todo:
        module, name, _, _, uses = todo.pop()
        if (module, name) in seen:
            continue
        seen.add((module, name))
        for u in uses:
            todo.extend(by_name.get(u, ()))
    return [f"{m}.{n}" for m, n, _, is_def, _ in defs if is_def and (m, n) not in seen]


def test_every_definition_is_reached_or_library_api():
    dead = unreachable()
    assert not dead, f"{len(dead)} definitions are reached by no command and named by no README entry: {dead}"


def test_readme_library_api_names_exist():
    names = readme_library_api()
    assert names
    defs = {(m, n) for m, n, _, is_def, _ in definitions() if is_def}
    for dotted in names:
        module, name = dotted.rsplit(".", 1)
        assert any(n == name and (m == module or m.startswith(module + ".")) for m, n in defs), dotted
