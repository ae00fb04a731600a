"""Every definition in the package has a program path that uses it.

A program is the package itself or ``benchmarks/``; a test is not a user,
so a name only tests call fails here.  Every module-level ``def`` and
``class`` counts, private ones included, and so does every method but the
dunders, which Python calls by protocol rather than by name.  Only the
command line speaks to a user: no other module prints or warns.
"""

import ast
import io
import textwrap
import tokenize
from pathlib import Path

import sattrack

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "sattrack").glob("*.py"))


def _names(source: str):
    """``(name, line)`` of every NAME token in ``source`` and of each string
    literal that spells a name (attributes looked up by name).  Before
    Python 3.12 an f-string is one STRING token, so its expressions are
    parsed with :mod:`ast` and scanned in turn, as 3.12 tokenizes them."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        line = token.start[0]
        if token.type == tokenize.NAME:
            yield token.string, line
        elif token.type == tokenize.STRING:
            node = ast.parse(token.string, mode="eval").body
            if isinstance(node, ast.Constant):
                yield node.value, line
            for part in ast.walk(node):
                if isinstance(part, ast.FormattedValue):
                    yield from ((name, line) for name, _ in _names(ast.unparse(part.value)))


def _name_lines(path: Path) -> dict[str, list[int]]:
    """Line numbers of every name a file uses, by :func:`_names`.  An import
    is not a use, and a name imported ``as`` an alias is used where the
    alias is."""
    source = path.read_text(encoding="utf-8")
    imports = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    skipped = {line for node in imports for line in range(node.lineno, node.end_lineno + 1)}
    aliases = {alias.asname: alias.name for node in imports for alias in node.names if alias.asname}
    lines: dict[str, list[int]] = {}
    for name, line in _names(source):
        if line not in skipped and isinstance(name, str):
            lines.setdefault(aliases.get(name, name), []).append(line)
    return lines


def _lines(node) -> range:
    """The lines of a definition, its decorators included."""
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return range(first, node.end_lineno + 1)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defs(paths):
    """``(qualified name, name, file, its lines)`` of every module-level
    ``def`` and ``class`` in ``paths``, and of every method of those
    classes but the dunders."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in paths:
        home = path.resolve()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, home, _lines(node)
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, functions) and not _is_dunder(method.name):
                    yield f"{path.stem}.{node.name}.{method.name}", method.name, home, _lines(method)


def _unused(package, users) -> list[str]:
    """The qualified names of the definitions in ``package`` that no file of
    ``users`` names outside the definition's own lines."""
    uses = {path.resolve(): _name_lines(path) for path in users}
    return [
        qualified
        for qualified, name, home, own in _defs(package)
        if not any(
            line not in own or path != home
            for path, lines in uses.items()
            for line in lines.get(name, ())
        )
    ]


def test_every_public_name_resolves_and_has_a_user():
    names = sattrack.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(sattrack, name)]
    assert missing == []
    defined = {name for qualified, name, _, _ in _defs(PACKAGE) if qualified.count(".") == 1}
    assert set(names) <= defined

    # a re-export in __init__.py is not a use
    users = [p for p in PACKAGE if p.name != "__init__.py"]
    users += sorted((ROOT / "benchmarks").glob("*.py"))
    assert _unused(PACKAGE, users) == []


def test_the_scan_reports_each_unused_private_function_and_method(tmp_path):
    module = tmp_path / "shapes.py"
    module.write_text(textwrap.dedent('''\
        def _used():
            return 1


        def _unused(depth):
            # a call from its own body is not a use
            return _unused(depth - 1) if depth else 0


        def _shown():
            return 2


        def _renamed():
            return 3


        class Box:
            def area(self):
                return _used()

            def perimeter(self):
                return 4

            def __repr__(self):
                return "Box()"


        AREA = Box().area()
        # a use inside an f-string counts on every Python version
        LABEL = f"{AREA:>{_shown()}}"
    '''))
    assert _unused([module], [module]) == [
        "shapes._unused", "shapes._renamed", "shapes.Box.perimeter"
    ]
    # an import is not a use, and an alias is a use of the name it imports,
    # not of a definition that shares the alias's name
    aliased = tmp_path / "aliased.py"
    aliased.write_text("from shapes import _unused\nfrom shapes import _renamed as perimeter\nperimeter()\n")
    assert _unused([module], [module, aliased]) == ["shapes._unused", "shapes.Box.perimeter"]
    # a user in another file counts, as benchmarks/ does for the package
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from shapes import Box, _renamed, _unused\nBox().perimeter()\n_unused(2)\n_renamed()\n"
    )
    assert _unused([module], [module, caller]) == []


def test_only_the_cli_prints_or_warns():
    def speaks(node):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name):
            return func.id == "print"
        return (
            isinstance(func, ast.Attribute) and func.attr == "warn"
            and isinstance(func.value, ast.Name) and func.value.id == "warnings"
        )

    calls = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if speaks(node)
    ]
    assert calls == []
