"""Every definition in the package has a program path that uses it.

A program is the package itself or ``benchmarks/``; a test is not a user,
so a name only tests call fails here.  Every module-level ``def`` and
``class`` counts, private ones included, and so does every method but the
dunders, which Python calls by protocol rather than by name.
"""

import ast
import textwrap
import tokenize
from pathlib import Path

import sattrack

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "sattrack").glob("*.py"))


def _name_lines(path: Path) -> dict[str, list[int]]:
    """Line numbers of every name a file uses: each NAME token, and each
    string literal that spells a name (attributes looked up by name)."""
    lines: dict[str, list[int]] = {}
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            name = token.string
            if token.type == tokenize.STRING:
                try:
                    name = ast.literal_eval(token.string)
                except (ValueError, SyntaxError):  # f-strings
                    continue
            if token.type in (tokenize.NAME, tokenize.STRING) and isinstance(name, str):
                lines.setdefault(name, []).append(token.start[0])
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


        class Box:
            def area(self):
                return _used()

            def perimeter(self):
                return 4

            def __repr__(self):
                return "Box()"


        AREA = Box().area()
    '''))
    assert _unused([module], [module]) == ["shapes._unused", "shapes.Box.perimeter"]
    # a user in another file counts, as benchmarks/ does for the package
    caller = tmp_path / "caller.py"
    caller.write_text("from shapes import Box, _unused\nBox().perimeter()\n_unused(2)\n")
    assert _unused([module], [module, caller]) == []
