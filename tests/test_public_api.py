"""Every public name, exported or module-level, has a program path that uses it."""

import ast
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


def _public_defs():
    """``(name, file, its lines)`` of every public module-level ``def`` and
    ``class`` in the package."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                yield node.name, path.resolve(), range(first, node.end_lineno + 1)


def test_every_public_name_resolves_and_has_a_user():
    names = sattrack.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(sattrack, name)]
    assert missing == []

    defs = list(_public_defs())
    assert set(names) <= {name for name, _, _ in defs}
    # a re-export in __init__.py is not a use
    users = [p for p in PACKAGE if p.name != "__init__.py"]
    users += sorted((ROOT / "benchmarks").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    uses = {path.resolve(): _name_lines(path) for path in users}
    unused = [
        f"{home.stem}.{name}"
        for name, home, own in defs
        if not any(
            line not in own or path != home
            for path, lines in uses.items()
            for line in lines.get(name, ())
        )
    ]
    assert unused == []
