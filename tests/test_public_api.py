"""The public API holds only names that some program path uses."""

import ast
import inspect
import tokenize
from pathlib import Path

import sattrack

ROOT = Path(__file__).resolve().parents[1]

# Public without a caller: the paper's label assignment as (H, W) maps (a
# soft classification target and side distances per cell) builds on these.
AWAITING_LABEL_MAPS = {
    "RegressionTarget",
    "classic_centerness",
    "constrained_centerness",
    "soft_cls_target",
}


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


def test_every_public_name_resolves_and_has_a_user():
    names = sattrack.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(sattrack, name)]
    assert missing == []

    users = [p for p in sorted((ROOT / "src" / "sattrack").glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "benchmarks").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    uses = {path.resolve(): _name_lines(path) for path in users}
    unused = []
    for name in sorted(set(names) - AWAITING_LABEL_MAPS):
        obj = getattr(sattrack, name)
        source, first = inspect.getsourcelines(obj)
        home = Path(inspect.getsourcefile(obj)).resolve()
        own = range(first, first + len(source))
        if not any(
            line not in own or path != home
            for path, lines in uses.items()
            for line in lines.get(name, ())
        ):
            unused.append(name)
    assert unused == []
    assert AWAITING_LABEL_MAPS <= set(names)
