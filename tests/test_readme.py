"""README.md's library example runs against the package as it is, and
every name it or the package's docstrings cite exists."""

import contextlib
import functools
import io
import re
from pathlib import Path

import sattrack
import sattrack.cli  # imports every module of the package

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "sattrack").glob("*.py"))
MODULES = "|".join(path.stem for path in SOURCES if path.stem != "__init__")


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)  # the example writes its files into the working directory
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for number, block in enumerate(blocks, start=1):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)
    assert {path.name for path in tmp_path.iterdir()} == {
        "trajectory.csv", "trace.csv", "refined.csv"
    }


def resolves(dotted: str) -> bool:
    """Whether ``sattrack.<dotted>`` names an attribute of the package."""
    try:
        functools.reduce(getattr, dotted.split("."), sattrack)
    except AttributeError:
        return False
    return True


def test_every_cited_name_resolves():
    cited = re.findall(r"`sattrack\.(\w+(?:\.\w+)*)", README.read_text(encoding="utf-8"))
    assert len(cited) >= 8
    assert [dotted for dotted in cited if not resolves(dotted)] == []


def test_every_private_name_and_role_cited_in_the_sources_resolves():
    # ``motion._finite_total`` in a docstring, `attention._attend` in the
    # README, :func:`~sattrack.motion.psr` in either
    private = rf"`{{1,2}}((?:{MODULES})\._\w+)`{{1,2}}"
    role = r":\w+:`~?sattrack\.(\w+(?:\.\w+)*)`"
    cited = {}
    for path in [README, *SOURCES]:
        text = path.read_text(encoding="utf-8")
        for dotted in re.findall(private, text) + re.findall(role, text):
            cited.setdefault(dotted, path.name)
    assert len(cited) >= 12
    assert {dotted: where for dotted, where in cited.items() if not resolves(dotted)} == {}
