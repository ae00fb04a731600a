"""README.md's library example runs against the package as it is, and
every name it cites exists."""

import contextlib
import functools
import io
import re
from pathlib import Path

import sattrack
import sattrack.cli  # imports every module of the package

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_every_cited_name_resolves():
    cited = re.findall(r"`sattrack((?:\.\w+)+)", README.read_text(encoding="utf-8"))
    assert len(cited) >= 8

    def resolves(dotted: str) -> bool:
        try:
            functools.reduce(getattr, dotted.split(".")[1:], sattrack)
        except AttributeError:
            return False
        return True

    assert [dotted for dotted in cited if not resolves(dotted)] == []
