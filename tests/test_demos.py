"""Smoke test: every narrative script in demos/ and every Python example
in the README runs to the end."""

import re
import runpy
import shutil
from pathlib import Path

import pytest

from rfplan.cli import demo_scenario_path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_script_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)             # anything a demo writes lands here
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_demos_are_found():
    assert len(DEMOS) >= 3


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # each block as written, in a directory that holds the demo scenario
    # under the name the README loads it by
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    shutil.copy(demo_scenario_path(), tmp_path / "demo.json")
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
