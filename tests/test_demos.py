"""Smoke test: every narrative script in demos/ runs to the end."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_script_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)             # anything a demo writes lands here
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_demos_are_found():
    assert len(DEMOS) >= 3
