"""The demos run end to end and print what they printed when their
golden stdout was recorded (``tests/golden/demos/<name>.txt``).  Each
runs in-process from a temporary working directory, so files a demo
writes (demo 01's chart) stay out of the checkout."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden_stdout(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{demo.stem}.txt").read_text()
