"""Smoke test: the walkthrough demos run to completion."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_equivalence.py",
                                  "02_accelerator_footprint.py",
                                  "03_adversary.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
