"""Each walkthrough in demos/ runs to completion against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("[0-9][0-9]_*.py"))


def test_all_six_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.stem == "06_benchmark_sweep":
        assert "layout-invariant" in out
