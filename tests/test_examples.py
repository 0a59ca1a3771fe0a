"""Smoke test: every script under ``examples/`` runs to completion."""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _run(script: Path) -> str:
    """Stdout of ``script`` run as ``__main__``; it must exit cleanly."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exit_info:
            assert exit_info.code in (None, 0)
    return out.getvalue()


def test_all_examples_collected():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    assert _run(script)


def test_cycle_example_shows_quantisation_noise():
    """Its operands are off the 16-bit grid, so every layer reports noise."""
    script = next(path for path in EXAMPLES
                  if path.name == "cycle_accurate_verification.py")
    noise = [line for line in _run(script).splitlines() if "% of RMS" in line]
    assert len(noise) == 5
    assert not any("0.000 % of RMS" in line for line in noise)
