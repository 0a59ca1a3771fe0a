"""Smoke test: every script under ``examples/`` runs to completion."""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_all_examples_collected():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exit_info:
            assert exit_info.code in (None, 0)
    assert out.getvalue()
