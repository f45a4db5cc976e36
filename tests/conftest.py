"""Fixtures shared across the test packages."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _fresh_import_check(code: str) -> None:
    """Run ``code`` in a fresh interpreter over this checkout's ``src``."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr


@pytest.fixture
def fresh_import_check():
    """Check a code string's imports in a fresh interpreter, where
    ``sys.modules`` holds only what that code loaded."""
    return _fresh_import_check
