"""Gates for the external static-analysis tools (mypy, ruff) and the
mypy ratchet.

The container used for tier-1 testing does not ship mypy or ruff, so
those tests skip cleanly when the tools are absent; the CI
``static-analysis`` job installs pinned versions and runs them for
real.  The repo's own source invariants are plain AST tests in
``tests/test_invariants.py`` and need no tool.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - the 3.10 CI leg
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

# The ratchet reads pyproject.toml; Python 3.10 without tomli cannot.
requires_toml = pytest.mark.skipif(
    tomllib is None,
    reason="no TOML parser available (Python < 3.11 without tomli)",
)


def _tool_available(module: str) -> bool:
    try:
        __import__(module)
    except ImportError:
        return False
    return True


@pytest.mark.skipif(not _tool_available("mypy"), reason="mypy not installed")
def test_mypy_clean() -> None:
    """``mypy`` (configured in pyproject.toml) must pass over the package."""
    result = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(not _tool_available("ruff"), reason="ruff not installed")
def test_ruff_clean() -> None:
    """``ruff check src`` must pass with the pyproject.toml rule set."""
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_py_typed_marker_registered() -> None:
    """The py.typed marker must exist and be listed in package-data."""
    marker = REPO_ROOT / "src" / "repro" / "py.typed"
    assert marker.exists()
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    assert "py.typed" in pyproject


class TestMypyRatchet:
    @requires_toml
    def test_override_list_parsing(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from check_mypy_ratchet import override_modules
        finally:
            sys.path.pop(0)
        text = (
            "[tool.mypy]\nstrict = true\n"
            "[[tool.mypy.overrides]]\n"
            'module = ["repro.core.*", "repro.cli"]\n'
            "disallow_untyped_defs = false\n"
        )
        assert override_modules(text) == ["repro.core.*", "repro.cli"]
        assert override_modules("[tool.mypy]\nstrict = true\n") is None

    @requires_toml
    def test_current_repo_passes_ratchet(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_mypy_ratchet.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
