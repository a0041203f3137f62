#!/usr/bin/env python3
"""Fail if the mypy non-strict override list grew (the typing ratchet).

The ``[[tool.mypy.overrides]]`` block in pyproject.toml enumerates
legacy modules not yet held to ``--strict``.  The ratchet contract:
entries may be *removed* (a module graduated to strict) but never
*added* -- new code is strict from birth, and a graduated module must
never regress.

This script compares the current list against the one at a git
reference (default: merge base with ``origin/main``, falling back to
``main``, then ``HEAD~1``).  If no reference resolves -- shallow CI
clone, fresh repo -- the check passes with a notice rather than
blocking, because the working tree alone carries no evidence of growth.

Exit codes: 0 = list shrank or held, 1 = list grew, 2 = usage error.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

try:  # pragma: no cover - 3.10 fallback
    import tomllib
except ModuleNotFoundError:  # pragma: no cover
    import tomli as tomllib  # type: ignore[no-redef]

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = "pyproject.toml"
CANDIDATE_REFS = ("origin/main...HEAD", "main", "HEAD~1")


def override_modules(text: str) -> list[str] | None:
    """The non-strict module list from pyproject text, or None if absent."""
    data = tomllib.loads(text)
    for block in data.get("tool", {}).get("mypy", {}).get("overrides", []):
        module = block.get("module")
        if isinstance(module, str):
            module = [module]
        if isinstance(module, list) and not block.get("disallow_untyped_defs", True):
            return [str(m) for m in module]
    return None


def _git_show(ref: str) -> str | None:
    spec = ref
    if "..." in ref:  # merge-base form: resolve to a single commit first
        base = subprocess.run(
            ["git", "merge-base", *ref.split("...")],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        if base.returncode != 0:
            return None
        spec = base.stdout.strip()
    result = subprocess.run(
        ["git", "show", f"{spec}:{PYPROJECT}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return result.stdout if result.returncode == 0 else None


def main() -> int:
    current_text = (REPO_ROOT / PYPROJECT).read_text(encoding="utf-8")
    current = override_modules(current_text)
    if current is None:
        print("mypy ratchet: no non-strict override block -- fully strict, done")
        return 0

    baseline_text = None
    used_ref = None
    for ref in CANDIDATE_REFS:
        baseline_text = _git_show(ref)
        if baseline_text is not None:
            used_ref = ref
            break
    if baseline_text is None:
        print("mypy ratchet: no comparable git reference; skipping (nothing to ratchet against)")
        return 0

    baseline = override_modules(baseline_text) or []
    added = sorted(set(current) - set(baseline))
    removed = sorted(set(baseline) - set(current))
    if added:
        print(f"mypy ratchet VIOLATION vs {used_ref}: override list grew")
        for module in added:
            print(f"  + {module}  (new code must be strict from birth)")
        return 1
    if removed:
        graduated = ", ".join(removed)
        print(f"mypy ratchet: {graduated} graduated to strict vs {used_ref}")
    print(f"mypy ratchet OK: {len(current)} non-strict module(s) (was {len(baseline)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
