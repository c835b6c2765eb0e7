"""Every Python source of the repository parses at the oldest Python that
``pyproject.toml`` declares, so a newer syntax cannot slip in unseen where
only newer interpreters run the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_floor() -> tuple[int, int]:
    """``requires-python``'s lower bound, read by a regex: ``tomllib`` is
    newer than the floor."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.M)
    assert found, "pyproject.toml declares no requires-python lower bound"
    return int(found[1]), int(found[2])


def test_every_source_parses_at_the_declared_python_floor():
    floor = declared_floor()
    files = [
        path for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))
    ]
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, f"not valid Python {floor[0]}.{floor[1]}: {failures}"
