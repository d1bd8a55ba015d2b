#!/usr/bin/env python3
"""Statement coverage of src/extmcg over the tier-1 tests, from a trace hook.

Runs tier-1 (pytest with the options of pyproject.toml, which deselect
the slow tests) in this process under a trace hook that line-traces only
frames of src/extmcg.  A statement is the first line of an AST
statement, docstrings left out.  The script prints each statement that
never ran and that tests/uncovered.txt does not list, and each listed
statement that now runs.  It exits 0 when there is neither, 1 otherwise,
and 2 when tier-1 fails.  Tests that start a fresh interpreter are not
traced.  It takes 70-95 s on a 2-core machine, so it is not part of
tier-1.

tests/uncovered.txt names a statement by its file under src/extmcg and
its first line, stripped, as `file: text`, so edits above it do not
break the list; the indented line below each entry gives the reason.

Usage:
    python3 scripts/coverage.py
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extmcg"
LISTED = ROOT / "tests" / "uncovered.txt"


def statements(path: Path) -> dict[int, str]:
    """First line number -> stripped first line of each statement."""
    text = path.read_text()
    tree = ast.parse(text)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    lines = text.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docstrings}


def listed() -> set[tuple[str, str]]:
    """The (file, text) entries of tests/uncovered.txt; each needs a reason."""
    reasons: dict[tuple[str, str], str] = {}
    for line in LISTED.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace() and reasons:
            reasons[entry] += line.strip()
        else:
            name, _, text = line.partition(": ")
            entry = (name, text.strip())
            reasons[entry] = ""
    for entry, reason in reasons.items():
        if not reason:
            sys.exit(f"{LISTED}: no reason given for {entry}")
    return set(reasons)


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return code, hits


def main() -> int:
    entries = listed()
    code, hits = run_traced()
    if code != 0:
        print(f"tier-1 failed (pytest exit {code}); coverage not judged")
        return 2
    missed: set[tuple[str, str]] = set()
    unlisted = []
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, text in sorted(statements(path).items()):
            if (str(path), lineno) not in hits:
                missed.add((path.name, text))
                if (path.name, text) not in entries:
                    unlisted.append(f"{path.name}:{lineno}: {text}")
    now_run = [f"{name}: {text}" for name, text in sorted(entries - missed)]
    for line in unlisted:
        print(f"not run, not listed: {line}")
    for line in now_run:
        print(f"listed, but runs or is gone: {line}")
    print(f"{len(missed)} statements not run, {len(entries)} listed")
    return 1 if unlisted or now_run else 0


if __name__ == "__main__":
    sys.exit(main())
