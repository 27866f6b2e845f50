"""The public surface is what the lab runs: every name that `import memax`
exports is reached from the package's import-time code (the CLI entry
included), from the benchmark or the CI, or from the acceptance gate.  A
name that only other unreached definitions use does not count.  Code that
only its own unit tests call belongs under tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "memax"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node):
    """Names read in `node`, bare or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _exports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _package():
    """(top-level definition -> names its body reads, names read at import)."""
    defs, loose = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITION):
                defs.setdefault(node.name, set()).update(_reads(node))
            else:
                loose |= _reads(node)
    return defs, loose


def test_every_export_has_a_caller_the_lab_runs():
    defs, loose = _package()
    text = "\n".join(path.read_text() for path in
                     [*sorted((ROOT / "bench").glob("*.py")),
                      ROOT / ".github" / "workflows" / "tests.yml"])
    outside = {name for name in defs if re.search(rf"\b{re.escape(name)}\b", text)}
    acceptance = _reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    live, todo = set(), loose | outside | acceptance
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo |= defs.get(name, set())
    orphans = sorted(_exports() - live)
    assert not orphans, f"exported but reached only from unit tests: {orphans}"
