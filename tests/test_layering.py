"""Layering: the substrate packages import nothing that is built on them.

``repro.p4`` (IR, engines) and ``repro.net`` (packets, simulator) are
what the compiler, the analysis plane, the Tofino model and the oracle
stand on.  An import the other way — at module level or inside a
function — makes a bare switch pull in the planes above it and lets an
engine lean on an analysis the reference engine does not run.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
UPPER = ("repro.analysis", "repro.compiler", "repro.tofino", "repro.difftest")


def imported_modules(path):
    """Absolute dotted names of everything ``path`` imports, relative
    imports resolved against its package."""
    package = ["repro", *path.relative_to(SRC).parent.parts]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            base += node.module.split(".") if node.module else []
            yield ".".join(base)
            # ``from .. import analysis`` names the module as an alias.
            yield from (".".join(base + [alias.name]) for alias in node.names)


def test_substrate_imports_nothing_built_on_it():
    paths = sorted(SRC.glob("p4/*.py")) + sorted(SRC.glob("net/*.py"))
    assert len(paths) > 10
    upward = {str(path.relative_to(SRC)): name for path in paths
              for name in imported_modules(path) if name.startswith(UPPER)}
    assert not upward
