"""Layering: the substrate packages import nothing that is built on them.

``repro.p4`` (IR, engines) and ``repro.net`` (packets, simulator) are
what the compiler, the analysis plane, the Tofino model and the oracle
stand on.  An import the other way — at module level or inside a
function — makes a bare switch pull in the planes above it and lets an
engine lean on an analysis the reference engine does not run.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


def test_the_indus_reference_imports_nothing_it_is_checked_against():
    """The oracle's reference level is the Indus interpreter; it is
    independent of the compiled pipeline only while ``repro.indus``
    shares none of that pipeline's code, its operator arithmetic above
    all (``tests/test_indus_operators.py`` holds the two equal)."""
    compiled = ("repro.p4", "repro.compiler", "repro.net", "repro.runtime")
    paths = sorted(SRC.glob("indus/*.py"))
    assert len(paths) > 5
    shared = {str(path.relative_to(SRC)): name for path in paths
              for name in imported_modules(path) if name.startswith(compiled)}
    assert not shared


@pytest.mark.parametrize("first", ["repro.p4.ir", "repro.p4", "repro.p4.bmv2",
                                   "repro.net", "repro.net.simulator"])
def test_the_substrate_imports_in_any_order(first):
    """``repro.p4`` and ``repro.net`` import each other's modules, so
    either may be imported first: under a bare ``repro`` package (none
    of its ``__init__`` imports run), ``first`` loads on its own."""
    code = textwrap.dedent(f"""
        import sys, types
        package = types.ModuleType("repro")
        package.__path__ = [{str(SRC)!r}]
        sys.modules["repro"] = package
        import {first}
        import repro.p4, repro.net
        assert repro.p4.P4RuntimeError is repro.p4.ir.P4RuntimeError
    """)
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
