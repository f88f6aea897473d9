"""src/refdyn holds what the CLI and the acceptance gate run.

Each top-level function and class of a module under src/refdyn must be used
by another such module, elsewhere in its own module, or by
tests/test_acceptance.py.  A use is a name read, an attribute or a
`from ... import`; an `__init__` re-export is not a use.  A helper that only
tests call belongs in tests/, next to them.
"""

import ast
from pathlib import Path

import pytest

import refdyn
import refdyn.core

SRC = Path(refdyn.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Germ evolution still multiplies truncated series itself.  Once its
# certificates are proved for all time, core.series as a whole becomes a
# test oracle and moves into tests/; until then substitute_series stays
# beside the series arithmetic it is written in.
ALLOWED = {"substitute_series"}


def _uses(statements) -> set[str]:
    out = set()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def _modules() -> dict[str, list[ast.stmt]]:
    return {
        str(path.relative_to(SRC)): ast.parse(path.read_text()).body
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    }


def test_every_top_level_name_is_used_outside_the_tests():
    modules = _modules()
    acceptance = _uses(ast.parse(ACCEPTANCE.read_text()).body)
    unused = []
    for name, body in modules.items():
        others = set().union(*(_uses(b) for n, b in modules.items() if n != name))
        for node in body:
            if not isinstance(node, DEFINITIONS) or node.name in ALLOWED:
                continue
            # "elsewhere": a recursive call inside its own body does not count
            own = _uses(s for s in body if s is not node)
            if node.name not in others | own | acceptance:
                unused.append(f"{name}: {node.name}")
    assert unused == []


def test_allowed_names_are_still_defined():
    defined = {
        node.name
        for body in _modules().values()
        for node in body
        if isinstance(node, DEFINITIONS)
    }
    assert ALLOWED <= defined


@pytest.mark.parametrize("package", [refdyn, refdyn.core], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert [n for n in package.__all__ if not hasattr(package, n)] == []
