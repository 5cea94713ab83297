"""The package exports no name that only the tests use."""

import ast
from pathlib import Path

import telegraph_market

ROOT = Path(__file__).resolve().parents[1]
ENGINE = ROOT / "src" / "telegraph_market"


def _sources() -> list[Path]:
    """Every program file outside tests/: the engine (its ``__init__`` only
    re-exports), demos, tools and the benchmark's top-level modules
    (``perfbench/out/`` holds run output, not code)."""
    return [
        *(p for p in sorted(ENGINE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "tools").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]


def _uses(path: Path, exported: set[str]) -> set[tuple[str | None, str]]:
    """(owner, name) for every name read, attribute accessed or name imported
    in one file. The owner is the exported engine definition the use lies in,
    or None outside one."""
    uses = set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(stmt, "name", None)
        if path.parent != ENGINE or owner not in exported:
            owner = None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                uses.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                uses.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                uses.add((owner, node.name))
    return uses


def test_every_exported_name_has_a_user_outside_tests():
    # an exported name counts as used only through code that is itself used:
    # a helper that serves nothing but a test-only export is test-only too
    exported = set(telegraph_market.__all__)
    sources = _sources()
    assert sources
    uses = set().union(*(_uses(p, exported) for p in sources))
    live: set[str] = set()
    frontier: set[str | None] = {None}
    while frontier:
        frontier = {name for owner, name in uses if owner in frontier} & exported - live
        live |= frontier
    unused = sorted(exported - live)
    assert not unused, f"exported but used only by tests: {unused}"
