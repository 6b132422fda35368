"""Every public top-level function and class of dfra has a caller or a stated reason.

A name passes when another part of src/dfra names it (a call, an attribute
or an import), when README names it, or when it is on the allowlist below
with the reason it stays.  An allowlisted name must have neither, so the
list cannot keep a reason that no longer holds.  Code that only tests call
is deleted with its tests instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "dfra").glob("*.py"))

GOLDEN = "tests/goldens pins its output"
REFERENCE = "tests use it as a reference for the lattice operator"
PAPER = "a formula of the paper that a report record may certify"
PINNED = "the Fraction definition that random_exact_element's integer forms are pinned to"

ALLOWED = {
    "matrix_to_text": GOLDEN,
    "dirac_table_dump": GOLDEN,
    "scalar_action_density": REFERENCE,
    "lorentz_generator": "perfbench's algebra.derived span group names it",
    "d3": "README names the representations d1 through d5 as a range",
    "d4": "README names the representations d1 through d5 as a range",
    "exact_rotation": PINNED,
    "exact_boost": PINNED,
    "energy": PAPER,
    "level_degeneracy": PAPER,
    "lorentz_transform": PAPER,
    "classical_rotate": PAPER,
    "mass_shell_constraint": PAPER,
    "supplementary_residual": PAPER,
}


def _named(node: ast.AST) -> set[str]:
    """The identifiers a statement refers to: names, attributes and imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


TREES = {path.name: ast.parse(path.read_text()) for path in MODULES}
DEFINITIONS = {
    node.name: (module, node)
    for module, tree in TREES.items()
    for node in tree.body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
}
# each top-level statement with the identifiers it refers to
STATEMENTS = [(node, _named(node)) for tree in TREES.values() for node in tree.body]
README = (ROOT / "README.md").read_text()


def _named_elsewhere(name: str) -> bool:
    """Whether README or a src/dfra statement other than the definition names it."""
    definition = DEFINITIONS[name][1]
    return bool(re.search(rf"\b{name}\b", README)) or any(
        name in names for node, names in STATEMENTS if node is not definition)


def test_every_public_name_has_a_caller_or_a_stated_reason():
    unused = [f"{module}: {name}" for name, (module, _) in DEFINITIONS.items()
              if not (_named_elsewhere(name) or name in ALLOWED)]
    assert not unused, f"public names that only tests use: {unused}"


def test_the_allowlist_names_only_public_definitions():
    assert sorted(set(ALLOWED) - set(DEFINITIONS)) == []


def test_the_allowlist_holds_only_names_nothing_else_names():
    stale = [name for name in ALLOWED if name in DEFINITIONS and _named_elsewhere(name)]
    assert not stale, f"allowlisted names that README or src/dfra already names: {stale}"
