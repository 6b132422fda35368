"""Every public top-level function and class of dfra has a caller or a stated reason.

A name passes when another part of src/dfra names it (a call, an attribute
or an import), when README names it, or when it is on the allowlist below
with the reason it stays.  Code that only tests call is deleted with its
tests instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "dfra").glob("*.py"))

GOLDEN = "tests/goldens pins its output"
REFERENCE = "tests use it as a reference for the lattice operator"
PAPER = "a formula of the paper that a report record may certify"

ALLOWED = {
    "matrix_to_text": GOLDEN,
    "dirac_table_dump": GOLDEN,
    "kg_apply": REFERENCE,
    "scalar_action_density": REFERENCE,
    "lorentz_generator": "perfbench's algebra.derived span group names it",
    "d3": "README names the representations d1 through d5 as a range",
    "d4": "README names the representations d1 through d5 as a range",
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


def test_every_public_name_has_a_caller_or_a_stated_reason():
    readme = (ROOT / "README.md").read_text()
    unused = []
    for name, (module, definition) in DEFINITIONS.items():
        named = any(name in _named(node) for tree in TREES.values()
                    for node in tree.body if node is not definition)
        if not (named or re.search(rf"\b{name}\b", readme) or name in ALLOWED):
            unused.append(f"{module}: {name}")
    assert not unused, f"public names that only tests use: {unused}"


def test_the_allowlist_names_only_public_definitions():
    assert sorted(set(ALLOWED) - set(DEFINITIONS)) == []
