"""Every public name is used by the package itself.

A name in a module's ``__all__`` that nothing in ``src/`` refers to, apart
from its own definition, is code that only its tests reach: either a later
change wires it in, or it goes.  The allow-list below names each exception
and why it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: unreferenced public names that stay, each with its reason
ALLOWED = {
    "occspot.balance.frame_weights":
        "class-balanced frame sampling, to be wired into training",
    "occspot.balance.resample_frames":
        "class-balanced frame sampling, to be wired into training",
    "occspot.formats.read_grid":
        "training from make-occ's grids will read them; a benchmark target",
    # the sweeps call the unchecked kernels behind these
    "occspot.theory.mutual_information": "validated entry point, oracle-tested",
    "occspot.theory.conditional_mi": "validated entry point, oracle-tested",
    "occspot.theory.bayes_error": "validated entry point, oracle-tested",
    "occspot.theory.entropy": "validated entry point, oracle-tested",
    "occspot.theory.check_bayes_bound": "validated entry point, oracle-tested",
    "occspot.theory.lemma1_decomposition":
        "validated entry point, oracle-tested",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def parse_src() -> dict[str, ast.Module]:
    return {module_name(p): ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.rglob("*.py"))}


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def references(tree: ast.Module, skip: ast.AST | None = None):
    """Names this module reads, attribute names and imported names,
    leaving out the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def unreferenced() -> set[str]:
    trees = parse_src()
    used = {m: set(references(t)) for m, t in trees.items()}
    out = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(u for m, u in used.items() if m != module))
        for name in exported(tree):
            own = set(references(tree, definition(tree, name)))
            if name not in own | elsewhere:
                out.add(f"{module}.{name}")
    return out


def test_every_public_name_is_used_in_src():
    assert unreferenced() == set(ALLOWED)


def test_the_check_sees_an_unused_name():
    tree = ast.parse("__all__ = ['used', 'unused']\n"
                     "def used():\n    return 1\n"
                     "def unused():\n    return unused()\n"
                     "x = used()\n")
    assert exported(tree) == ["used", "unused"]
    assert "used" in set(references(tree, definition(tree, "used")))
    assert "unused" not in set(references(tree, definition(tree, "unused")))
