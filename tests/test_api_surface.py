"""Every public name, defaulted parameter and config key is used by the package.

A public name (one in a module's ``__all__``, a module-level function or
class without a leading underscore, or such a method or property of a
module-level class) that nothing in ``src/`` refers to, apart from its own
definition, is code that only its tests reach: either a later change wires
it in, or it goes.  Likewise a parameter with a default that no call in
``src/`` sets, by keyword or by position, is a setting only the tests
change; and one that every call in ``src/`` sets has a default only the
tests rely on.  A config key whose attribute no module but the config's
own reads has no effect.  Calls are matched to functions by name alone, so
the checks may miss a parameter but never report a used one.  The
allow-lists below name each exception and why it stays.
"""

import ast
import math
from pathlib import Path

from occspot.config import _FIELDS

SRC = Path(__file__).resolve().parent.parent / "src"

#: unreferenced public names that stay, each with its reason
ALLOWED = {
    "occspot.formats.read_grid":
        "perfbench/layers.py wraps it by name in _READERS; training from "
        "make-occ's grids (ROADMAP item 2) will call it",
    "occspot.pipeline.worker_count":
        "a shim that returns 1; perfbench/flow.py records it in environment(), "
        "and it goes with ROADMAP item 5's benchmark change",
}


#: config keys that nothing outside occspot.config reads, each with its reason
ALLOWED_KEYS = {
    "balance.epoch_size":
        "the class-balanced epoch length; ROADMAP item 2 wires it or "
        "deletes it",
}


#: defaulted parameters that no call in src/ sets, each with its reason
ALLOWED_DEFAULTS = {
    "occspot.cli.main(argv)": "set by the tests and perfbench/flow.py",
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


def public(tree: ast.Module) -> set[str]:
    """The names in ``__all__`` plus every module-level function and class
    whose name has no leading underscore."""
    return set(exported(tree)) | {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")}


def references(tree: ast.Module, skip: ast.AST | None = None):
    """Names this module reads, attribute names (as ``.name``) and
    imported names, leaving out the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield "." + node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def members(tree: ast.Module):
    """(name, definition, references that use it) of each :func:`public`
    name, and of each public method or property of a module-level class as
    ``Class.name``.  A method is used only as an attribute, by any object:
    matching is by name alone."""
    for name in public(tree):
        yield name, definition(tree, name), {name, "." + name}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield f"{cls.name}.{node.name}", node, {"." + node.name}


def unreferenced(trees: dict[str, ast.Module]) -> set[str]:
    used = {m: set(references(t)) for m, t in trees.items()}
    out = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(u for m, u in used.items() if m != module))
        for name, node, uses in members(tree):
            if not uses & (set(references(tree, node)) | elsewhere):
                out.add(f"{module}.{name}")
    return out


def unread_keys(fields, trees: dict[str, ast.Module]) -> set[str]:
    """The JSON paths of the `fields` rows ``(path, attribute path, kind)``
    whose attribute no module but ``occspot.config`` reads as ``.name``."""
    used = set().union(*(references(t) for m, t in trees.items()
                         if m != "occspot.config"))
    return {path for path, attr, _ in fields
            if "." + attr.rpartition(".")[2] not in used}


def functions(tree: ast.Module):
    """(qualified name, node, is_method) of every function in the module."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            cls = owner.get(id(node))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            name = node.name if cls is None else f"{cls}.{node.name}"
            yield name, node, cls is not None and not static


def defaulted(fn: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each defaulted parameter -> its index among the arguments a call
    passes by position, or None if it is keyword-only."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    out = {p.arg: i - int(method) for i, p in enumerate(pos) if i >= first}
    out.update({p.arg: None for p, d in zip(fn.args.kwonlyargs,
                                            fn.args.kw_defaults)
                if d is not None})
    return out


def calls(trees: dict[str, ast.Module]):
    """(called name, positional count, keyword names) of every call; a
    ``*args`` counts as every position and a ``**kwargs`` as every name."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            kws = {k.arg for k in node.keywords}
            yield name, n_pos, kws


def _defaults_without(trees: dict[str, ast.Module], use) -> set[str]:
    """Each defaulted parameter for which no call of its function in
    `trees` satisfies ``use(param, index, n_pos, kws)``."""
    seen = list(calls(trees))
    out = set()
    for module, tree in trees.items():
        for name, fn, method in functions(tree):
            short = name.rsplit(".", 1)[-1]
            mine = [(n, kws) for c, n, kws in seen if c == short]
            for param, index in defaulted(fn, method).items():
                if not any(use(param, index, n, kws) for n, kws in mine):
                    out.add(f"{module}.{name}({param})")
    return out


def unset_defaults(trees: dict[str, ast.Module]) -> set[str]:
    """Defaulted parameters that no call sets."""
    return _defaults_without(trees, lambda param, index, n, kws: (
        param in kws or None in kws or (index is not None and n > index)))


def unused_defaults(trees: dict[str, ast.Module]) -> set[str]:
    """Defaulted parameters that no call leaves at their default; a call
    with ``*args`` or ``**kwargs`` leaves none there for certain."""
    return _defaults_without(trees, lambda param, index, n, kws: (
        param not in kws and None not in kws and n < math.inf
        and (index is None or n <= index)))


def test_every_public_name_is_used_in_src():
    assert unreferenced(parse_src()) == set(ALLOWED)


def test_the_check_sees_an_unused_name():
    tree = ast.parse("__all__ = ['used', 'unused']\n"
                     "def used():\n    return 1\n"
                     "def unused():\n    return unused()\n"
                     "def unlisted():\n    return 2\n"
                     "class Unlisted:\n    pass\n"
                     "def _private():\n    return 3\n"
                     "x = used()\n")
    assert exported(tree) == ["used", "unused"]
    assert public(tree) == {"used", "unused", "unlisted", "Unlisted"}
    assert "used" in set(references(tree, definition(tree, "used")))
    assert "unused" not in set(references(tree, definition(tree, "unused")))


def test_every_config_key_is_read_in_src():
    assert unread_keys(_FIELDS, parse_src()) == set(ALLOWED_KEYS)


def test_the_check_sees_an_unread_key():
    fields = [("a.read", "a.read", None), ("a.unread", "a.unread", None),
              ("top", "renamed", None), ("b.bare", "bare", None)]
    trees = {"occspot.config": ast.parse("cfg.unread\n"),
             "toy": ast.parse("cfg.a.read + cfg.renamed\nbare = 1\n")}
    assert unread_keys(fields, trees) == {"a.unread", "b.bare"}


def test_the_check_sees_an_unused_method():
    tree = ast.parse("class Box:\n"
                     "    def used(self):\n        return self.size\n"
                     "    @property\n"
                     "    def size(self):\n        return 1\n"
                     "    @property\n"
                     "    def unused(self):\n        return self.unused\n"
                     "    def _private(self):\n        return 2\n"
                     "class _Hidden:\n"
                     "    def orphan(self):\n        return 3\n"
                     "unused, orphan = 4, 5\n"
                     "print(unused, orphan)\n"  # a bare name is no use
                     "Box().used()\n_Hidden()\n")
    assert unreferenced({"toy": tree}) == {"toy.Box.unused",
                                           "toy._Hidden.orphan"}


def test_every_defaulted_parameter_is_set_in_src():
    assert unset_defaults(parse_src()) == set(ALLOWED_DEFAULTS)


def test_the_check_sees_an_unset_default():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3):\n    return a\n"
                     "class K:\n"
                     "    def m(self, x=0, y=0):\n        return f(1, 2, d=4)\n"
                     "    @staticmethod\n"
                     "    def s(u=0, v=0):\n        return u\n"
                     "K().m(5)\nK.s(1)\n")
    assert unset_defaults({"toy": tree}) == {"toy.f(c)", "toy.K.m(y)",
                                             "toy.K.s(v)"}
    star = ast.parse("def g(a=1, *, b=2):\n    return a\n"
                     "g(*[0], **{})\n")
    assert unset_defaults({"toy": star}) == set()


def test_every_default_is_used_in_src():
    assert unused_defaults(parse_src()) == set()


def test_the_check_sees_a_default_every_call_sets():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3):\n    return a\n"
                     "class K:\n"
                     "    def m(self, x=0, y=0):\n        return f(1, 2, d=4)\n"
                     "    @staticmethod\n"
                     "    def s(u=0, v=0):\n        return u\n"
                     "K().m(5)\nK.s(1, v=2)\nf(0, c=1)\n")
    assert unused_defaults({"toy": tree}) == {"toy.K.m(x)", "toy.K.s(u)",
                                              "toy.K.s(v)"}
    star = ast.parse("def g(a=1, *, b=2):\n    return a\n"
                     "g(*[0])\ng(**{})\n")
    assert unused_defaults({"toy": star}) == {"toy.g(a)", "toy.g(b)"}
