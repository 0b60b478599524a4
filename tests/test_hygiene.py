"""Dead code and stale names in `src/schurmann`, found with the standard
library's `ast`.

Three checks, in place of a linter the suite cannot assume: no module
imports a name it never uses, every module-level name and every method of
a module-level class is referenced somewhere in the package outside its
own definition, and every dotted name in backticks in the package's
docstrings and the README resolves.  A method counts by its name alone, so
one that shares a name with a live attribute elsewhere escapes the check.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import schurmann

PACKAGE = Path(schurmann.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
# documented public names that no module of the package calls
PUBLIC = {("serialize", "word_from_json")}


def _modules() -> dict:
    return {path.stem: (path.read_text(), ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree) -> Counter:
    """How often each name occurs in the tree as a name, an attribute or an
    imported name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _all(tree) -> set:
    """The strings of a module-level `__all__` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _imports(text, tree):
    """(bound name, line) of every import of the module, bar `__future__`
    and lines marked as re-exports with `noqa: F401`."""
    lines = text.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _definitions(tree):
    """(name, defining node) of every module-level function, class and
    assigned name, and of every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield method.name, method
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, (text, tree) in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _all(tree)
        unused += [f"{name}.py:{line} {bound}" for bound, line in _imports(text, tree) if bound not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_module_level_name_is_referenced():
    modules = _modules()
    everywhere = sum((_references(tree) for _, tree in modules.values()), Counter())
    exported = set(schurmann.__all__)
    dead = []
    for name, (_, tree) in modules.items():
        for defined, node in _definitions(tree):
            if _dunder(defined) or defined in exported or (name, defined) in PUBLIC:
                continue
            # every occurrence inside its own definition: the name is dead
            if everywhere[defined] == _references(node)[defined]:
                dead.append(f"{name}.{defined}")
    assert not dead, f"module-level names or methods referenced nowhere in the package: {dead}"


def test_the_checks_see_dead_code():
    # an unused import, an unreferenced helper and a self-recursive one, and
    # a class whose method h only calls itself while its method k is called
    text = (
        "import os\nfrom math import lcm\n\ndef f():\n    return f()\n\ndef g():\n    return lcm\n\n"
        "class C:\n    def h(self):\n        return self.h()\n\n    def k(self):\n        return 0\n\n"
        "C().k()\n"
    )
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [bound for bound, _ in _imports(text, tree) if bound not in used] == ["os"]
    defined = dict(_definitions(tree))
    assert {"f", "g", "C", "h", "k"} <= set(defined)
    assert _references(tree)["f"] == _references(defined["f"])["f"] == 1
    assert _references(tree)["lcm"] > _references(defined["g"])["lcm"]
    assert _references(tree)["h"] == _references(defined["h"])["h"] == 1
    assert _references(tree)["k"] > _references(defined["k"])["k"]


def _doc_references() -> list:
    """(file, name) for every backticked dotted name, `module.name` or
    `Class.attribute`, in the package's docstrings and the README."""
    dotted = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")
    out = []
    for name, (_, tree) in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                out += [(f"{name}.py", ref) for ref in dotted.findall(doc)]
    return out + [("README.md", ref) for ref in dotted.findall(README.read_text())]


def _resolves(ref: str) -> bool:
    """Whether the dotted name resolves by getattr from the package, one of
    its modules (through `sys.modules`: `schurmann.representation` is also a
    function) or a name that one of its modules defines."""
    head, *rest = ref.split(".")
    # `__main__` runs the command line on import
    stems = [stem for stem in _modules() if not _dunder(stem)]
    modules = [schurmann] + [importlib.import_module(f"schurmann.{stem}") for stem in stems]
    if head == "schurmann":
        obj = schurmann
    elif head in stems:
        obj = importlib.import_module(f"schurmann.{head}")
    else:
        obj = next((getattr(m, head) for m in modules if hasattr(m, head)), None)
        if obj is None:
            return False
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_name_the_docs_cite_resolves():
    refs = _doc_references()
    assert len(refs) > 30
    stale = [f"{where}: `{ref}`" for where, ref in refs if not _resolves(ref)]
    assert not stale, f"docs name what the package does not define: {stale}"


def test_the_doc_check_sees_stale_names():
    assert _resolves("words.layer_step") and _resolves("WordSet.require") and _resolves("schurmann.cli")
    assert not _resolves("words.rho_step") and not _resolves("cocycle.cocycle_orth_from_V")
    assert not _resolves("WordSet.rho_step") and not _resolves("Nowhere.eta")
