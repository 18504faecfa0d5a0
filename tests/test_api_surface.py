"""The public surface of the package holds only what the product runs.

Every name in the ``__all__`` of a module of ``src/richards``, and every
public method, property and annotated field of a class defined there, must
be used by the package itself, by ``scripts/`` or by ``bench/``: read as a
name, as an attribute or in an import.  Strings and docstrings do not count, so
listing a name in ``__all__`` is no use of it.  What only the tests call
belongs in the tests (``tests/oracles.py``), not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "richards"
PRODUCT = [PACKAGE, ROOT / "scripts", ROOT / "bench"]


def exported(path: Path) -> list:
    """The names in the module's ``__all__``, in their order."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def used(paths) -> set:
    """Every name the code of the .py files under paths reads: Name ids,
    attribute names and imported names.  A name that is only assigned to
    (a field's own declaration included) is not read."""
    names = set()
    for path in (p for top in paths for p in sorted(top.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def unused_exports(package: Path, product) -> list:
    """'module.name' of every exported name that the product never uses."""
    seen = used(product)
    return [f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
            for name in exported(path) if name not in seen]


def members(path: Path) -> list:
    """'Class.name' of every public method, property and annotated field of
    the classes the module defines, in their order."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found.append(f"{node.name}.{item.name}")
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found.append(f"{node.name}.{item.target.id}")
    return [name for name in found if not name.rpartition(".")[2].startswith("_")]


def unused_members(package: Path, product) -> list:
    """'module.Class.name' of every class member that the product never uses."""
    seen = used(product)
    return [f"{path.stem}.{member}" for path in sorted(package.glob("*.py"))
            for member in members(path) if member.rpartition(".")[2] not in seen]


def test_every_exported_name_has_a_product_use():
    assert unused_exports(PACKAGE, PRODUCT) == []


def test_every_class_member_has_a_product_use():
    assert unused_members(PACKAGE, PRODUCT) == []


def test_the_guard_sees_exports_and_uses(tmp_path):
    # the check itself: a name only a string mentions is flagged; a name
    # read as a Name, as an attribute or in an import is not
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        '"""read, attr and imported are documented here; so is lonely."""\n'
        '__all__ = ["read", "attr", "imported", "lonely"]\n'
        "def read(): pass\ndef attr(): pass\ndef imported(): pass\ndef lonely(): pass\n"
        "class Box:\n    size: int\n    idle: int\n    def _own(self): pass\n"
        "    @property\n    def area(self): return self.size\n    def spare(self): pass\n")
    (tmp_path / "user.py").write_text(
        "from pkg.mod import imported\nimport pkg.mod as m\n"
        "read()\nm.attr()\nx = 'lonely'\nm.Box().spare = None\n")
    assert exported(pkg / "mod.py") == ["read", "attr", "imported", "lonely"]
    assert unused_exports(pkg, [tmp_path]) == ["mod.lonely"]
    # a class member is used when the product reads its name, not when it
    # only declares or assigns it; private ones are not checked
    assert members(pkg / "mod.py") == ["Box.size", "Box.idle", "Box.area", "Box.spare"]
    assert unused_members(pkg, [pkg, tmp_path]) == ["mod.Box.idle", "mod.Box.area", "mod.Box.spare"]
    # every module of the package but the entry points lists its exports
    assert all(exported(p) for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "cli"))
