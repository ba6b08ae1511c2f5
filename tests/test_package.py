import ast
import pathlib
import re
from collections import Counter

import pytest

import plexflow


def test_every_exported_name_resolves():
    missing = [name for name in plexflow.__all__ if not hasattr(plexflow, name)]
    assert not missing
    assert len(set(plexflow.__all__)) == len(plexflow.__all__)


def test_all_is_the_export_table_plus_version():
    assert plexflow.__all__ == [*plexflow._EXPORTS, "__version__"]


def test_dir_lists_every_exported_name():
    assert set(plexflow.__all__) <= set(dir(plexflow))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from plexflow import *", namespace)
    assert set(plexflow.__all__) <= set(namespace)
    assert namespace["Graph"] is plexflow.rdf.Graph
    assert namespace["generate_fixture"] is plexflow.fixture.generate_fixture


def test_names_resolve_from_their_module_every_time():
    assert plexflow.diff is plexflow.versiondiff.diff
    assert not set(plexflow._EXPORTS) & set(vars(plexflow))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        plexflow.no_such_name
    assert not hasattr(plexflow, "no_such_name")


def test_every_definition_is_used_or_exported():
    """No function or method of ``src/plexflow/*.py``, dunders and exported
    names aside, has a name that occurs in no Python file under
    ``src/plexflow`` or ``perfbench`` except in its own ``def`` lines. One
    the README names as ``Owner.name`` (a class or module) is public API."""
    root = pathlib.Path(__file__).resolve().parents[1]
    words: Counter[str] = Counter()
    defs: Counter[str] = Counter()
    for top in ("src/plexflow", "perfbench"):
        for path in (root / top).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            words.update(re.findall(r"\w+", text))
            defs.update(re.findall(r"\bdef (\w+)", text))
    readme = (root / "README.md").read_text(encoding="utf-8")
    unused = []
    for path in sorted((root / "src/plexflow").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name in plexflow.__all__:
                continue
            qualified = f"{owner.get(id(node), path.stem)}.{name}"
            if f"`{qualified}`" not in readme and words[name] <= defs[name]:
                unused.append(f"{path.name}: {qualified}")
    assert unused == []
