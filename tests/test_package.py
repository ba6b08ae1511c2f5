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
