import plexflow


def test_every_exported_name_resolves():
    missing = [name for name in plexflow.__all__ if not hasattr(plexflow, name)]
    assert not missing
    assert len(set(plexflow.__all__)) == len(plexflow.__all__)

