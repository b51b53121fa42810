"""The package's public names."""

import hilbhasse


def test_every_public_name_resolves_once():
    names = hilbhasse.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hilbhasse, name), name
