"""The package's public names."""

import toroidal_sl2


def test_every_public_name_resolves_once():
    names = toroidal_sl2.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from toroidal_sl2 import *", namespace)  # raises on a name that is missing
    assert set(names) <= set(namespace)
