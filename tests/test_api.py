"""The package's public names: every export resolves, once."""

import ncsched


def test_every_export_resolves():
    missing = [name for name in ncsched.__all__ if not hasattr(ncsched, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(ncsched.__all__) == len(set(ncsched.__all__))


def test_star_import():
    namespace: dict = {}
    exec("from ncsched import *", namespace)
    assert set(ncsched.__all__) <= namespace.keys()
