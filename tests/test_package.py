"""Tests for the package's public surface."""

import fredlab


def test_every_exported_name_resolves():
    missing = [name for name in fredlab.__all__ if not hasattr(fredlab, name)]
    assert missing == []
    assert len(set(fredlab.__all__)) == len(fredlab.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from fredlab import *", namespace)
    assert set(fredlab.__all__) <= namespace.keys()
