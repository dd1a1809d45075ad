"""The package's export list names only what the package defines, so a
deletion that leaves a stale export fails here."""

import pytest

import taubound


@pytest.mark.parametrize("name", taubound.__all__)
def test_exported_name_resolves(name):
    assert hasattr(taubound, name)
