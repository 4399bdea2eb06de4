"""The package's public surface."""

from __future__ import annotations

import elsched


def test_public_names_resolve_once():
    # a name left in __all__ after its object is gone breaks
    # `from elsched import *` on every Python version
    names = elsched.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(elsched, name)]
    assert missing == []
