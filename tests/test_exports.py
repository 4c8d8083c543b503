"""The names picard exports."""

import picard


def test_every_exported_name_exists():
    # a name left in __all__ after its object is gone breaks `from picard import *`
    assert [name for name in picard.__all__ if not hasattr(picard, name)] == []
    exec("from picard import *", {})
