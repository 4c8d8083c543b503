"""Plain record classes: a record's fields are its ``__slots__``, in order.

picard's result types are written without ``dataclasses``: importing it
pulls in ``inspect``, ``ast`` and ``dis``, and each decorated class ``exec``s
its methods, which together cost about two thirds of ``import picard``.
Each record writes its own ``__init__``; these bases give the rest.
"""

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """A mutable record shown as ``Name(field=value, ...)``; equal only to itself.

    A subclass names two or more fields in ``__slots__`` and gets ``_values``,
    the tuple of them, and ``_key``, the tuple of those named in ``_compare``
    (all of them unless the class sets it).  Both are read in C: witness
    charts are hashed as cache keys for every curve.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._values = property(attrgetter(*cls.__slots__))
            cls._key = property(attrgetter(*cls.__dict__.get("_compare", cls.__slots__)))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"


class ComparedRecord(Record):
    """A mutable record equal to one of its own class with equal fields; unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key


class FrozenRecord(ComparedRecord):
    """A value: eq and hash over ``_key``, and no assignment after ``__init__``.

    ``__init__`` fills the fields with ``_set``.  Pickling and ``copy``
    rebuild the record through ``__init__``, so its checks run again.
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values
