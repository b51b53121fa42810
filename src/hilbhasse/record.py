"""The frozen-record base of the package's small value classes."""

from operator import attrgetter


class FrozenRecord:
    """A value of named fields, equal to a record of its own class with equal
    fields, hashed as its field tuple and shown as ``Name(field=value, ...)``.
    A subclass names two or more fields in ``_fields`` and sets them in
    ``__init__`` through its ``__dict__``, or its slots' setters if it has
    slots; any other assignment or deletion raises AttributeError."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # record -> its field tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in fields)})"

    def __reduce__(self):  # copies and pickles go through the constructor
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
