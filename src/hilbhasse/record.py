"""The frozen-record base of the package's small value classes."""

from operator import itemgetter


class FrozenRecord(tuple):
    """A value of named fields, held as their tuple and read by one property
    each: equal only to a record of its own class with equal fields, never
    to a plain tuple, hashed as its field tuple, shown as ``Name(f=v, ...)``.
    A subclass sets ``__slots__ = ()``, names two or more ``_fields`` and
    builds itself in ``__new__`` by ``tuple.__new__(cls, values)``; values
    past the fields are outside equality, hash and repr.  With no setters
    and no ``__dict__``, any assignment or deletion raises AttributeError."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i), doc=f"Field {i}, {name}."))
        cls._values = itemgetter(slice(len(cls._fields)))  # record -> its field tuple

    def __eq__(self, other):
        # False, not NotImplemented: the reflected tuple.__eq__ would match a plain tuple
        return other.__class__ is self.__class__ and self._values(self) == self._values(other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self._fields, self)
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in fields)})"

    def __reduce__(self):  # copies and pickles go through the constructor
        return type(self), self._values(self)
