"""The base of the package's value classes.

A value class lists its fields, in order, in `_fields`, and writes its
own `__init__`, which makes the checks its values need and sets each
field with `setfield` (`object.__setattr__`).  The base gives it what a
frozen dataclass would, and generates no code to do so: equality with an
instance of the same class whose fields are equal, the hash of the tuple
of the fields, the `Name(field=value, ...)` repr, and no assignment or
deletion afterwards.
"""

from operator import attrgetter

setfield = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields) if cls._fields else lambda x: ()
        cls._astuple = staticmethod(get if len(cls._fields) != 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
