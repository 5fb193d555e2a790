"""The base of the package's value classes.

A value class lists its fields, in order, in `_fields`, and the trailing
fields that have a default list those defaults, in order, in
`_defaults`.  The one binder, `Value.__init__`, takes the fields by
position or by keyword under Python's call rules: it applies the
defaults, and a positional too many, a field left out, an unknown
keyword or a field given twice is a TypeError.  A call with one
positional per field and no keyword binds them in a single loop; hot
call sites build that way.  A class whose values need checks writes its
own `__init__`, which makes them and sets each field with `setfield`
(`object.__setattr__`).

The base gives each class what a frozen dataclass would, and generates
no code to do so: equality with an instance of the same class whose
fields are equal, the hash of the tuple of the fields, the
`Name(field=value, ...)` repr, and no assignment or deletion afterwards.
"""

from operator import attrgetter

setfield = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields) if cls._fields else lambda x: ()
        cls._astuple = staticmethod(get if len(cls._fields) != 1 else lambda x: (get(x),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            for name, value in zip(fields, args):
                setfield(self, name, value)
            return
        who = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{who}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        given = dict(zip(reversed(fields), reversed(self._defaults)))
        given.update(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{who}() got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"{who}() got multiple values for argument {name!r}")
        given.update(kwargs)
        for name in fields:
            if name not in given:
                raise TypeError(f"{who}() missing required argument {name!r}")
            setfield(self, name, given[name])

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
