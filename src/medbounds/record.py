"""Read-only records: the base of the package's result and model types.

A record lists its fields as annotations in its class body, in order, and
a field's default is a plain class value. ``Record`` reads the fields once,
when a subclass is created, and writes no code for it, so a record class
costs about what a plain class costs to set up. Every record shares one
``__init__`` (fields by position or keyword, then ``__post_init__``), a
field-wise ``==``, ``hash`` and ``repr``, and ``replace``.

Fields are read-only. Only ``__post_init__`` normalises one, with
``object.__setattr__``; an unannotated class value, such as a cache the
package sets later the same way, is no field. Instances keep a ``__dict__``,
so ``functools.cached_property`` works on them.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """A read-only record of the fields annotated in its class body."""

    _fields: tuple[str, ...] = ()
    _names = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._names = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        # two fast paths: every field by position, or every field by keyword
        if not kwargs and len(args) == len(self._fields):
            self.__dict__.update(zip(self._fields, args))
        elif not args and kwargs.keys() == self._names:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(self._bind(args, kwargs))
        self.__post_init__()

    def __post_init__(self):
        """Check and normalise the fields; a record with no rule has none."""

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """Every field's value, from the arguments and the class defaults."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [repr(key) for key in fields if key not in values and not hasattr(cls, key)]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return {key: values[key] if key in values else getattr(cls, key) for key in fields}

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a read-only record")

    def replace(self, **changes):
        """A new record with ``changes`` to some fields, checked by ``__post_init__``
        as any record is; the caches of this one do not carry over."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})
