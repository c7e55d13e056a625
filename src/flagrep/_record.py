"""A small base for the package's immutable records.

A subclass declares its fields as class annotations, in order, with an
optional class-level default each, as a dataclass would.  The base gives
it a constructor taking the fields by position or keyword (ending in a
call to ``__post_init__``, looked up on the instance so that it can be
replaced on the class; ``_trusted`` skips it for values the library
built itself), a ``repr`` naming every field, equality by value
between instances of one class, a hash of the field values, computed on
first use and kept, and immutability.  Pickling rebuilds a record through
its constructor, so neither the kept hash (which a ``str`` field makes
differ between processes) nor derived data travels with it.
"""

from __future__ import annotations


class _Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", {}))
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values that ``args`` and ``kwargs`` give, defaults
        filled in, with the ``TypeError`` a function of these parameters
        would raise."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = {**self._defaults, **dict(zip(fields, args))}
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required argument {missing[0]!r}")
        return tuple(map(values.__getitem__, fields))

    def __post_init__(self) -> None:
        pass

    @classmethod
    def _trusted(cls, *values):
        """A record of field values the library built itself, set with no
        call to ``__post_init__``: they must already be what it would set."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        state = self.__dict__
        if "_hash" not in state:
            state["_hash"] = hash(self._values())
        return state["_hash"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
