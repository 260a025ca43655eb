"""Frozen value classes, built without the standard dataclass machinery.

``record`` gives a class with annotated fields the methods of a
``@dataclass(frozen=True)``: an ``__init__`` taking the fields in order,
positionally or by keyword, with defaults read from the class body and
``__post_init__`` run last; equality and hashing on the tuple of fields;
the ``Name(field=value, ...)`` repr; and attributes that cannot be set or
deleted. A method the class defines itself is kept.

The methods are plain closures. The standard ``@dataclass`` compiles each
generated method from source text, and importing it pulls in ``inspect``;
together that costs every command-line call tens of milliseconds of
start-up.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An attempt to set or delete an attribute of a record."""


def record(cls):
    """Make ``cls`` a frozen value class over its annotated fields, in order."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    arity = len(names)
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__
    if arity == 1:
        get_one = attrgetter(names[0])

        def fields_of(self):
            return (get_one(self),)

    else:
        fields_of = attrgetter(*names)

    def bind(args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not pass every field positionally."""
        if len(args) > arity:
            raise TypeError(
                f"{qualname}.__init__() takes {arity + 1} positional arguments "
                f"but {len(args) + 1} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}.__init__() missing required argument: {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{qualname}.__init__() got multiple values for argument {name!r}")
            raise TypeError(f"{qualname}.__init__() got an unexpected keyword argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields_of(self) == fields_of(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields_of(self))

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields_of(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{qualname}.{method.__name__}"
            setattr(cls, method.__name__, method)
    # A class body that defines __eq__ without __hash__ leaves __hash__ None.
    if cls.__dict__.get("__hash__") is None:
        __hash__.__qualname__ = f"{qualname}.__hash__"
        cls.__hash__ = __hash__
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with the given fields changed."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})
