"""Frozen record classes, built from closures.

`record` gives a class whose body annotates its fields the behaviour of
``@dataclass(frozen=True)`` that this package relies on:

- the fields are the class's own annotations, in order, and
  ``__match_args__`` names them;
- ``__init__`` takes them positionally or by keyword, raises `TypeError`
  on a missing, extra or unknown argument, then calls ``__post_init__``
  when the class defines one;
- ``__eq__`` compares field tuples of two instances of the same class and
  returns `NotImplemented` otherwise, and ``__hash__`` is the hash of the
  field tuple, so hashes (and with them set iteration order) are those a
  dataclass would give;
- ``__repr__`` prints ``Name(field=value, ...)``;
- assigning or deleting an attribute raises `AttributeError`.

The standard decorator imports `inspect` and compiles every generated
method with `exec`, which cost each ``arrcoh`` process about 40 ms of
start-up.  Here every method is a closure over the field-name tuple.
Field tuples are read with `operator.attrgetter`, so equality and
hashing, which the poset and decomposition code call in inner loops, run
in C.  Fields are stored with `object.__setattr__`, as the dataclass does,
so instances keep CPython's inline attribute values and reads stay on the
fast path.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, TypeVar

T = TypeVar("T", bound=type)

_set_field = object.__setattr__


def record(cls: T) -> T:
    """Make `cls` a frozen record over its own annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    arity = len(names)
    key = _field_tuple(names)
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(qualname, names, args, kwargs)
        for name, value in zip(names, args):
            _set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{qualname}({body})"

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = names
    return cls


def _field_tuple(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """Function from an instance to the tuple of its fields' values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _bind(qualname: str, names: tuple[str, ...], args: tuple, kwargs: dict) -> tuple:
    """Field values from `args` and `kwargs`, bound as Python binds a call."""
    rest = names[len(args):]
    if len(args) > len(names) or kwargs.keys() != set(rest):
        raise TypeError(
            f"{qualname}() takes the fields {', '.join(names) or 'none'}: got "
            f"{len(args)} positional and the keywords {', '.join(kwargs) or 'none'}"
        )
    return args + tuple(kwargs[name] for name in rest)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
