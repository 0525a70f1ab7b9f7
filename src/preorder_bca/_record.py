"""Frozen value classes without ``dataclasses``.

:func:`record` turns the annotated attributes of a class body (and of its
record bases) into fields, in definition order, and gives the class what the
package needs from a frozen dataclass: an ``__init__`` taking the fields
positionally or by keyword with the class-level defaults, a ``__post_init__``
hook, equality and hashing on the tuple of field values, the dataclass
``repr`` text, and ``AttributeError`` on assignment or deletion.  Nothing is
generated or compiled; ``__post_init__`` may still normalize a field through
``object.__setattr__``, and ``functools.cached_property`` still works because
it writes the instance ``__dict__`` directly.

Fields are read from each class's own ``__annotations__``, which the modules
here fill eagerly with strings (``from __future__ import annotations``).
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def record(cls):
    names: tuple[str, ...] = ()
    for klass in reversed(cls.__mro__):
        for name in klass.__dict__.get("__annotations__", ()):
            if name not in names:
                names += (name,)
    count = len(names)
    positions = tuple(enumerate(names))
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    has_post_init = hasattr(cls, "__post_init__")
    values = attrgetter(*names) if count > 1 else (
        lambda self: (getattr(self, names[0]),))

    def bind(args, kwargs):
        if len(args) > count:
            raise TypeError(f"{cls.__name__}() takes {count} positional "
                            f"arguments but {len(args)} were given")
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required "
                                f"argument: {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return bound

    # the positional call, the hot one, builds no mapping of fields
    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for i, name in positions:
            _set(self, name, args[i])
        if has_post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
