"""Frozen value classes without ``dataclasses``.

:func:`record` turns the annotated attributes of a class body (and of its
record bases) into fields, in definition order, and gives the class what the
package needs from a frozen dataclass: an ``__init__`` taking the fields
positionally or by keyword with the class-level defaults, a ``__post_init__``
hook, equality and hashing on the tuple of field values, the dataclass
``repr`` text, and ``AttributeError`` on assignment or deletion.  Nothing is
generated or compiled; ``__post_init__`` may still normalize a field through
``object.__setattr__``.

The class is rebuilt with ``__slots__``, so instances carry no ``__dict__``
and no ``__weakref__``.  A method marked :class:`lazy` becomes a lazy field:
a slot of its own, left empty by ``__init__``.  Reading an empty slot falls
through to the class's ``__getattr__``, which computes the value once and
fills the slot, so every later read is a plain slot read.  A subclass may
mark a base's field :class:`lazy`: it stops being a field of the subclass
and becomes a lazy field in the base's slot.  Lazy fields take no part in
equality, hashing or ``repr``.  ``__reduce__`` rebuilds an instance from its
field values alone, which is how ``pickle`` and ``copy.deepcopy`` copy a
record; its lazy fields are computed again on demand.  Methods run in the
rebuilt class, so they call a base's method by name (``Base.method(self)``),
not through the zero-argument ``super()``, whose cell still names the class
as written.

Fields are read from each class's own ``__annotations__``, which the modules
here fill eagerly with strings (``from __future__ import annotations``).
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class lazy:
    """Marks a record method as a lazy field (see the module docstring)."""

    def __init__(self, compute):
        self.compute = compute


def record(cls):
    names: tuple[str, ...] = ()
    defaults: dict = {}
    lazies: dict = {}
    for base in reversed(cls.__mro__[1:]):
        if "__record__" in base.__dict__:
            base_names, base_defaults, base_lazies = base.__record__
            names += tuple(name for name in base_names if name not in names)
            defaults.update(base_defaults)
            lazies.update(base_lazies)
    slotted = {*names, *lazies}
    ns = dict(cls.__dict__)
    for name in ns.get("__annotations__", ()):
        if name not in names:
            names += (name,)
        if name in ns:
            defaults[name] = ns.pop(name)
    for name, value in list(ns.items()):
        if isinstance(value, lazy):
            lazies[name] = ns.pop(name).compute
    names = tuple(name for name in names if name not in lazies)
    count = len(names)
    positions = tuple(enumerate(names))
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

    def __reduce__(self):
        return self.__class__, values(self)

    # reached only when ordinary lookup fails, as it does on an empty slot
    def __getattr__(self, name):
        compute = lazies.get(name)
        if compute is None:
            raise AttributeError(f"{self.__class__.__name__!r} object has no "
                                 f"attribute {name!r}")
        value = compute(self)
        _set(self, name, value)
        return value

    methods = [__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__,
               __reduce__]
    if lazies:
        methods.append(__getattr__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        ns[method.__name__] = method
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__slots__"] = tuple(name for name in (*names, *lazies) if name not in slotted)
    ns["__qualname__"] = cls.__qualname__
    ns["__record__"] = (names, defaults, lazies)
    return type(cls)(cls.__name__, cls.__bases__, ns)
