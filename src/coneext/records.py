"""Frozen value records: the parts of ``@dataclass(frozen=True)`` the
package uses, without importing ``dataclasses`` (which loads ``inspect``,
``ast`` and ``dis``) into every CLI call.

``record`` takes a class's own annotations, in order, as its fields and its
class attributes of those names as defaults (a ``__slots__`` entry is not a
default).  It adds ``__init__`` (calling ``__post_init__`` if the class has
one), ``__repr__``, ``__eq__`` and ``__hash__`` with the dataclass's
behaviour and output, compiled once per class; ``__match_args__``, the field
names; a ``__setattr__`` and ``__delattr__`` that raise
``FrozenRecordError``; and a ``__reduce__`` that rebuilds through
``__init__``, so pickle and copy never assign to a frozen record.  A method
the class defines itself is kept.
"""


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _reduce(self):
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def record(cls):
    own = cls.__dict__
    names = tuple(own.get("__annotations__", {}))
    slots = own.get("__slots__", ())
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    params = []
    for name in names:
        if name in own and name not in slots:
            namespace[f"_default_{name}"] = own[name]
            name = f"{name}=_default_{name}"
        params.append(name)
    fields = "".join(f"self.{name}," for name in names)
    others = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    exec("\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *(f"    _set(self, {name!r}, {name})" for name in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
        "def __repr__(self):",
        f'    return self.__class__.__qualname__ + f"({shown})"',
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({fields}) == ({others})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({fields}))",
    ]), namespace)
    methods = {"__match_args__": names, "__setattr__": _setattr,
               "__delattr__": _delattr, "__reduce__": _reduce}
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        methods[name] = namespace[name]
        methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
    for name, value in methods.items():
        if name not in own:
            setattr(cls, name, value)
    return cls
