"""Immutable value records, without the import cost of dataclasses.

A record names its fields in ``_fields``, and defaults for trailing ones
in ``_defaults``. Record writes each subclass's ``__init__`` from them,
one compiled ``def`` per class as dataclasses does; it stores the fields
in the instance ``__dict__``, where cached_property writes too. A
construction check is a ``__post_init__`` method: the ``__init__`` of a
class that has one calls it through the instance, so that a wrapper
installed on the class sees every construction.
"""


class Record:
    """Compared, hashed and shown by field; assignment and deletion raise
    AttributeError."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, defaults = cls._fields, cls._defaults
        params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
        stores, values = "".join(f"__d[{f!r}], " for f in fields), "".join(f"{f}, " for f in fields)
        lines = [f"def __init__(self{params}):", "    __d = self.__dict__", f"    ({stores}) = ({values})"]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {}
        exec("\n".join(lines), {"_defaults": defaults}, namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")
