"""Immutable value records, without the import cost of dataclasses.

A record names its fields in ``_fields``, and its own ``__init__`` stores
them in the instance ``__dict__``, where cached_property writes too. A
construction check is a ``__post_init__`` method that ``__init__`` calls
through the instance, so that it can be wrapped.
"""


class Record:
    """Compared, hashed and shown by field; assignment and deletion raise
    AttributeError."""

    _fields: tuple[str, ...] = ()

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
