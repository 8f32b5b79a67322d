"""The base of braidoka's immutable records, without generated code."""

from operator import attrgetter


class Value:
    """A frozen record whose fields are its annotated class attributes.

    Each subclass assigns its fields in its own ``__init__`` through
    ``object.__setattr__``.  Equality and hashing compare the fields in
    declaration order, between instances of the same class only, and the
    default ``repr`` reads ``Cls(field=value, ...)``.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__annotations__" in cls.__dict__:  # else inherit the fields
            cls._fields = tuple(cls.__annotations__)
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
