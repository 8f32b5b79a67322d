"""The base of braidoka's immutable records, without generated code, and
the integer readers their ``parse`` and ``from_json`` constructors share."""

from operator import attrgetter


class Value:
    """A frozen record whose fields are its annotated class attributes.

    Each subclass assigns its fields in its own ``__init__`` through
    ``object.__setattr__``.  Equality and hashing compare the fields in
    declaration order, between instances of the same class only, and the
    default ``repr`` reads ``Cls(field=value, ...)``.

    The explicit ``__init__`` per class is deliberate.  A shared
    ``Value.__init__(*values)`` that assigns ``_fields`` in a loop measured
    slower (Python 3.11, 2-core VM): ``SL2Matrix`` 1.55 -> 2.17 us and
    ``Oka3Violation`` 1.07 -> 1.78 us per construction.  One that also
    takes keywords and defaults cost ``ThreeBraidClass`` 3.0 -> 6.0 us and a
    two-field record built from one argument 0.73 -> 2.18 us, against about
    10-14 us for a whole ``classify3`` call.
    """

    __slots__ = ()  # so a subclass that lists its fields as slots has no __dict__

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


def read_int(text: str, where: str) -> int:
    """The integer that text spells with an optional sign and ASCII digits,
    or a ValueError that names where the text came from.  ``int`` alone
    would also read "1_0" as 10, " 1 " as 1 and other scripts' digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{where} must be an integer, got {text!r}")
    return int(text)


def int_field(value, where: str) -> int:
    """A record field read from JSON as an integer: an int that is not a
    bool, an integral float, or text that `read_int` accepts; anything
    else is a ValueError that names where the value came from."""
    if isinstance(value, str):
        return read_int(value, where)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{where} must be an integer, got {value!r}")
