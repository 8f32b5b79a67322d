"""The base of braidoka's immutable records, without generated code, the
integer readers their ``parse`` and ``from_json`` constructors share, the
integer check of their public constructors, and the rotation test that
free-word and SL(2,Z) conjugacy share."""

import sys
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
    ``Oka3Violation`` 1.07 -> 1.78 us per construction (on its former three
    fields).  One that also takes keywords and defaults cost a two-field
    record built from one argument 0.73 -> 2.18 us.  One
    ``self.__dict__.update(...)`` call builds a 3-field record in 0.56 in
    place of 0.62 us, but gives each instance a dict: 240 in place of 96
    bytes a record, and two GC allocations in place of one (Python 3.11.7,
    tracemalloc and ``gc.get_count`` over 100,000 records).
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
    would also read "1_0" as 10, " 1 " as 1 and other scripts' digits, and
    its error above the interpreter's digit limit names neither."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{where} must be an integer, got {text!r}")
    # the interpreter's digit limit; 0, or no such function before Python
    # 3.10.7, means none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(digits) > limit:
        raise ValueError(f"{where} has {len(digits)} digits, more than the limit of {limit} "
                         "(sys.get_int_max_str_digits())")
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


def check_int(value, where: str) -> None:
    """A ValueError that names where value came from unless it is an int
    that is not a bool: 2.0 and True compare and hash equal to 2 and 1, so
    they would pass for them as exponents, generators and keys.  An int
    passes on its exact class, one comparison, before any isinstance call."""
    if value.__class__ is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError(f"{where} must be an int, not a bool, got {value!r}")


def _same_cycle(a: tuple, b: tuple) -> bool:
    """True iff the sequence b is a rotation of a: |a| = |b| and b occurs
    in a + a.

    The items are pairs of ints, (generator, exponent): the blocks of a free
    word or the B_3 runs of an SL(2,Z) period word.  Each is written with
    one format, in hex (a decimal str raises above 4,300 digits from Python
    3.11 on) and between commas, so the text of b occurs in the text of a,
    written twice, only where an item starts.
    str search is linear in the worst case from Python 3.10 on (the
    two-way algorithm, Crochemore-Perrin, J. ACM 38, 1991), so no
    canonical rotation is built.
    """
    def text(items):
        return "".join([",%x %x" % item for item in items])
    return len(a) == len(b) and text(b) + "," in text(a) * 2 + ","
