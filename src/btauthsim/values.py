"""The checks of argument values, and the bases of the package's value types.

Octet widths follow the Bluetooth wire formats: 48-bit addresses, PINs of 1 to 16
octets, 128-bit challenges and keys, and 32-bit signed responses. Every
octet string a function takes or returns, addresses and PINs included, is
plain bytes; each function checks the type and width of the octets it
takes, and check_octets holds that check and its messages, as check_type
does for a value that must be exactly of one type (an int, an enum, a
value class, a record). A function on a run's path first tests each
argument inline, exact bytes of the width or exactly its type, so a
well-formed value costs no call; only a value that fails that test, a
bytes subclass included, reaches the check, which accepts or refuses it.

value_class, beside them, makes each value class of the package, the
values that check their arguments or change in place: each class writes
its own __init__ and docstring in its body, dataclass writes only its
fields, and every other method is a closure that compiles once, with this
module, so no source is generated and exec'd for any value class at
import. The records, the frozen values that check nothing, are instead
subclasses of a collections.namedtuple class, which builds, shows,
compares and hashes them. IdentityEnum is the base of every enum of the
package, and gives each member the identity hash.

This module imports no module of the package, so every module can import it.
"""

from dataclasses import FrozenInstanceError, dataclass, fields
from enum import Enum
import functools

__all__ = ["check_octets", "check_type", "value_class", "IdentityEnum"]


def check_octets(name: str, value: bytes, width: int, max_width: int | None = None) -> None:
    """Raise TypeError unless value is bytes, and ValueError naming it
    unless it holds exactly width octets, or width to max_width when
    max_width is given."""
    # each message formats the name itself: a value that passes formats nothing
    if not isinstance(value, bytes):
        raise TypeError(f"{name} must be bytes, got {type(value).__name__}")
    if max_width is None:
        if len(value) != width:
            raise ValueError(f"{name} must be exactly {width} octets, got {len(value)}")
    elif not width <= len(value) <= max_width:
        raise ValueError(f"{name} must be {width} to {max_width} octets, got {len(value)}")


def check_type(name: str, value, kind: type, none: bool = False) -> None:
    """Raise TypeError naming value unless its type is exactly kind, or it
    is None where none is set: a bool or a float equals, hashes like and
    passes range checks as the int it is."""
    if type(value) is not kind and not (none and value is None):
        raise TypeError(
            f"{name} must be {'an' if kind.__name__[0] in 'aeiouAEIOU' else 'a'} {kind.__name__}"
            f"{' or None' if none else ''}, got {type(value).__name__}"
        )


def value_class(cls: type | None = None, /, *, frozen: bool = False):
    """cls as a dataclass, frozen if frozen is set, with the __init__ that
    its own body writes; used bare or called, as dataclass is.

    dataclass builds only the fields, their class defaults and
    __match_args__, and writes no method. Each other method is a closure
    over the field names, one code object each for every class: __repr__
    shows the fields whose repr flag is set, __eq__ compares the fields
    whose compare flag is set, in order, with those of another instance of
    the same class (NotImplemented otherwise), and __hash__ hashes the
    tuple of the fields that dataclass would hash. A mutable class is
    unhashable. A frozen class shares a __setattr__ and __delattr__ that
    raise FrozenInstanceError as dataclass's do, so its __init__ stores
    its fields through self.__dict__; dataclass is not told it is frozen,
    so its __dataclass_params__.frozen reads False. A class that defines
    one of these methods itself, or that defines no __init__ of its own,
    is a TypeError. The repr has no guard against a value that contains
    itself, which no field of the package holds.
    """
    if cls is None:
        return functools.partial(value_class, frozen=frozen)
    cls = dataclass(cls, init=False, repr=False, eq=False)
    own = fields(cls)
    names = tuple(f.name for f in own)
    shown = [f.name for f in own if f.repr]
    compared = [f.name for f in own if f.compare]
    hashed = [f.name for f in own if (f.compare if f.hash is None else f.hash)]

    def __repr__(self):
        shows = ", ".join([f"{name}={getattr(self, name)!r}" for name in shown])
        return f"{self.__class__.__qualname__}({shows})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            mine = [getattr(self, name) for name in compared]
            return mine == [getattr(other, name) for name in compared]
        return NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in hashed))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = [__repr__, __eq__]
    if not frozen:
        cls.__hash__ = None
    else:
        methods += [__hash__, __setattr__, __delattr__]
    for method in methods:
        if method.__name__ in cls.__dict__:
            raise TypeError(f"value class {cls.__name__} defines its own {method.__name__}")
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if "__init__" not in cls.__dict__:
        raise TypeError(f"value class {cls.__name__} defines no __init__ of its own")
    return cls


class IdentityEnum(Enum):
    """The base of every enum of the package, with no members of its own.

    Members are singletons compared by identity, so the identity hash
    agrees with equality and, unlike Enum's hash of the member's name,
    costs no Python-level call: a member is a cheap key of a dict or of
    a functools.lru_cache.
    """

    __hash__ = object.__hash__
