"""The base of plexflow's value classes: terms, query nodes and records.

A subclass lists its fields once, as ``__slots__ = _fields = (...)``, and
writes its own ``__init__``. The base gives it value semantics written
once, so importing a module creates plain classes and ``exec``s no
generated methods:

- ``__eq__`` compares the field tuples, and only between instances of the
  same class, so ``Minus(g) != OptionalGroup(g)``. A class may compare
  fewer fields than it has by setting ``_key`` to an ``attrgetter`` of
  two or more of them.
- ``__repr__`` is ``Name(field=value, ...)`` over every field.
- A :class:`Record` is mutable and unhashable. A :class:`FrozenRecord`
  refuses assignment, so its ``__init__`` sets fields through
  :data:`set_field`, and hashes as its field tuple does.
"""

from __future__ import annotations

from operator import attrgetter

# How a frozen record's __init__ sets its fields, bound once.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("_fields")
        if names and "_key" not in cls.__dict__:
            get = attrgetter(*names)
            # attrgetter of one name returns the bare value, not a tuple.
            cls._key = get if len(names) > 1 else staticmethod(lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__qualname__}")
