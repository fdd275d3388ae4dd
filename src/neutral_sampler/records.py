"""Value classes without the `dataclasses` module.

`dataclasses` imports `inspect` (and with it `ast`, `dis` and `tokenize`),
about 16 ms of every CLI process on a 2-core Xeon with Python 3.11, so the
package's value classes take their equality, hash and repr from the field
names they list instead.  A plain frozen record is built from its field
values in `_fields` order; only a class with checks or a signature of its
own writes an `__init__`, and fills its fields through `_freeze`.
"""

from __future__ import annotations


class Record:
    """Equality and repr over the attributes named in `_fields`, in that
    order, as a dataclass gives them; instances are mutable and unhashable."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class FrozenRecord(Record):
    """A Record that `__init__` fills once through `_freeze`; afterwards no
    attribute can be set or deleted, and the record hashes by its fields."""

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %r" % (type(self).__qualname__, self._fields))
        self._freeze(*values)

    def _freeze(self, *values):
        """Set the fields, in `_fields` order.  Not through `__dict__`, which
        would give the instance a dict of its own, slower to read from."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
