"""Value classes over ``__slots__``, without ``dataclasses``.

A ``Record`` subclass names the fields that make its value in
``_fields`` and lists them (with any other attribute) in ``__slots__``.
Instances of one class compare equal when those fields are equal, the
repr reads ``Name(field=value, ...)``, and a mutable record has no hash.
A ``FrozenRecord`` also hashes by those fields and refuses attribute
assignment, so its ``__init__`` sets its fields with ``_fill``.

``dataclasses`` would give the same, but importing it loads ``inspect``
and with it ``ast``, ``dis`` and ``tokenize``, which a run never uses.
"""


class Record:
    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(
                "%s=%r" % (name, getattr(self, name)) for name in self._fields
            ),
        )


class FrozenRecord(Record):
    __slots__ = ()

    def _fill(self, *values):
        """Set the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
