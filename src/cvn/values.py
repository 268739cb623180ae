"""The base of the package's value objects.

A value class declares its fields as class annotations, in order.  From
them the base gives it ``__init__`` (fields bound in that order; too
many, missing, unknown or repeated ones raise ``TypeError``), ``__eq__``
(same class, equal field tuples), ``__hash__`` (of the field tuple), a
``Name(field=value, ...)`` repr, and immutability: assignment and
deletion raise ``AttributeError``, so an ``__init__`` of its own stores
fields with ``setfield``.  Nothing is generated: the cost at import is
one ``operator.attrgetter`` per class.  A class overrides the base only
where it must, or where it was measured to matter:

- ``__eq__`` on ``Word``, field by field (0.23 us, the base's 0.28 us,
  Python 3.11), and on ``TopologicalType``, by identity.  Edges and
  points use the base's (0.70 us for an edge, against 0.28 by hand): a
  seed-1 geodesic-r2 pass of 72 ops compares 541 points and no type or
  edge, where it compared 5,538 types and 15,537 edges field by field.
  Defining ``__eq__`` clears ``__hash__``, so each sets it again.
- ``__new__`` on ``TopologicalType``: one live object per value.
- ``__hash__`` cached in ``_hash`` on ``Word``, ``TopologicalType`` and
  ``SimplexPoint``, which key the memos; ``ConjClass`` hashes as its
  representative; ``MarkedGraph``, mutable raw input, is unhashable.  A
  cache in the base costs a dict entry per hashed edge: 12% more RSS in
  the rank-3 support fill (136.5 against 122.3 MB).
- ``__init__`` where fields are checked, normalised or joined by another
  value: ``Word``, ``SimplexPoint`` (its integer ``scaled_lengths``),
  ``HalfSpace``, ``StretchReport`` and ``GeodesicPath`` (``target``);
  ``TopologicalType``'s does nothing.
- ``__reduce__`` on ``TopologicalType`` and ``SimplexPoint``: a copy or
  an unpickled object is built by the constructor, so a type is the
  interned one and neither carries the cached hash of the process that
  pickled it (a string's hash depends on the process's hash seed).
"""

from operator import attrgetter

setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__annotations__)
        get = attrgetter(*names)  # a 1-tuple too, as the hash reads it
        cls._values = get if len(names) > 1 else staticmethod(
            lambda x: (get(x),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):]
                          if name in kwargs)
        if len(args) != len(names) or kwargs:  # missing, extra or unknown
            raise TypeError(f"{type(self).__qualname__} takes the fields "
                            f"{', '.join(names)} once each")
        for name, value in zip(names, args):
            setfield(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"
