"""The base of the package's value objects.

A value class declares its fields as class annotations, in order, and
writes out its own ``__init__``, ``__eq__`` and ``__hash__``: they are
hot (types compare their edges, edges their words), and written out
they cost no code generation at import, where ``dataclasses`` would.
The base adds the cold parts: a repr of the annotated fields and
immutability.  ``__init__`` stores each field with ``setfield``, since
assignment raises; ``cached_property`` writes the instance dict and so
still works.
"""

setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in type(self).__annotations__)
        return f"{type(self).__qualname__}({fields})"
