"""Exception classes and the value base shared across modules.

A ParseError means the input could not be read (bad syntax, a malformed
document); the command line maps it to exit status 2.  This module
imports only `operator`, which `argparse` loads anyway, so the command
line can catch these errors without loading the modules that raise them,
and the value classes share one base without loading `dataclasses`.
"""

from operator import attrgetter


class ParseError(ValueError):
    """Malformed input: it could not be parsed into the expected shape."""


class InvalidMatrixError(ValueError):
    """Not a matrix of the required kind (entries, determinant or shape)."""


class UnsupportedSizeError(ValueError):
    """A size outside the range an exhaustive routine supports."""


class _Value:
    """Frozen value: a subclass lists its fields in `_fields` and sets them
    in `__init__` with `object.__setattr__`.  Instances are equal when they
    have the same class and equal fields, hash as the field tuple, print as
    `Name(field=value, ...)`, and refuse assignment with AttributeError.

    `__init__` checks its arguments; `_trusted` takes field values the
    library built itself and stores them unchecked.  Validation therefore
    runs once, where a value first enters from outside.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the field tuple is read in C; attrgetter of one name returns no tuple
        get = attrgetter(*cls._fields)
        cls._astuple = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls, *values):
        """The instance with these field values, made without `__init__`.

        Only for values that already meet `__init__`'s checks: results the
        library computed from checked values, and copies.  A class on a hot
        path overrides this with direct slot stores.
        """
        self = object.__new__(cls)
        for f, v in zip(cls._fields, values):
            object.__setattr__(self, f, v)
        return self

    # copy and pickle rebuild an instance from its fields through _trusted
    def __reduce__(self):
        return self._trusted, self._astuple
