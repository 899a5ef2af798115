"""The immutable base of hfcalc's value types.

A subclass names its fields in ``_fields`` (and in ``__slots__``, with any
derived attributes), assigns them in ``__init__`` through
``object.__setattr__`` and validates there: the one construction path,
which ``replace``, ``copy`` and ``pickle`` take too.  Equality, hash and
repr follow the field tuple, as on a frozen dataclass, without importing
``dataclasses`` (which loads ``inspect`` and compiles generated methods in
every process).
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Frozen"]


class Frozen:
    """An immutable value over the attributes named in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The field tuple that eq and hash compare, read by one C-level getter
        # per class (a generator over _fields made == six times slower).  An
        # attrgetter is no descriptor, so self._key(x) reads x, not self.
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: their default restores
        # slot state by setattr, which this class refuses.
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A new value with ``changes`` applied, built (and validated) by the
        class's own ``__init__``."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return type(self)(**fields)
