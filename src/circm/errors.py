"""Shared exception types, and the base of the immutable record classes."""


class GuardError(Exception):
    """A size guard was exceeded without an explicit override."""


class InconsistencyError(Exception):
    """Two independent computations that must agree disagreed.

    This always signals a bug in the library, never bad user input.
    """


class Frozen:
    """Base of the record classes whose instances never change.

    Each subclass lists its fields as ``__slots__`` and sets them in its
    own ``__init__`` with ``object.__setattr__``; any later assignment or
    deletion raises ``AttributeError``.  A copy or a pickle is rebuilt by
    passing the fields, in slot order, to ``__init__`` again.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: the object is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: the object is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
