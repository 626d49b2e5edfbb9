"""Exception types shared across the library, and `Record`, the base of
its immutable value classes."""

from operator import attrgetter


class Record:
    """An immutable value whose fields are its class's annotated names, in
    order and after its base's, with the class attributes of those names
    as defaults.

    The constructor takes the fields by position or by name and stores
    them, then calls `_check`, which a class overrides to normalize and
    validate them and to derive further attributes.  Both are set in the
    instance's `__dict__`, past `__setattr__`, which like `__delattr__`
    refuses every name.  `==`, `hash` and `repr` read the fields alone, and
    `==` holds between instances of one class only.  `replace` builds a
    copy with some fields changed through the constructor, so the copy is
    checked again; it serves the classes whose constructor takes their
    fields (not `Relation`, which is built from pairs).
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(vars(cls).get("__annotations__", ()))
        fields = cls._fields = cls._fields + own  # a base's fields come first
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        cls._values = attrgetter(*fields)  # a tuple of the fields; a lone field as it is

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = len(args) + len(kwargs)
            kwargs.update(zip(fields, args))
            values = {**self._defaults, **kwargs}
            if len(kwargs) < given or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = map(values.get, fields)
        vars(self).update(zip(fields, args))
        self._check()

    def _check(self) -> None:
        """Normalize and validate the fields; by default, nothing to do."""

    def replace(self, **changes):
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class UbisimError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(UbisimError):
    """A value refers to an unknown state or alphabet symbol, or a machine
    definition violates one of its structural invariants."""


class ContractError(UbisimError):
    """An operation was invoked outside its contract: mismatched alphabets,
    empty word where a non-empty one is required, wrong machine kind, ..."""


class ObservationConflictError(UbisimError):
    """A recorded observation contradicts an earlier one.  Carries the
    longest prefix on which the clash occurs."""

    def __init__(self, message: str, prefix=()):
        super().__init__(message)
        self.prefix = tuple(prefix)


class ParseError(UbisimError):
    """Error in the text format, with the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
