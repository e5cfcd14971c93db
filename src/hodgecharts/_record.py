"""The base of the library's records: init, eq, hash and repr over the fields
a subclass annotates.  The standard library's frozen-record decorator would
cost every fresh CLI process about 13 ms to import (it loads inspect) and
1.2 ms per class, whose six methods it compiles from source."""


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class Record:
    """The annotated names, in order, are the fields; a class attribute is a
    default.  Every record is frozen.  A default is one object shared by every
    instance that takes it, so it must be immutable (None or a tuple)."""

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # Only __init__ is compiled, with one parameter per field: a generic
        # loop over *args builds a record 1.5-3 times slower, and the atlas
        # builds records per LP and per index set.
        params = ", ".join(f"{f}=_d[{f!r}]" if f in defaults else f for f in fields)
        body = "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
        namespace: dict = {}
        source = f"def __init__(self, {params}):{body or ' pass'}"
        exec(source, {"_set": object.__setattr__, "_d": defaults}, namespace)
        cls.__init__ = namespace["__init__"]

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name, *value):
        raise FrozenRecordError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen
