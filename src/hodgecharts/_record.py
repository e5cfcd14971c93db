"""The base of the library's records: init, eq, hash and repr over the fields
a subclass annotates.  The standard library's frozen-record decorator would
cost every fresh CLI process about 13 ms to import (it loads inspect) and
1.2 ms per class, whose six methods it compiles from source."""


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class Field:
    """A default made per instance by factory; compare=False keeps the field
    out of eq, hash and repr."""

    def __init__(self, factory, compare: bool = True):
        self.factory, self.compare = factory, compare


class Record:
    """Fields are the annotated names in order; a class attribute is a default.
    Subclassing with frozen=False gives a mutable, unhashable record."""

    def __init_subclass__(cls, frozen: bool = True):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        made = {f for f, d in defaults.items() if isinstance(d, Field)}
        cls._compared = tuple(f for f in fields if f not in made or defaults[f].compare)
        # Only __init__ is compiled, with one parameter per field: a generic
        # loop over *args builds a record 1.5-3 times slower, and the atlas
        # builds records per LP and per index set.
        params = ", ".join(f"{f}=_d[{f!r}]" if f in defaults else f for f in fields)
        values = (
            f"_d[{f!r}].factory() if {f} is _d[{f!r}] else {f}" if f in made else f
            for f in fields
        )
        body = "".join(f"\n _set(self, {f!r}, {v})" for f, v in zip(fields, values))
        namespace: dict = {}
        source = f"def __init__(self, {params}):{body or ' pass'}"
        exec(source, {"_set": object.__setattr__, "_d": defaults}, namespace)
        cls.__init__ = namespace["__init__"]
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name, *value):
        raise FrozenRecordError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen
