"""Span tracing of the hodgecharts layers from outside the program.

``Tracer.install()`` replaces every public function of the traced modules, in
every hodgecharts module that binds it (``from .linalg import kernel`` leaves
copies in ``cones`` and ``filtrations``), plus the named class methods, with a
wrapper that records one span per call: (name, start, end, parent, operation
id).  Spans stay in memory; ``uninstall()`` restores every binding.  Per-layer
statistics are derived from the spans afterwards, so the program itself is
never edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

TRACED_MODULES = (
    "linalg",
    "filtrations",
    "cones",
    "charts",
    "serialize",
    "cli",
    "ncd",
    "metrics",
    "siegel",
    "positivity",
)
# Scalar helpers called once per entry or row: wrapping them would measure the
# tracer rather than the layer.
SKIPPED = {"linalg.dot", "linalg.vec"}
# Private functions that the layer table names (the CLI's report writer).
EXTRA = {"cli._emit": "cli.emit"}
METHODS = (
    ("linalg", "RationalMatrix", "rref"),
    ("linalg", "Subspace", "intersect"),
    ("linalg", "Subspace", "contains_vector"),
)
# Calls whose hashable arguments are remembered per operation: a repeat is
# work that a memo could have saved.
REPEAT_KEYED = {"linalg.rref", "linalg.intersect", "filtrations.weight_filtration"}


def _hodgecharts_modules():
    import hodgecharts

    mods = [hodgecharts]
    for info in pkgutil.iter_modules(hodgecharts.__path__):
        mods.append(importlib.import_module(f"hodgecharts.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, operation id, size)
        self.spans: list[tuple | None] = []
        self.repeats: list[bool] = []  # per span; False where not keyed
        self.op_id = -1
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._undo: list[tuple] = []

    # -- operations ------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen = {}

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, repeats = self.spans, self._stack, self.repeats
        keyed = name in REPEAT_KEYED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            repeat = False
            if keyed:
                key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
                seen = tracer._seen.setdefault(name, set())
                repeat = key in seen
                seen.add(key)
            repeats.append(repeat)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.op_id, _size(args))

        return wrapper

    def install(self) -> None:
        modules = _hodgecharts_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}  # original function -> wrapper
        for short in TRACED_MODULES:
            mod = by_name[short]
            for attr, obj in vars(mod).items():
                full = f"{short}.{attr}"
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if full in SKIPPED:
                    continue
                if attr.startswith("_") and full not in EXTRA:
                    continue
                wrappers[obj] = self._wrap(EXTRA.get(full, full), obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):  # dispatch tables such as cli._RUNNERS
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._undo.append((dict.__setitem__, obj, key, val))
                            obj[key] = wrappers[val]
        for short, cls_name, meth in METHODS:
            cls = getattr(by_name[short], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((setattr, cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON: names, rows of [name id, start, end,
        parent, operation id, size], and the per-span repeat flags."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "repeats": self.repeats}, fh)


def _size(args) -> int:
    """rows x cols of a matrix first argument, else 0."""
    first = args[0] if args else None
    rows = getattr(first, "rows", None)
    cols = getattr(first, "cols", None)
    if isinstance(rows, int) and isinstance(cols, int):
        return rows * cols
    return 0


def layer_stats(names, spans, repeats=None) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed size,
    largest size and repeat count.  Self time is the span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name_id, start, end, parent, _op, _size_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name_id, start, end, _parent, _op, size) in enumerate(spans):
        stat = out.setdefault(
            names[name_id],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0, "size_max": 0, "repeats": 0},
        )
        stat["calls"] += 1
        stat["total_s"] += end - start
        stat["self_s"] += end - start - child[i]
        stat["size"] += size
        stat["size_max"] = max(stat["size_max"], size)
        if repeats is not None and repeats[i]:
            stat["repeats"] += 1
    return out


def merge_stats(into: dict, other: dict) -> None:
    for name, stat in other.items():
        mine = into.setdefault(name, {k: 0 for k in stat})
        for key, val in stat.items():
            mine[key] = max(mine[key], val) if key == "size_max" else mine[key] + val
