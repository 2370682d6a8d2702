"""An in-memory span tracer that wraps repro's functions from outside.

Nothing under ``src/`` knows about it: :class:`SpanTracer` replaces a
function at its defining module *and at every module that imported it by
name* (``from repro.core.execution import recover_execution`` binds a second
reference that patching the defining module alone would miss), and a method
on its class.  :meth:`SpanTracer.uninstall` puts every original back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing open span and ``op`` the operation id shared by every span of one
benchmark operation.  Spans live in flat arrays until :meth:`write` dumps
them.  Only synchronous functions get spans: in the networked runtime every
node shares one event loop, and a synchronous call runs to completion
without yielding, so spans opened on that thread still nest strictly.
Coroutines are counted, never timed.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

After = Callable[["SpanTracer", Any, tuple, dict], None]

OPERATION = "bench"


class SpanTracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter[str] = Counter()
        self.marks: dict[tuple[str, int], float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order: a traced call yielded")

    def inside(self, span: str) -> bool:
        """Whether a span named *span* is open right now."""
        name_id = self._name_ids.get(span)
        return name_id is not None and any(self.name[i] == name_id for i in self._stack)

    @contextmanager
    def operation(self) -> Iterator[None]:
        """One benchmark operation: a root span with a fresh operation id."""
        self.op_id += 1
        index = self._open(self._name_id(OPERATION))
        try:
            yield
        finally:
            self._close(index)

    # -------------------------------------------------------------- wrapping

    def _spanned(self, fn: Callable, span: str, key: str, after: After | None) -> Callable:
        name_id = self._name_id(span)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:  # outside any operation: checks, not the program
                return fn(*args, **kwargs)
            counts[key] += 1
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def _counted_coroutine(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._stack:
                counts[key] += 1
            return await fn(*args, **kwargs)

        return wrapper

    def _marked(self, fn: Callable, key: str) -> Callable:
        """Counts calls and remembers the first call's time per operation."""
        counts, marks = self.counts, self.marks

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._stack:
                counts[key] += 1
                marks.setdefault((key, self.op_id), time.perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def _wrapper(
        self, fn: Callable, span: str, key: str, after: After | None, mode: str
    ) -> Callable:
        """``mode``: "span" (timed), "coroutine" (counted) or "mark" (timestamped)."""
        if mode == "span":
            return self._spanned(fn, span, key, after)
        if mode == "coroutine":
            return self._counted_coroutine(fn, key)
        if mode == "mark":
            return self._marked(fn, key)
        raise ValueError(f"unknown wrap mode {mode!r}")

    def _replace_everywhere(self, original: Any, replacement: Any) -> int:
        """Rebind every ``repro.*`` module attribute that *is* ``original``."""
        sites = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)
                    sites += 1
        return sites

    def wrap_function(
        self, module: Any, attr: str, span: str, after: After | None = None,
        mode: str = "span",
    ) -> str:
        """Wrap ``module.attr`` at every import site; returns the call key."""
        original = getattr(module, attr)
        key = f"{module.__name__}.{attr}"
        replacement = self._wrapper(original, span, key, after, mode)
        if not self._replace_everywhere(original, replacement):
            raise RuntimeError(f"{key} is bound nowhere under repro")
        return key

    def wrap_method(
        self, cls: type, attr: str, span: str, after: After | None = None,
        mode: str = "span",
    ) -> str:
        """Wrap a method (plain, class- or static-) on *cls*; returns the call key."""
        raw = cls.__dict__[attr]
        key = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapped = self._wrapper(fn, span, key, after, mode)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, kind(wrapped) if kind is not None else wrapped)
        return key

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # ------------------------------------------------------------- reporting

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        for i in range(len(start)):
            totals[name[i]] += end[i] - start[i] - child[i]
        return dict(zip(self.names, totals))

    def root_total(self) -> float:
        """Summed duration of every operation span (the traced end-to-end time)."""
        root = self._name_ids.get(OPERATION)
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0 and self.name[i] == root
        )

    def write(self, path: str) -> None:
        """Dump every span as gzipped TSV: op, index, parent, name, start, end."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i] - base:.7f}\t{self.end[i] - base:.7f}\n"
                )
