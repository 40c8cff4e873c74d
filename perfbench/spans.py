"""In-memory span recorder for the benchmark's traced run.

:class:`SpanRecorder` replaces chosen functions and methods with thin
wrappers that record one span per call: the span's name, start and end
(``time.perf_counter``), the span that was open when it began (its
parent) and the sweep point it belongs to.  Spans stay in flat arrays
while the run lasts and are written out once, by :meth:`write`, when it
ends.  :meth:`restore` (also run on ``with`` exit) puts every wrapped
attribute back, so traced and untraced runs can share one process.

A span's *self time* is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, calls return in LIFO order),
so the self times of all spans under a root add up to the root's
duration, and a set of layers that partitions the span names partitions
the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import zipfile
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["SpanRecorder", "self_times"]

#: the parent (and point) value of a span opened with nothing above it.
NONE = -1


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> array:
    """Each span's duration minus the durations of its direct children."""
    own = array("d", (end - start for start, end in zip(starts, ends)))
    for start, end, parent in zip(starts, ends, parents):
        if parent != NONE:
            own[parent] -= end - start
    return own


class SpanRecorder:
    """Wraps callables so each call records a span; restores them on exit."""

    def __init__(self) -> None:
        #: span-name table; ``codes[i]`` indexes it.
        self.names: List[str] = []
        self._code_of: Dict[str, int] = {}
        self.codes = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.points = array("i")
        self._stack: List[int] = []
        #: [current point id, next point id] — a list so wrappers share it.
        self._point = [NONE, 0]
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.codes)

    # -- wrapping --------------------------------------------------------------

    def _code(self, name: str) -> int:
        code = self._code_of.get(name)
        if code is None:
            code = self._code_of[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn: Callable, marks_point: bool = False) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        A generator function gets one span per resumption (each ``next``),
        because its body runs interleaved with its consumer.  With
        ``marks_point`` every call opens a new sweep point: it and the
        spans below it carry a fresh point id.
        """
        code = self._code(name)
        codes, starts, ends = self.codes, self.starts, self.ends
        parents, points, stack, point = (
            self.parents, self.points, self._stack, self._point,
        )
        clock = time.perf_counter

        def open_span() -> int:
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else NONE)
            points.append(point[0])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item

            return traced_generator

        if marks_point:
            @functools.wraps(fn)
            def traced_point(*args, **kwargs):
                outer = point[0]
                point[0] = point[1]
                point[1] += 1
                index = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(index)
                    point[0] = outer

            return traced_point

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def patch(self, owner: object, attr: str, name: str, marks_point: bool = False) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        traced wrapper; :meth:`restore` puts the original back."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, marks_point))
        else:
            replacement = self.wrap(name, original, marks_point)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every attribute :meth:`patch` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- results ---------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (call count, summed self time in seconds)."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for code, seconds in zip(
            self.codes, self_times(self.starts, self.ends, self.parents)
        ):
            calls[code] += 1
            own[code] += seconds
        return {
            name: (calls[code], own[code]) for code, name in enumerate(self.names)
        }

    def write(self, path: str) -> str:
        """Write every span to a zip of binary columns in machine byte order.

        Members: ``names.json`` (the span-name table) and one array per
        column, indexed by span id — ``code.u16`` (index into the name
        table), ``start.f64`` and ``end.f64`` (``perf_counter`` seconds),
        ``parent.i32`` (-1 for a root) and ``point.i32`` (-1 outside any
        sweep point).  Read a column back with
        ``array(typecode).frombytes(zipfile.ZipFile(path).read(member))``.
        """
        columns = {
            "code.u16": self.codes, "start.f64": self.starts, "end.f64": self.ends,
            "parent.i32": self.parents, "point.i32": self.points,
        }
        with zipfile.ZipFile(
            path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
        ) as archive:
            archive.writestr("names.json", json.dumps(self.names))
            for member, column in columns.items():
                archive.writestr(member, column.tobytes())
        return path
