"""Spans around calls into tropmap's public functions, installed from outside.

:class:`Tracer` replaces every public function of the layer modules with a
timing wrapper at *every* module binding of it (``from .exactgeom import
rank`` in ``moduli`` is a separate binding and is wrapped too), records one
span per call in memory, and puts the originals back on :meth:`uninstall`.
Generator functions get one span per resumption, so their time is counted
while the caller consumes them.  A span's self time is its duration minus
the time its child spans cover, which keeps recursive calls from being
counted twice.  The library's code is not changed.

Functions reached only through data structures (dispatch dicts, argparse
defaults) are not wrapped; their callers are.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

from workloads import LAYERS

# Per-coordinate and per-entry helpers: a span each would cost more than the
# work they do and would swamp the spans of the layers being measured.  Their
# time is counted as self time of their callers.
LEAF_HELPERS = frozenset({
    "exactgeom.parse_rational", "exactgeom.format_rational", "exactgeom.ratvec",
    "exactgeom.vadd", "exactgeom.vsub", "exactgeom.vscale", "exactgeom.vdot",
    "exactgeom.is_zero_vec", "exactgeom.vector_content", "exactgeom.primitive",
    "exactgeom.primitive_rational",
})


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


# name -> (count name, f(args, kwargs, result) -> amount of work)
WORK = {
    "exactgeom.rref": ("cells", lambda a, k, r: _cells(a[0] if a else k["rows"])),
    "exactgeom.solve_nonneg": ("cells", lambda a, k, r: _cells(a[0] if a else k["a_rows"])),
    "wellspaced.enumerate_flats": ("flats", lambda a, k, r: len(r)),
    "documents.load_document": ("bytes", lambda a, k, r: len((a[0] if a else k["text"]).encode())),
    "documents.dumps": ("bytes", lambda a, k, r: len(r.encode())),
}

_MARK = "_perfbench_traced"
SPAN_FIELDS = ("id", "parent", "op", "function", "start", "end", "self", "work", "call")


class Tracer:
    """Spans are tuples in the order of ``SPAN_FIELDS``: id, parent id, op,
    function id (index into ``names``), start, end, self seconds, work and
    whether the span is a call rather than a generator resumption.  ``op``
    is set by the caller before each op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []  # open spans: [id, start, child seconds]
        self._next_id = 0
        self._bindings: list[tuple] = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tropmap.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in LEAF_HELPERS):
                    continue
                wrappers[obj] = self._wrap(name, obj)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Bindings in the package that still hold a wrapper."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in _package_modules()
            for attr, obj in vars(mod).items()
            if getattr(obj, _MARK, False)
        ]

    # -- spans -------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, fid: int, work: int, is_call: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((
            frame[0], parent[0] if parent else -1, self.op, fid,
            frame[1], end, duration - frame[2], work, is_call,
        ))

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        measure = WORK.get(name, (None, None))[1]

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                frame = self._open()
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    self._close(frame, fid, 0, True)
                return self._resumptions(fid, gen)
        else:
            def wrapper(*args, **kwargs):
                frame = self._open()
                work = 0
                try:
                    result = fn(*args, **kwargs)
                    if measure is not None:
                        work = measure(args, kwargs, result)
                    return result
                finally:
                    self._close(frame, fid, work, True)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, True)
        return wrapper

    def _resumptions(self, fid: int, gen):
        try:
            while True:
                frame = self._open()
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(frame, fid, 0, False)
                    return
                except BaseException:
                    self._close(frame, fid, 0, False)
                    raise
                self._close(frame, fid, 1, False)
                yield item
        finally:
            gen.close()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self seconds, and its work count (cells,
        flats, bytes) or, for generators, items yielded."""
        out: dict[str, dict[str, float]] = {}
        for _, _, _, fid, _, _, self_s, work, is_call in self.spans:
            name = self.names[fid]
            t = out.get(name)
            if t is None:
                t = out[name] = {"calls": 0, "self_s": 0.0, "work": 0}
            t["calls"] += is_call
            t["self_s"] += self_s
            t["work"] += work
        return out

    def write_spans(self, path: str) -> None:
        """JSON lines: first ``{"fields": ..., "names": ...}``, then one
        array per span in the order of ``fields``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "tropmap" or n.startswith("tropmap.")]
