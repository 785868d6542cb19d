"""Outside-in tracer: spans around the public functions of mahlerlab.

``Tracer.installed()`` wraps every function named in the ``__all__`` of the
traced modules, plus ``Polynomial.divmod``. The modules bind their imports by
name (``from .rootfind import roots``), so each namespace that holds a traced
function gets its own wrapper, tagged with that namespace as the caller; the
defining module's own binding catches calls from inside that module. Leaving
the context restores every binding.

A span records its name, start, end, parent span, the item being run and the
calling namespace. Spans stay in memory until the run ends; self time is a
span's duration minus the time its child spans cover, so time in private
helpers counts toward the nearest traced public ancestor.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

TRACED_MODULES = ("polycore", "rootfind", "measure", "structure", "bounds", "search", "corpusio")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.callers: list[str] = []
        self.items: list = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.raised: list[bool] = []
        self.notes: dict[int, object] = {}  # span index -> recorded argument or result
        self.yields: dict[str, int] = {}  # generator name -> items produced
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, caller: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.callers.append(caller)
        self.items.append(self.item)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.raised.append(False)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, caller: str = "perfbench"):
        index = self._open(name, caller)
        try:
            yield index
        finally:
            self._close(index)

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn, caller: str, note=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                for value in fn(*args, **kwargs):
                    tracer.yields[name] = tracer.yields.get(name, 0) + 1
                    yield value

            return counting

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name, caller)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[index] = True
                raise
            finally:
                tracer._close(index)
            if note is not None:
                tracer.notes[index] = note(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every ``mahlerlab`` namespace for
        the duration of the block, and restore the originals afterwards."""
        from mahlerlab.polycore import Polynomial

        modules = {
            name: module for name, module in list(sys.modules.items())
            if module is not None and (name == "mahlerlab" or name.startswith("mahlerlab."))
        }
        targets = {}
        for short in TRACED_MODULES:
            module = modules[f"mahlerlab.{short}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if callable(obj) and not isinstance(obj, type) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        notes = _notes()
        try:
            for modname, module in modules.items():
                caller = modname.rpartition(".")[2]
                for attr, obj in list(vars(module).items()):
                    hit = targets.get(id(obj))
                    if hit is not None and hit[1] is obj:
                        self._patch(module, attr, self._wrap(hit[0], obj, caller, notes.get(hit[0])))
            divmod_fn = Polynomial.__dict__["divmod"]
            self._patch(Polynomial, "divmod", self._wrap("polycore.divmod", divmod_fn, "polycore"))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)


def _notes():
    """What the per-layer metrics need from the arguments or result of a few
    functions: the precision of each ``roots`` call, whether a
    ``count_in_disk`` call is the retry at doubled precision, and the size of
    each report."""
    from mahlerlab import rootfind

    roots_sig = inspect.signature(rootfind.__dict__["roots"])
    disk_sig = inspect.signature(rootfind.__dict__["count_in_disk"])

    def bound(sig, args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return {
        "rootfind.roots": lambda a, k, r: bound(roots_sig, a, k)["precision_bits"],
        "rootfind.count_in_disk": lambda a, k, r: bool(bound(disk_sig, a, k)["_retried"]),
        "corpusio.emit_report": lambda a, k, r: len(r.encode()),
    }
