"""Span tracing of the spinclone layers, installed from outside the package.

``Tracer.install`` replaces every ``spinclone.*`` module attribute that is
bound to a public function with a wrapper that records one span per call.
Wrapping the attribute in every namespace matters: ``cloner`` binds
``linalg`` names directly, and ``linalg`` calls its own helpers through
its module globals, so only a per-namespace swap sees those calls.

A span is (function, start, end, parent span, op id).  Spans stay in
memory, in flat arrays, until ``summary`` folds them into per-function
call counts, total time and self time.  Self time is a span's duration
minus the time its child spans cover; calls are single-threaded, so the
children of one span never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "spinclone"


def layer_of(name: str) -> str:
    """Layer of a traced function name such as ``cloner.clone_unitary``."""
    return name.split(".", 1)[0]


def origin_layer(exc: BaseException) -> str:
    """Package module in which an exception was raised, from its traceback."""
    layer = "other"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith(PACKAGE + "."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


class Tracer:
    """Records one span per call of a wrapped spinclone function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.func = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.current = -1
        self.op = -1
        # (function, exception class) -> count, charged to the innermost
        # span the exception passed through, i.e. the one that raised it.
        self.errors: dict[tuple[str, str], int] = {}
        self._last_exc: BaseException | None = None
        self.observers: dict[str, object] = {}
        self._installed: list[tuple[object, str, object]] = []

    def observe(self, name: str, callback) -> None:
        """Call ``callback(args, result)`` after each successful call of ``name``."""
        self.observers[name] = callback

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        fid = self._name_ids.setdefault(name, len(self.names))
        if fid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            observer = self.observers.get(name)
            idx = len(self.start)
            self.func.append(fid)
            self.parent.append(self.current)
            self.op_of.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            outer = self.current
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    key = (name, type(exc).__name__)
                    self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                self.current = outer
                self.start[idx] = t0
                self.end[idx] = t1
            if observer is not None:
                observer(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public spinclone function in every spinclone namespace."""
        wrappers: dict[int, object] = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(PACKAGE + "."):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value)
                self._installed.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions."""
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def summary(self) -> dict:
        """Fold the spans into per-function totals.

        Returns ``functions``: name -> [calls, total_s, self_s],
        ``root_s_by_op``: op id -> summed duration of the op's spans that
        have no parent span (they never overlap), and ``errors``:
        "name|Class" -> count.
        """
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        functions: dict[str, list] = {}
        root_s_by_op: dict[int, float] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = functions.setdefault(self.names[self.func[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[i]
            if self.parent[i] < 0:
                op = self.op_of[i]
                root_s_by_op[op] = root_s_by_op.get(op, 0.0) + dur
        return {
            "functions": functions,
            "root_s_by_op": root_s_by_op,
            "errors": {f"{k[0]}|{k[1]}": v for k, v in self.errors.items()},
        }
