"""Span tracer that wraps orderword's public functions from outside the package.

Tracing is opt-in: nothing here touches ``orderword`` until
:meth:`Tracer.install` runs, and :meth:`Tracer.uninstall` puts every original
object back. A function bound under several module names (``prefix_profile``
lives in both ``analysis`` and ``verify``) is wrapped under each binding, and
methods are wrapped on their class.

Spans are kept in flat arrays (name, start, end, parent) while the workload
runs; :func:`summarize` turns them into per-name counts, busy time and self
time once recording has stopped.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# (metric prefix, module, attribute path). Functions are wrapped wherever the
# same object is bound across the orderword modules; "Class.method" entries
# are wrapped on the class.
TARGETS = (
    ("words.Word.post_init", "words", "Word.__post_init__"),
    ("words.rotation_set", "words", "rotation_set"),
    ("words.occurrences", "words", "occurrences"),
    ("words.is_periodic", "words", "is_periodic"),
    ("series.mul", "series", "mul"),
    ("series.compare_series", "series", "compare_series"),
    ("series.magnus_compare_words", "series", "magnus_compare_words"),
    ("series.MuCache.mu_of", "series", "MuCache.mu_of"),
    ("analysis.decompose", "analysis", "decompose"),
    ("analysis.maximal_ascent", "analysis", "maximal_ascent"),
    ("analysis.prefix_profile", "analysis", "prefix_profile"),
    ("analysis.ascent_descent_spans", "analysis", "ascent_descent_spans"),
    ("analysis.is_descent", "analysis", "is_descent"),
    ("analysis.MagnusOrder.compare", "analysis", "MagnusOrder.compare"),
    ("analysis.MagnusOrder.sign", "analysis", "MagnusOrder.sign"),
    ("verify.canonical_representative", "verify", "canonical_representative"),
    ("verify.enumerate", "verify", "enumerate_cyclically_reduced"),
    ("verify.check_word", "verify", "check_word"),
    ("verify.weinbaum_factorizations", "verify", "weinbaum_factorizations"),
    ("verify.run_campaign", "verify", "run_campaign"),
    ("cli.main", "cli", "main"),
)

MODULES = ("orderword", "orderword.words", "orderword.series", "orderword.analysis",
           "orderword.verify", "orderword.cli", "orderword.__main__")


def target_bindings():
    """Yield (metric name, owner, attribute, original) for every binding to wrap."""
    modules = [importlib.import_module(m) for m in MODULES]
    for name, module, path in TARGETS:
        owner = importlib.import_module("orderword." + module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            yield name, cls, attr, cls.__dict__[attr]
            continue
        original = getattr(owner, path)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    yield name, mod, attr, original


class Tracer:
    """Records one span per wrapped call, plus counts that a span cannot hold."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(self.clock())
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "verify.enumerate":
            return self._wrap_generator(name, fn)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for name, owner, attr, original in target_bindings():
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _after_compare_series(tracer: Tracer, args, result) -> None:
    if result.name == "EQUAL_UP_TO_BOUND":
        return
    bound = args[0].degree_bound
    bucket = "2" if bound <= 2 else "4" if bound <= 4 else "8" if bound <= 8 else "16plus"
    tracer.count("series.decided_at_bound." + bucket)


def _after_mul(tracer: Tracer, args, result) -> None:
    tracer.count("series.mul.term_products",
                 len(args[0].coefficients) * len(args[1].coefficients))


def _after_main(tracer: Tracer, args, result) -> None:
    tracer.count(f"cli.exit_code.{result}")


_HOOKS = {
    "series.compare_series": _after_compare_series,
    "series.mul": _after_mul,
    "cli.main": _after_main,
}


def summarize(names, name_id, start, end, parent) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts a span only when no ancestor has the same name, so
    recursion is not counted twice. Self time is a span's duration minus the
    durations of its direct children, which nest inside it without overlap.
    """
    n = len(start)
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    # A span is nested when one of its ancestors has the same name.
    nested = bytearray(n)
    for i in range(n):
        p = parent[i]
        while p >= 0:
            if name_id[p] == name_id[i]:
                nested[i] = 1
                break
            p = parent[p]
    out: dict[str, dict[str, float]] = {
        name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names
    }
    for i in range(n):
        entry = out[names[name_id[i]]]
        duration = end[i] - start[i]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[i]
        if not nested[i]:
            entry["busy_s"] += duration
    return out
