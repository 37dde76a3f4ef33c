"""Spans recorded around the public calls of the package, from outside it.

A span is [name, start, end, parent index, counters].  Spans live in memory
until the run ends.  ``Tracer.install`` replaces a function by a recording
wrapper under every name that refers to it in the package's modules, so a
module that bound the function into its own namespace (``lift`` binds
``radical``, ``chop``, ``verma_module`` and ``bad_primes``) is traced at
the name it looks up.  This module imports nothing from the package, so the
orchestrator can aggregate spans without loading it.
"""

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        # time spent in the counter callbacks, which run outside any span
        self.count_s = 0.0

    def wrap(self, name, fn, count=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = {"failed": 1}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                before = time.perf_counter()
                span[4] = count(args, result)
                self.count_s += time.perf_counter() - before
            return result

        return traced

    def install(self, package, targets):
        """targets: (owner, attribute, span name, count or None), where owner
        is a module or a class of the package."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        for owner, attr, name, count in targets:
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, count)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)


def wrapper_cost(calls=20000, rounds=5):
    """Seconds one recording wrapper adds to a call: a wrapped no-op
    against a bare one, the least of several rounds."""
    def noop():
        return None

    best = float("inf")
    for _ in range(rounds):
        traced = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return best


def spans_under(spans, name):
    """The number of spans that are, or are nested in, a top-level span of
    the given name."""
    top = []
    for span in spans:
        parent = span[3]
        top.append(top[parent] if parent >= 0 else span[0])
    return sum(1 for t in top if t == name)


def aggregate(spans):
    """Per span name: calls (every call), s (duration of the calls not
    nested in a call of the same name), self_s (duration minus the time its
    child spans cover) and the counters of the outermost calls, summed."""
    out = {}
    for name, start, end, parent, counters in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start
        if parent >= 0:
            out[spans[parent][0]]["self_s"] -= end - start
        if _has_ancestor_named(spans, parent, name):
            continue
        row["s"] += end - start
        for key, value in (counters or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def _has_ancestor_named(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
