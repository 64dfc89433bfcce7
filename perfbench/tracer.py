"""Call tracing from outside the package.

A ``Tracer`` replaces chosen functions at their public names with timing
wrappers, in every ``howe_forge`` namespace that holds them (modules that
import a function by name keep their own reference, so patching only the
defining module would miss those calls).  Each wrapped call either records
a span (name, start, end, parent) or, for functions called so often that a
span per call would distort the timing, only bumps a counter.  Both kinds
charge their duration to the enclosing traced call, so the self time of a
layer is its own time minus the time its traced callees took.

``restore`` puts every replaced attribute back.  The tracer keeps one call
stack, so it assumes the traced code runs on one thread.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.raised: Counter = Counter()
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []  # open calls: [span index, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, spans: bool = True, observe=None):
        """A wrapper around ``fn`` that traces each call under ``name``.

        ``observe(stats, args, kwargs, result)`` may add per-call figures to
        ``self.stats[name]`` after a call returns.
        """
        stack, calls, self_s = self._stack, self.calls, self.self_s
        record, raised = self.spans, self.raised
        stats = self.stats[name]

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [-1, 0.0]
            if spans:
                frame[0] = len(record)
                record.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if spans:
                    record[frame[0]] = (name, start, end, parent)
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def replace(self, original, replacement) -> None:
        """Swap ``original`` for ``replacement`` wherever a ``howe_forge``
        module or class holds it."""
        swapped = False
        for owner in _package_namespaces():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._patched.append((owner, attr, original))
                    swapped = True
        if not swapped:
            raise LookupError(f"{original!r} is not held by any package name")

    def trace(self, original, name: str, spans: bool = True, observe=None):
        self.replace(original, self.wrap(original, name, spans, observe))

    def restore(self) -> None:
        """Put back every replaced attribute, newest first, and check that
        the package holds none of the replacements any more."""
        replacements = []
        while self._patched:
            owner, attr, original = self._patched.pop()
            replacements.append(getattr(owner, attr))
            setattr(owner, attr, original)
        for owner in _package_namespaces():
            left = [attr for attr, value in vars(owner).items()
                    if any(value is r for r in replacements)]
            if left:
                raise RuntimeError(f"{owner!r} still holds traced {left}")

    # -- reading ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def _package_namespaces():
    """Every loaded ``howe_forge`` module and each class defined in it."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "howe_forge"
                                  or modname.startswith("howe_forge.")):
            continue
        yield module
        yield from (v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == modname)
