"""Call tracing from outside the program: wrap public names, keep spans in memory.

A :class:`Tracer` replaces attributes of the program's modules and classes with
timing wrappers. Every wrapped call updates per-name aggregates (calls, total
time, self time = total minus the time of wrapped calls made inside it).
Coarse names also record a span ``(name, start, end, parent)``; names called
tens of thousands of times (the integrator's RHS, ``DiffEngine.partials``)
keep aggregates only, so tracing stays cheap and the span list small.

A name that the program no longer has is recorded in ``absent`` and skipped,
so the tracer keeps working when a later version deletes a wrapped function.
:meth:`Tracer.uninstall` restores every original attribute.
"""

from __future__ import annotations

import itertools
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.stats = {}     # name -> [calls, total_s, self_s]
        self.absent = []
        self._stack = []    # frames: [child_time, span index or -1]
        self._patches = []  # (owner, attribute, original descriptor)
        self._constructed = None

    # -- installing wrappers ---------------------------------------------------

    def wrap(self, owner, attr, name, record=True, on_call=None, on_result=None):
        """Replace ``owner.attr`` by a timing wrapper.

        ``on_call(args, kwargs)`` may return replacement arguments;
        ``on_result(result, args, kwargs)`` sees every return value.
        """
        if not hasattr(owner, attr):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner).get(attr) or getattr(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                self.timed(original.__func__, name, record, on_call, on_result))
        else:
            replacement = self.timed(original, name, record, on_call, on_result)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def timed(self, func, name, record=True, on_call=None, on_result=None):
        """``func`` wrapped so that each call is timed under ``name``."""
        stack = self._stack
        spans = self.spans
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else -1
            span = -1
            if record:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent_span])
            frame = [0.0, span if record else parent_span]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if record:
                    spans[span][1] = start
                    spans[span][2] = end
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def count_constructions(self, cls):
        """Count instances of ``cls`` built while installed."""
        original = cls.__dict__.get("__init__")
        if original is None:
            self.absent.append(f"{cls.__name__}.__init__")
            return
        counter = itertools.count()
        tick = counter.__next__

        def __init__(self, *args, **kwargs):
            tick()
            original(self, *args, **kwargs)

        self._constructed = counter
        self._patches.append((cls, "__init__", original))
        cls.__init__ = __init__

    def constructions(self) -> int:
        if self._constructed is None:
            return 0
        # itertools.count has no peek: take the next value, which equals the count
        return next(self._constructed)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading the trace -----------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def named_spans(self, name):
        return [s for s in self.spans if s[0] == name]

    def outermost(self, prefix) -> float:
        """Summed duration of spans named ``prefix*`` not nested in another such span."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name.startswith(prefix) and (
                    parent < 0 or not self.spans[parent][0].startswith(prefix)):
                total += end - start
        return total

    def dump(self):
        return {"spans": self.spans,
                "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items())},
                "absent": self.absent}
