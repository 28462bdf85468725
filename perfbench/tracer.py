"""Outside-in span tracer: wraps module-global names, restores them on exit.

A module calls its collaborators through its own globals (``balance`` inside
``s2flow.rigidity``, ``pullback`` inside ``s2flow.balance``), so replacing
such a global with a timing wrapper records every call made through it
without editing the module.  Spans are kept in memory as
(name, start, end, parent, case, value, error) and written once at the end.
"""

import os
import time
from collections import Counter


class Tracer:
    """Records spans around wrapped callables while installed.

    Use as a context manager: ``wrap`` replaces the attributes, leaving the
    ``with`` block restores every original, also on error.  Calls made from
    another process (a forked pool worker inherits the wrappers) pass
    straight through, so workers are not traced.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent, case, value, error]
        self.counts = Counter()  # (name, case) -> calls of count-only targets
        self.case = None         # tag attached to every span and count
        self._stack = []
        self._saved = []
        self._pid = os.getpid()

    def wrap(self, module, attr, name, value=None, count_only=False):
        """Replace ``module.attr`` with a recording wrapper.

        ``value(args, kwargs, result)`` extracts a number stored on the span
        (points located, iterations, simulated time).  A count-only target
        records no span, so its time stays in the caller's self time.
        """
        original = getattr(module, attr)
        spans, stack, counts, pid = self.spans, self._stack, self.counts, self._pid
        clock = time.perf_counter

        if count_only:
            def wrapper(*args, **kwargs):
                if os.getpid() == pid:
                    counts[name, self.case] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if os.getpid() != pid:
                    return original(*args, **kwargs)
                span = [name, clock(), None, stack[-1] if stack else -1,
                        self.case, None, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = original(*args, **kwargs)
                except BaseException as err:
                    span[6] = type(err).__name__
                    raise
                finally:
                    span[2] = clock()
                    stack.pop()
                if value is not None:
                    span[5] = value(args, kwargs, result)
                return result

        wrapper.__wrapped__ = original
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_times(self):
        """Each span's duration minus the durations of its direct children.

        Children of one span run one after another inside it, so their
        durations add up to the part of the parent they cover.
        """
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        """Write the spans as CSV with start/end relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,self_s,parent,case,value,error\n")
            for i, (name, start, end, parent, case, value, error) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{own[i]:.9f},{parent},{case},"
                         f"{'' if value is None else value},{error or ''}\n")
