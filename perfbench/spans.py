"""In-memory spans around calls into a program's functions.

A span records one call: its name, start, end, the span that was open when
it started (its parent, -1 for none) and optional attributes computed from
the call's arguments and result. Spans live in one list, indexed by id, and
are written out only after the traced program returns.

A function imported by name (``from .linalg import pcg``) is a separate
binding in the importing module. Wrapping the defining module does not
reach those callers, so ``Tracer.wrap`` replaces one named binding and the
caller picks the binding that its callee actually looks up.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, ATTRS = range(5)
_INHERITED = object()


class Tracer:
    """Records spans for wrapped callables; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name`` per
        call. ``attrs(args, kwargs, result)`` returns a dict stored on the
        span after the call returns."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        self._originals.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped binding back, newest first."""
        while self._originals:
            owner, attr, fn = self._originals.pop()
            if fn is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)


def children_of(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that the union
    of its children's intervals covers."""
    kids = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted((max(spans[k][START], start), min(spans[k][END], end))
                           for k in kids[i]):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def totals_by_name(spans, selfs) -> dict[str, dict]:
    """calls, inclusive seconds and self seconds per span name."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, self_s in zip(spans, selfs):
        row = out[span[NAME]]
        row["calls"] += 1
        row["s"] += span[END] - span[START]
        row["self_s"] += self_s
    return dict(out)


def write_csv(spans, path: str) -> None:
    """One line per span: id,parent,name,start,end (seconds, tracer clock)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start,end\n")
        for i, span in enumerate(spans):
            fh.write(f"{i},{span[PARENT]},{span[NAME]},{span[START]!r},{span[END]!r}\n")
