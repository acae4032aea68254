"""External span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each layer of ``repro`` from
the outside (class attributes and module globals are swapped for timing
wrappers while a run is traced, and restored afterwards), so the program
under test is not edited.  Each wrapped call records one span:

    (name, start, end, parent index)

Spans stay in memory and are written out once, after the run.  A span's
self time is its duration minus the part of its interval covered by its
child spans; a layer's inclusive time counts only its outermost spans, so
a call that re-enters the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A span: [name, start, end, parent index (-1 = root)].
# A round is one request, so its spans share the root of the call tree.
Span = List


def _covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    covered = 0.0
    run_start, run_end = None, None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered((span[1], span[2]), children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans only) and
    self seconds."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        name = span[0]
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[index]
        parent = span[3]
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            row["s"] += span[2] - span[1]
    return dict(out)


class Tracer:
    """Collects spans and counters; installs and removes layer wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span named ``name``.

        ``on_result(tracer, args, result)`` runs after the span closes and
        may bump counters from the call's arguments and return value.
        """
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result))
        self._patched.append((owner, attr, original))

    def install(self, targets: Sequence[Tuple[str, str, str, str, Optional[Callable]]]) -> None:
        """Patch every ``(module, owner, attr, span name, hook)`` target.

        ``owner`` names a class in ``module``, or is empty to patch a
        module-level function (a name imported into several modules is
        listed once per module).
        """
        for module_name, owner_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self.patch(owner, attr, name, hook)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        return layer_totals(self.spans)

    def dump(self, path) -> None:
        """Write spans and counters as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [s[0], round(s[1] - origin, 9), round(s[2] - origin, 9), s[3]]
                        for s in self.spans
                    ],
                    "counters": dict(self.counters),
                },
                fh,
            )
