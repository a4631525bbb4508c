"""In-memory span ledger fed by wrappers around the program's layer calls.

The benchmark never edits the program.  It replaces, for the duration of
a traced pass, the attributes through which one layer calls the next
(``driver.build_csssp``, ``driver.BLOCKERS["derandomized"]``,
``APSPResult.verify``, ``runner.make_graph``, ...) with wrappers that
append one span per call: name, start, end, parent span and operation
id.  Spans stay in memory and are written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover.
The message-engine spans (``congest.network_run``,
``congest.run_compressed``) are *overlay* spans: they are
recorded with their parent like any other span, but they do not reduce
their parent's self time.  In the round-compressed engine a step's own
arithmetic runs inside ``CongestNetwork.run_compressed`` (the phase's
``evaluate``), so subtracting the engine would move every step's work
into one bucket.  The engine metrics are therefore the inclusive engine
time summed over all steps, a cross-cut of the step times.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: engine spans that keep their inclusive time (see the module docstring)
OVERLAY = frozenset({"congest.network_run", "congest.run_compressed"})


class Ledger:
    """Spans and counters of one process, recorded while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = 0
        self.spans: List[list] = []  # [name, start, end, parent, op_id]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``count(result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


class Patches:
    """Attribute and dict-item replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def attr(self, obj, name: str, make: Callable[[Callable], Callable]):
        old = getattr(obj, name)
        setattr(obj, name, make(old))
        self._undo.append(lambda: setattr(obj, name, old))

    def item(self, mapping: dict, key, make: Callable[[Callable], Callable]):
        old = mapping[key]
        mapping[key] = make(old)
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _effective_parents(spans: List[list]) -> List[int]:
    """Each span's nearest ancestor that is not an overlay span."""
    out = []
    for name, _s, _e, parent, _op in spans:
        while parent >= 0 and spans[parent][0] in OVERLAY:
            parent = spans[parent][3]
        out.append(parent)
    return out


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time; overlay spans keep their inclusive time."""
    dur = [e - s for _n, s, e, _p, _o in spans]
    own = list(dur)
    for i, parent in enumerate(_effective_parents(spans)):
        if parent >= 0 and spans[i][0] not in OVERLAY:
            own[parent] -= dur[i]
    return own


def totals_by_name(spans: List[list]) -> Dict[str, float]:
    """Summed self time per span name (inclusive for overlay spans)."""
    out: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] += own
    return dict(out)


def durations_by_name(spans: List[list], name: str) -> List[float]:
    return [e - s for n, s, e, _p, _o in spans if n == name]
