"""Spans and counters recorded by wrappers installed from outside the program.

A :class:`Tracer` replaces functions and methods of gridfog modules with
wrappers and restores the originals on ``close``.  A spanned call records
(name, start, end, parent span, request id) in compact arrays and adds its
duration to per-name totals; a counted call only bumps a counter, which is
how the hottest calls are measured without a span each.  Self time is a
span's duration minus the time its child spans cover, kept online with a
stack because the simulator is single-threaded.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

_MISSING = object()


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.request_ids: list[str] = []
        self._request_ix: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ patching
    def patch(self, owners, attr: str, make) -> None:
        """Replace ``attr`` on every owner (modules or classes) by one wrapper.

        ``make(original)`` builds the wrapper.  Every owner must hold the
        same original object, so a name imported into several modules is
        wrapped once and counted once, wherever it is looked up.
        """
        originals = [vars(owner).get(attr, _MISSING) for owner in owners]
        first = originals[0]
        if first is _MISSING or any(o is not first for o in originals):
            raise RuntimeError(f"{attr}: not one shared definition in {owners}")
        wrapper = make(first)
        for owner in owners:
            self._saved.append((owner, attr, first))
            setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ wrappers
    def spanned(self, name: str, request_of=None, before=None, after=None):
        """Wrapper factory recording one span per call.

        ``request_of(*args, **kwargs)`` names the request the call serves,
        or None.  ``before(*args, **kwargs)`` runs ahead of the call and its
        value is handed to ``after(state, result, *args, **kwargs)``, which
        runs once the span is closed, outside the timed interval.
        """
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.span_names):
            self.span_names.append(name)
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s
        starts, ends, names, parents, requests = (
            self.start, self.end, self.name, self.parent, self.request
        )
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rid = -1
                if request_of is not None:
                    rid = self._request_index(request_of(*args, **kwargs))
                state = before(*args, **kwargs) if before is not None else None
                pos = len(starts)
                starts.append(0.0)
                ends.append(0.0)
                names.append(name_id)
                parents.append(stack[-1][0] if stack else -1)
                requests.append(rid)
                frame = [pos, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    starts[pos] = t0
                    ends[pos] = t1
                    calls[name] += 1
                    total_s[name] += dur
                    self_s[name] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                if after is not None:
                    after(state, result, *args, **kwargs)
                return result

            return wrapper

        return make

    def counted(self, name: str, after=None):
        """Wrapper factory that only counts calls; ``after`` may see results."""
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        return make

    def _request_index(self, request_id) -> int:
        if request_id is None:
            return -1
        ix = self._request_ix.get(request_id)
        if ix is None:
            ix = self._request_ix[request_id] = len(self.request_ids)
            self.request_ids.append(request_id)
        return ix

    # -------------------------------------------------------------- output
    @property
    def span_count(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Write the spans as binary columns plus a JSON index beside them.

        ``<path>.json`` holds the name and request-id tables and the column
        layout; ``<path>.<column>`` holds each column as native machine values
        (``array.tofile``), in span order.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {"start": self.start, "end": self.end, "name": self.name,
                   "parent": self.parent, "request": self.request}
        for column, values in columns.items():
            with open(f"{path}.{column}", "wb") as handle:
                values.tofile(handle)
        index = {
            "spans": self.span_count,
            "columns": {c: v.typecode for c, v in columns.items()},
            "names": self.span_names,
            "request_ids": self.request_ids,
        }
        Path(f"{path}.json").write_text(json.dumps(index) + "\n")
