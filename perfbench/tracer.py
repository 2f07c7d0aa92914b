"""Span tracing from outside the library, including its fork-pool workers.

Each traced function is replaced at the place its caller looks it up (a
module attribute or a class attribute) by a wrapper that records one span:
name, id, parent id, pid, run id, start, end and the number of points in the
call.  Every process appends its spans to its own file, one JSON line per
span, written with a single unbuffered ``os.write`` before the wrapped call
returns.  Pool workers are forked from the parent while a span is open, so
they inherit the installed wrappers, the run id and the open span stack, and
their spans reach the parent through the files even though the pool
terminates its workers.  ``perf_counter`` reads the system-wide monotonic
clock, so spans from different processes share one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run = None
        self._stack: list[str] = []
        self._seq = 0
        self._pid = None
        self._fd = None
        self._originals: list[tuple[object, str, object]] = []

    def _emit(self, record: dict) -> None:
        pid = os.getpid()
        if pid != self._pid:  # first span in this process (or in a fresh fork)
            path = self.directory / f"spans-{pid}.jsonl"
            self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            self._pid = pid
        os.write(self._fd, (json.dumps(record) + "\n").encode())

    def wrap(self, fn, name: str, points):
        """Wrapper around fn recording a span; points(args, kwargs) counts the batch."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._seq += 1
            span_id = f"{os.getpid()}.{self._seq}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._emit({
                    "name": name, "id": span_id, "parent": parent, "pid": os.getpid(),
                    "run": self.run, "start": start, "end": end,
                    "n": points(args, kwargs) if points else 1,
                })

        return traced

    def install(self, owner, attr: str, name: str, points=None) -> bool:
        """Replace owner.attr by its traced wrapper; False when owner has no such attribute."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None or not callable(fn):
            return False
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, points))
        return True

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def spans(self) -> list[dict]:
        out = []
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with open(path) as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
        return out


def batch_size(index: int, keyword: str):
    """Point counter: leading dimension of the positional argument index (or keyword)."""

    def count(args, kwargs) -> int:
        arr = args[index] if len(args) > index else kwargs[keyword]
        shape = getattr(arr, "shape", ())
        return int(shape[0]) if len(shape) > 1 else 1

    return count


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of interval covered by the union of the children intervals."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in children):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
