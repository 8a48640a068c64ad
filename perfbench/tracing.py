"""Call timing and in-memory spans for the benchmark's calls into bitableaux.

One ``Recorder`` lives in each worker process.  With tracing off it only
times the top-level calls, which gives the per-call latencies of the
end-to-end metrics, and samples the host's pace between them (pace.py).
With tracing on it also keeps one span per call
(name, start, end, parent index); the worker writes them out when it ends.
Spans wrap calls made from the benchmark's own files; nothing inside the
package is instrumented.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from pace import Meter

LAYERS = ("kernels", "symfunc", "crystal", "bitableau", "graphs", "completion", "kron_tableaux", "cli")


class Recorder:
    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.meter = Meter()
        self.top: list[tuple[float, float]] = []  # (start, end) of each top-level call
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def call(self, name: str, fn, *args):
        """Run fn(*args) as one timed call named ``layer.function``."""
        top = not self._stack
        if top:
            self.meter.maybe_sample()
        idx = self._open(name) if self.tracing else -1
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            if self.tracing:
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if top:
                self.top.append((start, end))

    def paced_latencies(self) -> list[float]:
        """Each top-level call's duration in paced seconds (pace.py)."""
        self.meter.maybe_sample()  # the samples owed after the last call
        return [(end - start) * self.meter.scale(start, end) for start, end in self.top]

    @contextmanager
    def group(self, name: str):
        """A span around several calls, which become its children."""
        idx = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = perf_counter()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent never overlap (one thread), so their durations
    simply add up.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _) in enumerate(spans)]


