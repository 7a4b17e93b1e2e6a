"""Reference loop that measures how fast the machine runs while the benchmark runs.

On the shared two-core machine this benchmark was written on, plain
Python code switches between two speeds about 1.8x apart, in stretches
of a second to over a minute, longer than a whole run, so raw times of
identical runs spread 30-50%. A fixed slice of interpreter work
(slotted objects, dict and list operations, string formatting and
splitting, a small sort), none of it from planlens, is timed between
ops, at most once per INTERVAL_S of run time. Each op's latency is
scaled by the speed of the slices timed around it:

    reported time = measured time * REFERENCE_S / median of the nearest slices

so an op timed in a slow stretch reads about as one in a quiet stretch,
while a slower program is slower against the same slices and still
shows. Set-up, a one-off in a fresh process, is scaled the same way by
a burst of slices timed right after it. The report prints the raw
figures and the factors next to the scaled ones.
"""

from __future__ import annotations

import bisect
import time

REFERENCE_S = 0.0007  # a slice's time between ops, in a slow stretch
INTERVAL_S = 0.05  # least run time between two slices
NEAREST = 2  # slices on each side of an op that set its factor
SLICE_ITERATIONS = 400
_TABLE_SIZE = 2000


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_node):
        self.key = key
        self.value = value
        self.next = next_node


class ReferenceLoop:
    def __init__(self):
        self._table = {f"k{i:06d}": i for i in range(_TABLE_SIZE)}
        self._keys = list(self._table)
        self._cursor = 0
        self._last = time.perf_counter()
        self.samples: list[float] = []
        self.after_op: list[int] = []  # index of the op each slice followed
        self.total_s = 0.0  # time spent in slices, to take out of batch times

    def _slice(self) -> int:
        keys, table, n = self._keys, self._table, _TABLE_SIZE
        acc, head, counts = 0, None, {}
        for i in range(SLICE_ITERATIONS):
            key = keys[(self._cursor + i * 7919) % n]
            acc += table[key]
            head = _Node(key, i, head)
            counts[key[-3:]] = counts.get(key[-3:], 0) + 1
            acc += len(f"{key}:{i}".split(":"))
        self._cursor = (self._cursor + SLICE_ITERATIONS * 7919) % n
        return acc + len(sorted(counts.items()))

    def _timed_slice(self) -> float:
        start = time.perf_counter()
        self._slice()
        self._last = time.perf_counter()
        return self._last - start

    def maybe(self, op_index: int) -> None:
        """Time one slice after op `op_index` if INTERVAL_S has passed since the last."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self._record(op_index)

    def _record(self, op_index: int) -> None:
        spent = self._timed_slice()
        self.samples.append(spent)
        self.after_op.append(op_index)
        self.total_s += spent

    def burst_factor(self, slices: int) -> float:
        """Factor from `slices` slices timed now, back to back."""
        return REFERENCE_S / _median([self._timed_slice() for _ in range(slices)])

    def factors(self, n_ops: int) -> list[float]:
        """Per op: REFERENCE_S over the median of the NEAREST slices on each side."""
        if not self.samples:
            self._record(n_ops - 1)
        out = []
        for i in range(n_ops):
            k = bisect.bisect_left(self.after_op, i)
            out.append(REFERENCE_S / _median(self.samples[max(0, k - NEAREST) : k + NEAREST]))
        return out


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0
