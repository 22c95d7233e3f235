"""Span recording, host-speed calibration, correctness tallies and statistics.

Every public call the benchmark makes into the package runs inside
`Recorder.span`.  A span has a name, start, end, parent span and operation:
"setup-<i>" for the i-th set-up, "round-<j>" for the j-th measured round.
Spans are kept in memory and, under tracing, written out when the run ends.

Host-speed calibration.  On a shared host the speed of the CPU drifts by
tens of percent over seconds, alike for wall and CPU time, as neighbours
come and go.  Between top-level spans the recorder times a fixed pure-Python
reference loop (at most every CALIBRATION_INTERVAL seconds, never inside a
span).  Spans of interpreter-bound work are scaled by REFERENCE_SECONDS over
the reference time measured just before and just after them, so they read
as seconds at the speed where the reference loop takes REFERENCE_SECONDS,
about its median on the 2-core Xeon host where the benchmark was defined.
Scaling cuts the run-to-run spread of step rates from about 25% to 3% there.
Spans in RAW_SPANS are dominated by BLAS products, whose speed does not
follow the reference (scaling doubled the spread of matrix-product times),
so they are reported in wall seconds.  The scale
factors are recorded with each result.
"""

from __future__ import annotations

import bisect
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from random import Random

PHASES = ("setup", "round")
RAW_SPANS = frozenset({"analysis.mixing", "analysis.balance"})
REFERENCE_SECONDS = 0.0015
CALIBRATION_INTERVAL = 0.1


def reference_work() -> int:
    """Fixed interpreter work like the step loop: tuples, RNG, dict probes."""
    rng = Random(12345)
    state = (0,) * 32
    seen = {}
    acc = 0
    for i in range(1000):
        v = rng.randrange(32)
        state = state[:v] + (1 - state[v],) + state[v + 1:]
        seen[state] = i
        acc += len(seen) & 1
    return acc


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[dict] = []
        self.ops: dict[str, list[str]] = {phase: [] for phase in PHASES}
        self.op = None
        self.counts: dict[tuple[str, str], int] = {}
        # per-step layers: name -> [reference seconds, calls]; ratios: [hits, tries]
        self.step_time: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.ratios: dict[str, list] = defaultdict(lambda: [0, 0])
        self.attempted = 0
        self.failed = 0
        self._stack: list[int] = []
        self._ref_t: list[float] = []
        self._ref_d: list[float] = []
        self._t0 = time.perf_counter()
        self.calibrate()

    # -- calibration ------------------------------------------------------

    def calibrate(self) -> None:
        start = time.perf_counter()
        durations = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            durations.append(time.perf_counter() - t0)
        self._ref_t.append(start)
        self._ref_d.append(statistics.median(durations))

    def _tick(self) -> None:
        if time.perf_counter() - self._ref_t[-1] >= CALIBRATION_INTERVAL:
            self.calibrate()

    def scale(self, span: dict) -> float:
        """Factor from wall seconds in a span to reference seconds."""
        i = bisect.bisect_right(self._ref_t, span["start"]) - 1
        j = bisect.bisect_left(self._ref_t, span["end"])
        near = [self._ref_d[k] for k in (i, j) if 0 <= k < len(self._ref_d)]
        return REFERENCE_SECONDS / statistics.mean(near)

    def seconds(self, span: dict) -> float:
        wall = span["end"] - span["start"]
        return wall if span["name"] in RAW_SPANS else wall * self.scale(span)

    def scales(self) -> list[float]:
        return [REFERENCE_SECONDS / d for d in self._ref_d]

    # -- phases and spans -------------------------------------------------

    def begin(self, phase: str) -> str:
        self.op = f"{phase}-{len(self.ops[phase])}"
        self.ops[phase].append(self.op)
        return self.op

    @contextmanager
    def span(self, name: str):
        """Time a block; yields its record, complete once the block exits."""
        if not self._stack:
            self._tick()
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if not self._stack:
                self._tick()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def last(self, name: str) -> dict:
        return next(s for s in reversed(self.spans) if s["name"] == name)

    def count(self, name: str, value: int) -> None:
        """Record a count for the current operation; it must repeat exactly."""
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def finish(self) -> None:
        """Calibrate once more so the last span has a reference after it."""
        self.calibrate()

    # -- correctness ------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok

    @contextmanager
    def attempt(self, what: str):
        """One operation; an exception it raises counts as a failure."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"OPERATION FAILED: {what}", file=sys.stderr)
            traceback.print_exc()

    # -- summaries --------------------------------------------------------

    def _by_op(self, keep) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if keep(s):
                totals[s["op"]] += self.seconds(s)
        return totals

    def per_op(self, phase: str, *names: str) -> list[float]:
        """Time in the named spans for each operation of a phase.

        With no names, the time in all top-level spans: a set-up's time.
        """
        if names:
            totals = self._by_op(lambda s: s["name"] in names)
        else:
            totals = self._by_op(lambda s: s["parent"] is None)
        return [totals.get(op, 0.0) for op in self.ops[phase]]

    def layer_seconds(self, name: str) -> float:
        """Median time per operation that uses the layer, summed over phases.

        This is the layer's share of one set-up plus one round, the units
        in which `setup_s` and the round-level metrics are reported.
        """
        totals = self._by_op(lambda s: s["name"] == name)
        return sum(statistics.median(used) for phase in PHASES
                   if (used := [totals[op] for op in self.ops[phase] if op in totals]))

    def layer_count(self, name: str) -> int:
        """Count from the first operation of each phase; all must agree."""
        total = 0
        for phase in PHASES:
            values = [self.counts[op, name] for op in self.ops[phase]
                      if (op, name) in self.counts]
            if values:
                self.check(len(set(values)) == 1,
                           f"count {name} differs between {phase} repetitions: {values}")
                total += values[0]
        return total

    def per_call_us(self, name: str) -> float:
        seconds, calls = self.step_time[name]
        return 1e6 * seconds / calls if calls else 0.0

    def ratio(self, name: str) -> float:
        hits, tries = self.ratios[name]
        return hits / tries if tries else 0.0

    def write_spans(self, path) -> None:
        spans = [dict(s, start=s["start"] - self._t0, end=s["end"] - self._t0,
                      scale=self.scale(s)) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"ops": self.ops, "spans": spans}, fh)


def tail_percentile(samples, better: str):
    """Worst-side percentile with at least ten samples beyond it, or None.

    For lower-is-better metrics that is the highest such percentile, for
    higher-is-better ones the lowest.  Returns (percentile, value).
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None
    i = n - 11 if better == "lower" else 10
    return round(100 * i / (n - 1)), xs[i]


def describe(samples, unit: str, better: str) -> str:
    xs = list(samples)
    text = f"median {statistics.median(xs):.6g} {unit}"
    tail = tail_percentile(xs, better)
    if tail is not None:
        text += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return text + f", n={len(xs)}"
