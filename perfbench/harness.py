"""Rounds, timing, checking and metrics shared by the workloads.

A workload is a list of slots plus one fresh-process request.  A slot is a
short fixed list of operations timed together; one round runs every slot
once and then the process request, and a run repeats whole rounds until
its time is up, so every run attempts the same operations in the same
proportions.  Each operation's result is checked against the oracles on
the first round; later rounds must reproduce the first round's results.
The first round's checks run in a forked child, so the oracles' memory
stays out of the peak resident size this process reports.

Times are taken on a :class:`Clock` that scales wall time to a reference
speed: the host this benchmark was built on shifts between a fast and a
slow state (by up to 2x) for seconds at a time, because other tenants
share its cores, so a fixed calibration loop is timed between slots and
every sample is divided by the calibration times around it.  A throughput
is the operations of a round over the sum, across slots, of each slot's
median scaled time over the rounds.
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter


@dataclass
class Op:
    fn: object
    args: tuple
    check: object = None         # check(result) on the first round
    summary: object = None       # summary(result): what later rounds must reproduce


@dataclass
class Slot:
    side: str                    # "ops" or "query": the throughput it feeds
    ops: list


@dataclass
class Process:
    """One fresh ``python -m cofmap`` per round."""
    argv: list
    check: object                # check(returncode, stdout, stderr) on the first round


@dataclass
class Plan:
    slots: list
    process: Process


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc):
        self.kind = type(exc).__name__

    def __eq__(self, other):
        return isinstance(other, Failed) and other.kind == self.kind

    def __repr__(self):
        return f"Failed({self.kind})"


CAL_EVERY_S = 0.02
CAL_REF_S = 0.001     # the reference speed: the calibration loop takes 1 ms


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _step(p, q):
    return _Pair((p.a + q.b) % 1000, (p.b, q.a))


_SCAN = tuple(range(0, 4200, 2))


def _calibration_loop():
    # integer arithmetic, calls with small allocations, and scans along a
    # tuple: of the mixes tried, this one tracked the library's speed best
    x = 0
    for i in range(2100):
        x += i * i % 7
    p = _Pair(1, 2)
    for i in range(350):
        p = _step(p, _Pair(i, i))
    for _ in range(8):
        for q in _SCAN:
            if q > 2100:
                break
            x += 1
    return x, p


class Clock:
    """Wall-time samples, scaled by the calibration loop timed around them."""

    def __init__(self):
        self.marks = []      # (when, calibration loop seconds), in time order

    def calibrate(self, force=False):
        now = perf_counter()
        if force or not self.marks or now - self.marks[-1][0] >= CAL_EVERY_S:
            _calibration_loop()
            self.marks.append((now, perf_counter() - now))

    def scaled(self, start, end):
        """``end - start`` in seconds at the reference speed; needs a mark
        taken before ``start`` and one after ``end``."""
        i = bisect_right(self.marks, (start, float("inf"))) - 1
        j = bisect_left(self.marks, (end, -1.0))
        around = (self._smoothed(i) + self._smoothed(j)) / 2
        return (end - start) * CAL_REF_S / around

    def _smoothed(self, k):
        # the median of three neighbouring marks, so that one preempted
        # calibration does not rescale the samples next to it
        return median(c for _, c in self.marks[max(0, k - 1):k + 2])

    def factor(self):
        """Reference seconds per wall second, over the whole run."""
        return CAL_REF_S / median(c for _, c in self.marks)


def _run_slot(slot, tracer, op_id):
    out = []
    if tracer is None:
        start = perf_counter()
        for op in slot.ops:
            try:
                out.append(op.fn(*op.args))
            except Exception as exc:  # a failed operation is counted, not fatal
                out.append(Failed(exc))
        return start, perf_counter(), out
    start = perf_counter()
    for op in slot.ops:
        tracer.op = op_id
        op_id += 1
        try:
            out.append(tracer.call("op", op.fn, *op.args))
        except Exception as exc:
            out.append(Failed(exc))
    return start, perf_counter(), out


def _summary(op, result):
    if isinstance(result, Failed) or op.summary is None:
        return result
    return op.summary(result)


IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*cofmap\.cli$")


def run_process(root, proc: Process, trace: bool):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "COFMAP_OUTPUT")}
    env["PYTHONPATH"] = str(root / "src")
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), "-m", "cofmap", *proc.argv]
    start = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=root, timeout=120)
    end = perf_counter()
    import_s = None
    if trace:
        lines = [m for m in map(IMPORT_LINE.search, done.stderr.splitlines()) if m]
        import_s = int(lines[-1].group(1)) / 1e6 if lines else None
        stderr = "\n".join(s for s in done.stderr.splitlines() if not s.startswith("import time:"))
    else:
        stderr = done.stderr
    return start, end, import_s, (done.returncode, done.stdout, stderr)


def _problems(checks):
    """Run ``(label, check, *args)`` checks; the failures, as lines."""
    out = []
    for label, check, *args in checks:
        try:
            check(*args)
        except Exception as exc:  # a malformed output is a failed check, like a wrong one
            out.append(f"{label}: {type(exc).__name__}: {exc}")
    return out


def check_apart(checks):
    """:func:`_problems` in a forked child, which exits when done."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            data = json.dumps(_problems(checks)).encode()
        except BaseException as exc:  # the child must reach os._exit whatever happens
            data = json.dumps([f"checking raised {exc!r}"]).encode()
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else ["the checking process died"]


@dataclass
class Result:
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def measure(plan: Plan, seconds: float, root, clock: Clock, tracer=None) -> Result:
    res = Result()
    slots = plan.slots
    times = [[] for _ in slots]
    first = [None] * len(slots)
    proc_times, import_times = [], []
    first_output = None
    ops_per_round = sum(len(s.ops) for s in slots) + 1
    op_id = 0
    start = perf_counter()
    while res.rounds == 0 or perf_counter() - start < seconds:
        for i, slot in enumerate(slots):
            clock.calibrate()
            t0, t1, out = _run_slot(slot, tracer, op_id)
            op_id += len(slot.ops)
            times[i].append((t0, t1))
            res.failed += sum(isinstance(r, Failed) for r in out)
            summary = [_summary(op, r) for op, r in zip(slot.ops, out)]
            if first[i] is None:
                first[i] = summary
                res.problems += check_apart(
                    [(f"{getattr(op.fn, '__name__', 'op')}{op.args!r:.80}", op.check, r)
                     for op, r in zip(slot.ops, out) if op.check is not None and not isinstance(r, Failed)])
            elif summary != first[i]:
                res.problems.append(f"slot {i} gave different results on round {res.rounds}")
            del out, summary
        clock.calibrate()
        label = f"process {plan.process.argv[:2]!r:.80}"
        try:
            t0, t1, import_s, output = run_process(root, plan.process, tracer is not None)
        except subprocess.TimeoutExpired as exc:
            res.problems.append(f"{label}: {exc}")
            res.failed += 1
        else:
            proc_times.append((t0, t1))
            if import_s is not None:
                import_times.append(import_s)
            if first_output is None:
                first_output = output
                res.problems += check_apart([(label, plan.process.check, *output)])
            elif output != first_output:
                res.problems.append(f"{label} gave different output on round {res.rounds}")
        res.rounds += 1
    clock.calibrate(force=True)
    res.attempted = res.rounds * ops_per_round
    times = [[clock.scaled(*t) for t in ts] for ts in times]
    proc_times = [clock.scaled(*t) for t in proc_times]

    ok = [[not isinstance(r, Failed) for r in f] for f in first]
    rates = {}
    for side in ("ops", "query"):
        idx = [i for i, s in enumerate(slots) if s.side == side]
        done = sum(sum(ok[i]) for i in idx)
        busy = sum(median(times[i]) for i in idx)
        rates[side] = done / busy if busy > 0 else 0.0
    res.metrics = {
        "ops_per_s": (rates["ops"], "ops/s"),
        "query_per_s": (rates["query"], "queries/s"),
        "process_ms": (1e3 * median(proc_times) if proc_times else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if import_times:
        res.metrics["cli.import_s"] = (median(import_times) * clock.factor(), "s")
    return res
