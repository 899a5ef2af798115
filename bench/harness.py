"""Shared pieces of the benchmark: span recorder, statistics, the timed loop
and the environment record.

Spans are recorded by the benchmark's own code around each call it makes
into a layer of ``hfcalc``; nothing inside the program is instrumented.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# How every hfcalc process is started: no console script is assumed to be
# installed, so the module is run from the checkout's source tree.
CLI_PREFIX = [sys.executable, "-m", "hfcalc.cli"]
CLI_INVOCATION = "python -m hfcalc.cli (PYTHONPATH=src, cwd=checkout root)"


def spec() -> dict:
    """BENCHMARK.json: the workloads, and each metric's name, unit and direction."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cli_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HFCALC_AJ_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


# -- spans -------------------------------------------------------------------------


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def fail(self):
        pass


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        # [name, start, end, parent index, op id, failed]
        self.rec = [name, 0.0, 0.0, parent, tracer.op_id, False]

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.rec[2] = time.perf_counter()
        if exc_type is not None:
            self.rec[5] = True
        self.tracer.stack.pop()
        return False

    def fail(self):
        self.rec[5] = True


class Tracer:
    """In-memory span recorder; ``span`` is a no-op while ``enabled`` is off."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def summary(self, key, keep=lambda rec: True) -> dict:
        """Calls, failed calls and self time (s) of the kept spans, grouped
        by ``key(name)``.  A span's self time is its duration minus the time
        its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _failed in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for rec, child in zip(self.spans, child_time):
            if not keep(rec):
                continue
            name, start, end, _parent, _op, failed = rec
            row = out.setdefault(key(name), {"calls": 0, "failed": 0, "self_s": 0.0})
            row["calls"] += 1
            row["failed"] += int(failed)
            row["self_s"] += end - start - child
        return out


# -- statistics ----------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def nearest_rank(sorted_values: list, pct: float) -> float:
    """Value at percentile ``pct`` (nearest rank)."""
    n = len(sorted_values)
    return sorted_values[max(0, min(n - 1, math.ceil(pct / 100.0 * n) - 1))]


def loglog_slope(sizes, times) -> float:
    """Least-squares exponent k in time ~ size^k."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# -- host speed ----------------------------------------------------------------------

# The shared host slows each core by up to 2x, independently, in spells from
# under a second to minutes, and the program slows with it.  The benchmark
# reads a fixed piece of work outside the program (a reference) through
# every run and states op times at the reference speed: an op's measured
# time times the reference's full-speed reading over the mean reading
# within the reference's window of the op.  The full-speed readings were
# taken on the machine the bounds were set on (Intel Xeon, 2 vCPUs), so
# there the figures are milliseconds at full speed.

# The cores this process may run on, read before it pins itself to one.
CORES = sorted(os.sched_getaffinity(0))


def _reference_work() -> int:
    acc = 0
    slots = {}
    for i in range(3000):
        slots[i & 63] = acc
        acc = (acc * 31 + i) % 1000003
    return acc


def reference_ms() -> float:
    """One reading of the loop reference: three runs of the loop, in ms."""
    t0 = time.perf_counter()
    for _ in range(3):
        _reference_work()
    return (time.perf_counter() - t0) * 1e3


class Reference:
    """A reference: ``read()`` times it in ms, ``full_speed_ms`` is that time
    at full speed, it is read at most every ``every_s`` seconds, an op is
    scaled by the readings within ``window_s`` of it, and ``per_op``
    combines the scaled times of an op's runs into the op's time."""

    def __init__(self, read, full_speed_ms: float, every_s: float, window_s: float, per_op):
        self.read = read
        self.full_speed_ms = full_speed_ms
        self.every_s = every_s
        self.window_s = window_s
        self.per_op = per_op


# The reference for ops run inside the workload process.  Its readings are
# dense, so the scale is smooth and an op's fastest run is its best estimate.
LOOP = Reference(reference_ms, full_speed_ms=1.10, every_s=0.05, window_s=1.0, per_op=min)


def pin_quietest_core() -> None:
    """Pin this process, and the processes it starts, to the core on which
    the loop reference runs fastest now."""
    speed = {}
    for core in CORES:
        os.sched_setaffinity(0, {core})
        speed[core] = min(reference_ms() for _ in range(2))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class HostSpeed:
    """Readings of a reference, with the time of each."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.times: list[float] = []
        self.readings: list[float] = []

    def read(self) -> None:
        self.times.append(time.monotonic())
        self.readings.append(self.reference.read())

    def scale(self, t: float) -> float:
        """The full-speed reading over the mean reading near time t."""
        window = self.reference.window_s
        lo = bisect.bisect_left(self.times, t - window)
        hi = bisect.bisect_right(self.times, t + window)
        if lo == hi:  # no reading that close: the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return self.reference.full_speed_ms / statistics.fmean(self.readings[lo:hi])


# -- the timed loop -----------------------------------------------------------------


class Op:
    """One operation: ``run(tracer)`` is timed, ``check(result, error)`` is not.

    ``check`` returns None when the result is correct, ``("known", name)``
    for a listed known defect, or ``("fail", detail)``.  ``key(result)``,
    if given, is what later runs of the op must reproduce once ``check``
    has passed a run: the program is deterministic, so a later run is
    correct exactly when it gives the same output as the checked one."""

    __slots__ = ("kind", "run", "check", "key")

    def __init__(self, kind, run, check, key=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.key = key


def _digest(key) -> bytes:
    return hashlib.sha256(repr(key).encode()).digest()


def timed_loop(pool: list, seconds: float, tracer: Tracer, alternate: bool, speed: HostSpeed) -> list[tuple]:
    """Closed loop, one client: run the ops of the pool in turn, pass after
    pass, for ``seconds``.  Before an op the loop reads the reference if
    its interval has passed since the last reading, and moves to the
    quietest core if a second has passed since the last move.

    The pool may hold an op more than once.  Each record is (index of the
    op among the pool's distinct ops, kind, op seconds at the reference
    speed, verdict, traced, op seconds as measured).  With ``alternate``
    every second op is traced, shifted by one on each pass, so each op runs
    both traced and untraced, and the two halves see the same mix of kinds
    and the same machine state."""
    distinct: dict = {}
    index = [distinct.setdefault(id(op), len(distinct)) for op in pool]
    records = []
    checked: dict = {}  # op index -> digest of the key of its checked output
    stop = time.monotonic() + seconds
    repin = read_at = 0.0
    for i in itertools.count():
        now = time.monotonic()
        if now >= stop:
            break
        if now >= repin:
            pin_quietest_core()
            repin = time.monotonic() + 1.0
        if now >= read_at:
            speed.read()
            read_at = time.monotonic() + speed.reference.every_s
        slot = i % len(pool)
        op = pool[slot]
        traced = alternate and (slot + i // len(pool)) % 2 == 1
        slot = index[slot]
        tracer.enabled = traced
        tracer.op_id = i
        result = error = None
        with tracer.span("op." + op.kind):
            started = time.monotonic()
            t0 = time.perf_counter()
            try:
                result = op.run(tracer)
            except Exception as exc:  # the verdict below reports it
                error = exc
            dt = time.perf_counter() - t0
        tracer.enabled = False
        try:
            if slot in checked and error is None:
                same = _digest(op.key(result)) == checked[slot]
                verdict = None if same else ("fail", f"{op.kind}: output differs from its first, checked run")
            else:
                verdict = op.check(result, error)
                if verdict is None and error is None and op.key is not None:
                    checked[slot] = _digest(op.key(result))
        except Exception as exc:  # a check that cannot evaluate counts as a failure
            verdict = ("fail", f"check raised {exc!r}")
        records.append((slot, op.kind, dt, verdict, traced, started + dt / 2))
    speed.read()
    return [(i, kind, dt * speed.scale(mid), verdict, traced, dt) for i, kind, dt, verdict, traced, mid in records]


# -- environment record ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if ref.startswith("ref: "):
        try:
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        except OSError:
            return f"unresolved {ref[5:]}"
    return ref


def environment() -> dict:
    import mpmath

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(CORES),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": _git_commit(),
        "cli_invocation": CLI_INVOCATION,
    }


# -- seeded parameter sequences ---------------------------------------------------------

# The R2 sequence: steps 1/g and 1/g^2 for the plastic number g give a
# low-discrepancy sequence in the unit square.
_PLASTIC = 1.32471795724474602596
_STEP = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)


class Kronecker:
    """Low-discrepancy points in [0, 1)^2, the same for every seed.

    Input sizes come from these points, so every seed draws ops of the same
    sizes and the figures of different seeds compare; the seed draws the
    rest (cells, theories, coefficients, order).  The offset puts the first
    two points symmetric about the centre, so a pool of two rounds holds
    each kind at a low and a high size, and every longer prefix covers the
    square evenly.  Each call advances to the next point and returns its
    first coordinate; ``second`` reads the second coordinate of the same
    point."""

    # Points 1 and 2 sum to 1 in each coordinate.
    OFFSET = tuple(((1.0 - 3.0 * step) / 2.0) % 1.0 for step in _STEP)

    def __init__(self):
        self.i = 0

    def __call__(self) -> float:
        self.i += 1
        return (self.OFFSET[0] + self.i * _STEP[0]) % 1.0

    def second(self) -> float:
        return (self.OFFSET[1] + self.i * _STEP[1]) % 1.0

    @staticmethod
    def _scale(x: float, lo: int, hi: int) -> int:
        return lo + min(hi - lo, int(x * (hi - lo + 1)))

    def int(self, lo: int, hi: int) -> int:
        return self._scale(self(), lo, hi)

    def second_int(self, lo: int, hi: int) -> int:
        return self._scale(self.second(), lo, hi)

    def log_uniform(self, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** self()


def schedule(rng, weights: dict):
    """Endless rounds; each round holds every kind ``weights[kind]`` times,
    in a seeded order, so every run sees the same mix of kinds."""
    slots = [kind for kind, w in weights.items() for _ in range(w)]
    while True:
        rng.shuffle(slots)
        yield from slots
