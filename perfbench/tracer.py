"""In-memory span recorder that times fedkg's public functions from outside.

A wrapper is installed on the attribute a caller looks up at call time
(`fedkg.server.sample_subgraph`, not `fedkg.kg.sample_subgraph`, because
server.py binds the name with `from .kg import ...`). Each call becomes a
span with a name, start, end, parent and (round, client) key; spans stay
in memory until the benchmark writes them once at the end.

Self time of a span is its duration minus the union of its children's
intervals. Children are the spans whose parent it is, on any thread: the
client legs of a `workers=2` round run on pool threads, take the round
span as their parent, and may overlap each other, so their union (not
their sum) is what the round spent waiting on them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    key: tuple | None  # (round, client) for client-leg spans, (round, None) inside a round
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "round": None if self.key is None else self.key[0],
                "client": None if self.key is None else self.key[1]}


@dataclass(frozen=True)
class Target:
    """One function to wrap: `owner.attr` becomes span `name`.

    `before(tracer, args, kwargs)` runs before the span opens;
    `count(tracer, args, kwargs, result)` adds deterministic counters after
    it closes. `leg` marks spans of one client's leg of a round; `round`
    marks the span that the pool threads' spans hang under. With
    `span=False` only `before` runs: no span, no counters.
    """

    owner: object
    attr: str
    name: str
    before: object = None
    count: object = None
    leg: bool = False
    round: bool = False
    span: bool = True


class Tracer:
    """Collects spans and counters; `install` patches targets, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.fired: dict[str, int] = defaultdict(int)  # "owner.attr" -> calls
        self.round: int | None = None
        self.round_span: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, leg: bool = False) -> tuple[int, int | None, tuple | None, float]:
        stack = self._stack()
        # A pool thread starts with an empty stack; its spans belong to the round.
        parent = stack[-1] if stack else self.round_span
        key = None
        if self.round is not None:
            key = (self.round, getattr(self._local, "client", None) if leg else None)
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent, key, time.perf_counter()

    def close(self, name: str, token) -> None:
        end = time.perf_counter()
        sid, parent, key, start = token
        self._stack().pop()
        span = Span(sid, name, start, end, parent, key, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    def set_client(self, client_id: int) -> None:
        """Mark the calling thread as running `client_id`'s leg of the current round."""
        self._local.client = client_id

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- patching ----------------------------------------------------------
    def install(self, targets) -> None:
        for target in targets:
            raw = target.owner.__dict__[target.attr] if isinstance(target.owner, type) \
                else getattr(target.owner, target.attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._patched.append((target.owner, target.attr, raw))
            setattr(target.owner, target.attr, wrapped)
            if target.span:
                self.fired.setdefault(_label(target), 0)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, target: Target):
        label = _label(target)
        if not target.span:
            @functools.wraps(fn)
            def hook(*args, **kwargs):
                target.before(self, args, kwargs)
                return fn(*args, **kwargs)
            return hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.before is not None:
                target.before(self, args, kwargs)
            token = self.open(target.leg)
            if target.round:
                self.round_span = token[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(target.name, token)
                if target.round:
                    self.round = self.round_span = None
                with self._lock:
                    self.fired[label] += 1
            if target.count is not None:
                target.count(self, args, kwargs, result)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        return {s.sid: s.duration - covered(s.start, s.end, children.get(s.sid, []))
                for s in self.spans}

    def self_ms_by_name(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += selfs[s.sid] * 1e3
        return out

    def calls_by_name(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return out

    def leg_ms(self, exclude: tuple[str, ...] = ()) -> list[float]:
        """Per (round, client) leg: first span start to last span end, in ms.

        Spans named in `exclude` (the forward replay) are subtracted, since
        the untraced leg never runs them.
        """
        bounds: dict[tuple, list[float]] = {}
        for s in self.spans:
            if s.key is None or s.key[1] is None:
                continue
            b = bounds.setdefault(s.key, [s.start, s.end, 0.0])
            b[0] = min(b[0], s.start)
            b[1] = max(b[1], s.end)
            if s.name in exclude:
                b[2] += s.duration
        return [(end - start - skip) * 1e3 for start, end, skip in bounds.values()]


def _label(target: Target) -> str:
    owner = target.owner
    prefix = owner.__name__ if isinstance(owner, type) else owner.__name__.rsplit(".", 1)[-1]
    return f"{prefix}.{target.attr}"


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it (50 if none)."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-9:  # n * (1 - p/100) >= 10, free of rounding
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
