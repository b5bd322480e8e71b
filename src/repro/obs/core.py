"""Structured tracing and metrics: spans, events, and the registry.

The module keeps exactly one piece of global state — the active
:class:`ObsState`, or ``None`` when observability is disabled — and
every public helper starts with that ``None`` check, so the disabled
path is a true no-op costing well under a microsecond per call (the
``benchmarks/test_perf_obs.py`` smoke gates it).  Nothing in the hot
simulation kernels calls into this module; instrumentation lives at
subsystem boundaries (job lifecycle, cache reads, chunk decodes, epoch
seals) where one event amortizes over milliseconds of work.

Span model
----------
A *trace* is one logical run (a campaign, a watch session) identified
by a random ``trace`` id; a *span* is one timed operation within it.
``with obs.span("engine.job", key=...)`` emits paired ``span-start`` /
``span-end`` records carrying the span id, its parent span id, and the
monotonic duration; spans nest through a per-state stack.  For
operations that start and finish in different stack frames (a job
submitted to a pool, completed in a wait loop), :func:`start_span`
returns a handle ended explicitly — those do not join the nesting
stack, but workers parent under them across the process boundary.

Cross-process propagation
-------------------------
:func:`current_context` captures ``(trace id, parent span id, sidecar
path)`` as a picklable dict; the engine ships it with each pool
submission and the worker wraps execution in :func:`adopt`, which
binds a process-local state to the same sidecar file — so worker-side
spans nest under their job's submit span in the one merged event log.

Enabling
--------
Disabled by default.  Programmatic: :func:`enable` / :func:`disable`
or the scoped :func:`session`.  Environment: ``$REPRO_OBS`` set to a
path enables a :class:`~repro.obs.sinks.JsonlSink` there at import
time, ``stderr`` (or ``1``) enables the live summary, ``0`` (or
unset) leaves observability off and additionally vetoes the campaign
runner's default events sidecar.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from typing import Any, Iterator, Mapping

from repro.obs.sinks import JsonlSink, Sink, StderrSummarySink

__all__ = [
    "ENV_VAR",
    "MetricRegistry",
    "ObsState",
    "SpanHandle",
    "adopt",
    "counter",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "get_registry",
    "histogram",
    "session",
    "span",
    "start_span",
]

#: Environment switch: a path (JSONL sink), ``stderr``/``1`` (live
#: summary), ``0``/unset (off; ``0`` also vetoes default sidecars).
ENV_VAR = "REPRO_OBS"

#: Histogram bucket for non-positive observations (log buckets only
#: cover v > 0).
_ZERO_BUCKET = -(1 << 30)


def _log_bucket(value: float) -> int:
    """The log2 bucket index holding ``value``: ``2**b <= v < 2**(b+1)``."""
    if value <= 0 or value != value:  # non-positive or NaN
        return _ZERO_BUCKET
    if math.isinf(value):
        return 1 << 30
    return math.frexp(value)[1] - 1


class MetricRegistry:
    """Process-local counters, gauges, and log-bucketed histograms.

    Every mutation has an exactly-equivalent event record, so replaying
    an event log through :func:`repro.obs.report.replay_metrics` yields
    a registry equal to the live one — the property the Hypothesis
    suite pins.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[int, int]] = {}

    def count(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Count ``value`` into histogram ``name``'s log2 bucket."""
        buckets = self.histograms.setdefault(name, {})
        b = _log_bucket(value)
        buckets[b] = buckets.get(b, 0) + 1

    def apply(self, metric: str, name: str, value: float) -> None:
        """Apply one metric event record (the replay entry point)."""
        if metric == "counter":
            self.count(name, value)
        elif metric == "gauge":
            self.set_gauge(name, value)
        elif metric == "hist":
            self.observe(name, value)
        else:
            raise ValueError(f"unknown metric kind {metric!r}")

    def snapshot(self) -> dict[str, Any]:
        """A JSON-friendly copy of every metric (stable key order)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: {str(b): n for b, n in sorted(buckets.items())}
                for name, buckets in sorted(self.histograms.items())
            },
        }


# One counter per process, shared by every state: a pool worker installs
# a fresh state per job (see ``adopt``), and its span ids must not repeat.
_SPAN_SEQ = itertools.count(1)


class ObsState:
    """The active configuration: sinks, registry, trace id, span stack."""

    def __init__(
        self,
        sinks: list[Sink],
        registry: MetricRegistry | None = None,
        trace_id: str | None = None,
        parent: str | None = None,
        owns_sinks: bool = True,
    ) -> None:
        self.sinks = list(sinks)
        self.registry = registry if registry is not None else MetricRegistry()
        self.trace_id = (
            trace_id if trace_id is not None else os.urandom(8).hex()
        )
        #: Adopted cross-process parent: the span local roots nest under.
        self.parent = parent
        self.stack: list[str] = []
        self.owns_sinks = owns_sinks
        self._pid = os.getpid()

    def new_span_id(self) -> str:
        """A process-unique span id (pid-tagged counter)."""
        return f"{self._pid:x}-{next(_SPAN_SEQ):x}"

    def current_span(self) -> str | None:
        """The innermost open nested span, else the adopted parent."""
        return self.stack[-1] if self.stack else self.parent

    def emit(self, record: dict) -> None:
        """Deliver one record to every sink."""
        for sink in self.sinks:
            sink.emit(record)

    def record(
        self, kind: str, name: str, fields: dict[str, Any] | None = None
    ) -> dict:
        """A base event record stamped with time/trace/current-span."""
        rec: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "trace": self.trace_id,
            "kind": kind,
            "name": name,
        }
        span_id = self.current_span()
        if span_id is not None:
            rec["span"] = span_id
        if fields:
            rec["fields"] = fields
        return rec

    def close(self) -> None:
        """Close owned sinks (adopted worker states keep theirs cached)."""
        if self.owns_sinks:
            for sink in self.sinks:
                sink.close()


# The one global: None == disabled == every helper is a no-op.
_STATE: ObsState | None = None

# Worker-side sink cache: adopting N jobs against one sidecar path must
# not open N file handles.
_ADOPTED_SINKS: dict[str, JsonlSink] = {}


def enabled() -> bool:
    """Whether observability is currently on."""
    return _STATE is not None


def get_registry() -> MetricRegistry | None:
    """The active registry, or None when disabled."""
    state = _STATE
    return state.registry if state is not None else None


def enable(
    sinks: list[Sink] | None = None,
    path: str | os.PathLike[str] | None = None,
    registry: MetricRegistry | None = None,
    trace_id: str | None = None,
    parent: str | None = None,
    stderr_summary: bool = False,
) -> ObsState:
    """Turn observability on (replacing any active state).

    Args:
        sinks: explicit sink list (not closed by :func:`disable` —
            the caller owns them — unless created here).
        path: convenience: append events to this JSONL file.
        registry: metric registry to mutate (default: a fresh one).
        trace_id / parent: adopt an existing trace instead of starting
            a new one (cross-process propagation).
        stderr_summary: add the live stderr summary sink.
    """
    global _STATE
    if _STATE is not None:
        disable()
    owned: list[Sink] = []
    caller_sinks = list(sinks) if sinks else []
    if path is not None:
        owned.append(JsonlSink(path))
    if stderr_summary:
        owned.append(StderrSummarySink())
    state = ObsState(
        caller_sinks + owned,
        registry=registry,
        trace_id=trace_id,
        parent=parent,
        owns_sinks=False,
    )
    # Only sinks this call created are closed on disable.
    state._owned_sinks = owned  # type: ignore[attr-defined]
    _STATE = state
    return state


def disable() -> None:
    """Turn observability off, closing sinks :func:`enable` created."""
    global _STATE
    state = _STATE
    _STATE = None
    if state is not None:
        for sink in getattr(state, "_owned_sinks", []):
            sink.close()


class session:
    """Scoped enablement: ``with obs.session(path=...):`` — restores on exit.

    Nested sessions are pass-throughs: when observability is already
    enabled the outer configuration (and its sidecar) stays active, so
    a campaign launched inside a user-level session logs into the
    user's trace rather than forking its own.  ``$REPRO_OBS=0`` vetoes
    the session entirely (the caller's default sidecar stays unwritten).
    """

    def __init__(
        self,
        sinks: list[Sink] | None = None,
        path: str | os.PathLike[str] | None = None,
        registry: MetricRegistry | None = None,
        stderr_summary: bool = False,
    ) -> None:
        self._sinks = sinks
        self._path = path
        self._registry = registry
        self._stderr = stderr_summary
        self._activated = False

    def __enter__(self) -> ObsState | None:
        if _STATE is not None or os.environ.get(ENV_VAR) == "0":
            return _STATE
        self._activated = True
        return enable(
            sinks=self._sinks,
            path=self._path,
            registry=self._registry,
            stderr_summary=self._stderr,
        )

    def __exit__(self, *exc: object) -> None:
        if self._activated:
            disable()


class SpanHandle:
    """An explicitly-ended span (pool submissions; see :func:`start_span`)."""

    __slots__ = ("_state", "name", "span_id", "fields", "_t0", "_ended")

    def __init__(
        self, state: ObsState, name: str, fields: dict[str, Any]
    ) -> None:
        self._state = state
        self.name = name
        self.fields = fields
        self.span_id = state.new_span_id()
        self._ended = False
        rec = state.record("span-start", name, fields or None)
        rec["span"] = self.span_id
        parent = state.current_span()
        if parent is not None:
            rec["parent"] = parent
        self._t0 = time.perf_counter()
        state.emit(rec)

    def note(self, **fields: Any) -> None:
        """Attach fields to the eventual ``span-end`` record."""
        self.fields.update(fields)

    def end(self, **fields: Any) -> None:
        """Emit the ``span-end`` (idempotent; later calls are ignored)."""
        if self._ended:
            return
        self._ended = True
        dur = time.perf_counter() - self._t0
        if fields:
            self.fields.update(fields)
        state = self._state
        rec = state.record("span-end", self.name, self.fields or None)
        rec["span"] = self.span_id
        rec["dur_s"] = round(dur, 9)
        state.emit(rec)


class _Span:
    """The ``with obs.span(...)`` context manager (nests via the stack)."""

    __slots__ = ("_state", "name", "fields", "span_id", "_t0")

    def __init__(
        self, state: ObsState, name: str, fields: dict[str, Any]
    ) -> None:
        self._state = state
        self.name = name
        self.fields = fields
        self.span_id = ""
        self._t0 = 0.0

    def note(self, **fields: Any) -> None:
        """Attach fields to the eventual ``span-end`` record."""
        self.fields.update(fields)

    def __enter__(self) -> "_Span":
        state = self._state
        self.span_id = state.new_span_id()
        rec = state.record("span-start", self.name, self.fields or None)
        parent = state.current_span()
        rec["span"] = self.span_id
        if parent is not None:
            rec["parent"] = parent
        state.stack.append(self.span_id)
        self._t0 = time.perf_counter()
        state.emit(rec)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        dur = time.perf_counter() - self._t0
        state = self._state
        if state.stack and state.stack[-1] == self.span_id:
            state.stack.pop()
        if exc is not None:
            self.fields["error"] = repr(exc)
        rec = state.record("span-end", self.name, self.fields or None)
        rec["span"] = self.span_id
        rec["dur_s"] = round(dur, 9)
        state.emit(rec)
        return False


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()
    span_id = ""

    def note(self, **fields: Any) -> None:
        return None

    def end(self, **fields: Any) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, **fields: Any) -> Any:
    """A timed, nested span; use as ``with obs.span("name", k=v):``.

    The context manager writes both records: ``span-start`` on entry and
    ``span-end`` on exit.  A call that is never entered writes nothing,
    so it cannot leave a span open in the log.
    """
    state = _STATE
    if state is None:
        return _NOOP_SPAN
    return _Span(state, name, fields)


def start_span(name: str, **fields: Any) -> Any:
    """An explicitly-ended span for submit/complete split across frames.

    Returns a :class:`SpanHandle` (or a no-op when disabled); the
    caller must invoke ``.end()`` exactly once.  Unlike :func:`span`,
    the handle does not join the nesting stack — it is the parent that
    cross-process workers adopt, not a local enclosing scope.
    """
    state = _STATE
    if state is None:
        return _NOOP_SPAN
    return SpanHandle(state, name, fields)


def event(name: str, **fields: Any) -> None:
    """Emit one point-in-time event record."""
    state = _STATE
    if state is None:
        return
    state.emit(state.record("event", name, fields or None))


def _metric(metric: str, name: str, value: float) -> None:
    state = _STATE
    if state is None:
        return
    state.registry.apply(metric, name, value)
    rec = state.record("metric", name)
    rec["metric"] = metric
    rec["value"] = value
    state.emit(rec)


def counter(name: str, n: float = 1.0) -> None:
    """Increment a counter (and emit its metric event)."""
    if _STATE is None:
        return
    _metric("counter", name, n)


def gauge(name: str, value: float) -> None:
    """Set a gauge (and emit its metric event)."""
    if _STATE is None:
        return
    _metric("gauge", name, value)


def histogram(name: str, value: float) -> None:
    """Observe a value into a log-bucketed histogram (and emit it)."""
    if _STATE is None:
        return
    _metric("hist", name, value)


def current_context(parent: str | None = None) -> dict[str, Any] | None:
    """A picklable capture of the active trace for pool workers.

    ``None`` when disabled (workers then stay dark).  The sidecar path
    is included only for :class:`~repro.obs.sinks.JsonlSink` sinks —
    in-memory sinks cannot cross a process boundary.  ``parent``
    overrides the nesting parent: the engine passes its submit-span id
    so worker spans attach to the right job even though
    :class:`SpanHandle` spans never join the local stack.
    """
    state = _STATE
    if state is None:
        return None
    path: str | None = None
    for sink in state.sinks:
        if isinstance(sink, JsonlSink):
            path = str(sink.path)
            break
    return {
        "trace": state.trace_id,
        "parent": parent if parent is not None else state.current_span(),
        "path": path,
    }


class adopt:
    """Worker-side: bind to a supervisor's trace for one job.

    ``with obs.adopt(ctx):`` where ``ctx`` is the dict
    :func:`current_context` produced in the submitting process.  A
    ``None`` context — or a context with no sidecar path — leaves the
    current (usually disabled) state untouched, so the serial engine
    path and unobserved pools pay nothing.  A real context always
    installs a fresh state, even over an enabled one: fork-started
    workers inherit the supervisor's state (wrong parent span, stale
    pid), and a ``$REPRO_OBS`` bootstrap in a spawn-started worker has
    the wrong trace id — the supervisor's context wins in both cases.
    Sinks are cached per path: a worker executing many jobs appends
    through one file handle.
    """

    def __init__(self, ctx: Mapping[str, Any] | None) -> None:
        self._ctx = ctx
        self._installed = False
        self._prev: ObsState | None = None

    def __enter__(self) -> ObsState | None:
        global _STATE
        ctx = self._ctx
        if ctx is None:
            return _STATE
        path = ctx.get("path")
        if path is None:
            return _STATE
        sink = _ADOPTED_SINKS.get(path)
        if sink is None:
            sink = _ADOPTED_SINKS[path] = JsonlSink(path)
        self._prev = _STATE
        self._installed = True
        _STATE = ObsState(
            [sink],
            trace_id=str(ctx.get("trace")),
            parent=ctx.get("parent"),
            owns_sinks=False,
        )
        return _STATE

    def __exit__(self, *exc: object) -> None:
        if self._installed:
            global _STATE
            _STATE = self._prev
            self._installed = False


def _bootstrap_env() -> None:
    """Honour ``$REPRO_OBS`` at import (workers inherit the variable)."""
    spec = os.environ.get(ENV_VAR)
    if not spec or spec == "0":
        return
    if spec in ("1", "stderr"):
        enable(stderr_summary=True)
    else:
        enable(path=spec)


def _iter_noop() -> Iterator[None]:  # pragma: no cover - typing helper
    yield None


_bootstrap_env()
