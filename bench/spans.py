"""Benchmark-side tracing: spans, delegating proxies, and the time budget.

Nothing here touches the program.  Spans are recorded around the calls
the driver makes into each layer and inside benchmark-owned proxies that
stand in for a ``ModelPlan``, a ``PruningMethod`` and an optimizer.  A
span is ``[name, start, end, parent, sid]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``sid`` the session (or
utterance) the call served, so all spans of one request share an id.
Spans stay in memory until the run ends; :func:`write_spans` then dumps
them as JSON lines and :func:`budget` turns them into self times.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List

NAME, START, END, PARENT, SID = range(5)


class _Span:
    __slots__ = ("_tracer", "_name", "_sid", "_index")

    def __init__(self, tracer: "Tracer", name: str, sid) -> None:
        self._tracer = tracer
        self._name = name
        self._sid = sid

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        row = [self._name, 0.0, 0.0, stack[-1] if stack else -1, self._sid]
        tracer.spans.append(row)
        stack.append(self._index)
        row[START] = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        tracer = self._tracer
        tracer.spans[self._index][END] = end
        tracer._stack.pop()


class Tracer:
    """In-memory span recorder for one single-threaded driver."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, sid=None) -> _Span:
        return _Span(self, name, sid)


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class NullTracer:
    """Tracing off: ``span`` hands back one shared do-nothing context."""

    enabled = False
    _null = _NullSpan()

    def span(self, name: str, sid=None) -> _NullSpan:
        return self._null


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Delegating proxies (benchmark-owned; the program sees the same interface)
# ---------------------------------------------------------------------------
class PlanProxy:
    """Stands in for a ``ModelPlan``; times ``run_chunk`` and counts the
    ``(T, B)`` shapes it was called with (the kernel replay needs them)."""

    def __init__(self, plan, tracer: Tracer) -> None:
        self._plan = plan
        self._tracer = tracer
        self.shapes: Counter = Counter()

    def run_chunk(self, features, state=None):
        self.shapes[features.shape[:2]] += 1
        with self._tracer.span("engine.plan.run_chunk"):
            return self._plan.run_chunk(features, state)

    def __getattr__(self, name):
        return getattr(self._plan, name)


class MethodProxy:
    """Stands in for a ``PruningMethod``; times the three training hooks."""

    def __init__(self, method, tracer: Tracer) -> None:
        self._method = method
        self._tracer = tracer

    def on_batch_backward(self) -> None:
        with self._tracer.span("pruning.admm_hooks"):
            self._method.on_batch_backward()

    def on_batch_end(self) -> None:
        with self._tracer.span("pruning.admm_hooks"):
            self._method.on_batch_end()

    def on_epoch_end(self) -> None:
        with self._tracer.span("pruning.admm_hooks"):
            self._method.on_epoch_end()

    def __getattr__(self, name):
        return getattr(self._method, name)


class OptimizerProxy:
    """Stands in for ``trainer.optimizer``; times ``step``."""

    def __init__(self, optimizer, tracer: Tracer) -> None:
        self._optimizer = optimizer
        self._tracer = tracer

    def step(self) -> None:
        with self._tracer.span("nn.optim.step"):
            self._optimizer.step()

    def __getattr__(self, name):
        return getattr(self._optimizer, name)


# ---------------------------------------------------------------------------
# Turning spans into a budget
# ---------------------------------------------------------------------------
def budget(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total duration, and self time.

    A span's self time is its duration minus the durations of the spans
    it directly encloses, so self times over *all* spans sum to the
    durations of the roots — the traced wall time — exactly.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    rows: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        row = rows.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_s[index]
    return rows


def durations(spans: List[list], name: str) -> List[float]:
    return [span[END] - span[START] for span in spans if span[NAME] == name]


def format_budget(
    rows: Dict[str, Dict[str, float]], passes: int, wall_s: float
) -> str:
    """The budget table: per-pass self time by span name, summing to the
    mean traced pass wall time (``bench.pass`` self is the driver loop)."""
    lines = [f"{'span':<30}{'calls/pass':>11}{'self ms/pass':>14}{'share':>8}"]
    total = 0.0
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
        self_s = row["self_s"] / passes
        total += self_s
        label = "bench.driver_self_s" if name == "bench.pass" else name
        lines.append(
            f"{label:<30}{row['calls'] / passes:>11.1f}{self_s * 1e3:>14.3f}"
            f"{self_s / wall_s:>8.1%}"
        )
    lines.append(f"{'sum':<30}{'':>11}{total * 1e3:>14.3f}{total / wall_s:>8.1%}")
    lines.append(f"{'pass wall time':<30}{'':>11}{wall_s * 1e3:>14.3f}")
    return "\n".join(lines)


def write_spans(path: Path, spans: List[list]) -> None:
    """Dump spans as JSON lines, times relative to the first span."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w") as handle:
        for index, span in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span[NAME],
                        "start_s": span[START] - origin,
                        "end_s": span[END] - origin,
                        "parent": span[PARENT],
                        "sid": span[SID],
                    }
                )
                + "\n"
            )
