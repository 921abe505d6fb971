"""Benchmark-owned wire server: ``python3 -m perfbench.server``.

It builds a :class:`ModelRegistry` and a :class:`ServeFrontend` the way
``repro serve-bench --server`` does, but with ``FrontendConfig()`` defaults
(the library's default deployment) and the default kernel backend.  It
prints one JSON line ``{"port": ...}`` once it listens, then
serves until a line arrives on stdin.

With ``--trace 1`` it first wraps the serving layers (below).  The
wrappers record spans only while tracing is on: a stdin line
``{"trace": true|false}`` switches it and is answered with the same line,
so one process serves traced and untraced phases alternately.  The stop
line ``{"windows": ...}`` -- named phase windows in ``time.perf_counter()``
seconds, a clock shared by every process on the host -- is answered with
one JSON line of per-layer aggregates per phase.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro import FrontendConfig, ServeFrontend, build_engine, load_artifact
from repro.runtime.instrument import register_step_hook, unregister_step_hook
from repro.runtime.plan import STEP_KINDS
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import PredictionCache
from repro.serve.engine import Int8InferenceEngine
from repro.serve.registry import ModelRegistry
from repro.serve.supervisor import ReplicaSupervisor

from perfbench.spans import (
    CompileCounter,
    SpanRecorder,
    StepKindTimer,
    attribute_intervals,
)

#: Depth of each layer in one request's timeline; an instant is charged to
#: the deepest layer active then (see ``attribute_intervals``).
_DEPTH = {
    "serve.frontend.self_ms": 0,
    "serve.registry.route_ms": 1,
    "serve.supervisor.submit_ms": 1,
    "serve.batcher.self_ms": 1,
    "serve.batcher.queue_wait_ms": 2,
    "serve.engine.predict_ms": 3,
}

_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class ServerTrace:
    """Spans of the serving layers, linked per wire request.

    The frontend coroutine, registry routing and supervisor submit run on
    the event-loop thread inside one request task, so a context variable
    ties them to the request.  The batcher's own request object links the
    worker-thread batch (queue wait, engine pass) back to the request.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.requests: Dict[int, dict] = {}
        self.batches: List[dict] = []
        self.engine_calls: List[tuple] = []
        self.cache_lookups: List[tuple] = []
        self.steps = StepKindTimer()
        self.compiles = CompileCounter()
        self._members: Dict[int, List[int]] = {}
        self._leader: Dict[int, int] = {}
        self._next = 0
        self._local = threading.local()
        self.enabled = False

    def set_enabled(self, enabled: bool) -> None:
        if enabled and not self.enabled:
            register_step_hook(self.steps)
        elif self.enabled and not enabled:
            unregister_step_hook(self.steps)
        self.enabled = enabled

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        trace = self
        replace = self.recorder._replace

        original_predict = ServeFrontend._serve_predict

        @functools.wraps(original_predict)
        async def serve_predict(frontend, *args, **kwargs):
            if not trace.enabled:
                return await original_predict(frontend, *args, **kwargs)
            trace._next += 1
            record = {"start": time.perf_counter()}
            trace.requests[trace._next] = record
            token = _REQUEST.set((trace._next, record))
            try:
                return await original_predict(frontend, *args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                _REQUEST.reset(token)

        replace(ServeFrontend, "_serve_predict", serve_predict)
        self._span_on_request(ModelRegistry, "route", "route")

        original_submit = ReplicaSupervisor.submit

        @functools.wraps(original_submit)
        def submit(supervisor, *args, **kwargs):
            current = _REQUEST.get()
            if current is None:
                return original_submit(supervisor, *args, **kwargs)
            started = time.perf_counter()
            future = original_submit(supervisor, *args, **kwargs)
            if current is not None:
                record = current[1]
                record["submit"] = (started, time.perf_counter())
                future.add_done_callback(
                    lambda _: record.__setitem__("done", time.perf_counter()))
            return future

        replace(ReplicaSupervisor, "submit", submit)

        original_batcher_submit = MicroBatcher._submit

        @functools.wraps(original_batcher_submit)
        def batcher_submit(batcher, *args, **kwargs):
            future, request = original_batcher_submit(batcher, *args, **kwargs)
            current = _REQUEST.get()
            if current is not None:
                if request is not None:
                    trace._members[id(request)] = [current[0]]
                    trace._leader[id(future)] = id(request)
                elif not future.done():
                    # An in-flight dedup rider shares its leader's batch.
                    members = trace._members.get(trace._leader.get(id(future)))
                    if members is not None:
                        members.append(current[0])
            return future, request

        replace(MicroBatcher, "_submit", batcher_submit)

        original_serve_batch = MicroBatcher._serve_batch

        @functools.wraps(original_serve_batch)
        def serve_batch(batcher, batch):
            if not trace.enabled:
                return original_serve_batch(batcher, batch)
            started = time.perf_counter()
            queued = [(id(r), id(r.future), r.enqueued_at) for r in batch]
            record = {"start": started, "rows": len(batch), "engine": []}
            trace._local.batch = record
            try:
                return original_serve_batch(batcher, batch)
            finally:
                trace._local.batch = None
                record["end"] = time.perf_counter()
                record["members"] = []
                for request_key, future_key, enqueued in queued:
                    trace._leader.pop(future_key, None)
                    rids = trace._members.pop(request_key, [])
                    record["members"].append((rids, enqueued))
                trace.batches.append(record)

        replace(MicroBatcher, "_serve_batch", serve_batch)

        original_engine_predict = Int8InferenceEngine.predict

        @functools.wraps(original_engine_predict)
        def engine_predict(engine, inputs):
            if not trace.enabled:
                return original_engine_predict(engine, inputs)
            started = time.perf_counter()
            try:
                return original_engine_predict(engine, inputs)
            finally:
                ended = time.perf_counter()
                rows = int(np.asarray(inputs).shape[0])
                trace.engine_calls.append((started, ended, rows))
                batch = getattr(trace._local, "batch", None)
                if batch is not None:
                    batch["engine"].append((started, ended))

        replace(Int8InferenceEngine, "predict", engine_predict)

        original_get = PredictionCache.get

        @functools.wraps(original_get)
        def cache_get(cache, key):
            value = original_get(cache, key)
            if trace.enabled:
                trace.cache_lookups.append(
                    (time.perf_counter(), value is not None))
            return value

        replace(PredictionCache, "get", cache_get)
        self.compiles.install(self.recorder)

    def _span_on_request(self, owner: type, attr: str, key: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if _REQUEST.get() is None:
                return original(*args, **kwargs)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                current = _REQUEST.get()
                if current is not None:
                    current[1][key] = (started, time.perf_counter())

        self.recorder._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.set_enabled(False)
        self.recorder.uninstall()

    # ------------------------------------------------------------------ #
    def _request_intervals(self) -> Dict[int, list]:
        """Every request's timeline as ``(start, end, depth, label)``."""
        timelines: Dict[int, list] = defaultdict(list)
        for rid, record in self.requests.items():
            if "end" not in record:
                continue
            timeline = timelines[rid]
            timeline.append((record["start"], record["end"],
                             _DEPTH["serve.frontend.self_ms"],
                             "serve.frontend.self_ms"))
            for key, label in (("route", "serve.registry.route_ms"),
                               ("submit", "serve.supervisor.submit_ms")):
                if key in record:
                    timeline.append((*record[key], _DEPTH[label], label))
            if "submit" in record and "done" in record:
                timeline.append((record["submit"][1], record["done"],
                                 _DEPTH["serve.batcher.self_ms"],
                                 "serve.batcher.self_ms"))
        for batch in self.batches:
            for rids, enqueued in batch["members"]:
                for rid in rids:
                    timeline = timelines.get(rid)
                    if timeline is None:
                        continue
                    timeline.append((enqueued, batch["start"],
                                     _DEPTH["serve.batcher.queue_wait_ms"],
                                     "serve.batcher.queue_wait_ms"))
                    timeline.append((batch["start"], batch["end"],
                                     _DEPTH["serve.batcher.self_ms"] + 1,
                                     "serve.batcher.self_ms"))
                    for started, ended in batch["engine"]:
                        timeline.append((started, ended,
                                         _DEPTH["serve.engine.predict_ms"],
                                         "serve.engine.predict_ms"))
        return timelines

    def aggregate(self, windows: Dict[str, List[List[float]]]
                  ) -> Dict[str, dict]:
        """Per-layer aggregates of every named phase (a list of windows)."""
        timelines = self._request_intervals()
        result: Dict[str, dict] = {}
        all_windows = [tuple(w) for spans in windows.values() for w in spans]
        for name, spans in windows.items():
            def inside(t: float, spans=spans) -> bool:
                return any(start <= t <= end for start, end in spans)

            rids = [rid for rid, record in self.requests.items()
                    if inside(record["start"]) and "end" in record]
            layer_totals: Dict[str, float] = defaultdict(float)
            queue_waits: List[float] = []
            frontend_total = 0.0
            for rid in rids:
                record = self.requests[rid]
                frontend_total += record["end"] - record["start"]
                for label, seconds in attribute_intervals(
                        timelines[rid]).items():
                    layer_totals[label] += seconds
            for batch in self.batches:
                if inside(batch["start"]):
                    for rids_in, enqueued in batch["members"]:
                        queue_waits.extend(
                            [batch["start"] - enqueued] * max(1, len(rids_in)))
            batches = [b for b in self.batches if inside(b["start"])]
            calls = [c for c in self.engine_calls if inside(c[0])]
            lookups = [hit for when, hit in self.cache_lookups if inside(when)]
            by_kind = self.steps.by_kind(spans)
            count = max(1, len(rids))
            engine_ms = 1000.0 * sum(e - s for s, e, _ in calls)
            step_ms = sum(by_kind.values())
            result[name] = {
                "requests": len(rids),
                "request_span_ms.mean": 1000.0 * frontend_total / count,
                "layers_ms.mean": {
                    label: 1000.0 * layer_totals.get(label, 0.0) / count
                    for label in _DEPTH
                },
                "queue_wait_ms.p50": (
                    1000.0 * float(np.median(queue_waits))
                    if queue_waits else 0.0),
                "batches": len(batches),
                "batch_size.mean": (
                    float(np.mean([b["rows"] for b in batches]))
                    if batches else 0.0),
                "cache_lookups": len(lookups),
                "cache_hit_ratio": (
                    sum(lookups) / len(lookups) if lookups else 0.0),
                "engine_calls": len(calls),
                "engine_rows": int(sum(rows for _, _, rows in calls)),
                "engine_predict_ms.mean": engine_ms / max(1, len(calls)),
                "step_ms_per_call": {
                    kind: by_kind.get(kind, 0.0) / max(1, len(calls))
                    for kind in STEP_KINDS
                },
                "engine_self_ms.mean": (engine_ms - step_ms) / max(1, len(calls)),
            }
        result["plan_compiles_in_phases"] = self.compiles.between(all_windows)
        return result


def build_frontend(artifact_path: str, name: str):
    """Registry + front-end exactly as ``serve-bench --server`` wires them,
    with the library's default configuration."""
    artifact = load_artifact(artifact_path)
    registry = ModelRegistry(engine_builder=build_engine)
    registry.register(name, "v1", artifact)
    frontend = ServeFrontend(registry=registry, config=FrontendConfig())
    return registry, frontend


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    trace = ServerTrace() if args.trace else None
    if trace is not None:
        trace.install()
    registry, frontend = build_frontend(args.artifact, args.name)
    windows = {}
    try:
        frontend.start()
        print(json.dumps({"port": frontend.port}), flush=True)
        for line in sys.stdin:
            message = json.loads(line) if line.strip() else {}
            if "trace" not in message:
                windows = message.get("windows", {})
                break
            if trace is not None:
                trace.set_enabled(bool(message["trace"]))
            print(json.dumps({"trace": bool(message["trace"])}), flush=True)
    finally:
        frontend.close()
        registry.close()
    if trace is not None:
        trace.uninstall()
        print(json.dumps(trace.aggregate(windows)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
