"""Traced mode: spans around each layer's entry points, from outside ``src/``.

The benchmark wraps the public entry points of every layer in place (module
functions wherever a ``repro`` module bound them by name, methods on their
class) and accumulates, per ``(phase, span)``:

* ``calls`` - how often the entry point ran;
* ``total`` - inclusive seconds;
* ``self`` - seconds not covered by a nested traced span.

Spans nest per thread.  ``covered`` sums the inclusive time of spans that
had no traced parent, so ``op time - covered`` is the ``other`` time no
span accounts for.  Coroutine entry points (the fleet's client and front
door) get inclusive spans only, because concurrent requests interleave on
one thread.  Backend spans also record whether the backend served the
call itself or handed it to another backend, which is how Dial calls are
counted only where the bucket queue actually ran.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

perf_counter = time.perf_counter


class Tracer:
    """In-memory span accumulator; one per process."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.stats: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.covered: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, total: float, self_time: float) -> None:
        with self._lock:
            entry = self.stats[(self.phase, name)]
            entry[0] += 1
            entry[1] += total
            entry[2] += self_time

    def get(self, phase: str, name: str) -> Tuple[int, float, float]:
        calls, total, self_time = self.stats.get((phase, name), (0, 0.0, 0.0))
        return int(calls), total, self_time

    def as_dict(self) -> Dict[str, Dict[str, List[float]]]:
        out: Dict[str, Dict[str, List[float]]] = defaultdict(dict)
        for (phase, name), value in self.stats.items():
            out[phase][name] = list(value)
        return dict(out)

    def merge(self, dumped: Dict[str, Dict[str, List[float]]]) -> None:
        """Add spans dumped by another process (:func:`traced_worker_main`)."""
        for phase, spans in dumped.items():
            for name, (calls, total, self_time) in spans.items():
                entry = self.stats[(phase, name)]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time

    # ------------------------------------------------------------------ #
    def _sync_wrapper(self, name: str, fn: Callable, backend: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # frame: [time covered by traced children, delegated, is backend]
            frame = [0.0, False, backend]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    if backend and parent[2]:
                        parent[1] = True
                else:
                    with tracer._lock:
                        tracer.covered[tracer.phase] += elapsed
                tracer.record(name, elapsed, elapsed - frame[0])
                if backend and not frame[1]:
                    tracer.record(name + ".served", elapsed, 0.0)

        return wrapper

    def _async_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.record(name, elapsed, elapsed)

        return wrapper

    def _submit_wrapper(self, name: str, fn: Callable) -> Callable:
        """Span from ``WorkerPool.submit`` to its future's completion, per op."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(pool, worker_id, request):
            start = perf_counter()
            future = fn(pool, worker_id, request)
            phase = tracer.phase
            span = f"{name}.{request.get('op')}"

            def done(_future) -> None:
                elapsed = perf_counter() - start
                with tracer._lock:
                    entry = tracer.stats[(phase, span)]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed

            future.add_done_callback(done)
            return future

        return wrapper

    # ------------------------------------------------------------------ #
    def wrap_function(self, module_name: str, attr: str, name: str, backend: bool = False) -> None:
        """Wrap a module-level function in every ``repro`` module that bound it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._sync_wrapper(name, original, backend)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def wrap_method(
        self, cls: type, attr: str, name: str, backend: bool = False, submit: bool = False
    ) -> None:
        """Wrap a method (or ``__init__``) on its class."""
        original = cls.__dict__[attr]
        if submit:
            wrapper = self._submit_wrapper(name, original)
        elif inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(name, original)
        else:
            wrapper = self._sync_wrapper(name, original, backend)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer's entry points in this process."""
        if self.installed:
            return
        import repro.core.backends as backends
        import repro.core.dynamic  # noqa: F401 - binds the names wrapped below
        import repro.core.engine as engine
        import repro.core.flat as flat
        import repro.core.persistence  # noqa: F401
        import repro.serving.fleet.frontdoor as frontdoor
        import repro.serving.fleet.placement as placement
        import repro.serving.fleet.pool as pool

        fn = self.wrap_function
        fn("repro.graph.io", "read_dimacs", "graph.read")
        fn("repro.graph.contraction", "contract_degree_one", "graph.contract")
        self.wrap_method(flat.FlatWorkingGraph, "__init__", "core.snapshot")
        fn("repro.partition.cut", "balanced_cut", "partition.cut")
        fn("repro.flow.vertex_cut", "minimum_vertex_cut_region", "flow.maxflow")
        fn("repro.core.ranking", "rank_cut_vertices", "core.rank")
        fn("repro.core.labelling", "node_distance_arrays", "core.label")
        fn("repro.partition.shortcuts", "compute_shortcuts", "partition.shortcuts")
        fn("repro.partition.shortcuts", "child_adjacency", "partition.child_adjacency")
        fn("repro.core.dynamic", "relabel", "core.dynamic.relabel")
        fn("repro.core.persistence", "save_index_sharded", "core.persistence.save")
        fn("repro.serving.fleet.protocol", "encode_binary_frame", "fleet.codec")
        for cls, label in (
            (backends.HeapBackend, "heap"),
            (backends.CSRBackend, "csr"),
            (backends.DialBackend, "dial"),
        ):
            for attr in ("sssp_many", "dist_and_prune_many"):
                self.wrap_method(cls, attr, f"core.backends.{label}", backend=True)
        self.wrap_method(engine.BatchResolver, "validate_vertices", "core.engine.validate")
        self.wrap_method(engine.BatchResolver, "resolve", "core.engine.resolve")
        self.wrap_method(engine.BatchResolver, "lca_depths", "core.engine.lca")
        self.wrap_method(engine.QueryEngine, "distances", "core.engine.distances")
        self.wrap_method(frontdoor.FleetClient, "distances", "fleet.client")
        self.wrap_method(frontdoor.FleetServer, "distances", "fleet.frontdoor")
        self.wrap_method(frontdoor.FleetServer, "reload", "fleet.reload")
        self.wrap_method(placement.BatchPlacer, "plan", "fleet.placement")
        self.wrap_method(pool.WorkerPool, "submit", "fleet.worker_roundtrip", submit=True)


def install_worker_tracing(trace_dir: Path) -> Callable[[], None]:
    """Make fleet workers spawned from now on trace themselves.

    Returns a function that restores the plain worker entry point.
    """
    import repro.serving.fleet.worker as worker

    original = worker.worker_main
    worker.worker_main = functools.partial(traced_worker_main, str(trace_dir))

    def restore() -> None:
        worker.worker_main = original

    return restore


def traced_worker_main(trace_dir: str, *args, **kwargs) -> None:
    """Fleet worker entry point that traces shard loads and router batches.

    Runs in the spawned worker process and dumps its spans to
    ``<trace_dir>/worker-<pid>.json`` when the worker exits.
    """
    import repro.serving.shards as shards
    from repro.serving.fleet.worker import worker_main

    tracer = Tracer()
    tracer.phase = "worker"
    tracer.wrap_function("repro.core.persistence", "load_shard", "core.persistence.load")
    tracer.wrap_method(shards.ShardRouter, "distances", "fleet.worker_compute")
    try:
        worker_main(*args, **kwargs)
    finally:
        path = Path(trace_dir) / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(tracer.as_dict()))


def merge_worker_dumps(tracer: Tracer, trace_dir: Path) -> None:
    """Fold every worker dump under ``trace_dir`` into ``tracer``."""
    for path in sorted(Path(trace_dir).glob("worker-*.json")):
        tracer.merge(json.loads(path.read_text()))
