"""The benchmark workloads, driven through ``repro``'s public API.

Timing rules (why the numbers are steady on a small shared host):

* every timed operation is one of many samples and every metric is a
  median (or p90) over them - never a single shot, and never a timer
  around one microsecond call (scalar queries are timed in blocks);
* within a run the operations interleave round-robin, so every metric
  sees the same host state;
* set-up runs several times per run and reports its median;
* GC runs and lazy state (engine, scalar list mirror, Euler-tour
  resolver) is filled before timing; that cost is part of ``setup_s``;
* each sample is corrected for the host's speed around it
  (:mod:`perfbench.calibrate`).

Every answer a timed operation returns is compared with an expected
answer; expectations come from an index whose sampled answers were checked
against scipy's Dijkstra on the input graph during set-up.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import resource
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.graph.io as graph_io
from repro.core.dynamic import DynamicHC2LIndex
from repro.core.index import HC2LIndex
from repro.serving.fleet import FleetClient, FleetServer

from perfbench import inputs as pin
from perfbench.calibrate import REFERENCE_S, Calibrator
from perfbench.metrics import PER_LAYER, UNITS, median, p90
from perfbench.tracing import Tracer, install_worker_tracing, merge_worker_dumps

#: neighbourhood batches per read round
BATCH32_PER_ROUND = 16
#: read rounds after each operation that leaves build-int at base weights
ROUNDS_PER_VISIT = 10
#: share of build-int's loop time spent in epochs (the rest in builds)
EPOCH_SHARE = 2 / 3
#: build-int's serve phase: sharded layout, fleet shape, clients, swaps;
#: it serves for SERVE_SHARE of --seconds after the timed loop
SERVE_SHARE = 1 / 3
FLEET_SHARDS = 4
FLEET_WORKERS = 1
FLEET_CLIENTS = 2
FLEET_SWAPS_PER_RUN = 2
#: traced mode alternates traced and untraced windows of this length
TRACE_WINDOW_S = 0.5


class Run:
    """State of one benchmark run: samples, answer checks and the tracer."""

    def __init__(self, workload: str, size: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> None:
        self.workload = workload
        self.config = pin.SIZES[size]
        self.seed = seed
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.workdir = workdir
        #: name -> [(start, seconds, units)]: one timed operation each
        self.samples: Dict[str, List[Tuple[float, float, int]]] = defaultdict(list)
        #: per sample name (else phase): op durations untraced ([0]) and traced ([1])
        self.by_tracing: Dict[str, List[List[float]]] = defaultdict(lambda: [[], []])
        self.phase_ops: Dict[str, int] = defaultdict(int)
        self.phase_time: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.facts: Dict[str, float] = {}
        self.nodes_recomputed: List[float] = []
        self.record: Dict[str, object] = {}
        self.exact = workload == "build-int"
        self.calibrator = Calibrator()

    # ------------------------------------------------------------------ #
    @contextmanager
    def tracing(self, on: bool):
        """Install the span wrappers for the enclosed operations."""
        on = on and self.tracer is not None
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()

    def timed(self, phase: str, fn: Callable, *args, sample: Optional[str] = None,
              units: int = 1, **kwargs):
        """Run ``fn`` once, optionally as a ``sample``; returns ``(seconds, result)``."""
        tracer = self.tracer
        traced = tracer is not None and tracer.installed
        if traced:
            tracer.phase = phase
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        if tracer is not None:
            self.by_tracing[sample or phase][int(traced)].append(elapsed)
            if traced:
                self.phase_ops[phase] += 1
                self.phase_time[phase] += elapsed
        if sample is not None:
            self.samples[sample].append((start, elapsed, units))
        return elapsed, result

    def sample(self, name: str, start: float, units: int = 1) -> float:
        """Record the operation that began at ``start`` and ends now."""
        elapsed = perf_counter() - start
        self.samples[name].append((start, elapsed, units))
        return elapsed

    def values(self, name: str, normalised: bool = True) -> List[float]:
        """Per-unit seconds of every ``name`` sample, host-speed corrected."""
        out = []
        for start, elapsed, units in self.samples[name]:
            raw, scaled = self.calibrator.correct(start, elapsed)
            out.append((scaled if normalised else raw) / units)
        return out

    def check(self, got, expected) -> None:
        got = np.asarray(got, dtype=np.float64)
        self.attempted += len(got)
        self.failed += int(np.count_nonzero(got != expected))

    def check_reference(self, index: HC2LIndex, pairs: np.ndarray, reference: np.ndarray) -> None:
        got = index.distances(pairs)
        self.attempted += len(got)
        self.failed += pin.mismatches(got, reference, self.exact)

    def note_structure(self, index: HC2LIndex, inputs: pin.Inputs) -> None:
        """Exact structural counts (identical on every run of one commit)."""
        flat = index.flat_labelling()
        uniform = inputs.uniform[0][:256]
        neighbourhood = np.concatenate(inputs.neighbourhood[:8])
        self.facts.update(
            {
                "core.label_entries": float(flat.total_entries()),
                "core.shortcuts": float(index.stats.num_shortcuts),
                "hierarchy.nodes": float(len(index.hierarchy.nodes)),
                "hierarchy.height": float(index.tree_height()),
                "core.engine.hubs_per_query.uniform": _mean_hubs(index, uniform),
                "core.engine.hubs_per_query.neighbourhood": _mean_hubs(index, neighbourhood),
                "index_bytes": float(index.index_size_bytes),
            }
        )


def _mean_hubs(index: HC2LIndex, pairs: np.ndarray) -> float:
    return float(np.mean([index.distance_with_hub_count(int(s), int(t))[1] for s, t in pairs]))


def warm(index: HC2LIndex, inputs: pin.Inputs) -> None:
    """Fill the lazy query state so no timed operation pays for it."""
    engine = index.engine
    engine.resolver.tree_resolver  # noqa: B018 - builds the Euler-tour resolver
    s, t = inputs.scalar[0][0]
    index.distance(s, t)  # materialises the scalar list mirror
    index.distances(inputs.neighbourhood[0])
    gc.collect()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest exited child (fleet workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------- #
# in-process reads (build-int between writes, query-float throughout)
# ---------------------------------------------------------------------- #
class Expected:
    """The answers every read must reproduce, taken from a checked index."""

    def __init__(self, index: HC2LIndex, inputs: pin.Inputs) -> None:
        self.uniform = [index.distances(b) for b in inputs.uniform]
        self.neighbourhood = [index.distances(b) for b in inputs.neighbourhood]
        self.scalar = [index.distances(np.asarray(b, dtype=np.int64)) for b in inputs.scalar]


def _scalar_block(index: HC2LIndex, block) -> List[float]:
    distance = index.distance
    return [distance(s, t) for s, t in block]


def traced_pass(rounds: int, inputs: pin.Inputs) -> bool:
    """Traced mode alternates whole passes over the uniform batches, so traced
    and untraced rounds time the same batches."""
    return (rounds // len(inputs.uniform)) % 2 == 1


def read_round(run: Run, index: HC2LIndex, inputs: pin.Inputs, expected: Expected, i: int) -> None:
    """One round-robin slice: a uniform batch, 32-pair batches, a scalar block."""
    k = i % len(inputs.uniform)
    _, got = run.timed("read.uniform", index.distances, inputs.uniform[k], sample="uniform")
    run.check(got, expected.uniform[k])
    count = len(inputs.neighbourhood)
    for j in range(BATCH32_PER_ROUND):
        k = (i * BATCH32_PER_ROUND + j) % count
        _, got = run.timed("read.batch32", index.distances, inputs.neighbourhood[k],
                           sample="batch32")
        run.check(got, expected.neighbourhood[k])
    k = i % len(inputs.scalar)
    block = inputs.scalar[k]
    _, got = run.timed("read.scalar", _scalar_block, index, block, sample="scalar",
                       units=len(block))
    run.check(got, expected.scalar[k])


def apply_epoch(dynamic: DynamicHC2LIndex, changes: Dict) -> None:
    """One reweight epoch: the ``update_edge_weight`` calls plus ``flush``."""
    for (u, v), weight in changes.items():
        dynamic.update_edge_weight(u, v, weight)
    dynamic.flush()


def _reverts(graph, pool: List[Dict]) -> List[Dict]:
    return [{edge: graph.edge_weight(*edge) for edge in changes} for changes in pool]


def _epoch(run: Run, dynamic: DynamicHC2LIndex, changes: Dict, kind: int, traced: bool) -> float:
    """Time one epoch; ``kind`` is ``2k`` for applying pool entry ``k``, ``2k+1``
    for reverting it (epochs of one kind cost the same, kinds differ)."""
    with run.tracing(traced):
        elapsed, _ = run.timed("update", apply_epoch, dynamic, changes, sample=f"update.{kind}")
    # a relabel that fell back to the full pass recomputed every node
    index = dynamic.index
    run.nodes_recomputed.append(
        index.describe().get("relabel_nodes_recomputed", float(len(index.hierarchy.nodes))))
    return elapsed


# ---------------------------------------------------------------------- #
# build-int
# ---------------------------------------------------------------------- #
def build_int(run: Run, inputs: pin.Inputs) -> None:
    graph = inputs.graph
    path = run.workdir / "build-int.gr"
    graph_io.write_dimacs(graph, path)
    pool = inputs.pool
    reverts = _reverts(graph, pool)
    references = [pin.dijkstra_reference(g, inputs.check_pairs)
                  for g in [graph] + [graph.reweighted(c) for c in pool]]

    dynamic = expected = None
    for rep in range(run.config["setup_reps"]):
        dynamic = None
        gc.collect()
        with run.tracing(rep % 2 == 1):
            start = perf_counter()
            _, loaded = run.timed("read", graph_io.read_dimacs, path)
            last_build, dynamic = run.timed("build", DynamicHC2LIndex, loaded, sample="build")
            warm(dynamic.index, inputs)
            run.sample("setup", start)
        run.check_reference(dynamic.index, inputs.check_pairs, references[0])
        if expected is None:
            expected = Expected(dynamic.index, inputs)
            run.note_structure(dynamic.index, inputs)

    build_time = update_time = 0.0
    epoch = builds = rounds = state = 0
    deadline = perf_counter() + run.seconds
    # every epoch kind is timed at least once, even on a slow host
    while perf_counter() < deadline or epoch < 2 * len(pool):
        # a build that would overrun the deadline is replaced by epochs
        if (update_time <= EPOCH_SHARE / (1 - EPOCH_SHARE) * build_time
                or perf_counter() + last_build > deadline):
            k = (epoch // 2) % len(pool)
            applying = epoch % 2 == 0
            update_time += _epoch(
                run, dynamic, pool[k] if applying else reverts[k], epoch % (2 * len(pool)),
                (epoch // (2 * len(pool))) % 2 == 1,
            )
            epoch += 1
            state = k + 1 if applying else 0
        else:
            gc.collect()
            with run.tracing(builds % 2 == 1):
                last_build, dynamic = run.timed("build", DynamicHC2LIndex, graph, sample="build")
            build_time += last_build
            builds += 1
            epoch += epoch % 2  # a fresh build is at base weights: next epoch applies
            state = 0
        warm(dynamic.index, inputs)
        run.check_reference(dynamic.index, inputs.check_pairs, references[state])
        if state == 0:
            for _ in range(ROUNDS_PER_VISIT):
                with run.tracing(traced_pass(rounds, inputs)):
                    read_round(run, dynamic.index, inputs, expected, rounds)
                rounds += 1
    if state != 0:  # serve from base weights
        k = state - 1
        _epoch(run, dynamic, reverts[k], 2 * k + 1, False)
        run.check_reference(dynamic.index, inputs.check_pairs, references[0])
    asyncio.run(_serve_phase(run, inputs, dynamic, references))


# ---------------------------------------------------------------------- #
# query-float
# ---------------------------------------------------------------------- #
def query_float(run: Run, inputs: pin.Inputs) -> None:
    graph = inputs.graph
    pool = inputs.pool[:2]
    reverts = _reverts(graph, pool)
    base_reference = pin.dijkstra_reference(graph, inputs.check_pairs)

    dynamic = expected = None
    for rep in range(run.config["setup_reps"]):
        dynamic = None
        gc.collect()
        with run.tracing(rep % 2 == 1):
            start = perf_counter()
            _, dynamic = run.timed("build", DynamicHC2LIndex, graph, sample="build")
            warm(dynamic.index, inputs)
            run.sample("setup", start)
        run.check_reference(dynamic.index, inputs.check_pairs, base_reference)
        if expected is None:
            expected = Expected(dynamic.index, inputs)
            run.note_structure(dynamic.index, inputs)
        else:  # labels are deterministic: every rebuild answers identically
            for batch, want in zip(inputs.uniform, expected.uniform):
                run.check(dynamic.index.distances(batch), want)

    index = dynamic.index
    rounds = 0
    deadline = perf_counter() + run.seconds
    while perf_counter() < deadline:
        with run.tracing(traced_pass(rounds, inputs)):
            read_round(run, index, inputs, expected, rounds)
        rounds += 1

    # the float-weight side of update_s: two passes of two congestion epochs,
    # each reverted; traced mode traces the second pass
    applied_references = [pin.dijkstra_reference(graph.reweighted(c), inputs.check_pairs)
                          for c in pool]
    for traced in (False, True):
        for k, changes in enumerate(pool):
            _epoch(run, dynamic, changes, 2 * k, traced)
            run.check_reference(dynamic.index, inputs.check_pairs, applied_references[k])
            _epoch(run, dynamic, reverts[k], 2 * k + 1, traced)
            run.check_reference(dynamic.index, inputs.check_pairs, base_reference)


# ---------------------------------------------------------------------- #
# build-int's closing serve phase
# ---------------------------------------------------------------------- #
def _probe(generations: List[HC2LIndex], a: int, b: int, changed: set,
           neighbourhood: List[np.ndarray]) -> np.ndarray:
    """Up to 32 pairs whose distances differ between generations ``a`` and ``b``.

    Candidates pair the changed edges' endpoints with the served batches'
    targets.  A served answer to one of them can only come from the
    generation it belongs to, so it proves a swap was adopted.
    """
    endpoints = sorted({vertex for edge in changed for vertex in edge})
    targets = np.unique(np.concatenate([batch[:, 1] for batch in neighbourhood]))
    candidates = np.asarray([(s, int(t)) for s in endpoints for t in targets if s != t],
                            dtype=np.int64)
    differ = generations[a].distances(candidates) != generations[b].distances(candidates)
    probe = candidates[differ][:pin.BATCH32]
    if not len(probe):
        raise RuntimeError(f"generations {a} and {b} answer every candidate pair alike; "
                           f"a swap between them could not be observed")
    return probe


async def _serve_phase(run: Run, inputs: pin.Inputs, dynamic: DynamicHC2LIndex,
                       references: List[np.ndarray]) -> None:
    """Serve the index from a 1-worker fleet while relabelled generations swap in.

    Generation 0 is the base index, 1 has pool[0] applied and 2 pool[1];
    the swaps publish 1, 2, 1, ... so every swap changes some answers.  The
    generations are relabelled before serving starts; each epoch is an
    ``update_s`` sample.
    """
    graph = inputs.graph
    pool = inputs.pool[:2]
    reverts = _reverts(graph, pool)
    restore = install_worker_tracing(run.workdir) if run.tracer is not None else None
    server: Optional[FleetServer] = None
    try:
        layout = run.workdir / "fleet" / "index.npz"
        layout.parent.mkdir()
        with run.tracing(True):
            start = perf_counter()
            run.timed("save", dynamic.index.save_sharded, layout,
                      num_shards=FLEET_SHARDS, boundaries="hierarchy")
            server = FleetServer(layout, num_workers=FLEET_WORKERS)
            await server.start()
            host, port = await server.start_tcp()
            run.sample("fleet.start", start)

        generations = [dynamic.index]
        for k, changes in enumerate(pool):
            _epoch(run, dynamic, changes, 2 * k, k == 1)
            generations.append(dynamic.index)
            _epoch(run, dynamic, reverts[k], 2 * k + 1, k == 1)
        expected = []
        for g, index in enumerate(generations):
            warm(index, inputs)
            run.check_reference(index, inputs.check_pairs, references[g])
            expected.append([index.distances(b) for b in inputs.neighbourhood])
        changed = {edge for changes in pool for edge in changes}
        probes = {(a, b): _probe(generations, a, b, changed, inputs.neighbourhood)
                  for a, b in ((0, 1), (1, 2))}
        probes[2, 1] = probes[1, 2]
        probe_expected = {key: [generations[g].distances(probe) for g in range(3)]
                          for key, probe in probes.items()}
        await _serve(run, inputs, server, host, port, generations, expected, probes,
                     probe_expected)
        run.facts.update(
            {f"fleet.stats.{k}": float(v) for k, v in server.stats.as_dict().items()
             if isinstance(v, (int, float))}
        )
    finally:
        if server is not None:
            await server.aclose()
        if restore is not None:
            restore()


async def _serve(run: Run, inputs: pin.Inputs, server: FleetServer, host: str, port: int,
                 generations: List[HC2LIndex], expected, probes, probe_expected) -> None:
    """Closed-loop clients against the fleet while generations swap under them.

    Only batches sent and answered within one untraced window are latency
    samples, and only time and replies in untraced windows make up the
    throughput; requests sent in traced windows feed the span breakdown.  After each swap a
    client first sends that swap's probe, whose reply must come from the
    new generation; a swap no reply proves adopted counts as a failure.
    """
    loop = asyncio.get_running_loop()
    tracer = run.tracer
    # published[j]: the generation served after j swaps; a reply may come
    # from any generation published between its request's send and arrival
    published = [0]
    swaps = {"started": 0, "done": 0}
    proven = set()
    # the current trace window, and (start, traced) of every window so far
    window = {"traced": False, "id": 0}
    marks: List[Tuple[float, bool]] = []
    untraced_pairs = [0]
    ends: List[float] = []
    neighbourhood = inputs.neighbourhood

    def verify(got, answers, lo: int, hi: int) -> bool:
        """Count wrong answers; True for a right reply only generation ``lo`` allowed."""
        got = np.asarray(got, dtype=np.float64)
        run.attempted += len(got)
        allowed = {published[j] for j in range(lo, hi + 1)}
        wrong = min(int(np.count_nonzero(got != answers(g))) for g in allowed)
        run.failed += wrong
        return len(allowed) == 1 and wrong == 0

    def flip(traced: bool) -> None:
        window.update(traced=traced, id=window["id"] + 1)
        marks.append((perf_counter(), traced))

    clients = [await FleetClient.connect(host, port, wire="binary") for _ in range(FLEET_CLIENTS)]
    try:
        for client in clients:  # warm both connections and the worker
            await client.distances(neighbourhood[0])
        gc.collect()
        server.reset_stats()
        start = perf_counter()
        marks.append((start, False))
        deadline = start + run.seconds * SERVE_SHARE

        async def send(client: FleetClient, pairs: np.ndarray):
            """One request: ``(answers, seconds, sent in window, sent traced)``."""
            sent, traced = window["id"], window["traced"]
            t0 = perf_counter()
            got = await client.distances(pairs)
            elapsed = perf_counter() - t0
            if traced:  # every request a client span covers
                run.by_tracing["serve"][1].append(elapsed)
            return got, t0, elapsed, sent == window["id"] and not traced

        async def client_loop(c: int, client: FleetClient) -> None:
            i = probed = 0
            # serve on until every swap that started has been probed
            while perf_counter() < deadline or probed < swaps["started"]:
                if probed < swaps["done"]:
                    probed += 1
                    key = (published[probed - 1], published[probed])
                    got, *_ = await send(client, probes[key])
                    if verify(got, lambda g: probe_expected[key][g], probed, swaps["started"]):
                        proven.add(probed)
                    continue
                k = (c * 997 + i) % len(neighbourhood)
                i += 1
                lo = swaps["done"]
                got, t0, elapsed, untraced = await send(client, neighbourhood[k])
                verify(got, lambda g: expected[g][k], lo, swaps["started"])
                if not window["traced"]:
                    untraced_pairs[0] += len(got)
                if untraced:
                    run.samples["served.batch32"].append((t0, elapsed, 1))
            ends.append(perf_counter())

        async def swap_loop() -> None:
            period = (deadline - start) / (FLEET_SWAPS_PER_RUN + 1)
            n = 0
            while True:
                await asyncio.sleep(period)
                if perf_counter() + period / 2 > deadline:
                    return
                n += 1
                generation = 1 + (n - 1) % 2
                published.append(generation)
                swaps["started"] += 1
                t0 = perf_counter()
                await loop.run_in_executor(None, functools.partial(
                    generations[generation].save_sharded, server.path.parent / "index.npz",
                    num_shards=FLEET_SHARDS, boundaries="hierarchy"))
                await server.reload()
                run.sample("swap", t0)
                swaps["done"] += 1

        async def trace_windows() -> None:
            tracer.phase = "serve"
            while perf_counter() < deadline:
                flip(not window["traced"])
                if window["traced"]:
                    tracer.install()
                else:
                    tracer.uninstall()
                await asyncio.sleep(TRACE_WINDOW_S)
            flip(False)
            tracer.uninstall()

        tasks = [client_loop(c, client) for c, client in enumerate(clients)]
        tasks.append(swap_loop())
        if tracer is not None:
            tasks.append(trace_windows())
        await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.aclose()
    # every swap must be seen adopted, and a run must swap at least once
    run.failed += max(1, swaps["done"]) - len(proven)
    run.record["swaps"] = {"done": swaps["done"], "proven": len(proven)}
    end = max(ends)
    bounds = [t for t, _ in marks[1:]] + [end]
    untraced_s = sum(min(stop, end) - min(begin, end)
                     for (begin, traced), stop in zip(marks, bounds) if not traced)
    run.facts["fleet.pairs_per_s"] = untraced_pairs[0] / untraced_s


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
WORKLOADS = {"build-int": build_int, "query-float": query_float}


def execute(workload: str, size: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Run:
    run = Run(workload, size, seed, seconds, trace, workdir)
    graph = pin.workload_graph(workload, size)
    pinned = pin.check_pins(workload, size, graph)
    inputs = pin.make_inputs(workload, size, seed, graph)
    run.record["inputs"] = {"pinned_seed": pin.PIN_SEED, "pinned": pinned,
                            "this_seed": inputs.checksums}
    run.calibrator.start()
    try:
        WORKLOADS[workload](run, inputs)
    finally:
        run.calibrator.stop()
    run.facts["peak_rss_mb"] = peak_rss_mb()
    run.record["calibration"] = {
        "reference_s": REFERENCE_S,
        "median_s": median(run.calibrator.durations),
        "slices": len(run.calibrator.durations),
    }
    if run.tracer is not None:
        merge_worker_dumps(run.tracer, workdir)
    return run


def end_to_end(run: Run) -> Dict[str, float]:
    """The bounded metrics at reference host speed; raw ones go to the record."""
    out = {}
    for normalised in (False, True):
        def values(name):
            return run.values(name, normalised)

        pairs_per_s = 1.0 / median(values("uniform")) * run.config["uniform_batch"]
        out = {
            "setup_s": median(values("setup")),
            "build_s": median(values("build")),
            "update_s": median([
                median(values(name)) for name in run.samples if name.startswith("update.")
            ]),
            "pairs_per_s": pairs_per_s,
            "batch32_p50_us": median(values("batch32")) * 1e6,
            "batch32_p90_us": p90(values("batch32")) * 1e6,
            "scalar_us": median(values("scalar")) * 1e6,
            "index_bytes": run.facts["index_bytes"],
            "peak_rss_mb": run.facts["peak_rss_mb"],
        }
        if not normalised:
            run.record["raw_metrics"] = out
    return out


def sample_counts(run: Run) -> Dict[str, int]:
    counts = {name: len(values) for name, values in sorted(run.samples.items())}
    counts["calibration"] = len(run.calibrator.durations)
    return counts


def per_layer(run: Run) -> Dict[str, float]:
    tracer = run.tracer
    out = {m["name"]: 0.0 for m in PER_LAYER}

    def calls(phase, name):
        return tracer.get(phase, name)[0]

    def total(phase, name):
        return tracer.get(phase, name)[1]

    def self_time(phase, name):
        return tracer.get(phase, name)[2]

    def per_call(name, scale=1.0):
        n = t = 0.0
        for (_, span), (c, inclusive, _) in tracer.stats.items():
            if span == name:
                n += c
                t += inclusive
        return t / n * scale if n else 0.0

    def other(phase):
        return (run.phase_time[phase] - tracer.covered[phase]) / run.phase_ops[phase]

    out["graph.read_s"] = per_call("graph.read")
    builds = run.phase_ops["build"]
    if builds:
        per = 1.0 / builds
        out["graph.contract_s"] = total("build", "graph.contract") * per
        out["core.snapshot_s"] = total("build", "core.snapshot") * per
        out["core.snapshot_calls"] = calls("build", "core.snapshot") * per
        out["partition.cut_s"] = total("build", "partition.cut") * per
        out["partition.cut_calls"] = calls("build", "partition.cut") * per
        out["flow.maxflow_s"] = total("build", "flow.maxflow") * per
        out["flow.maxflow_calls"] = calls("build", "flow.maxflow") * per
        out["core.label_s"] = (total("build", "core.rank") + total("build", "core.label")) * per
        out["core.label_nodes"] = calls("build", "core.label") * per
        out["partition.shortcuts_s"] = (
            total("build", "partition.shortcuts") + total("build", "partition.child_adjacency")
        ) * per
        for backend in ("heap", "csr", "dial"):
            span = f"core.backends.{backend}"
            out[f"{span}_calls"] = calls("build", span + ".served") * per
            out[f"{span}_s"] = self_time("build", span) * per
        out["build.other_s"] = other("build")
    epochs = run.phase_ops["update"]
    if epochs:
        out["core.dynamic.relabel_s"] = total("update", "core.dynamic.relabel") / epochs
        out["core.dynamic.dial_calls"] = calls("update", "core.backends.dial.served") / epochs
        out["update.other_s"] = other("update")
    if run.nodes_recomputed:
        out["core.dynamic.nodes_recomputed"] = float(np.mean(run.nodes_recomputed))
    for shape in ("uniform", "batch32"):
        phase = f"read.{shape}"
        n = run.phase_ops[phase]
        if not n:
            continue
        scale = 1e6 / n
        out[f"core.engine.{shape}.validate_us"] = total(phase, "core.engine.validate") * scale
        out[f"core.engine.{shape}.resolve_us"] = total(phase, "core.engine.resolve") * scale
        out[f"core.engine.{shape}.lca_us"] = total(phase, "core.engine.lca") * scale
        out[f"core.engine.{shape}.minplus_us"] = self_time(phase, "core.engine.distances") * scale
        out[f"read.{shape}.other_us"] = other(phase) * 1e6
    out["core.persistence.save_s"] = per_call("core.persistence.save")
    out["core.persistence.load_s"] = per_call("core.persistence.load")
    requests = calls("serve", "fleet.client")
    if requests:
        client = total("serve", "fleet.client") / requests
        frontdoor = per_call("fleet.frontdoor")
        placement = per_call("fleet.placement")
        roundtrip = per_call("fleet.worker_roundtrip.distances")
        out["fleet.wire_us"] = (client - frontdoor) * 1e6
        out["fleet.frontdoor_us"] = (frontdoor - placement - roundtrip) * 1e6
        out["fleet.placement_us"] = placement * 1e6
        out["fleet.worker_roundtrip_us"] = roundtrip * 1e6
        out["fleet.worker_compute_us"] = per_call("fleet.worker_compute", 1e6)
        out["fleet.codec_us"] = total("serve", "fleet.codec") / requests * 1e6
        out["fleet.reload_s"] = per_call("fleet.reload")
        traced_latency = run.by_tracing["serve"][1]
        if traced_latency:
            out["serve.other_us"] = (float(np.mean(traced_latency)) - client) * 1e6
    if "served.batch32" in run.samples:
        def raw(name):
            return run.values(name, normalised=False)

        served = raw("served.batch32")
        out["fleet.swap_s"] = median(raw("swap"))
        out["fleet.start_s"] = median(raw("fleet.start"))
        out["fleet.batch32_p50_us"] = median(served) * 1e6
        out["fleet.batch32_p90_us"] = p90(served) * 1e6
    for name in out:
        if name in run.facts:
            out[name] = run.facts[name]
    out["trace.overhead_pct"] = trace_overhead(run)
    # spans carry no timestamps: scale by the run's median kernel time
    factor = REFERENCE_S / median(run.calibrator.durations)
    scale = {"s": factor, "us": factor, "1/s": 1.0 / factor}
    return {name: value * scale.get(UNITS[name], 1.0) for name, value in out.items()}


def trace_overhead(run: Run) -> float:
    """Traced over untraced median time of a uniform batch, in %.

    The engine's microsecond spans make reads the worst case; a build's
    spans cover milliseconds each.
    """
    plain, traced = run.by_tracing["uniform"]
    return (median(traced) / median(plain) - 1.0) * 100.0 if plain and traced else 0.0

