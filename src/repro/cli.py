"""Command line interface for the HC2L reproduction.

Five subcommands cover the typical workflow of a downstream user:

``build``
    Build an HC2L index from a DIMACS ``.gr`` file (or a synthetic
    dataset) and save it to disk.
``shard``
    Split a saved index into the sharded layout (``<path>.shards/``:
    ``manifest.json`` + label-free ``base.npz`` + per-range shard
    archives) for multi-worker serving.
``query``
    Load a saved index (``--mmap`` maps the labels, ``--shards`` serves
    a sharded layout through the shard router) and answer source/target
    queries.
``compare``
    Build HC2L and selected baselines on a dataset and print the
    comparison table (a miniature Table 2).
``serve``
    Serve a sharded layout through the multi-process fleet: an asyncio
    TCP front door placing batches onto shard-owning worker processes
    (``--wire`` picks the response framing, ``--shared-cache-slots``
    enables the cross-worker shared-memory pair cache).
``fleet-bench``
    Run the closed-loop fleet benchmark (p50/p99 latency and
    majority-placement hit rate per worker count and wire mode, plus a
    shared-cache on/off comparison) on a saved index.
``reload``
    Ask a running fleet (``repro serve``) to hot-swap onto the index
    generation currently on disk - write the new generation with
    ``HC2LIndex.save_sharded`` first, then ``repro reload --port N``.
``generate``
    Write a synthetic road network to a DIMACS ``.gr`` file so it can be
    used with external tools.

Run ``python -m repro.cli --help`` for the full option listing.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.index import HC2LIndex
from repro.graph.generators import RoadNetworkSpec, synthetic_road_network
from repro.graph.graph import Graph
from repro.graph.io import read_dimacs, write_dimacs


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical Cut 2-Hop Labelling (HC2L) command line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build", help="build an HC2L index and save it")
    _add_graph_source_arguments(build)
    build.add_argument("--output", "-o", required=True, help="path for the saved index")
    build.add_argument("--beta", type=float, default=0.2, help="balance parameter (default 0.2)")
    build.add_argument("--leaf-size", type=int, default=12, help="recursion cut-off (default 12)")
    build.add_argument("--no-tail-pruning", action="store_true", help="disable tail pruning")
    build.add_argument("--no-contraction", action="store_true", help="disable degree-one contraction")
    build.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count: 1 builds sequentially, >=2 uses the parallel builder",
    )
    build.add_argument(
        "--parallel-mode",
        choices=["thread", "process"],
        default="thread",
        help=(
            "execution of the parallel builder (with --workers >= 2): "
            "thread (shared-memory pool, GIL-bound) or process "
            "(self-contained subtree work units on a process pool)"
        ),
    )
    from repro.core.backends import BACKEND_NAMES
    from repro.flow.vertex_cut import FLOW_METHOD_CHOICES

    build.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="auto",
        help=(
            "shortest-path backend for the construction searches: heap "
            "(pure-Python Dijkstra), csr (batched scipy/numpy searches), "
            "dial (opt-in bucket-queue searches for integer-scalable "
            "weights; slower than heap on road graphs), or auto (csr when "
            "scipy is available, else heap; the default)"
        ),
    )
    build.add_argument(
        "--flow-method",
        choices=list(FLOW_METHOD_CHOICES),
        default="auto",
        help=(
            "max-flow solver for the hierarchy phase's minimum vertex "
            "cuts (cuts are bit-identical across solvers): auto defers "
            "to the backend (the default)"
        ),
    )
    build.add_argument(
        "--tree-sidecar",
        action="store_true",
        help=(
            "also persist the Euler-tour tree resolver next to the index "
            "(<output>.tree/) so mmap-loading workers skip the per-process "
            "rebuild"
        ),
    )

    shard = subparsers.add_parser(
        "shard", help="split a saved index into a sharded layout for multi-worker serving"
    )
    shard.add_argument("index", help="path to an index written by 'repro build'")
    shard.add_argument(
        "--shards", type=int, default=2, help="number of vertex-range shards (default 2)"
    )
    shard.add_argument(
        "--boundaries",
        choices=["even", "hierarchy"],
        default="even",
        help=(
            "shard boundary layout: even core-id ranges (default) or "
            "hierarchy (labels stored in subtree DFS order, boundaries "
            "aligned with the hierarchy's top cuts so nearby queries stay "
            "inside one shard)"
        ),
    )
    shard.add_argument(
        "--allow-pickle",
        action="store_true",
        help="also accept legacy pickle index files (runs arbitrary code; trusted files only)",
    )

    query = subparsers.add_parser("query", help="answer distance queries from a saved index")
    query.add_argument("index", help="path to an index written by 'repro build'")
    query.add_argument("pairs", nargs="*", help="queries as s,t pairs (e.g. 3,17 42,7)")
    query.add_argument("--stdin", action="store_true", help="read 's t' pairs from standard input")
    query.add_argument(
        "--allow-pickle",
        action="store_true",
        help="also accept legacy pickle index files (runs arbitrary code; trusted files only)",
    )
    query.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the label buffers so concurrent processes share one copy",
    )
    query.add_argument(
        "--shards",
        action="store_true",
        help="serve from the sharded layout written by 'repro shard' (lazily mmap-loads shards)",
    )

    compare = subparsers.add_parser("compare", help="compare HC2L against baselines on one graph")
    _add_graph_source_arguments(compare)
    compare.add_argument(
        "--methods",
        default="HC2L,H2H,HL",
        help=(
            "comma separated methods "
            "(HC2L, HC2L_p, H2H, PHL, HL, PLL, CH, BiDijkstra, Dijkstra)"
        ),
    )
    compare.add_argument("--queries", type=int, default=1000, help="random query count (default 1000)")

    serve = subparsers.add_parser(
        "serve", help="serve a sharded layout through the multi-process fleet over TCP"
    )
    serve.add_argument("index", help="index whose sharded layout ('repro shard') to serve")
    serve.add_argument("--workers", type=int, default=2, help="worker process count (default 2)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, help="bind port (default: ephemeral)")
    serve.add_argument(
        "--window-ms",
        type=float,
        default=0.5,
        help="scalar coalescing window in milliseconds (default 0.5)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=4096, help="cap on one coalesced batch (default 4096)"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then drain and exit (default: until interrupted)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        help="write 'host port' to this file once the listener is bound",
    )
    serve.add_argument(
        "--wire",
        choices=["json", "binary"],
        default="binary",
        help="TCP response framing for array ops (default binary; JSON "
        "requests always get JSON replies)",
    )
    serve.add_argument(
        "--shared-cache-slots",
        type=int,
        default=0,
        help="capacity of the cross-worker shared-memory pair cache "
        "(default 0: disabled)",
    )

    fleet_bench = subparsers.add_parser(
        "fleet-bench",
        help="closed-loop fleet benchmark: p50/p99 latency per worker count",
    )
    fleet_bench.add_argument("index", help="path to an index written by 'repro build'")
    fleet_bench.add_argument(
        "--workers", default="2,3", help="comma separated worker counts (default 2,3)"
    )
    fleet_bench.add_argument(
        "--shards", type=int, default=4, help="shard count of the bench layout (default 4)"
    )
    fleet_bench.add_argument(
        "--clients", type=int, default=4, help="concurrent TCP clients (default 4)"
    )
    fleet_bench.add_argument(
        "--batches", type=int, default=48, help="number of locality batches (default 48)"
    )
    fleet_bench.add_argument(
        "--batch-size", type=int, default=32, help="pairs per batch (default 32)"
    )
    fleet_bench.add_argument(
        "--wires",
        default="json,binary",
        help="comma separated wire modes to sweep (default json,binary)",
    )
    fleet_bench.add_argument(
        "--shared-cache-slots",
        type=int,
        default=4096,
        help="capacity of the cross-worker shared cache during the sweep "
        "(default 4096; 0 disables it)",
    )
    fleet_bench.add_argument(
        "--allow-pickle",
        action="store_true",
        help="also accept legacy pickle index files (runs arbitrary code; trusted files only)",
    )

    reload_parser = subparsers.add_parser(
        "reload",
        help="hot-swap a running fleet onto the index generation currently on disk",
    )
    reload_parser.add_argument("--host", default="127.0.0.1", help="fleet host (default 127.0.0.1)")
    reload_parser.add_argument("--port", type=int, required=True, help="fleet TCP port")
    reload_parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the drain + swap (default 120)",
    )

    generate = subparsers.add_parser("generate", help="write a synthetic road network as DIMACS")
    generate.add_argument("--vertices", type=int, default=1000, help="approximate vertex count")
    generate.add_argument("--seed", type=int, default=7, help="generator seed")
    generate.add_argument("--weighting", choices=["distance", "travel_time"], default="distance")
    generate.add_argument("--output", "-o", required=True, help="path of the .gr file to write")

    return parser


def _add_graph_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="path to a DIMACS .gr file")
    source.add_argument("--synthetic", type=int, metavar="N", help="generate a synthetic network with ~N vertices")
    parser.add_argument("--seed", type=int, default=7, help="seed for --synthetic (default 7)")
    parser.add_argument(
        "--weighting",
        choices=["distance", "travel_time"],
        default="distance",
        help="weighting used when --synthetic is given",
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph", None):
        return read_dimacs(args.graph)
    network = synthetic_road_network(
        RoadNetworkSpec("cli", num_vertices=args.synthetic, seed=args.seed)
    )
    return network.graph(args.weighting)


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #
def _cmd_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    print(f"building HC2L on {graph.num_vertices} vertices / {graph.num_edges} edges ...")
    index = HC2LIndex.build(
        graph,
        beta=args.beta,
        leaf_size=args.leaf_size,
        tail_pruning=not args.no_tail_pruning,
        contract=not args.no_contraction,
        num_workers=args.workers,
        parallel_mode=args.parallel_mode,
        backend=args.backend,
        flow_method=args.flow_method,
    )
    index.save(args.output, tree_sidecar=args.tree_sidecar)
    summary = index.describe()
    print(f"saved to {args.output}")
    print(
        f"  construction {summary['construction_seconds']:.2f}s, "
        f"labels {summary['label_size_bytes'] / 1024:.1f} KB, "
        f"height {int(summary['tree_height'])}, max cut {int(summary['max_cut_size'])}"
    )
    return 0


def _parse_pairs(args: argparse.Namespace) -> List[tuple[int, int]]:
    pairs: List[tuple[int, int]] = []
    for chunk in args.pairs:
        s, t = chunk.replace(",", " ").split()
        pairs.append((int(s), int(t)))
    if args.stdin:
        for line in sys.stdin:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            s, t = line.replace(",", " ").split()[:2]
            pairs.append((int(s), int(t)))
    return pairs


def _cmd_shard(args: argparse.Namespace) -> int:
    index = HC2LIndex.load(args.index, allow_pickle=args.allow_pickle)
    layout = index.save_sharded(
        args.index, num_shards=args.shards, boundaries=args.boundaries
    )
    from repro.core.persistence import load_manifest

    _, manifest = load_manifest(layout)
    unit = "core vertices" if manifest["vertex_order"] == "identity" else "DFS positions"
    print(f"sharded {args.index} into {layout} ({args.boundaries} boundaries)")
    for shard in manifest["shards"]:
        print(
            f"  {shard['file']}: {unit} [{shard['lo']}, {shard['hi']}), "
            f"{shard['num_entries']} label entries"
        )
    print("serve it with: repro query --shards " + str(args.index) + " s,t ...")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.shards:
        from repro.serving import ShardRouter

        oracle = ShardRouter(args.index)
    else:
        oracle = HC2LIndex.load(
            args.index, allow_pickle=args.allow_pickle, mmap_labels=args.mmap
        )
    pairs = _parse_pairs(args)
    if not pairs:
        print("no query pairs given (pass s,t arguments or --stdin)", file=sys.stderr)
        return 2
    for (s, t), value in zip(pairs, oracle.distances(pairs).tolist()):
        print(f"{s}\t{t}\t{value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.harness import run_cell
    from repro.experiments.methods import METHOD_BUILDERS
    from repro.experiments.report import render_table
    from repro.experiments.workloads import random_pairs

    graph = _load_graph(args)
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    unknown = [name for name in methods if name not in METHOD_BUILDERS]
    if unknown:
        print(f"unknown methods: {', '.join(unknown)}", file=sys.stderr)
        return 2
    pairs = random_pairs(graph, args.queries, seed=17)
    rows = []
    for name in methods:
        cell = run_cell(METHOD_BUILDERS[name], graph, pairs, dataset_name="cli")
        row = {
            "method": name,
            "query_us": round(cell.query_microseconds, 3),
            "label_size_bytes": cell.label_size_bytes,
            "construction_s": round(cell.construction_seconds, 3),
            "avg_hubs": round(cell.average_hubs, 1),
        }
        # every method answers the batch protocol; report the batched number
        if "batch_query_microseconds" in cell.extra:
            row["batch_us"] = round(cell.extra["batch_query_microseconds"], 3)
        rows.append(row)
    print(render_table(rows, title=f"comparison on {graph.num_vertices} vertices"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.serving.fleet import FleetOracle

    fleet = FleetOracle(
        args.index,
        num_workers=args.workers,
        window_seconds=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        wire=args.wire,
        shared_cache_slots=args.shared_cache_slots,
    )
    try:
        host, port = fleet.start_tcp(args.host, args.port)
        cache = (
            f"shared cache {args.shared_cache_slots} slots"
            if args.shared_cache_slots
            else "shared cache off"
        )
        print(
            f"fleet serving {args.index} on {host}:{port} with "
            f"{args.workers} workers (wire={args.wire}, {cache})"
        )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            print("interrupted; draining ...")
    finally:
        fleet.close()
    print("fleet stopped")
    return 0


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.experiments.fleet import fleet_latency_rows

    index = HC2LIndex.load(args.index, allow_pickle=args.allow_pickle)
    worker_counts = [int(w) for w in args.workers.split(",") if w.strip()]
    if not worker_counts:
        print("no worker counts given", file=sys.stderr)
        return 2
    wires = [w.strip() for w in args.wires.split(",") if w.strip()]
    if not wires:
        print("no wire modes given", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        rows = fleet_latency_rows(
            index,
            index.graph,
            workdir,
            worker_counts=worker_counts,
            num_shards=args.shards,
            num_clients=args.clients,
            num_batches=args.batches,
            batch_size=args.batch_size,
            wires=wires,
            shared_cache_slots=args.shared_cache_slots,
        )
    print(json.dumps(rows, indent=2))
    return 0


def _cmd_reload(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serving.fleet import FleetClient

    async def run() -> dict:
        client = await FleetClient.connect(args.host, args.port)
        try:
            return await asyncio.wait_for(client.reload(), timeout=args.timeout)
        finally:
            await client.aclose()

    try:
        reply = asyncio.run(run())
    except (ConnectionError, OSError, asyncio.TimeoutError) as error:
        print(f"reload failed: {error!r}", file=sys.stderr)
        return 1
    print(json.dumps(reply, indent=2))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    network = synthetic_road_network(
        RoadNetworkSpec("generated", num_vertices=args.vertices, seed=args.seed)
    )
    graph = network.graph(args.weighting)
    write_dimacs(graph, args.output, comment=f"synthetic road network seed={args.seed}")
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges to {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "shard": _cmd_shard,
        "query": _cmd_query,
        "compare": _cmd_compare,
        "serve": _cmd_serve,
        "fleet-bench": _cmd_fleet_bench,
        "reload": _cmd_reload,
        "generate": _cmd_generate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())

