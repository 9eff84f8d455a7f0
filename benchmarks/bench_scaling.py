"""E5 — Conclusion: complexity of the implementation.

The paper states the implementation "directly follows the structure of the
specifications" with a worst-case complexity of O(n^5), conjectured improvable
to cubic because the analysis decomposes into "three bit-vector frameworks
(each being linear time in practice) and a cubic time reachability analysis".

These benchmarks time (i) the bit-vector Reaching Definitions phases and
(ii) the closure phase separately on a synthetic program family of growing
size, so the report exposes the near-linear growth of the former and the
super-linear growth of the latter.  Since the interned-bitset engine landed
(``dataflow.worklist.solve`` on int bitsets, SCC-condensed column propagation
in ``analysis.closure.propagate``) the family extends to the 8×64 and 16×64
chains; ``benchmarks/run_benchmarks.py`` snapshots the timings into
``BENCH_scaling.json`` at the repo root so future changes have a perf
trajectory to compare against.

The cold-path phases (``test_cold_*``, ``test_closure_backend``,
``test_flow_graph_backend``, and the batch/serve groups below) price first
contact and deployment modes rather than asymptotics; docs/performance.md
walks through what each one demonstrates.
"""

import pytest

from repro.analysis.closure import global_resource_matrix
from repro.analysis.flowgraph import FlowGraph
from repro.analysis.local_deps import local_resource_matrix
from repro.analysis.resource_matrix import base_resource
from repro.analysis.reaching_active import analyze_all_active_signals
from repro.analysis.reaching_defs import analyze_reaching_definitions
from repro.analysis.specialize import specialize
from repro.analysis.api import analyze_design
from repro.cfg.builder import build_cfg
from repro.dataflow import bitset
from repro.pipeline import (
    AnalysisOptions,
    AnalysisServer,
    ArtifactCache,
    DiskArtifactCache,
    Pipeline,
    ServerThread,
    TieredArtifactCache,
    expand_jobs,
    run_batch,
)
from repro.hier import (
    build_hierarchy,
    flatten_source,
    link_hierarchy,
    summary_cache_key,
)
from repro.security.policy import TwoLevelPolicy, check_policy
from repro.vhdl.elaborate import elaborate, elaborate_source
from repro.vhdl.parser import parse_program
from repro.workloads import (
    hierarchical_register_file,
    multi_entity_program,
    synthetic_chain_program,
)

#: (processes, assignments per process) — program size grows left to right.
#: The 8×64 chain is the headline workload of the bitset-engine optimisation;
#: 16×64 is ~4× its flow-graph size and was out of reach for the frozenset
#: implementation.
SIZES = [(2, 4), (2, 16), (4, 16), (4, 32), (8, 32), (8, 64), (16, 64)]


def _design(processes, assignments):
    return elaborate_source(synthetic_chain_program(processes, assignments))


@pytest.mark.parametrize("processes,assignments", SIZES)
def test_full_analysis_scaling(benchmark, report, processes, assignments):
    """End-to-end analysis time as the program grows."""
    design = _design(processes, assignments)

    def run():
        return analyze_design(design, improved=True)

    result = benchmark(run)
    stats = result.program_cfg.summary()
    report(
        processes=processes,
        assignments_per_process=assignments,
        blocks=stats["labels"],
        flow_edges=stats["flow_edges"],
        global_entries=len(result.rm_global),
        graph_edges=result.graph.edge_count(),
    )


@pytest.mark.parametrize("processes,assignments", SIZES)
def test_bitvector_phases_scaling(benchmark, report, processes, assignments):
    """The Reaching Definitions phases (the paper's three bit-vector frameworks)."""
    design = _design(processes, assignments)
    program_cfg = build_cfg(design)

    def run():
        active = analyze_all_active_signals(program_cfg.processes)
        return analyze_reaching_definitions(program_cfg, active)

    benchmark(run)
    report(
        processes=processes,
        assignments_per_process=assignments,
        blocks=len(program_cfg.blocks),
    )


@pytest.mark.parametrize("processes,assignments", SIZES)
def test_closure_phase_scaling(benchmark, report, processes, assignments):
    """The closure phase alone (the paper's cubic reachability component)."""
    design = _design(processes, assignments)
    program_cfg = build_cfg(design)
    active = analyze_all_active_signals(program_cfg.processes)
    reaching = analyze_reaching_definitions(program_cfg, active)
    rm_local = local_resource_matrix(program_cfg)
    specialized = specialize(program_cfg, rm_local, active, reaching)

    def run():
        return global_resource_matrix(program_cfg, rm_local, specialized)

    result = benchmark(run)
    report(
        processes=processes,
        assignments_per_process=assignments,
        local_entries=len(rm_local),
        global_entries=len(result.rm_global),
    )


# ------------------------------------------------------------------- cold path
#
# The cold-path phases price first contact: what a fresh process pays before
# any cache tier can help.  The front end is measured split (tokenise+parse
# vs elaborate) on the 32×128 chain — the scale the fast-path rewrite was
# profiled at — and the closure/flow-graph phases run once per bitset
# backend (`repro.dataflow.bitset`), which is where the committed
# DEFAULT_SELECTION numbers come from.

#: The cold-path chain shape (processes, assignments per process).
COLD_SHAPE = (32, 128)


@pytest.fixture(scope="module")
def cold_source():
    return synthetic_chain_program(*COLD_SHAPE)


def test_cold_parse(benchmark, report, cold_source):
    """Cold single-file front end, parse half: tokenise + parse only."""
    program = benchmark(lambda: parse_program(cold_source))
    report(
        shape=COLD_SHAPE,
        source_bytes=len(cold_source),
        architectures=len(program.architectures),
    )


def test_cold_elaborate(benchmark, report, cold_source):
    """Cold single-file front end, elaborate half (parse done once outside)."""
    program = parse_program(cold_source)
    design = benchmark(lambda: elaborate(program, None))
    report(shape=COLD_SHAPE, processes=len(design.processes))


@pytest.fixture(scope="module")
def cold_closure_inputs(cold_source):
    design = elaborate_source(cold_source)
    program_cfg = build_cfg(design)
    active = analyze_all_active_signals(program_cfg.processes)
    reaching = analyze_reaching_definitions(program_cfg, active)
    rm_local = local_resource_matrix(program_cfg)
    specialized = specialize(program_cfg, rm_local, active, reaching)
    return program_cfg, rm_local, specialized


@pytest.mark.parametrize("backend", [bitset.INT, bitset.WORDS])
def test_closure_backend(benchmark, report, cold_closure_inputs, backend):
    """The 32×128 closure phase, once per bitset backend."""
    if backend == bitset.WORDS and not bitset.HAVE_WORD_BACKEND:
        pytest.skip("numpy not available")
    program_cfg, rm_local, specialized = cold_closure_inputs

    def run():
        with bitset.force_backend(backend):
            return global_resource_matrix(program_cfg, rm_local, specialized)

    result = benchmark(run)
    report(
        shape=COLD_SHAPE,
        backend=backend,
        selected=bitset.backend_for("closure"),
        global_entries=len(result.rm_global),
    )


@pytest.mark.parametrize("backend", [bitset.INT, bitset.WORDS])
def test_flow_graph_backend(benchmark, report, cold_closure_inputs, backend):
    """Building the 32×128 flow graph, once per bitset backend."""
    if backend == bitset.WORDS and not bitset.HAVE_WORD_BACKEND:
        pytest.skip("numpy not available")
    program_cfg, rm_local, specialized = cold_closure_inputs
    closure = global_resource_matrix(program_cfg, rm_local, specialized)

    def run():
        return FlowGraph.from_resource_matrix(closure.rm_global, backend=backend)

    graph = benchmark(run)
    report(
        shape=COLD_SHAPE,
        backend=backend,
        selected=bitset.backend_for("flow_graph"),
        graph_edges=graph.edge_count(),
    )


# ---------------------------------------------------------------- policy check
#
# The report stage's policy check on the improved 32×128 chain graph, under
# a two-level policy.  ``direct`` and ``transitive`` make ``chain_in``
# secret.  Channel-control mode masks each predecessor row with its level's
# forbidden set and decodes only the violations; transitive mode adds the
# successor transpose, one reach walk per secret node and one witness BFS
# per violating source.  ``transitive_wide`` makes every resource but
# ``chain_in`` secret, so every node but ``chain_in``'s may not flow into
# it: with that many sources ``FlowGraph.reach_bits`` condenses the graph
# instead of walking from each one.  The two transitive cases sit on either
# side of that choice.  Each round gets a fresh graph object over the same
# bitsets, so the transpose a transitive round caches on its graph is paid
# again by the next round.


@pytest.fixture(scope="module")
def cold_flow_graph(cold_source):
    return analyze_design(elaborate_source(cold_source), improved=True).graph


@pytest.mark.parametrize("mode", ["direct", "transitive", "transitive_wide"])
def test_policy_check(benchmark, report, cold_flow_graph, mode):
    """``check_policy`` on the 32×128 flow graph, in one checking mode."""
    graph = cold_flow_graph
    predecessors = graph.predecessor_map()
    if mode == "transitive_wide":
        secrets = {base_resource(node) for node in graph.nodes} - {"chain_in"}
    else:
        secrets = {"chain_in"}
    policy = TwoLevelPolicy(secret_resources=sorted(secrets))

    def run():
        fresh = FlowGraph(graph.universe, graph.node_bits, predecessors=predecessors)
        return check_policy(fresh, policy, transitive=mode != "direct")

    violations = benchmark(run)
    # Nothing flows back into the input port; the chain_in cases find the
    # flows out of it.
    assert bool(violations) == (mode != "transitive_wide")
    report(
        shape=COLD_SHAPE,
        mode=mode,
        graph_edges=graph.edge_count(),
        violations=len(violations),
    )


# ---------------------------------------------------------------- batch driver
#
# The batch-throughput phase: one source file holding BATCH_ENTITIES chain
# designs, expanded (as `vhdl-ifa batch --all-entities` does) into one
# analysis job per entity, and driven four ways — sequentially from cold,
# over the process pool, sequentially over a warm in-memory artifact cache,
# and cold-process over a populated on-disk cache dir.  The recorded
# trajectory shows what the deployment modes buy: pool speed-up scales with
# the machine's cores (on a single-core runner the pool only adds overhead),
# the warm-cache run skips every stage regardless, and the disk-warm run
# shows what a *fresh* invocation pays when `--cache-dir` already holds the
# artifacts (unpickling instead of re-analysis).

#: Entities per batch file × the per-entity chain shape.
BATCH_ENTITIES = 8
BATCH_SHAPE = (8, 32)


@pytest.fixture(scope="module")
def batch_jobs(tmp_path_factory):
    """One multi-entity workload file, expanded into per-entity jobs."""
    path = tmp_path_factory.mktemp("batch") / "designs.vhd"
    path.write_text(
        multi_entity_program(BATCH_ENTITIES, *BATCH_SHAPE), encoding="utf-8"
    )
    return expand_jobs([str(path)], all_entities=True)


def _assert_batch_ok(report):
    assert report.ok, [item.error for item in report.failures]
    return report


def test_batch_throughput_sequential(benchmark, report, batch_jobs):
    """Cold in-process batch: the baseline every other mode is measured against.

    This is the acceptance-criterion phase of the cold-path overhaul: the
    driver opens an in-run cache even without ``cache=``, so the eight
    entity jobs share one option-independent parse artifact and only the
    per-entity stages run eight times.
    """
    result = benchmark(
        lambda: _assert_batch_ok(
            run_batch(batch_jobs, AnalysisOptions(), parallel=False)
        )
    )
    report(jobs=len(batch_jobs), entities=BATCH_ENTITIES)


def test_batch_throughput_parallel(benchmark, report, batch_jobs):
    """The process-pool path (worker count = CPU count, pool startup included)."""
    result = benchmark(
        lambda: _assert_batch_ok(run_batch(batch_jobs, AnalysisOptions(), parallel=True))
    )
    report(jobs=len(batch_jobs), entities=BATCH_ENTITIES, workers=result.workers)


def test_batch_throughput_warm_cache(benchmark, report, batch_jobs):
    """Re-running a batch over a warm artifact cache: every stage served cached."""
    cache = ArtifactCache()
    cold = _assert_batch_ok(
        run_batch(batch_jobs, AnalysisOptions(), parallel=False, cache=cache)
    )

    def run():
        warm = _assert_batch_ok(
            run_batch(batch_jobs, AnalysisOptions(), parallel=False, cache=cache)
        )
        assert [item.text for item in warm.items] == [item.text for item in cold.items]
        return warm

    warm = benchmark(run)
    cached = set(warm.items[0].data["cached_stages"])
    assert {"parse", "elaborate", "closure"} <= cached
    report(
        jobs=len(batch_jobs),
        entities=BATCH_ENTITIES,
        cached_stages_per_job=sorted(cached),
        cache_entries=len(cache),
    )


def test_batch_lint_warm_cache(benchmark, report, batch_jobs):
    """Linting the batch workload over a warm cache.

    The lint stage is content-addressed like every other pipeline stage, so
    a warm re-run serves the full-catalog findings from the cache; this
    prices the per-job overhead the ``--lint`` flag adds to an
    already-cached batch (configuration filtering + section rendering).
    """
    from repro.analysis.lint import LintConfig

    cache = ArtifactCache()
    lint = LintConfig()
    cold = _assert_batch_ok(
        run_batch(
            batch_jobs, AnalysisOptions(), parallel=False, cache=cache, lint=lint
        )
    )

    def run():
        warm = _assert_batch_ok(
            run_batch(
                batch_jobs, AnalysisOptions(), parallel=False, cache=cache,
                lint=lint,
            )
        )
        assert [item.text for item in warm.items] == [item.text for item in cold.items]
        return warm

    warm = benchmark(run)
    cached = set(warm.items[0].data["cached_stages"])
    assert "lint" in cached
    findings_total = sum(
        item.data["lint"]["summary"]["findings"] for item in warm.items
    )
    report(
        jobs=len(batch_jobs),
        entities=BATCH_ENTITIES,
        findings_total=findings_total,
        cached_stages_per_job=sorted(cached),
    )


def test_batch_throughput_disk_warm(benchmark, report, batch_jobs, tmp_path_factory):
    """A cold process over a populated ``--cache-dir``: disk-served stages.

    Every round builds brand-new cache tiers (empty memory tier, fresh
    universe registry) over the same populated directory, so each measured
    run pays exactly what a fresh CLI invocation with ``--cache-dir`` pays:
    open the store, unpickle the artifacts, adopt the universes.
    """
    cache_dir = str(tmp_path_factory.mktemp("disk-cache") / "store")
    populate = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
    cold = _assert_batch_ok(
        run_batch(batch_jobs, AnalysisOptions(), parallel=False, cache=populate)
    )

    def run():
        tier = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
        warm = _assert_batch_ok(
            run_batch(batch_jobs, AnalysisOptions(), parallel=False, cache=tier)
        )
        assert [item.text for item in warm.items] == [item.text for item in cold.items]
        return warm

    warm = benchmark(run)
    cached = set(warm.items[0].data["cached_stages"])
    assert {"parse", "elaborate", "closure"} <= cached
    report(
        jobs=len(batch_jobs),
        entities=BATCH_ENTITIES,
        cached_stages_per_job=sorted(cached),
        disk_entries=len(DiskArtifactCache(cache_dir)),
    )


# ------------------------------------------------------------------- hierarchy
#
# The hierarchical-design phases price the compositional linker
# (docs/hierarchy.md) on a 2000-instance register file: a cold link
# (summaries built from scratch), an incremental re-link after a leaf-entity
# edit (exactly one summary recomputed, the rest served from cache), and the
# headline linked-vs-flattened ratio — the flattening oracle analyses the
# whole expanded design through the flat pipeline, whose whole-program
# Reaching Definitions phase scales quadratically with the label count,
# while the linker solves Table 5 per process and re-runs only the
# cross-process stages.

#: (cells, per-cell process depth) of the hierarchy workload.  The cell
#: count is the lever that separates the routes: the flat oracle's
#: whole-program Reaching Definitions and specialisation costs grow
#: super-linearly with the process count (every definition set spans every
#: process), while the linker's grow linearly — 2000 cells at a modest
#: depth clears the asserted floor with ~50% margin.
HIER_SHAPE = (2000, 8)

#: The minimum linked-vs-flattened speed-up the ratio phase asserts.
HIER_MIN_RATIO = 10.0


@pytest.fixture(scope="module")
def hier_program():
    return parse_program(hierarchical_register_file(*HIER_SHAPE))


def test_hier_link_cold(benchmark, report, hier_program):
    """Cold compositional link: summarise every entity, then compose."""
    result = benchmark(lambda: link_hierarchy(hier_program, AnalysisOptions()))
    stats = result.result.program_cfg.summary()
    report(
        shape=HIER_SHAPE,
        processes=stats["processes"],
        labels=stats["labels"],
        graph_edges=result.result.graph.edge_count(),
    )


def test_hier_link_incremental(benchmark, report):
    """Re-link after editing the leaf entity: one summary recomputed.

    Every round starts from a cache holding only the *unchanged* entity's
    summary (what a real cache holds after the edit invalidated the leaf),
    so the measured work is exactly the incremental cost: re-summarise one
    entity, re-run the link-time stages.
    """
    base = hierarchical_register_file(*HIER_SHAPE)
    edited = base.replace("state <= nxt;", "state <= (nxt xor clr);", 1)
    assert edited != base
    edited_program = parse_program(edited)
    hierarchy = build_hierarchy(edited_program)
    leaf_key = summary_cache_key(hierarchy.unit_of("reg_cell"))
    root_key = summary_cache_key(hierarchy.root_unit)

    warm = ArtifactCache()
    link_hierarchy(parse_program(base), AnalysisOptions(), cache=warm)
    root_summary = warm.get(root_key)
    assert root_summary is not None  # the root's slice is unaffected
    assert warm.get(leaf_key) is None  # the edit invalidated the leaf

    def run():
        cache = ArtifactCache()
        cache.put(root_key, root_summary)
        result = link_hierarchy(edited_program, AnalysisOptions(), cache=cache)
        assert leaf_key in cache  # exactly the leaf summary was recomputed
        return result

    result = benchmark(run)
    report(
        shape=HIER_SHAPE,
        entities_resummarised=1,
        processes=result.result.program_cfg.summary()["processes"],
    )


def test_hier_linked_vs_flattened(benchmark, report, hier_program):
    """The linked route vs the flattening oracle, same design, same options.

    The linked route is the benchmarked statistic and runs *first* (the
    oracle's multi-gigabyte flat artifacts would otherwise sit in memory,
    inflating the linked rounds); the flattened analysis then runs once and
    the ratio compares best-of-rounds link time against it.  Asserts the
    headline ratio of the subsystem: linking is at least ``HIER_MIN_RATIO``
    times faster on this 1000-instance design.
    """
    import time as time_module

    options = AnalysisOptions()
    link_times = []

    def run():
        started = time_module.perf_counter()
        result = link_hierarchy(hier_program, options)
        link_times.append(time_module.perf_counter() - started)
        return result

    linked = benchmark(run)
    link_adjacency = linked.result.graph.to_adjacency()
    link_seconds = min(link_times)
    del linked

    started = time_module.perf_counter()
    flattened = Pipeline().run(flatten_source(hier_program), options)
    flatten_seconds = time_module.perf_counter() - started
    assert flattened.result.graph.to_adjacency() == link_adjacency
    del flattened

    ratio = flatten_seconds / link_seconds
    assert ratio >= HIER_MIN_RATIO, (
        f"linked route only {ratio:.1f}x faster than flattening "
        f"({link_seconds:.2f}s vs {flatten_seconds:.2f}s)"
    )
    report(
        shape=HIER_SHAPE,
        flatten_seconds=round(flatten_seconds, 3),
        link_seconds=round(link_seconds, 3),
        ratio=round(ratio, 2),
        min_ratio=HIER_MIN_RATIO,
    )


# ------------------------------------------------------------------ serve mode
#
# The serve-mode latency phase: one long-lived AnalysisServer over a warm
# two-tier cache, hit with SERVE_REQUESTS sequential `POST /analyze` requests
# for one entity of the batch workload file.  This prices the full service
# round trip — HTTP parse, cache-served pipeline run, JSON render — i.e. the
# per-request floor of CI-style repeated traffic.

SERVE_REQUESTS = 16


def _post_analyze(port, path, entity):
    import http.client
    import json as json_module

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    connection.request(
        "POST", "/analyze", body=json_module.dumps({"file": path, "entity": entity})
    )
    response = connection.getresponse()
    body = response.read()
    assert response.status == 200, body
    return body


def test_serve_latency_warm(benchmark, report, tmp_path_factory):
    """N sequential requests against one warm server, per-request latency."""
    path = tmp_path_factory.mktemp("serve") / "designs.vhd"
    path.write_text(
        multi_entity_program(BATCH_ENTITIES, *BATCH_SHAPE), encoding="utf-8"
    )
    with ServerThread(
        AnalysisServer(port=0, cache=TieredArtifactCache(ArtifactCache()))
    ) as server:
        _post_analyze(server.port, str(path), "chain_0")  # warm the cache

        def run():
            for _ in range(SERVE_REQUESTS):
                _post_analyze(server.port, str(path), "chain_0")

        benchmark(run)
    report(
        requests_per_round=SERVE_REQUESTS,
        entity_shape=BATCH_SHAPE,
        cache="warm two-tier (in-memory front)",
    )


#: Concurrent clients hammering the pooled server, requests per client.
LOAD_CLIENTS = 4
LOAD_REQUESTS_PER_CLIENT = 4


def test_serve_concurrent_load(benchmark, report, tmp_path_factory):
    """K concurrent clients against the worker-pool server over a warm
    shared disk tier.

    Each client cycles through a *distinct* entity of the workload file —
    identical concurrent requests would be single-flighted into one
    analysis, which is the dedup phase's job to measure, not this one's.
    The recorded throughput and p95 price the full multi-tenant round trip:
    admission, pool dispatch, disk-tier cache hit in the worker, response.
    """
    import threading
    import time as time_module

    path = tmp_path_factory.mktemp("load") / "designs.vhd"
    path.write_text(
        multi_entity_program(BATCH_ENTITIES, *BATCH_SHAPE), encoding="utf-8"
    )
    cache_dir = str(tmp_path_factory.mktemp("load-cache") / "store")
    from repro.workspace import Workspace

    workspace = Workspace(cache_dir=cache_dir)
    latencies = []
    with ServerThread(
        AnalysisServer(
            port=0, workspace=workspace, workers=2, timeout=120.0, queue_depth=64
        )
    ) as server:
        for client in range(LOAD_CLIENTS):  # warm every entity once
            _post_analyze(server.port, str(path), f"chain_{client}")

        def client_loop(client):
            for _ in range(LOAD_REQUESTS_PER_CLIENT):
                started = time_module.perf_counter()
                _post_analyze(server.port, str(path), f"chain_{client}")
                latencies.append(time_module.perf_counter() - started)

        round_seconds = []

        def run():
            started = time_module.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(client,))
                for client in range(LOAD_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            round_seconds.append(time_module.perf_counter() - started)

        benchmark(run)
    latencies.sort()
    total = LOAD_CLIENTS * LOAD_REQUESTS_PER_CLIENT
    p95 = latencies[max(0, int(len(latencies) * 0.95) - 1)]
    report(
        clients=LOAD_CLIENTS,
        requests_per_client=LOAD_REQUESTS_PER_CLIENT,
        workers=2,
        entity_shape=BATCH_SHAPE,
        throughput_rps=round(total / min(round_seconds), 2),
        p95_ms=round(p95 * 1000, 3),
        cache="warm shared disk tier (per-worker memory front)",
    )
