"""Per-layer metrics of the traced pass.

Two sources.  ``trace_shares`` turns the traced pass's spans into each
layer's share of the timed wall.  ``battery`` is the *stage replay*:
the benchmark calls each layer's public functions itself, on the
workload's own tables and configuration, and times them -- so a layer
reports a number on every workload, including the ones that leave it
idle end to end.  Ratios named ``*_tax_x`` time the upper and the lower
layer on identical inputs inside one repeat loop, alternating which
goes first, so host drift cancels out of them.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import (
    DocumentStore,
    FabricRouter,
    FabricSupervisor,
    FocusConfig,
    FocusSystem,
    IngestJournal,
    PlacementTable,
    QueryRequest,
    ShardNode,
    StreamIngestor,
    resnet152,
)
from repro.core.clustering import IncrementalClusterer, extract_and_cluster_chunk
from repro.core.index import LazyTopKIndex, TopKIndex
from repro.core.ingest import IngestPipeline, simulate_pixel_diff
from repro.core.query import QueryEngine
from repro.core.tuning import ParameterTuner
from repro.fabric import codec
from repro.fabric.protocol import WIRE_COUNTER_KEYS
from repro.fabric.shm import ShmReader, ShmSink, create_segment, shm_available
from repro.obs.trace import (
    DEFAULT_SAMPLE_RATE,
    configure_tracing,
    disable_tracing,
    get_sink,
    install_sink,
)
from repro.serve.frontdoor import FrontDoor
from repro.storage.journal import chunk_to_payload
from repro.video.synthesis import ObservationTable

from bench import boundaries
from bench.metrics import self_share_metric
from bench.trace import SpanRecorder
from bench.workloads import BUDGET, CFG, CHUNK_ROWS, FLEET, FPS, TENANT, dominant, frame_chunks, generate

Value = Tuple[float, int]
#: rows of each table the replays run on (a prefix, cut on a frame)
REPLAY_ROWS = 8192
REPEATS = 5


def trace_shares(recorder: SpanRecorder, timed_wall_s: float) -> Dict[str, Value]:
    """Each boundary layer's self time as a share of the timed wall,
    plus how much of that wall the root spans cover."""
    self_s = recorder.self_times()
    out = {
        self_share_metric(layer): (self_s.get(layer, 0.0) / timed_wall_s, 1)
        for layer in boundaries.LAYERS
    }
    out["bench.root_span_share"] = (recorder.root_seconds() / timed_wall_s, 1)
    return out


# -- timing helpers ---------------------------------------------------------

def timed(fn: Callable) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def median_s(fn: Callable, repeats: int = REPEATS) -> float:
    """Median wall of ``fn`` after one untimed call."""
    fn()
    return statistics.median(timed(fn) for _ in range(repeats))


def tax_x(upper: Callable, lower: Callable, repeats: int = REPEATS) -> float:
    """Median over repeats of upper/lower, the two timed back to back
    and the order alternated so neither always runs on the warmer cache."""
    upper(), lower()
    ratios = []
    for i in range(repeats):
        if i % 2:
            low = timed(lower)
            up = timed(upper)
        else:
            up = timed(upper)
            low = timed(lower)
        ratios.append(up / low)
    return statistics.median(ratios)


def prefix(table: ObservationTable, rows: int = REPLAY_ROWS) -> ObservationTable:
    return frame_chunks(table, rows)[0]


# -- the battery ----------------------------------------------------------------

def battery(
    tables: Dict[str, ObservationTable],
    configs: Dict[str, FocusConfig],
    index_mode: str,
    seed: int,
) -> Dict[str, Value]:
    """Replay every layer on the workload's first table (a prefix of
    it), under that table's ingest configuration and index mode."""
    name = next(iter(tables))
    table = prefix(tables[name])
    config = configs[name]
    out: Dict[str, Value] = {}
    out.update(_cnn(table, config))
    out.update(_tuning(table))
    clusters = _ingest_and_clustering(table, config, tables, seed, out)
    out.update(_index(table, config, clusters))
    out.update(_streaming_and_storage(table, config))
    out.update(_query(table, config, clusters))
    out.update(_serving(table, config, index_mode))
    out.update(_placement(tables))
    out.update(_codec_and_shm(table, config))
    out.update(_worker(table, config))
    return out


def _cnn(table, config) -> Dict[str, Value]:
    model = config.model
    rows = len(table)
    extract_s = median_s(lambda: model.feature_extractor().extract(table))
    seeds = table.observation_seeds()[:512]
    lists_s = median_s(
        lambda: model.topk_lists(seeds, table.class_id[:512], table.difficulty[:512], config.k)
    )
    # the simulated CNN's share of a live append: what synthesizing its
    # output costs against the whole push of the same rows
    suppressed = simulate_pixel_diff(table)
    needed = table.select(~suppressed)
    push_s = median_s(lambda: StreamIngestor(config, table.stream, fps=FPS).push(table))
    needed_s = median_s(lambda: model.feature_extractor().extract(needed))
    return {
        "cnn.extract_rows_per_s": (rows / extract_s, REPEATS),
        "cnn.topk_lists_us": (lists_s / len(seeds) * 1e6, REPEATS),
        "cnn.extract_share": (needed_s / push_s, REPEATS),
    }


def _tuning(table) -> Dict[str, Value]:
    sample = table.time_range(0.0, min(table.duration_s, 45.0))
    tuner = ParameterTuner(resnet152())
    result = None

    def tune():
        nonlocal result
        result = tuner.tune(sample, table.stream)

    return {
        "core.tuning.tune_s": (median_s(tune, repeats=3), 3),
        "core.tuning.candidates": (float(len(result.candidates)), 1),
    }


def _cluster(features, table, suppressed, threshold, dim):
    clusterer = IncrementalClusterer(threshold=threshold, dim=dim)
    batch_chunks = chunks = 0
    for start in range(0, len(table), CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, len(table))
        clusterer.add(
            features[start:stop], table.track_id[start:stop], suppressed=suppressed[start:stop]
        )
        chunks += 1
        batch_chunks += clusterer.active_kernel == "batch"
    return clusterer, batch_chunks / chunks


def _ingest_and_clustering(table, config, tables, seed, out):
    rows = len(table)
    out["core.ingest.pixel_diff_rows_per_s"] = (
        rows / median_s(lambda: simulate_pixel_diff(table)), REPEATS)
    result = None

    def run():
        nonlocal result
        result = IngestPipeline(config, index_mode="lazy").run(table)

    out["core.ingest.run_rows_per_s"] = (rows / median_s(run), REPEATS)
    out["core.ingest.suppressed_share"] = (result.suppression_ratio, 1)
    out["core.ingest.cnn_inferences"] = (float(result.cnn_inferences), 1)

    def replay(tbl, cfg):
        features = cfg.model.feature_extractor().extract(tbl).astype(np.float64)
        suppressed = simulate_pixel_diff(tbl)
        took = median_s(
            lambda: _cluster(features, tbl, suppressed, cfg.cluster_threshold, cfg.model.feature_dim)
        )
        clusterer, batch_share = _cluster(
            features, tbl, suppressed, cfg.cluster_threshold, cfg.model.feature_dim
        )
        return len(tbl) / took, clusterer, batch_share

    rate, clusterer, batch_share = replay(table, config)
    scans = clusterer.full_scans + clusterer.shortcut_hits
    out["core.clustering.add_rows_per_s"] = (rate, REPEATS)
    out["core.clustering.full_scan_share"] = (clusterer.full_scans / scans if scans else 0.0, 1)
    out["core.clustering.clusters"] = (float(clusterer.num_clusters), 1)
    out["core.clustering.batch_kernel_chunk_share"] = (batch_share, 1)
    # the clusterer on each of the four camera profiles, fixed config
    missing = [n for n in FLEET if n not in tables]
    profiles = dict(tables, **generate(missing, 150.0, seed))
    for stream in FLEET:
        out["core.clustering.add_rows_per_s.%s" % stream] = (
            replay(prefix(profiles[stream]), CFG)[0], REPEATS)
    return result.clusters


def _index(table, config, clusters) -> Dict[str, Value]:
    model, k = config.model, config.k
    built = TopKIndex.build(table, model, k, clusters)
    tokens = sorted(built.classes())
    lookups = median_s(lambda: [built.lookup(t) for t in tokens])
    return {
        "core.index.lazy_build_s": (median_s(lambda: LazyTopKIndex(table, model, k, clusters)), REPEATS),
        "core.index.materialized_build_s": (
            median_s(lambda: TopKIndex.build(table, model, k, clusters)), REPEATS),
        "core.index.lookup_us": (lookups / len(tokens) * 1e6, REPEATS),
        "core.index.entries": (float(built.num_entries), 1),
    }


def _store_bytes(store: DocumentStore) -> int:
    return len(json.dumps(store.to_json_obj()))


def _store_writes(store: DocumentStore) -> int:
    total = 0
    for name in store.collection_names():
        c = store.collection(name)
        total += c.inserts + c.updates + c.deletes
    return total


def _streaming_and_storage(table, config) -> Dict[str, Value]:
    stream = table.stream
    chunks = frame_chunks(table, CHUNK_ROWS)
    rows = len(table)

    def session(journaled: bool):
        journal = IngestJournal(DocumentStore(), stream) if journaled else None
        return StreamIngestor(config, stream, fps=FPS, index_mode="materialized", journal=journal)

    def push_all(journaled: bool):
        ingestor = session(journaled)
        return [timed(lambda c=c: ingestor.push(c)) for c in chunks]

    push_all(False)
    pushes = [statistics.median(col) for col in zip(*(push_all(False) for _ in range(3)))]

    # the stages under a push, replayed on the same chunks
    def stages():
        clusterer = IncrementalClusterer(config.cluster_threshold, config.model.feature_dim)
        extractor = config.model.feature_extractor()
        total = 0.0
        for c in chunks:
            started = time.perf_counter()
            suppressed = simulate_pixel_diff(c)
            extract_and_cluster_chunk(clusterer, extractor, c, suppressed)
            total += time.perf_counter() - started
        return total

    # what a push costs beyond its stages (index delta, table growth),
    # the two timed back to back so the share is not a difference of
    # numbers taken minutes apart
    over_stages = tax_x(lambda: push_all(False), stages, repeats=3)
    out: Dict[str, Value] = {
        "core.streaming.push_p50_ms": (statistics.median(pushes) * 1e3, len(pushes)),
        "core.streaming.self_share": (max(0.0, 1.0 - 1.0 / over_stages), 3),
        "core.streaming.journal_tax_x": (
            tax_x(lambda: push_all(True), lambda: push_all(False), repeats=3), 3),
    }

    # a durable session: checkpoint after each third, then recover with
    # the last third still in the journal
    store = DocumentStore()
    ingestor = StreamIngestor(
        config, stream, fps=FPS, index_mode="materialized", journal=IngestJournal(store, stream))
    cut = [len(chunks) // 3, 2 * len(chunks) // 3]
    checkpoints: List[float] = []
    writes: List[int] = []
    for i, c in enumerate(chunks):
        ingestor.push(c)
        if i + 1 in cut:
            before = _store_writes(store)
            checkpoints.append(timed(lambda: ingestor.checkpoint(store)))
            writes.append(_store_writes(store) - before)
    recover_s = median_s(lambda: StreamIngestor.recover(store, stream, config=config), repeats=3)
    out.update({
        "core.streaming.checkpoint_last_ms": (checkpoints[-1] * 1e3, 1),
        "core.streaming.checkpoint_growth_x": (checkpoints[-1] / checkpoints[0], 1),
        "core.streaming.recover_rows_per_s": (rows / recover_s, 3),
        "storage.docstore.docs_written_per_checkpoint": (float(writes[-1]), 1),
        "storage.docstore.stored_bytes_per_row": (_store_bytes(store) / rows, 1),
    })

    # the journal alone
    def fill():
        journal = IngestJournal(DocumentStore(), stream)
        return journal, [timed(lambda c=c: journal.append_chunk(c)) for c in chunks]

    fill()
    journal, appends = fill()
    payload_bytes = sum(len(json.dumps(chunk_to_payload(c, None))) for c in chunks)
    out.update({
        "storage.journal.append_chunk_us": (statistics.median(appends) * 1e6, len(appends)),
        "storage.journal.bytes_per_row": (payload_bytes / rows, 1),
        "storage.journal.replay_read_s": (median_s(journal.records, repeats=3), 3),
        "storage.journal.truncate_ms": (
            timed(lambda: journal.truncate_through(journal.last_seq())) * 1e3, 1),
    })
    collection = DocumentStore().collection("replay")
    doc = {"stream": stream, "cluster": 1, "top_k": list(range(config.k)), "rows": list(range(32))}
    inserts = [timed(lambda: collection.insert_one(doc)) for _ in range(2000)]
    out["storage.docstore.insert_us"] = (statistics.median(inserts) * 1e6, len(inserts))
    return out


def _query(table, config, clusters) -> Dict[str, Value]:
    index = TopKIndex.build(table, config.model, config.k, clusters)
    engine = QueryEngine(index, table, config.model, resnet152())
    classes = dominant(table)
    results = [engine.query(c) for c in classes]
    plan_s = median_s(lambda: [engine.plan(c) for c in classes])
    collect_s = median_s(lambda: [engine.collect(r.matched_clusters) for r in results])
    n = len(classes)
    return {
        "core.query.plan_us": (plan_s / n * 1e6, REPEATS),
        "core.query.collect_us": (collect_s / n * 1e6, REPEATS),
        "core.query.candidates_per_query": (
            sum(len(r.candidate_clusters) for r in results) / n, n),
        "core.query.gt_inferences_per_query": (sum(r.gt_inferences for r in results) / n, n),
        "core.query.frames_per_query": (sum(len(r.returned_frames) for r in results) / n, n),
    }


def _live_system(table, config, index_mode) -> FocusSystem:
    system = FocusSystem()
    system.open_stream(table.stream, fps=FPS, config=config, index_mode=index_mode)
    system.append(table.stream, table)
    return system


def _serving(table, config, index_mode) -> Dict[str, Value]:
    """The query service and the layers wrapped around it, each timed
    against the layer below on the same warm system."""
    system = _live_system(table, config, index_mode)
    service = system.service
    classes = dominant(table)
    requests = [QueryRequest(clazz=c) for c in classes]
    n = len(classes)
    plans = service.planner.plan_batch(requests)
    service.scheduler.verify(plans)  # fill the verification cache
    singles = [
        median_s(lambda r=r: service.query_batch([r]), repeats=3) for r in requests
    ]
    out: Dict[str, Value] = {
        "serve.planner.plan_batch_us": (
            median_s(lambda: service.planner.plan_batch(requests)) / n * 1e6, REPEATS),
        "serve.scheduler.verify_us": (
            median_s(lambda: service.scheduler.verify(plans)) / n * 1e6, REPEATS),
        "serve.service.query_batch_p50_ms": (statistics.median(singles) * 1e3, n),
    }

    def sweep(query_all):
        return lambda: [query_all(c) for c in classes]

    door = FrontDoor(system, {TENANT: BUDGET})
    bare = sweep(system.query_all)
    gated = sweep(lambda c: door.query_all(TENANT, c))
    out["serve.frontdoor.tax_x"] = (tax_x(gated, bare), REPEATS)
    # an empty batch is admitted, stamped and released like any other
    # and costs the backend nothing: what is left is the door itself
    out["serve.frontdoor.admit_us"] = (
        median_s(lambda: [door.query_batch(TENANT, []) for _ in range(200)]) / 200 * 1e6,
        REPEATS)

    router = FabricRouter([ShardNode("replay-0", system=system)])
    routed = sweep(router.query_all)
    out["fabric.router.tax_x"] = (tax_x(routed, bare), REPEATS)

    # the program's own tracer at its default sampling against off
    def traced():
        install_sink()
        configure_tracing(DEFAULT_SAMPLE_RATE)
        try:
            routed()
        finally:
            disable_tracing()

    try:
        out["obs.tracing_tax_x"] = (tax_x(traced, routed), REPEATS)
    finally:
        disable_tracing()
        get_sink().drain()

    durable = FabricRouter([ShardNode("replay-1")])
    durable.open_stream(table.stream, fps=FPS, config=config, index_mode="materialized")
    durable.append(table.stream, table)
    out["fabric.router.checkpoint_ms"] = (timed(durable.checkpoint) * 1e3, 1)
    return out


def _placement(tables) -> Dict[str, Value]:
    """Where a 2-shard fabric puts this workload's streams."""
    placed = PlacementTable.build(["shard-0", "shard-1"]).with_streams(*tables)
    rows: Dict[str, int] = {}
    for name, table in tables.items():
        shard = placed.shard_of(name)
        rows[shard] = rows.get(shard, 0) + len(table)
    mean = sum(rows.values()) / 2
    return {
        "fabric.router.legs_per_query": (float(len(rows)), 1),
        "fabric.placement.row_skew_x": (max(rows.values()) / mean, 1),
    }


_SEGMENTS = itertools.count()


def _codec_and_shm(table, config) -> Dict[str, Value]:
    megabytes = sum(getattr(table, c).nbytes for c in codec.TABLE_COLUMNS) / 1e6
    encoded = codec.encode_table(table)
    system = _live_system(table, config, "materialized")
    answer = system.query_all(dominant(table)[0])
    out: Dict[str, Value] = {
        "fabric.codec.encode_table_mb_per_s": (
            megabytes / median_s(lambda: codec.encode_table(table)), REPEATS),
        "fabric.codec.decode_table_mb_per_s": (
            megabytes / median_s(lambda: codec.decode_table(encoded)), REPEATS),
        "fabric.codec.answer_roundtrip_us": (
            median_s(lambda: codec.decode_multi_answer(codec.encode_multi_answer(answer))) * 1e6,
            REPEATS),
    }

    def through_shm():
        sink = ShmSink(
            alloc=lambda n: create_segment("bench%d-%d" % (os.getpid(), next(_SEGMENTS)), n),
            threshold=0,
        )
        envelope = codec.encode_table(table, sink)
        sink.seal()
        reader = ShmReader(owns=True)
        try:
            codec.decode_table(envelope, reader)
        finally:
            reader.close()
            sink.close_handoff()

    rate = megabytes / median_s(through_shm) if shm_available() else 0.0
    out["fabric.shm.roundtrip_mb_per_s"] = (rate, REPEATS)
    return out


def _worker(table, config) -> Dict[str, Value]:
    """One worker process against its in-process twin, same stream."""
    stream = table.stream
    feed = [(stream, c) for c in frame_chunks(table, CHUNK_ROWS)]
    classes = dominant(table)
    spawned = time.perf_counter()
    supervisor = FabricSupervisor(["replay-w"])
    spawn_s = time.perf_counter() - spawned
    try:
        remote = FabricRouter(supervisor.clients())
        local = FabricRouter([ShardNode("replay-l")])

        def ingest(router):
            def run():
                # a fresh non-durable session replaces the previous one
                router.open_stream(
                    stream, fps=FPS, config=config, index_mode="materialized", durable=False)
                router.append_many(feed)
            return run

        ingest_tax = tax_x(ingest(remote), ingest(local), repeats=3)
        query_tax = tax_x(
            lambda: [remote.query_all(c) for c in classes],
            lambda: [local.query_all(c) for c in classes],
        )
        costs = remote.cost_summary()
        wire = {k: costs.get(k, 0.0) for k in WIRE_COUNTER_KEYS}
        # 1 warm-up + 3 timed ingests; 1 warm-up + REPEATS timed sweeps
        ops = 4 * (len(feed) + 1) + (1 + REPEATS) * len(classes)
        return {
            "fabric.worker.spawn_s": (spawn_s, 1),
            "fabric.worker.ingest_tax_x": (ingest_tax, 3),
            "fabric.worker.query_tax_x": (query_tax, REPEATS),
            "fabric.worker.ctrl_bytes_per_op": (
                (wire["wire_bytes_sent"] + wire["wire_bytes_received"]) / ops, ops),
            "fabric.worker.shm_bytes_per_row": (wire["shm_bytes"] / (4 * len(table)), 1),
            "fabric.worker.retries": (costs.get("retries", 0.0), 1),
        }
    finally:
        supervisor.shutdown()
