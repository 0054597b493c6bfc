#!/usr/bin/env python
"""Deterministic perf harness: ingest/query/checkpoint micro+meso benchmarks.

Measures the wall-clock hot paths the paper's economics depend on
(cheap ingest, bounded query latency) over a fixed synthetic window, and
writes the numbers to a ``BENCH_*.json`` file at the repo root -- the
perf trajectory of the repo, one point per PR.

    PYTHONPATH=src python scripts/bench.py              # full window (~100k rows)
    PYTHONPATH=src python scripts/bench.py --quick      # CI-sized window (~20k rows)
    PYTHONPATH=src python scripts/bench.py --compare BENCH_PR3.json bench_new.json

``--compare`` diffs two BENCH files and exits non-zero when any shared
benchmark regressed by more than ``--tolerance`` (default 10%); pass
``--warn-only`` to report without failing (noisy CI runners).

Benchmarks (per scale):
    ingest_oneshot        end-to-end IngestPipeline.run rows/s (lazy index)
    ingest_live           end-to-end StreamIngestor.push rows/s (materialized
                          index, fixed-size chunks -- the live path)
    ingest_live_journaled same, with a write-ahead ingest journal attached:
                          the durability tax on the live hot path.
                          ``--compare`` checks it against the *baseline's*
                          plain ingest_live when the baseline predates the
                          journal (the journal-overhead gate)
    cluster_kernel_scalar IncrementalClusterer.add rows/s over
                          pre-extracted features (the key keeps its
                          name so --compare pairs it with older files)
    query_p50_ms /        QueryEngine.query wall latency percentiles over
    query_p95_ms          the window's dominant classes
    checkpoint_s          first incremental docstore checkpoint of the live
                          session's index (writes every cluster document)
    recovery_s            StreamIngestor.recover wall time: committed durable
                          checkpoint at the window's midpoint + journal
                          replay of the second half
    fabric_ingest_{1,4}shard      the fabric_scatter_gather scenario: live
                          chunked ingest of a 4-camera fleet routed through a
                          FabricRouter over 1 vs 4 ShardNodes (rows/s; the
                          delta is the routing/placement tax and the win from
                          per-shard GPU clusters)
    fabric_query_p{50,95}_{1,4}shard  router.query_all wall latency
                          percentiles over the fleet's dominant classes,
                          scatter-gathered across the same 1 vs 4 shards
    fabric_parallel_ingest_{1,4}worker  the fabric_parallel scenario: the
                          same 4-camera fleet, but each shard is its own
                          *worker process* (FabricSupervisor) and ingest
                          is pipelined through the router's append_many
                          (rows/s).  Each result records the runner's
                          usable ``cpu_count``: on a single-core box the
                          4-worker number measures pure protocol overhead,
                          not parallelism -- read the speedup accordingly
    fabric_parallel_query_p50_{1,4}worker  router.query_all wall latency
                          (p50) with scatter legs pipelined across the
                          worker processes
    fabric_parallel_speedup_4w  the 4-worker / 1-worker ingest rows/s
                          ratio (dimensionless; >1 means real scaling,
                          ~1 expected when cpu_count == 1)
    mttr_failover_s       the mttr_failover scenario: a 2-worker fleet
                          with half the feed durably ingested, one
                          worker killed cold -- wall time from the kill
                          to the first healthy (router-retried) query
                          answer: detection + respawn + WAL replay +
                          the query
    failover_ingest /     mixed-load rows/s over a window that starts at
    failover_ingest_baseline  the kill (healing query + the feed's second
                          half) vs the same window with no kill: the
                          failover's throughput dip
    frontdoor_qos_{tenant}_qps  the frontdoor_qos scenario: the loadgen
                          skewed two-tenant preset (scripts/loadgen.py)
                          driven through the FrontDoor for a few wall
                          seconds -- per-tenant *admitted* ops/s for the
                          in-budget interactive tenant vs the over-
                          driven bulk tenant (whose number should sit
                          near its declared budget, not its offered
                          rate)
    frontdoor_qos_{tenant}_p{50,99}_ms  the same run's per-tenant
                          admitted-op wall-latency percentiles; each
                          result records the tenant's declared
                          ``slo_p99_ms`` (None when best-effort)
    obs_ingest_{plain,traced}  the observability_overhead scenario:
                          live fleet ingest through a 1-shard in-process
                          router with tracing off vs tracing sampling at
                          the default 1% rate (rows/s), measured
                          back-to-back inside each repeat so host drift
                          cancels out of the ratio
    obs_query_p95_{plain,traced}_ms  router.query_all wall p95 for the
                          same two configurations (the traced query path
                          stamps walk-in trace contexts, opens scatter
                          spans, and observes latency histograms)
    obs_overhead_{ingest,query}  the dimensionless traced/plain ratios:
                          1.0 means observability is free, lower is the
                          overhead; the CI smoke warns below 0.98
                          (scripts/check_obs_overhead.py)

Run a subset of sections with ``--sections`` (comma-separated; see
``SECTION_ORDER``), and override the worker counts of the
fabric_parallel scenario with ``--fabric-workers 1,2``.

All inputs are deterministic (hash-seeded synthesis), so run-to-run
variance is timer noise only; every section runs ``--repeats`` times and
keeps the best.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cnn.zoo import cheap_cnn, resnet152  # noqa: E402
from repro.core.clustering import IncrementalClusterer  # noqa: E402
from repro.core.config import FocusConfig  # noqa: E402
from repro.core.ingest import IngestPipeline, simulate_pixel_diff  # noqa: E402
from repro.core.query import QueryEngine  # noqa: E402
from repro.core.streaming import StreamIngestor  # noqa: E402
from repro.fabric.protocol import WIRE_COUNTER_KEYS  # noqa: E402
from repro.storage.docstore import DocumentStore  # noqa: E402
from repro.storage.journal import IngestJournal  # noqa: E402
from repro.video.synthesis import generate_observations  # noqa: E402

SCHEMA_VERSION = 1

#: compare-mode fallbacks: when the *baseline* predates a benchmark, the
#: new number is checked against this older baseline key instead (the
#: journal-overhead gate: journaled live ingest must stay within the
#: tolerance of the pre-journal live path)
COMPARE_ALIASES = {
    "ingest_live_journaled": "ingest_live",
    # the worker-process tax gate: 1-worker parallel ingest (all protocol
    # overhead, no parallelism) is checked against in-process 1-shard
    # routing when the baseline predates the worker fabric
    "fabric_parallel_ingest_1worker": "fabric_ingest_1shard",
}

#: benchmark workload per scale: (stream, synth duration, row cap)
SCALES = {
    "full": ("auburn_c", 3000.0, 100_000),
    "quick": ("auburn_c", 650.0, 20_000),
}

STREAM_FPS = 30.0
CLUSTER_THRESHOLD = 0.4
INDEX_K = 10
LIVE_CHUNK_ROWS = 2048
QUERY_CLASSES = 8
QUERY_REPEATS = 25

#: the fabric_scatter_gather fleet: 4 cameras, routed over 1 vs 4 shards
FABRIC_STREAMS = ("auburn_c", "jacksonh", "lausanne", "oxford")
FABRIC_SHARD_COUNTS = (1, 4)
#: per-stream synthesis window by scale (the 4-stream total roughly
#: matches the single-stream window of the other sections)
FABRIC_DURATIONS = {"full": 750.0, "quick": 160.0}
FABRIC_QUERY_REPEATS = 10
#: the fabric_parallel scenario: same fleet, worker *processes* per shard
FABRIC_WORKER_COUNTS = (1, 4)

#: runnable sections for --sections (canonical order)
SECTION_ORDER = (
    "ingest_oneshot",
    "ingest_live",
    "ingest_live_journaled",
    "cluster_kernels",
    "query",
    "checkpoint",
    "recovery",
    "fabric",
    "fabric_parallel",
    "mttr_failover",
    "frontdoor_qos",
    "observability_overhead",
)

#: metric direction: True when larger values are better ("x" is the
#: dimensionless speedup ratio of the fabric_parallel scenario)
HIGHER_IS_BETTER = {
    "rows_per_s": True, "ms": False, "s": False, "x": True, "qps": True,
}


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _window(scale: str):
    stream, duration_s, row_cap = SCALES[scale]
    table = generate_observations(stream, duration_s, STREAM_FPS)
    if len(table) > row_cap:
        table = table.select(np.arange(len(table)) < row_cap)
    return table


def _config():
    return FocusConfig(
        model=cheap_cnn(1), k=INDEX_K, cluster_threshold=CLUSTER_THRESHOLD
    )


def _best(fn, repeats: int):
    """(best wall seconds, last result) over ``repeats`` timed runs.

    Two warm-up rounds first: model/extractor caches plus the
    process-level allocator steady state settle before anything is
    timed.  The last timed run's return value is handed back so
    callers never pay an extra untimed ingest just to get a result.
    """
    fn()
    fn()
    took = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        took.append(time.perf_counter() - t0)
    return min(took), result


class Runner:
    def __init__(self, scale: str, repeats: int):
        self.scale = scale
        self.repeats = repeats
        self.results: Dict[str, Dict] = {}
        self.table = _window(scale)
        self.config = _config()
        self._fingerprint = {
            "stream": self.table.stream,
            "rows": len(self.table),
            "threshold": CLUSTER_THRESHOLD,
            "k": INDEX_K,
            "model": self.config.model.name,
            "live_chunk_rows": LIVE_CHUNK_ROWS,
        }

    def record(
        self, name: str, metric: str, value: float, wire=None, **extra
    ) -> None:
        key = "%s@%s" % (name, self.scale)
        entry = {
            "metric": metric,
            "value": round(float(value), 4),
            "config": dict(self._fingerprint, **extra),
        }
        if wire is not None:
            # wire-byte totals ride outside "config" on purpose: the
            # --compare gate skips entries whose config changed, and
            # traffic totals are an observation, not a knob
            entry["wire"] = {k: round(float(v), 1) for k, v in wire.items()}
        self.results[key] = entry
        print("  %-28s %12.1f %s" % (key, value, metric))

    # -- sections ----------------------------------------------------------
    def bench_ingest_oneshot(self):
        n = len(self.table)
        pipeline = IngestPipeline(self.config, index_mode="lazy")
        took, result = _best(lambda: pipeline.run(self.table), self.repeats)
        self.record("ingest_oneshot", "rows_per_s", n / took, index_mode="lazy")
        return result

    def _live_chunk_bounds(self, table=None):
        # chunk boundaries aligned to frames: rows are frame-ordered, so
        # only frame-aligned splits preserve stream time order
        table = self.table if table is None else table
        n = len(table)
        frames = table.frame_idx
        bounds = [0]
        while bounds[-1] < n:
            stop = min(bounds[-1] + LIVE_CHUNK_ROWS, n)
            while stop < n and frames[stop] == frames[stop - 1]:
                stop += 1
            bounds.append(stop)
        return bounds

    def bench_ingest_live(self):
        n = len(self.table)
        bounds = self._live_chunk_bounds()

        def run():
            ingestor = StreamIngestor(
                self.config,
                self.table.stream,
                fps=STREAM_FPS,
                index_mode="materialized",
            )
            for start, stop in zip(bounds, bounds[1:]):
                ingestor.push(self.table.slice(start, stop))
            return ingestor

        took, ingestor = _best(run, self.repeats)
        self.record("ingest_live", "rows_per_s", n / took, index_mode="materialized")
        return ingestor

    def bench_ingest_live_journaled(self):
        """The live path with the write-ahead journal attached: every
        chunk is checksummed and journaled before it is applied.  The
        delta versus ``ingest_live`` is the durability tax."""
        n = len(self.table)
        bounds = self._live_chunk_bounds()

        def run():
            store = DocumentStore()
            ingestor = StreamIngestor(
                self.config,
                self.table.stream,
                fps=STREAM_FPS,
                index_mode="materialized",
                journal=IngestJournal(store, self.table.stream),
            )
            for start, stop in zip(bounds, bounds[1:]):
                ingestor.push(self.table.slice(start, stop))
            return ingestor

        took, _ = _best(run, self.repeats)
        self.record(
            "ingest_live_journaled", "rows_per_s", n / took,
            index_mode="materialized",
        )

    def bench_recovery(self):
        """Crash-recovery wall time: a committed mid-window durable
        checkpoint plus journal replay of everything after it."""
        bounds = self._live_chunk_bounds()
        mid = len(bounds) // 2

        def build_crashed_store():
            crash_store = DocumentStore()
            session = StreamIngestor(
                self.config,
                self.table.stream,
                fps=STREAM_FPS,
                index_mode="materialized",
                journal=IngestJournal(crash_store, self.table.stream),
            )
            for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                session.push(self.table.slice(start, stop))
                if i == mid:
                    session.checkpoint(crash_store)
            return crash_store

        crash_store = build_crashed_store()
        took, recovered = _best(
            lambda: StreamIngestor.recover(crash_store, self.table.stream),
            self.repeats,
        )
        assert recovered.num_rows == len(self.table)
        self.record("recovery_s", "s", took,
                    clusters=int(recovered.index.num_clusters))

    def bench_cluster_kernels(self):
        model = self.config.model
        feats = model.feature_extractor().extract(self.table).astype(np.float64)
        suppressed = simulate_pixel_diff(self.table)
        n = len(self.table)

        def run():
            clusterer = IncrementalClusterer(
                threshold=CLUSTER_THRESHOLD, dim=model.feature_dim
            )
            for start in range(0, n, 16384):
                stop = min(start + 16384, n)
                clusterer.add(
                    feats[start:stop],
                    self.table.track_id[start:stop],
                    suppressed=suppressed[start:stop],
                )

        took, _ = _best(run, self.repeats)
        self.record("cluster_kernel_scalar", "rows_per_s", n / took)

    def bench_query(self, result):
        engine = QueryEngine(
            index=result.index,
            table=result.table,
            ingest_model=self.config.model,
            gt_model=resnet152(),
        )
        classes = self.table.dominant_classes(0.95)[:QUERY_CLASSES]
        lat = []
        for _ in range(QUERY_REPEATS):
            for cid in classes:
                t0 = time.perf_counter()
                engine.query(int(cid))
                lat.append(time.perf_counter() - t0)
        lat_ms = np.asarray(lat) * 1e3
        self.record("query_p50", "ms", float(np.percentile(lat_ms, 50)),
                    classes=len(classes))
        self.record("query_p95", "ms", float(np.percentile(lat_ms, 95)),
                    classes=len(classes))

    def bench_checkpoint(self, ingestor):
        store = DocumentStore()
        t0 = time.perf_counter()
        ingestor.checkpoint(store)
        took = time.perf_counter() - t0
        self.record("checkpoint_s", "s", took,
                    clusters=int(ingestor.index.num_clusters))

    def _fabric_fleet(self):
        """The 4-camera fleet workload shared by both fabric scenarios:
        (round-robin chunk feed, query classes, total rows)."""
        duration = FABRIC_DURATIONS[self.scale]
        row_cap = SCALES[self.scale][2] // len(FABRIC_STREAMS)
        tables = {}
        for name in FABRIC_STREAMS:
            table = generate_observations(name, duration, STREAM_FPS)
            if len(table) > row_cap:
                table = table.select(np.arange(len(table)) < row_cap)
            tables[name] = table
        total_rows = sum(len(t) for t in tables.values())

        def stream_chunks(table):
            bounds = self._live_chunk_bounds(table)
            return [table.slice(a, b) for a, b in zip(bounds, bounds[1:])]

        # round-robin across cameras: the fleet ingests concurrently
        per_stream = {name: stream_chunks(t) for name, t in tables.items()}
        feed = []
        for i in range(max(len(c) for c in per_stream.values())):
            for name in FABRIC_STREAMS:
                if i < len(per_stream[name]):
                    feed.append((name, per_stream[name][i]))
        classes = tables[FABRIC_STREAMS[0]].dominant_classes(0.95)[:QUERY_CLASSES]
        return feed, classes, total_rows

    def bench_fabric_scatter_gather(self):
        """Live fleet ingest + cross-stream queries through the sharded
        fabric, 1 shard vs 4: the delta between the two shard counts is
        the scatter-gather layer's scaling behaviour (placement lookups
        and answer merging vs per-shard GPU clusters and caches)."""
        from repro.fabric import FabricRouter, ShardNode

        feed, classes, total_rows = self._fabric_fleet()

        for num_shards in FABRIC_SHARD_COUNTS:
            def run(num_shards=num_shards):
                router = FabricRouter(
                    [ShardNode("shard-%d" % i) for i in range(num_shards)]
                )
                for name in FABRIC_STREAMS:
                    router.open_stream(
                        name,
                        fps=STREAM_FPS,
                        config=self.config,
                        index_mode="materialized",
                        durable=False,
                    )
                for name, chunk in feed:
                    router.append(name, chunk)
                return router

            suffix = "%dshard" % num_shards
            took, router = _best(run, self.repeats)
            self.record(
                "fabric_ingest_%s" % suffix, "rows_per_s", total_rows / took,
                streams=len(FABRIC_STREAMS), shards=num_shards,
            )
            lat = []
            for _ in range(FABRIC_QUERY_REPEATS):
                for cid in classes:
                    t0 = time.perf_counter()
                    router.query_all(int(cid))
                    lat.append(time.perf_counter() - t0)
            lat_ms = np.asarray(lat) * 1e3
            self.record(
                "fabric_query_p50_%s" % suffix, "ms",
                float(np.percentile(lat_ms, 50)),
                streams=len(FABRIC_STREAMS), shards=num_shards,
                classes=len(classes),
            )
            self.record(
                "fabric_query_p95_%s" % suffix, "ms",
                float(np.percentile(lat_ms, 95)),
                streams=len(FABRIC_STREAMS), shards=num_shards,
                classes=len(classes),
            )

    def bench_fabric_parallel(self, worker_counts=None):
        """True parallel fleet ingest: each shard its own worker process
        behind the wire protocol, chunks pipelined via ``append_many``.

        The timed region is open-to-last-ack ingest only -- worker spawn
        and teardown happen outside the clock.  Every result records the
        runner's usable ``cpu_count``, because the 4-worker number only
        demonstrates *parallelism* when there are cores to run on; on a
        1-CPU runner it measures the wire protocol's round-trip tax and
        the speedup ratio is expected to sit near 1.0.
        """
        from repro.fabric import FabricRouter, FabricSupervisor, ShardNode

        counts = tuple(worker_counts) if worker_counts else FABRIC_WORKER_COUNTS
        feed, classes, total_rows = self._fabric_fleet()
        cpu_count = _usable_cpus()
        rates: Dict[int, float] = {}

        def ingest_round(router):
            for name in FABRIC_STREAMS:
                router.open_stream(
                    name,
                    fps=STREAM_FPS,
                    config=self.config,
                    index_mode="materialized",
                    durable=False,
                )
            t0 = time.perf_counter()
            router.append_many(feed)
            return time.perf_counter() - t0

        for num_workers in counts:
            shard_ids = ["shard-%d" % i for i in range(num_workers)]
            took_best = None
            # adjacent in-process reference for the protocol-tax ratio:
            # measured inside the same repeat loop as the worker run, so
            # host drift between bench sections cancels out of the ratio
            ref_best = None
            keep = None  # (supervisor, router) of the last repeat
            for rep in range(1 + self.repeats):  # 1 warm-up round
                supervisor = FabricSupervisor(shard_ids)
                try:
                    router = FabricRouter(supervisor.clients())
                    took = ingest_round(router)
                except BaseException:
                    supervisor.shutdown()
                    raise
                if num_workers == 1:
                    ref_took = ingest_round(FabricRouter([ShardNode("shard-0")]))
                    if rep > 0:
                        ref_best = (
                            ref_took if ref_best is None
                            else min(ref_best, ref_took)
                        )
                if rep > 0:
                    took_best = took if took_best is None else min(took_best, took)
                if rep == self.repeats:
                    keep = (supervisor, router)
                else:
                    supervisor.shutdown()

            suffix = "%dworker" % num_workers
            rates[num_workers] = total_rows / took_best
            supervisor, router = keep
            fleet_costs = router.cost_summary()
            wire = {k: fleet_costs.get(k, 0.0) for k in WIRE_COUNTER_KEYS}
            self.record(
                "fabric_parallel_ingest_%s" % suffix, "rows_per_s",
                rates[num_workers], wire=wire,
                streams=len(FABRIC_STREAMS), workers=num_workers,
                cpu_count=cpu_count,
            )
            if num_workers == 1 and ref_best is not None:
                # the wire's whole overhead vs the same single shard
                # in-process, measured back-to-back within each repeat:
                # 1.0 means the data plane is free, lower is the
                # protocol tax
                self.record(
                    "fabric_protocol_tax", "x",
                    ref_best / took_best,
                    workers=1, cpu_count=cpu_count,
                )
            try:
                lat = []
                for _ in range(FABRIC_QUERY_REPEATS):
                    for cid in classes:
                        t0 = time.perf_counter()
                        router.query_all(int(cid))
                        lat.append(time.perf_counter() - t0)
                self.record(
                    "fabric_parallel_query_p50_%s" % suffix, "ms",
                    float(np.percentile(np.asarray(lat) * 1e3, 50)),
                    streams=len(FABRIC_STREAMS), workers=num_workers,
                    classes=len(classes), cpu_count=cpu_count,
                )
            finally:
                supervisor.shutdown()

        if 1 in rates and max(rates) > 1:
            top = max(rates)
            self.record(
                "fabric_parallel_speedup_%dw" % top, "x",
                rates[top] / rates[1],
                workers=top, cpu_count=cpu_count,
            )

    def bench_mttr_failover(self):
        """Self-healing drill: kill a worker under mixed load, measure
        time-to-first-healthy-answer and the ingest-rate dip.

        Half the fleet feed is ingested durably, then one shard's worker
        process is killed cold.  ``mttr_failover_s`` is the wall time
        from the kill to the first healthy (retried) query answer --
        detection + respawn + WAL replay + the query itself.  The
        ``failover_ingest`` window *starts at the kill* and covers that
        healing query plus the feed's second half, so its rows/s vs the
        no-kill ``failover_ingest_baseline`` (same window, no kill) is
        the failover's throughput dip under load.
        """
        from repro.fabric import FabricRouter, FabricSupervisor

        feed, classes, _ = self._fabric_fleet()
        half = len(feed) // 2
        tail_rows = sum(len(chunk) for _, chunk in feed[half:])
        configs = {name: self.config for name in FABRIC_STREAMS}
        cpu_count = _usable_cpus()

        def run(kill: bool):
            supervisor = FabricSupervisor(["shard-0", "shard-1"])
            try:
                router = FabricRouter(
                    supervisor.clients(), max_retries=2,
                    recover_configs=configs,
                )
                for name in FABRIC_STREAMS:
                    router.open_stream(
                        name,
                        fps=STREAM_FPS,
                        config=self.config,
                        index_mode="materialized",
                        durable=True,  # the respawn path replays the WAL
                    )
                router.append_many(feed[:half])
                victim = router.placement.shard_of(FABRIC_STREAMS[0])
                t0 = time.perf_counter()
                if kill:
                    worker = supervisor._worker(victim)
                    worker.process.kill()
                    worker.process.join()
                # the first healthy answer: the router's retry respawns
                # the worker (mirror + WAL replay) under the hood
                router.query(FABRIC_STREAMS[0], int(classes[0]))
                mttr = time.perf_counter() - t0
                router.append_many(feed[half:])
                rate = tail_rows / (time.perf_counter() - t0)
                return mttr, rate
            finally:
                supervisor.shutdown()

        # failure drills respawn + replay every repeat: cap at 2 rounds
        # (no warm-up -- a cold fabric is the scenario)
        mttr_best = kill_rate_best = base_rate_best = None
        for _ in range(max(1, min(self.repeats, 2))):
            mttr, rate = run(kill=True)
            mttr_best = mttr if mttr_best is None else min(mttr_best, mttr)
            kill_rate_best = (
                rate if kill_rate_best is None else max(kill_rate_best, rate)
            )
            _, rate = run(kill=False)
            base_rate_best = (
                rate if base_rate_best is None else max(base_rate_best, rate)
            )
        self.record("mttr_failover_s", "s", mttr_best,
                    streams=len(FABRIC_STREAMS), workers=2,
                    cpu_count=cpu_count)
        self.record("failover_ingest", "rows_per_s", kill_rate_best,
                    streams=len(FABRIC_STREAMS), workers=2,
                    cpu_count=cpu_count)
        self.record("failover_ingest_baseline", "rows_per_s", base_rate_best,
                    streams=len(FABRIC_STREAMS), workers=2,
                    cpu_count=cpu_count)

    def bench_frontdoor_qos(self):
        """QoS drill: the loadgen skewed two-tenant preset through the
        FrontDoor (admission control + ingest backpressure + priority
        batch formation; see ``docs/QOS.md``).

        Per tenant this records the *admitted* throughput and the
        admitted-op latency percentiles.  The interesting shape, not
        just the magnitudes: the interactive tenant (well inside its
        budget) should achieve its offered rate with p99 under its
        declared SLO, while the bulk tenant (offering ~4x its declared
        budget) should be clamped near the budget -- its achieved qps
        measures the token bucket, not the machine.
        """
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from loadgen import run_loadgen

        duration_s = {"quick": 3.0, "full": 6.0}.get(self.scale, 3.0)
        # one warm-up run settles model/extractor caches; loadgen's
        # closed loop is wall-clock driven, so repeats average noise
        # poorly -- keep the single post-warm-up run and let the
        # duration do the smoothing
        run_loadgen(mode="inproc", duration_s=1.0)
        report = run_loadgen(mode="inproc", duration_s=duration_s)
        for tenant, t in sorted(report["tenants"].items()):
            base = "frontdoor_qos_%s" % tenant
            extra = {
                "priority": t["priority"],
                "offered_qps": t["target_qps"],
                "qps_budget": t["qps_budget"],
                "slo_p99_ms": t["slo_p99_ms"],
                "duration_s": report["duration_s"],
            }
            self.record(base + "_qps", "qps", t["achieved_qps"], **extra)
            self.record(base + "_p50_ms", "ms", t["p50_ms"], **extra)
            self.record(base + "_p99_ms", "ms", t["p99_ms"], **extra)

    def bench_observability_overhead(self):
        """The observability tax: live fleet ingest + queries through a
        1-shard in-process router with tracing off vs sampling at the
        default rate (``repro.obs.trace.DEFAULT_SAMPLE_RATE``).

        The metrics registry is structurally always on -- tracing is the
        runtime knob -- so the plain/traced delta is the cost a deploy
        actually toggles: walk-in sampling on the query path, scatter
        span bookkeeping, and the span sink.  Both configurations run
        back-to-back inside each repeat so host drift cancels out of
        the ``obs_overhead_*`` ratios (1.0 == free, lower == overhead).
        """
        from repro.fabric import FabricRouter, ShardNode
        from repro.obs.trace import (
            DEFAULT_SAMPLE_RATE,
            configure_tracing,
            disable_tracing,
            get_sink,
            install_sink,
        )

        feed, classes, total_rows = self._fabric_fleet()

        def build_and_ingest():
            router = FabricRouter([ShardNode("shard-0")])
            for name in FABRIC_STREAMS:
                router.open_stream(
                    name,
                    fps=STREAM_FPS,
                    config=self.config,
                    index_mode="materialized",
                    durable=False,
                )
            t0 = time.perf_counter()
            for name, chunk in feed:
                router.append(name, chunk)
            return router, time.perf_counter() - t0

        def query_p95_ms(router):
            lat = []
            for _ in range(FABRIC_QUERY_REPEATS):
                for cid in classes:
                    t0 = time.perf_counter()
                    router.query_all(int(cid))
                    lat.append(time.perf_counter() - t0)
            return float(np.percentile(np.asarray(lat) * 1e3, 95))

        ingest_s = {"plain": None, "traced": None}
        q95_ms = {"plain": None, "traced": None}
        for rep in range(1 + self.repeats):  # 1 warm-up round
            # alternate which mode runs first: within a repeat the second
            # run sits on a warmer allocator/cache, and without the swap
            # that position bias reads as fake tracing overhead
            order = (
                ("plain", "traced") if rep % 2 == 0 else ("traced", "plain")
            )
            for mode in order:
                if mode == "traced":
                    install_sink()  # fresh bounded sink per traced round
                    configure_tracing(DEFAULT_SAMPLE_RATE)
                else:
                    disable_tracing()
                try:
                    router, took = build_and_ingest()
                    q = query_p95_ms(router)
                finally:
                    disable_tracing()
                if rep > 0:
                    ingest_s[mode] = (
                        took if ingest_s[mode] is None
                        else min(ingest_s[mode], took)
                    )
                    q95_ms[mode] = (
                        q if q95_ms[mode] is None else min(q95_ms[mode], q)
                    )
        get_sink().drain()  # don't leak bench spans into later sections

        extra = {
            "streams": len(FABRIC_STREAMS), "shards": 1,
            "sample_rate": DEFAULT_SAMPLE_RATE,
        }
        for mode in ("plain", "traced"):
            self.record(
                "obs_ingest_%s" % mode, "rows_per_s",
                total_rows / ingest_s[mode], **extra
            )
            self.record(
                "obs_query_p95_%s" % mode, "ms", q95_ms[mode],
                classes=len(classes), **extra
            )
        # traced/plain ratios: 1.0 means observability is free; the CI
        # smoke (scripts/check_obs_overhead.py) warns below 0.98
        self.record(
            "obs_overhead_ingest", "x",
            ingest_s["plain"] / ingest_s["traced"], **extra
        )
        self.record(
            "obs_overhead_query", "x",
            q95_ms["plain"] / q95_ms["traced"], **extra
        )

    def run_all(self, sections=None, fabric_workers=None) -> Dict[str, Dict]:
        wanted = set(sections) if sections else set(SECTION_ORDER)
        unknown = wanted - set(SECTION_ORDER)
        if unknown:
            raise SystemExit(
                "unknown section(s) %s (have: %s)"
                % (", ".join(sorted(unknown)), ", ".join(SECTION_ORDER))
            )
        print("[bench] scale=%s rows=%d stream=%s" % (
            self.scale, len(self.table), self.table.stream))
        # query/checkpoint reuse the ingest sections' systems, so asking
        # for them implies (and records) their ingest dependency
        oneshot = live = None
        if wanted & {"ingest_oneshot", "query"}:
            oneshot = self.bench_ingest_oneshot()
        if wanted & {"ingest_live", "checkpoint"}:
            live = self.bench_ingest_live()
        if "ingest_live_journaled" in wanted:
            self.bench_ingest_live_journaled()
        if "cluster_kernels" in wanted:
            self.bench_cluster_kernels()
        if "query" in wanted:
            self.bench_query(oneshot)
        if "checkpoint" in wanted:
            self.bench_checkpoint(live)
        if "recovery" in wanted:
            self.bench_recovery()
        if "fabric" in wanted:
            self.bench_fabric_scatter_gather()
        if "fabric_parallel" in wanted:
            self.bench_fabric_parallel(fabric_workers)
        if "mttr_failover" in wanted:
            self.bench_mttr_failover()
        if "frontdoor_qos" in wanted:
            self.bench_frontdoor_qos()
        if "observability_overhead" in wanted:
            self.bench_observability_overhead()
        return self.results


# -- compare mode -----------------------------------------------------------

def load_bench(path: str) -> Dict:
    with open(path) as fh:
        doc = json.load(fh)
    if "results" not in doc:
        raise SystemExit("%s: not a BENCH file (no 'results')" % path)
    return doc


def compare(base_path: str, new_path: str, tolerance: float, warn_only: bool) -> int:
    base = load_bench(base_path)["results"]
    new = load_bench(new_path)["results"]
    shared = sorted(set(base) & set(new))
    # aliased pairs: a new benchmark missing from the baseline is gated
    # against its designated older counterpart (e.g. journaled live
    # ingest against the pre-journal live path)
    aliased: List[tuple] = []
    for key in sorted(set(new) - set(base)):
        name, _, scale = key.rpartition("@")
        fallback = COMPARE_ALIASES.get(name)
        if fallback and "%s@%s" % (fallback, scale) in base:
            aliased.append((key, "%s@%s" % (fallback, scale)))
    if not shared and not aliased:
        print("[bench-compare] no shared benchmark keys between %s and %s"
              % (base_path, new_path))
        return 0
    regressions: List[str] = []
    print("%-34s %14s %14s %9s" % ("benchmark", "base", "new", "delta"))

    def diff(label, b, n, check_config=True):
        if check_config and b.get("config") != n.get("config"):
            print("%-34s   (config changed; skipping)" % label)
            return
        bv, nv = b["value"], n["value"]
        higher_better = HIGHER_IS_BETTER.get(b["metric"], True)
        if bv == 0:
            ratio = 0.0
        else:
            ratio = (nv - bv) / bv
        shown = "%+8.1f%%" % (100 * ratio)
        regressed = (ratio < -tolerance) if higher_better else (ratio > tolerance)
        flag = "  << REGRESSION" if regressed else ""
        print("%-34s %14.1f %14.1f %9s%s" % (label, bv, nv, shown, flag))
        if regressed:
            regressions.append(label)

    for key in shared:
        diff(key, base[key], new[key])
    for key, fallback in aliased:
        diff("%s (vs %s)" % (key, fallback), base[fallback], new[key],
             check_config=False)
    if regressions:
        print("[bench-compare] %d benchmark(s) regressed beyond %.0f%%: %s"
              % (len(regressions), 100 * tolerance, ", ".join(regressions)))
        return 0 if warn_only else 1
    print("[bench-compare] no regression beyond %.0f%%" % (100 * tolerance))
    return 0


# -- entry point ------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized window (~20k rows) instead of ~100k")
    parser.add_argument("--scales", default=None,
                        help="comma-separated scales to run (full,quick)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repetitions per section (keeps the best)")
    parser.add_argument("--sections", default=None,
                        help="comma-separated sections to run (default: all; "
                             "see SECTION_ORDER)")
    parser.add_argument("--fabric-workers", default=None,
                        help="comma-separated worker counts for the "
                             "fabric_parallel section (default: 1,4)")
    parser.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_PR10.json"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="diff two BENCH files instead of running")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative regression tolerance for --compare")
    parser.add_argument("--warn-only", action="store_true",
                        help="report --compare regressions without failing")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare[0], args.compare[1], args.tolerance,
                       args.warn_only)

    if args.scales:
        scales = [s.strip() for s in args.scales.split(",") if s.strip()]
    else:
        scales = ["quick"] if args.quick else ["full", "quick"]
    for scale in scales:
        if scale not in SCALES:
            raise SystemExit("unknown scale %r (have: %s)"
                             % (scale, ", ".join(SCALES)))

    sections = None
    if args.sections:
        sections = [s.strip() for s in args.sections.split(",") if s.strip()]
    fabric_workers = None
    if args.fabric_workers:
        fabric_workers = [
            int(n) for n in args.fabric_workers.split(",") if n.strip()
        ]

    results: Dict[str, Dict] = {}
    for scale in scales:
        results.update(
            Runner(scale, args.repeats).run_all(
                sections=sections, fabric_workers=fabric_workers
            )
        )

    doc = {
        "schema": SCHEMA_VERSION,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "scales": scales,
            "repeats": args.repeats,
        },
        "results": results,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("[bench] wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
