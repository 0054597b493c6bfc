#!/usr/bin/env python
"""Sharded serving fabric: one logical service over four shard nodes.

An organization outgrows a single Focus process: streams must spread
across machines, queries must fan out across all of them, and a hot
shard must be able to hand a live stream to a colder one without
interrupting ingest or changing answers.  This example:

1. Builds a fabric of four ``ShardNode``s behind one ``FabricRouter``;
   rendezvous hashing places six cameras deterministically.
2. Ingests all cameras live (chunked, write-ahead journaled into each
   shard's own store) *through the router*.
3. Fans one query across the fleet with ``router.query_all`` and shows
   it is bit-identical to a single-node system over the same streams.
4. Checkpoints the whole fleet (one epoch per stream, per shard).
5. Migrates a live stream between shards mid-ingest -- checkpoint,
   copy, fence, recover -- keeps ingesting through the same router, and
   shows answers unchanged; the zombie source session is fenced.
6. Prints the merged fleet observability with per-shard breakdown.

Run:  python examples/sharded_fleet.py
"""

import numpy as np

from repro import (
    FabricRouter,
    FocusConfig,
    FocusSystem,
    ShardNode,
    StaleEpochError,
    cheap_cnn,
    generate_observations,
)

CAMERAS = ["auburn_c", "auburn_r", "jacksonh", "lausanne", "oxford", "sittard"]
CONFIG = FocusConfig(model=cheap_cnn(1), k=4, cluster_threshold=0.15)
FPS = 15.0


def chunks_of(table, pieces=4):
    """Frame-aligned, stream-ordered chunks (a camera's feed)."""
    frames = table.frame_idx
    bounds = [0]
    for raw in np.linspace(0, len(table), pieces + 1).astype(int)[1:-1]:
        stop = int(raw)
        while 0 < stop < len(table) and frames[stop] == frames[stop - 1]:
            stop += 1
        if stop > bounds[-1]:
            bounds.append(stop)
    bounds.append(len(table))
    return [table.slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def main():
    tables = {name: generate_observations(name, 60.0, FPS) for name in CAMERAS}
    feeds = {name: chunks_of(table) for name, table in tables.items()}

    # 1. the fabric: four shards, one router
    shards = [ShardNode("shard-%d" % i) for i in range(4)]
    router = FabricRouter(shards)

    # 2. live ingest through the router (first half of every feed)
    for name in CAMERAS:
        router.open_stream(name, fps=FPS, config=CONFIG, index_mode="materialized")
    for name in CAMERAS:
        for chunk in feeds[name][:2]:
            router.append(name, chunk)
    print("Placement:")
    for sid in router.shard_ids():
        print("  %-8s -> %s" % (sid, ", ".join(router.placement.streams_on(sid)) or "-"))

    # 3. scatter-gather vs a single node over the same streams
    single = FocusSystem()
    for name in CAMERAS:
        single.open_stream(name, fps=FPS, config=CONFIG, index_mode="materialized")
        for chunk in feeds[name][:2]:
            single.append(name, chunk)
    fleet, lone = router.query_all("motorcycle"), single.query_all("motorcycle")
    same = all(
        np.array_equal(fleet.slices[s].frames, lone.slices[s].frames)
        for s in CAMERAS
    )
    print(
        "\nquery_all('motorcycle'): %d frames on %d streams across %d shards "
        "(single-node identical: %s)"
        % (fleet.total_frames, len(fleet.streams), len(router.shard_ids()), same)
    )

    # 4. fleet-wide checkpoint: every stream its own epoch, its own store
    outcomes = router.checkpoint_streams()
    print("\nCheckpointed %d streams (epochs: %s)" % (
        len(outcomes), ", ".join("%s=%s" % (o.stream, o.epoch) for o in outcomes)))

    # 5. live migration mid-ingest
    victim = CAMERAS[0]
    source = router.shard_of(victim)
    target_id = next(s for s in router.shard_ids() if s != source.shard_id)
    zombie = source.handle(victim).ingestor  # a stale session object
    report = router.migrate(victim, target_id)
    print(
        "\nMigrated %r: %s -> %s (epoch %d, %d journal chunks replayed)"
        % (victim, report.source_shard, report.target_shard, report.epoch,
           report.replayed_chunks)
    )
    for name in CAMERAS:  # ingest continues, same router surface
        for chunk in feeds[name][2:]:
            router.append(name, chunk)
            single.append(name, chunk)
    fleet, lone = router.query_all("motorcycle"), single.query_all("motorcycle")
    print("After migration + more ingest, answers still identical: %s" % all(
        np.array_equal(fleet.slices[s].frames, lone.slices[s].frames)
        for s in CAMERAS
    ))
    try:
        zombie.checkpoint(source.store)
    except StaleEpochError:
        print("Zombie source session fenced by StaleEpochError (as designed)")

    # 6. merged observability with per-shard breakdown
    print("\nFleet cost summary (merged):")
    merged = router.cost_summary(per_shard=True)
    for key, value in sorted(merged["total"].items()):
        print("  %-34s %12.2f" % (key, value))
    print("Verification cache, fleet-wide: %s" % router.cache_stats())


if __name__ == "__main__":
    main()
