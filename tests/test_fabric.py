"""Tests for the sharded serving fabric (repro.fabric).

Covers the subsystem's acceptance criteria: rendezvous placement is
deterministic with minimal movement on shard add/remove, the router's
``query_all``/``query_batch`` over N shards return bit-identical
frames and segment metrics to a single-node service over the same
streams, and a live stream migrated mid-ingest (checkpoint -> copy ->
fence -> recover -> resume) answers identically to one that never
moved -- in both index modes -- with stale source sessions fenced by
``StaleEpochError``.  Plus the satellites: aggregated observability
merges and the aggregated unknown-stream ``KeyError``.
"""

import numpy as np
import pytest

from repro.core.system import FocusSystem
from repro.fabric import (
    FabricRouter,
    MigrationError,
    PlacementError,
    PlacementTable,
    ShardNode,
    migrate_stream,
    rendezvous_shard,
)
from repro.serve.cache import STAT_KINDS, VerificationCache
from repro.serve.planner import QueryRequest
from repro.serve.service import COUNTER_KINDS, merge_counters
from repro.storage.docstore import DocumentStore
from repro.storage.journal import (
    JournalError,
    StaleEpochError,
    committed_checkpoint,
    fenced_streams,
    journaled_streams,
    reset_stream,
)

FABRIC_STREAMS = ["lausanne", "auburn_c", "jacksonh"]


def frame_aligned_chunks(table, pieces=4):
    """Split a table into stream-ordered, frame-aligned chunks."""
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


@pytest.fixture(scope="module")
def fabric_tables(table_factory):
    return {s: table_factory(s, 30.0, 10.0) for s in FABRIC_STREAMS}


def build_single(tables, config, index_mode):
    system = FocusSystem()
    for name, table in tables.items():
        system.open_stream(name, fps=10.0, config=config, index_mode=index_mode)
        for chunk in frame_aligned_chunks(table):
            system.append(name, chunk)
    return system


def build_fabric(tables, config, index_mode, num_shards=2, durable=True):
    shards = [ShardNode("shard-%d" % i) for i in range(num_shards)]
    router = FabricRouter(shards)
    for name, table in tables.items():
        router.open_stream(
            name, fps=10.0, config=config, index_mode=index_mode, durable=durable
        )
        for chunk in frame_aligned_chunks(table):
            router.append(name, chunk)
    return router


def assert_same_slices(left, right):
    """Frames and returned rows bit-identical per stream."""
    assert sorted(left.slices) == sorted(right.slices)
    for name in left.slices:
        np.testing.assert_array_equal(
            left.slices[name].frames, right.slices[name].frames
        )
        np.testing.assert_array_equal(
            left.slices[name].returned_rows, right.slices[name].returned_rows
        )


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

class TestPlacement:
    SHARDS = ["shard-%d" % i for i in range(5)]
    STREAMS = ["cam-%03d" % i for i in range(200)]

    def test_rendezvous_deterministic(self):
        a = PlacementTable.build(self.SHARDS, self.STREAMS)
        b = PlacementTable.build(self.SHARDS, self.STREAMS)
        assert a.assignments == b.assignments
        for stream, shard in a.assignments.items():
            assert shard == rendezvous_shard(stream, self.SHARDS)

    def test_spreads_streams(self):
        table = PlacementTable.build(self.SHARDS, self.STREAMS)
        held = {len(table.streams_on(s)) for s in self.SHARDS}
        assert all(n > 0 for n in held)  # 200 streams land on all 5 shards

    def test_minimal_movement_on_add(self):
        grown = self.SHARDS + ["shard-new"]
        moved = {
            s: rendezvous_shard(s, grown)
            for s in self.STREAMS
            if rendezvous_shard(s, grown) != rendezvous_shard(s, self.SHARDS)
        }
        # every moved stream moved *to* the new shard, nothing shuffled
        # between surviving shards
        assert moved, "a new shard should win some streams"
        assert set(moved.values()) == {"shard-new"}

    def test_minimal_movement_on_remove(self):
        removed = self.SHARDS[2]
        shrunk = [s for s in self.SHARDS if s != removed]
        held = {s for s in self.STREAMS if rendezvous_shard(s, self.SHARDS) == removed}
        moved = {
            s
            for s in self.STREAMS
            if rendezvous_shard(s, shrunk) != rendezvous_shard(s, self.SHARDS)
        }
        # exactly the removed shard's streams moved, nobody else
        assert held and moved == held

    def test_with_streams_noop_returns_the_table(self):
        table = PlacementTable.build(self.SHARDS, self.STREAMS[:3])
        assert table.with_streams(self.STREAMS[0]) is table

    def test_unplaced_stream_raises(self):
        table = PlacementTable.build(self.SHARDS)
        with pytest.raises(KeyError, match="not placed"):
            table.shard_of("ghost")

    def test_assign_returns_a_new_table(self):
        table = PlacementTable.build(self.SHARDS, self.STREAMS)
        stream = self.STREAMS[0]
        natural = table.shard_of(stream)
        other = next(s for s in self.SHARDS if s != natural)
        moved = table.assign(stream, other)
        assert moved.shard_of(stream) == other
        assert table.shard_of(stream) == natural  # the original is untouched
        assert {s: d for s, d in moved.assignments.items() if s != stream} == {
            s: d for s, d in table.assignments.items() if s != stream
        }

    def test_assigned_stream_keeps_its_shard_on_with_streams(self):
        table = PlacementTable.build(self.SHARDS)
        stream = self.STREAMS[0]
        other = next(
            s for s in self.SHARDS if s != rendezvous_shard(stream, self.SHARDS)
        )
        placed = table.assign(stream, other).with_streams(stream, self.STREAMS[1])
        assert placed.shard_of(stream) == other  # where its data is, not the hash
        assert placed.shard_of(self.STREAMS[1]) == rendezvous_shard(
            self.STREAMS[1], self.SHARDS
        )

    def test_assign_to_unknown_shard_raises(self):
        table = PlacementTable.build(self.SHARDS, self.STREAMS[:3])
        with pytest.raises(PlacementError, match="unknown shard"):
            table.assign(self.STREAMS[0], "shard-gone")

    def test_table_rejects_duplicate_or_unknown_shards(self):
        with pytest.raises(PlacementError, match="duplicate"):
            PlacementTable.build(["shard-0", "shard-0"])
        with pytest.raises(PlacementError, match="unknown shard"):
            PlacementTable(("shard-0",), {"cam-000": "shard-9"})
        with pytest.raises(PlacementError, match="no shards"):
            PlacementTable.build([], ["cam-000"])


# ---------------------------------------------------------------------------
# scatter-gather routing vs a single node
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
class TestRouterBitIdentity:
    def test_query_all_matches_single_node(
        self, fabric_tables, live_config, index_mode
    ):
        single = build_single(fabric_tables, live_config, index_mode)
        router = build_fabric(fabric_tables, live_config, index_mode)
        for clazz in ("car", "pedestrian"):
            lone = single.query_all(clazz)
            fleet = router.query_all(clazz)
            assert_same_slices(lone, fleet)
            assert fleet.class_id == lone.class_id

    def test_query_batch_matches_single_node(
        self, fabric_tables, live_config, index_mode
    ):
        single = build_single(fabric_tables, live_config, index_mode)
        router = build_fabric(fabric_tables, live_config, index_mode)
        requests = [
            QueryRequest("car"),
            QueryRequest("car", streams=FABRIC_STREAMS[:2], kx=1),
            QueryRequest("pedestrian", time_range=(5.0, 25.0)),
        ]
        lone = single.query_batch(requests)
        fleet = router.query_batch(requests)
        assert len(fleet) == len(lone)
        for left, right in zip(lone, fleet):
            assert_same_slices(left, right)

    def test_single_stream_query_routes(self, fabric_tables, live_config, index_mode):
        single = build_single(fabric_tables, live_config, index_mode)
        router = build_fabric(fabric_tables, live_config, index_mode)
        for name in FABRIC_STREAMS:
            lone = single.query(name, "car")
            routed = router.query(name, "car")
            np.testing.assert_array_equal(lone.frames, routed.frames)
            np.testing.assert_array_equal(
                lone.result.returned_rows, routed.result.returned_rows
            )


class TestRouterStatistics:
    def test_round_statistics_aggregate_across_shards(
        self, fabric_tables, live_config
    ):
        single = build_single(fabric_tables, live_config, "materialized")
        router = build_fabric(fabric_tables, live_config, "materialized")
        lone = single.query_all("car")
        fleet = router.query_all("car")
        # candidate totals are placement-independent; fresh verification
        # sums across the shards' independent rounds
        assert fleet.candidates == lone.candidates
        assert fleet.gt_inferences == lone.gt_inferences
        assert fleet.total_frames == lone.total_frames
        repeat = router.query_all("car")
        assert repeat.gt_inferences == 0  # per-shard caches serve the repeat
        assert repeat.cache_hits == fleet.candidates - 0

    def test_fleet_latency_is_max_over_shards(self, fabric_tables, live_config):
        router = build_fabric(fabric_tables, live_config, "materialized")
        grouped = {}
        for name in FABRIC_STREAMS:
            grouped.setdefault(router.shard_of(name).shard_id, []).append(name)
        if len(grouped) < 2:
            pytest.skip("rendezvous put every stream on one shard")
        per_shard = [
            router.query_all("car", streams=subset).latency_seconds
            for subset in grouped.values()
        ]
        fleet = router.query_all("car").latency_seconds
        assert fleet <= sum(per_shard) + 1e-12

    def test_placement_adopts_preexisting_streams(self, fabric_tables, live_config):
        shard = ShardNode("adopter")
        table = fabric_tables["lausanne"]
        shard.open_stream(
            "lausanne", fps=10.0, config=live_config, durable=False
        )
        shard.append("lausanne", table)
        router = FabricRouter([shard, ShardNode("empty")])
        assert router.placement.shard_of("lausanne") == "adopter"
        assert len(router.query_all("car").slices) == 1

    def test_router_rejects_empty_or_duplicate_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            FabricRouter([])
        with pytest.raises(ValueError, match="duplicate shard ids"):
            FabricRouter([ShardNode("shard-0"), ShardNode("shard-0")])


# ---------------------------------------------------------------------------
# unknown streams: one aggregated KeyError (satellite)
# ---------------------------------------------------------------------------

class TestUnknownStreams:
    def test_router_lists_all_missing(self, fabric_tables, live_config):
        router = build_fabric(fabric_tables, live_config, "lazy")
        with pytest.raises(KeyError) as err:
            router.query_all("car", streams=["ghost-b", "lausanne", "ghost-a"])
        assert "ghost-a, ghost-b" in str(err.value)

    def test_planner_aggregates_across_batch(self, fabric_tables, live_config):
        single = build_single(fabric_tables, live_config, "lazy")
        with pytest.raises(KeyError) as err:
            single.query_batch(
                [
                    QueryRequest("car", streams=["ghost-b"]),
                    QueryRequest("car", streams=["lausanne", "ghost-a"]),
                ]
            )
        assert "ghost-a, ghost-b" in str(err.value)

    def test_checkpoint_lists_all_missing(self, fabric_tables, live_config):
        single = build_single(fabric_tables, live_config, "lazy")
        with pytest.raises(KeyError) as err:
            single.checkpoint(DocumentStore(), streams=["ghost-b", "ghost-a"])
        assert "ghost-a, ghost-b" in str(err.value)

    def test_router_checkpoint_lists_all_missing(self, fabric_tables, live_config):
        router = build_fabric(fabric_tables, live_config, "lazy")
        with pytest.raises(KeyError) as err:
            router.checkpoint(streams=["ghost-b", "lausanne", "ghost-a"])
        assert "ghost-a, ghost-b" in str(err.value)

    def test_router_checkpoint_refuses_streams_without_journal(
        self, fabric_tables, live_config
    ):
        """A shard refuses a round naming its journal-free streams with
        one error naming all of them, before its durable stream
        checkpoints."""
        shard = ShardNode("shard-0")
        router = FabricRouter([shard])
        durable, *plain = sorted(fabric_tables)
        for name, table in fabric_tables.items():
            router.open_stream(
                name, fps=10.0, config=live_config, durable=name == durable
            )
            router.append(name, frame_aligned_chunks(table)[0])
        with pytest.raises(JournalError, match="%s$" % ", ".join(plain)):
            router.checkpoint()
        assert committed_checkpoint(shard.store, durable) is None
        assert shard.store.staged_names() == []
        assert router.checkpoint(streams=[durable]) == [durable]


# ---------------------------------------------------------------------------
# fleet durability: checkpoint + recover through the router
# ---------------------------------------------------------------------------

class TestFleetDurability:
    def test_checkpoint_streams_per_shard_epochs(self, fabric_tables, live_config):
        router = build_fabric(fabric_tables, live_config, "materialized")
        outcomes = router.checkpoint_streams()
        assert [o.stream for o in outcomes] == sorted(FABRIC_STREAMS)
        assert all(o.committed and o.epoch == 1 for o in outcomes)
        for name in FABRIC_STREAMS:
            marker = committed_checkpoint(router.shard_of(name).store, name)
            assert marker is not None and marker["epoch"] == 1

    def test_fleet_restart_recovers_bit_identical(self, fabric_tables, live_config):
        router = build_fabric(fabric_tables, live_config, "materialized")
        router.checkpoint(streams=FABRIC_STREAMS[:1])  # one committed, two journal-only
        before = router.query_all("car")
        # simulated fleet crash: fresh systems over the surviving stores;
        # the reborn router derives placement from what its shards resume
        reborn = FabricRouter(
            [
                ShardNode(sid, store=router.shard(sid).store)
                for sid in router.shard_ids()
            ]
        )
        assert reborn.placement.assignments == {}
        recovered = reborn.recover()
        assert recovered == sorted(FABRIC_STREAMS)
        after = reborn.query_all("car")
        assert_same_slices(before, after)
        assert reborn.placement == router.placement

    def test_restart_routes_a_migrated_stream_to_its_target(
        self, fabric_tables, live_config
    ):
        """A stream migrated against the hash is recovered where its
        data went: the target resumes it, the source holds only the
        fence, and the reborn router routes it to the target."""
        router = build_fabric(fabric_tables, live_config, "materialized")
        victim = FABRIC_STREAMS[0]
        source_id = router.placement.shard_of(victim)
        target_id = next(s for s in router.shard_ids() if s != source_id)
        router.migrate(victim, target_id)
        before = router.query_all("car")
        reborn = FabricRouter(
            [
                ShardNode(sid, store=router.shard(sid).store)
                for sid in router.shard_ids()
            ]
        )
        assert reborn.recover() == sorted(FABRIC_STREAMS)
        assert reborn.placement.shard_of(victim) == target_id
        assert reborn.placement.assignments == router.placement.assignments
        assert reborn.shard(source_id).fenced() == [victim]
        assert victim not in reborn.shard(source_id).streams()
        assert_same_slices(before, reborn.query_all("car"))

    def test_router_over_live_shards_derives_the_same_placement(
        self, fabric_tables, live_config
    ):
        """A second router built over the same live shards -- no
        recovery, no stored table -- routes every stream where the first
        one does, a migrated stream included, and answers identically."""
        router = build_fabric(fabric_tables, live_config, "lazy")
        victim = FABRIC_STREAMS[0]
        source_id = router.placement.shard_of(victim)
        target_id = next(s for s in router.shard_ids() if s != source_id)
        router.migrate(victim, target_id)
        twin = FabricRouter([router.shard(sid) for sid in router.shard_ids()])
        assert twin.placement == router.placement
        assert twin.placement.shard_of(victim) == target_id
        assert_same_slices(router.query_all("car"), twin.query_all("car"))

    def test_router_over_some_shards_routes_only_their_streams(
        self, fabric_tables, live_config
    ):
        """A router built over part of the fleet places exactly the
        streams those shards serve; the rest are unknown to it, not
        routed to a shard it does not have."""
        router = build_fabric(fabric_tables, live_config, "lazy")
        kept = router.shard_ids()[0]
        partial = FabricRouter([router.shard(kept)])
        held = router.placement.streams_on(kept)
        assert partial.streams() == held
        others = sorted(set(FABRIC_STREAMS) - set(held))
        assert held and others  # rendezvous splits these three over two shards
        with pytest.raises(KeyError, match="not ingested"):
            partial.query_all("car", streams=others)
        assert sorted(partial.query_all("car").slices) == held

    def test_restarted_router_with_grown_fleet_uses_new_shard(
        self, fabric_tables, live_config
    ):
        """A shard added on restart joins placement: existing streams
        stay where their data is, new ones can land on it."""
        router = build_fabric(fabric_tables, live_config, "lazy")
        before = dict(router.placement.assignments)
        grown = FabricRouter(
            [router.shard(sid) for sid in router.shard_ids()]
            + [ShardNode("shard-new")]
        )
        assert grown.placement.assignments == before
        assert "shard-new" in grown.placement.shards
        landed = {
            grown.placement.with_streams("probe-%03d" % i).shard_of("probe-%03d" % i)
            for i in range(50)
        }
        assert "shard-new" in landed


# ---------------------------------------------------------------------------
# live migration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
class TestMigrationBitIdentity:
    def test_migrated_stream_answers_like_one_that_never_moved(
        self, fabric_tables, live_config, index_mode
    ):
        control = build_single(fabric_tables, live_config, index_mode)
        shards = [ShardNode("shard-0"), ShardNode("shard-1")]
        router = FabricRouter(shards)
        chunked = {
            name: frame_aligned_chunks(table)
            for name, table in fabric_tables.items()
        }
        for name in FABRIC_STREAMS:
            router.open_stream(
                name, fps=10.0, config=live_config, index_mode=index_mode
            )
        # first half of every stream, then move one stream mid-ingest
        for name, chunks in chunked.items():
            for chunk in chunks[: len(chunks) // 2]:
                router.append(name, chunk)
        victim = FABRIC_STREAMS[0]
        source_id = router.placement.shard_of(victim)
        target_id = next(s for s in router.shard_ids() if s != source_id)
        placed_before = router.placement.assignments
        report = router.migrate(victim, target_id)
        assert report.source_shard == source_id
        assert report.target_shard == target_id
        assert router.placement.assignments == {**placed_before, victim: target_id}
        # ingest resumes on the target through the same router surface
        for name, chunks in chunked.items():
            for chunk in chunks[len(chunks) // 2:]:
                router.append(name, chunk)
        for clazz in ("car", "pedestrian"):
            assert_same_slices(control.query_all(clazz), router.query_all(clazz))
        moved = router.shard(target_id).system.handle(victim)
        never_moved = control.handle(victim)
        assert moved.watermark_s == never_moved.watermark_s
        assert len(moved.table) == len(never_moved.table)

    def test_journal_suffix_replay_without_fresh_checkpoint(
        self, fabric_tables, live_config, index_mode
    ):
        """checkpoint=False ships the last committed epoch plus the
        journal suffix; the target replays the suffix chunks."""
        control = build_single(fabric_tables, live_config, index_mode)
        source, target = ShardNode("src"), ShardNode("dst")
        name = FABRIC_STREAMS[0]
        chunks = frame_aligned_chunks(fabric_tables[name])
        source.open_stream(name, fps=10.0, config=live_config, index_mode=index_mode)
        source.append(name, chunks[0])
        source.checkpoint(streams=[name])
        for chunk in chunks[1:]:
            source.append(name, chunk)  # journaled, never checkpointed
        report = migrate_stream(source, target, name, checkpoint=False)
        assert report.epoch == 1
        assert report.replayed_chunks == len(chunks) - 1
        single = control.query(name, "car")
        routed = target.system.query(name, "car")
        np.testing.assert_array_equal(single.frames, routed.frames)
        np.testing.assert_array_equal(
            single.result.returned_rows, routed.result.returned_rows
        )


class TestMigrationFencing:
    def _migrated_pair(self, fabric_tables, live_config):
        source, target = ShardNode("src"), ShardNode("dst")
        name = FABRIC_STREAMS[0]
        chunks = frame_aligned_chunks(fabric_tables[name])
        source.open_stream(name, fps=10.0, config=live_config,
                           index_mode="materialized")
        for chunk in chunks[:2]:
            source.append(name, chunk)
        zombie = source.handle(name).ingestor
        migrate_stream(source, target, name)
        return source, target, name, zombie, chunks

    def test_zombie_source_session_is_fenced(self, fabric_tables, live_config):
        source, target, name, zombie, _ = self._migrated_pair(
            fabric_tables, live_config
        )
        # the pre-migration session object lost the epoch CAS: its next
        # durable checkpoint must be rejected, not merged
        with pytest.raises(StaleEpochError):
            zombie.checkpoint(source.store)
        # and the source system no longer serves the stream at all
        with pytest.raises(KeyError, match="not been ingested"):
            source.system.query(name, "car")
        assert fenced_streams(source.store) == [name]

    def test_source_recovery_skips_fenced_stream(self, fabric_tables, live_config):
        source, target, name, _, _ = self._migrated_pair(fabric_tables, live_config)
        assert journaled_streams(source.store) == []
        reborn = ShardNode("src-reborn", store=source.store)
        assert reborn.recover() == []  # nothing resurrects on the old shard
        assert reborn.fenced() == [name]

    def test_zombie_append_does_not_resurrect_fenced_stream(
        self, fabric_tables, live_config
    ):
        """A zombie push after the fence recreates the journal
        collection; its dead-lineage records must not drag the stream
        back into whole-shard recovery (which would abort it)."""
        source, _, name, zombie, chunks = self._migrated_pair(
            fabric_tables, live_config
        )
        zombie.push(chunks[2])  # journals into the fenced source store
        assert journaled_streams(source.store) == []
        reborn = ShardNode("src-reborn", store=source.store)
        assert reborn.recover() == []

    def test_direct_recover_of_fenced_stream_raises_clearly(
        self, fabric_tables, live_config
    ):
        from repro.core.streaming import StreamIngestor

        source, _, name, _, _ = self._migrated_pair(fabric_tables, live_config)
        # the system-level recover no longer lists the stream at all ...
        with pytest.raises(KeyError, match="no durable stream state"):
            FocusSystem().recover(source.store, streams=[name])
        # ... and forcing a session-level recover names the migration
        with pytest.raises(StaleEpochError, match="migrated away"):
            StreamIngestor.recover(source.store, name)

    def test_migrate_back_after_fence(self, fabric_tables, live_config):
        """A fence tombstone does not block migrating the stream back."""
        source, target, name, _, chunks = self._migrated_pair(
            fabric_tables, live_config
        )
        target.append(name, chunks[2])
        report = migrate_stream(target, source, name)
        assert report.target_shard == "src"
        assert name in source.system.streams()
        for chunk in chunks[3:]:
            source.append(name, chunk)
        assert source.handle(name).watermark_s == pytest.approx(
            float(fabric_tables[name].time_s.max())
        )

    def test_reset_stream_clears_fence_for_fresh_lineage(
        self, fabric_tables, live_config
    ):
        source, _, name, _, _ = self._migrated_pair(fabric_tables, live_config)
        reset_stream(source.store, name)
        assert fenced_streams(source.store) == []
        handle = source.open_stream(
            name, fps=10.0, config=live_config, index_mode="materialized"
        )
        assert handle.live


class TestSpecializedModelMigration:
    def _spec_config(self, spec_model):
        from repro.core.config import FocusConfig

        return FocusConfig(model=spec_model, k=2, cluster_threshold=0.12)

    def test_specialized_stream_migrates_with_config_handover(
        self, fabric_tables, spec_model
    ):
        """A stream ingested with a specialized (non-zoo) model -- whose
        config recovery cannot rebuild from the journaled descriptor --
        migrates because the live config is handed to the target."""
        config = self._spec_config(spec_model)
        source, target = ShardNode("src"), ShardNode("dst")
        name = "auburn_c"
        chunks = frame_aligned_chunks(fabric_tables[name])
        source.open_stream(name, fps=10.0, config=config, index_mode="materialized")
        for chunk in chunks[:2]:
            source.append(name, chunk)
        before = source.system.query(name, "car")
        migrate_stream(source, target, name)
        after = target.system.query(name, "car")
        np.testing.assert_array_equal(before.frames, after.frames)
        assert name not in source.system.streams()
        # ... and the shard-level recover surface forwards configs too
        crashed = ShardNode("dst-reborn", store=target.store)
        assert crashed.recover(configs={name: config}) == [name]

    def test_failed_target_recovery_leaves_source_serving(
        self, fabric_tables, spec_model, monkeypatch
    ):
        """Migration must be atomic from the fleet's point of view: if
        target recovery blows up, the source keeps the stream and the
        target store is wiped -- never a stream owned by no shard."""
        config = self._spec_config(spec_model)
        source, target = ShardNode("src"), ShardNode("dst")
        name = "auburn_c"
        chunks = frame_aligned_chunks(fabric_tables[name])
        source.open_stream(name, fps=10.0, config=config, index_mode="materialized")
        source.append(name, chunks[0])
        before = source.system.query(name, "car")
        monkeypatch.setattr(
            target.system, "recover",
            lambda *a, **kw: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError, match="boom"):
            migrate_stream(source, target, name)
        assert name in source.system.streams()  # still served at the source
        assert journaled_streams(target.store) == []  # copy wiped
        np.testing.assert_array_equal(
            source.system.query(name, "car").frames, before.frames
        )
        # the aborted attempt left no fence: a retry can succeed
        migrate_stream(source, ShardNode("dst2"), name)

    def test_failed_recovery_onto_fenced_target_restores_its_fence(
        self, fabric_tables, live_config, monkeypatch
    ):
        """Migrating back onto a shard that holds a fence tombstone, and
        failing during recovery, must put the fence back -- otherwise
        the zombie that fence was holding off wins its epoch CAS again."""
        source, target = ShardNode("src"), ShardNode("dst")
        name = FABRIC_STREAMS[0]
        chunks = frame_aligned_chunks(fabric_tables[name])
        source.open_stream(name, fps=10.0, config=live_config,
                           index_mode="materialized")
        source.append(name, chunks[0])
        zombie = source.handle(name).ingestor
        migrate_stream(source, target, name)  # src now fenced
        target.append(name, chunks[1])
        monkeypatch.setattr(
            source.system, "recover",
            lambda *a, **kw: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError, match="boom"):
            migrate_stream(target, source, name)  # back onto fenced src
        assert fenced_streams(source.store) == [name]  # fence survived
        with pytest.raises(StaleEpochError):
            zombie.checkpoint(source.store)  # still held off
        assert name in target.system.streams()  # target keeps serving


class TestMigrationGuards:
    def test_non_durable_session_cannot_migrate(self, fabric_tables, live_config):
        source, target = ShardNode("src"), ShardNode("dst")
        name = FABRIC_STREAMS[0]
        source.open_stream(
            name, fps=10.0, config=live_config, durable=False
        )
        with pytest.raises(MigrationError, match="durable"):
            migrate_stream(source, target, name)

    def test_target_with_existing_state_refuses(self, fabric_tables, live_config):
        source, target = ShardNode("src"), ShardNode("dst")
        name = FABRIC_STREAMS[0]
        chunks = frame_aligned_chunks(fabric_tables[name])
        source.open_stream(name, fps=10.0, config=live_config)
        source.append(name, chunks[0])
        target.open_stream(name, fps=10.0, config=live_config)
        target.system.close_stream(name)
        with pytest.raises(MigrationError, match="already holds durable state"):
            migrate_stream(source, target, name)

    def test_router_rejects_same_shard_migration(self, fabric_tables, live_config):
        router = build_fabric(fabric_tables, live_config, "lazy")
        name = FABRIC_STREAMS[0]
        with pytest.raises(MigrationError, match="already lives"):
            router.migrate(name, router.placement.shard_of(name))

    def test_failed_open_leaves_no_phantom_placement(
        self, fabric_tables, live_config
    ):
        """A shard-side open failure must not commit the stream's
        placement -- a placed-but-unserved stream would poison every
        later fleet-wide fan-out."""
        router = build_fabric(fabric_tables, live_config, "lazy")
        placed = router.placement.assignments
        with pytest.raises(ValueError, match="config"):
            router.open_stream("oxford", fps=10.0)  # no config, no tune_on
        assert router.placement.assignments == placed
        answer = router.query_all("car")  # fan-out still serves the fleet
        assert sorted(answer.slices) == sorted(FABRIC_STREAMS)


# ---------------------------------------------------------------------------
# observability (satellite)
# ---------------------------------------------------------------------------

class TestObservability:
    def test_cost_summary_totals_are_per_shard_sums(
        self, fabric_tables, live_config
    ):
        router = build_fabric(fabric_tables, live_config, "materialized")
        router.query_all("car")
        broken_down = router.cost_summary(per_shard=True)
        total, per = broken_down["total"], broken_down["per_shard"]
        assert set(per) == set(router.shard_ids())
        for key, value in total.items():
            assert value == pytest.approx(
                sum(shard.get(key, 0.0) for shard in per.values())
            ), key
        assert total["journal-appends"] > 0
        assert router.cost_summary() == total

    def test_cache_stats_merge_recomputes_hit_rate(
        self, fabric_tables, live_config
    ):
        router = build_fabric(fabric_tables, live_config, "materialized")
        router.query_all("car")
        router.query_all("car")
        merged = router.cache_stats(per_shard=True)
        total, per = merged["total"], merged["per_shard"]
        hits = sum(s["hits"] for s in per.values())
        misses = sum(s["misses"] for s in per.values())
        assert total["hits"] == hits
        assert total["hit_rate"] == pytest.approx(hits / (hits + misses))
        assert set(total) == set(STAT_KINDS)

    def test_every_service_counter_is_classified(self):
        service_counters = FocusSystem().service.counters()
        # subset: COUNTER_KINDS also classifies the fabric's wire
        # counters, which only surface through shard cost summaries
        assert set(service_counters) <= set(COUNTER_KINDS)
        assert all(kind in ("sum", "gauge") for kind in COUNTER_KINDS.values())

    def test_every_wire_counter_is_classified(self):
        from repro.fabric.protocol import WIRE_COUNTER_KEYS

        assert set(WIRE_COUNTER_KEYS) <= set(COUNTER_KINDS)
        assert all(COUNTER_KINDS[k] == "sum" for k in WIRE_COUNTER_KEYS)

    def test_merge_counters_rejects_unclassified_keys(self):
        with pytest.raises(KeyError, match="merge semantics"):
            merge_counters([{"mystery-counter": 1.0}])

    def test_merge_stats_rejects_unclassified_keys(self):
        with pytest.raises(KeyError, match="merge semantics"):
            VerificationCache.merge_stats([{"mystery-stat": 1.0}])

    def test_every_cache_stat_is_classified(self):
        assert set(VerificationCache().stats()) == set(STAT_KINDS)

    def test_merge_counters_sums_declared_sums(self):
        merged = merge_counters(
            [{"queries-served": 2.0}, {"queries-served": 3.0}]
        )
        assert merged["queries-served"] == 5.0

    def test_shard_counters_snapshot(self, fabric_tables, live_config):
        router = build_fabric(fabric_tables, live_config, "materialized")
        router.query_all("car")
        for sid in router.shard_ids():
            snap = router.shard(sid).counters()
            assert snap["shard"] == sid
            assert snap["streams"] == snap["live-streams"]
            assert set(snap["gpu"]) == {
                "gpus", "busy-gpu-seconds", "utilization", "queue-depth",
            }


# ---------------------------------------------------------------------------
# scatter-gather merge semantics (regression pins)
# ---------------------------------------------------------------------------

class TestScatterMergeSemantics:
    """Pin the router's gather math: latency is the max over concurrent
    shard legs (they verify in parallel on their own clusters), while
    work counters sum across the shards' independent rounds."""

    @staticmethod
    def _part(latency, gt, candidates, hits, dups, streams):
        from repro.core.query import QueryResult
        from repro.serve.service import MultiStreamAnswer

        slices = {
            name: QueryResult(
                class_id=7,
                token=0,
                candidate_clusters=[],
                matched_clusters=[],
                returned_rows=np.array([], dtype=np.int64),
                returned_frames=np.array([], dtype=np.int64),
                gt_inferences=0,
                gpu_seconds=0.0,
            )
            for name in streams
        }
        return MultiStreamAnswer(
            class_id=7,
            class_name="class-7",
            slices=slices,
            latency_seconds=latency,
            gt_inferences=gt,
            candidates=candidates,
            cache_hits=hits,
            duplicates_coalesced=dups,
        )

    def test_merge_answers_latency_is_max_not_sum(self):
        parts = [
            self._part(0.30, 10, 40, 4, 1, ["a"]),
            self._part(0.05, 3, 10, 2, 0, ["b"]),
            self._part(0.20, 7, 25, 1, 2, ["c", "d"]),
        ]
        merged = FabricRouter._merge_answers(parts)
        assert merged.latency_seconds == 0.30  # max, never 0.55
        assert merged.gt_inferences == 20
        assert merged.candidates == 75
        assert merged.cache_hits == 7
        assert merged.duplicates_coalesced == 3
        assert sorted(merged.slices) == ["a", "b", "c", "d"]
        assert merged.class_id == 7 and merged.class_name == "class-7"

    def test_merge_answers_single_part_is_identity(self):
        part = self._part(0.42, 5, 12, 3, 1, ["solo"])
        merged = FabricRouter._merge_answers([part])
        assert merged.latency_seconds == part.latency_seconds
        assert merged.gt_inferences == part.gt_inferences
        assert merged.slices == part.slices

    def test_merge_counters_skips_gauges(self, monkeypatch):
        monkeypatch.setitem(COUNTER_KINDS, "resident-streams", "gauge")
        merged = merge_counters(
            [
                {"queries-served": 2.0, "resident-streams": 5.0},
                {"queries-served": 1.0, "resident-streams": 7.0},
            ]
        )
        assert merged == {"queries-served": 3.0}  # no fleet-level gauge

    def test_router_scatter_latency_bounded_by_slowest_leg(
        self, fabric_tables, live_config
    ):
        """End-to-end pin of the counter semantics: a fleet round's
        latency equals its slowest shard leg, and its work counters are
        exactly the per-leg sums."""
        router = build_fabric(fabric_tables, live_config, "materialized")
        grouped = {}
        for name in FABRIC_STREAMS:
            grouped.setdefault(router.shard_of(name).shard_id, []).append(name)
        if len(grouped) < 2:
            pytest.skip("rendezvous put every stream on one shard")
        fleet = router.query_all("car")
        # after the cold round every leg is warm, so per-leg re-runs are
        # deterministic under caching and their counters must sum exactly
        repeat = router.query_all("car")
        repeat_legs = [
            router.query_all("car", streams=subset)
            for subset in grouped.values()
        ]
        assert repeat.cache_hits == sum(l.cache_hits for l in repeat_legs)
        assert repeat.gt_inferences == sum(l.gt_inferences for l in repeat_legs)
        assert repeat.latency_seconds <= fleet.latency_seconds
