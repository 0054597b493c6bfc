"""Kind-specific properties of the fabric wire codec.

That every codec kind round-trips, inline and through a segment, is one
table-driven case in ``tests/test_fabric_ops.py``.  Here: what a single
kind promises beyond that -- array dtypes/shapes/ownership,
observation-table slices (empty and zero-copy views) encoding like the
copies they alias, ``dispatch`` dropped from a chunk report -- plus the
guard rails: marshalled error envelopes re-raise with their original
type, and a wrong kind or a foreign protocol version is refused instead
of misread.
"""

import pickle

import numpy as np
import pytest

from repro.core.streaming import ChunkReport
from repro.fabric import codec
from repro.fabric.codec import CodecError
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    RemoteShardError,
    encode_error,
    raise_remote,
)
from repro.storage.journal import StaleEpochError


def assert_tables_equal(left, right):
    assert left.stream == right.stream
    assert left.fps == right.fps
    assert left.duration_s == right.duration_s
    assert len(left) == len(right)
    for name in codec.TABLE_COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestArrays:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_dtypes_and_shapes(self, seed):
        rng = np.random.default_rng(seed)
        for dtype in ("int64", "int32", "float64", "float32", "bool"):
            shape = tuple(
                int(n) for n in rng.integers(0, 6, rng.integers(1, 3))
            )
            arr = (rng.random(shape) * 100).astype(dtype)
            out = codec.decode_array(codec.encode_array(arr))
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            assert np.array_equal(out, arr)

    def test_decoded_array_is_writable_and_owns_memory(self):
        arr = np.arange(12)
        out = codec.decode_array(codec.encode_array(arr))
        out[0] = 99  # np.frombuffer views are read-only; the copy is not
        assert arr[0] == 0

    def test_non_contiguous_view_encodes_like_its_copy(self):
        base = np.arange(40).reshape(8, 5)
        view = base[::2, 1:]
        assert not view.flags["C_CONTIGUOUS"]
        out = codec.decode_array(codec.encode_array(view))
        assert np.array_equal(out, view.copy())

    def test_wrong_kind_refused(self):
        env = codec.encode_array(np.arange(3))
        with pytest.raises(CodecError, match="expected a 'table'"):
            codec.decode_table(env)


class TestTables:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_slices_round_trip(self, table_factory, seed):
        rng = np.random.default_rng(100 + seed)
        stream = ["auburn_c", "jacksonh", "lausanne"][seed % 3]
        table = table_factory(stream, 20.0, 10.0)
        for _ in range(8):
            a = int(rng.integers(0, len(table)))
            b = int(rng.integers(a, len(table) + 1))
            view = table.slice(a, b)  # zero-copy view of the parent
            assert_tables_equal(
                view, codec.decode_table(codec.encode_table(view))
            )

    def test_empty_slice_round_trips(self, table_factory):
        table = table_factory("auburn_c", 20.0, 10.0)
        empty = table.slice(5, 5)
        assert len(empty) == 0
        out = codec.decode_table(codec.encode_table(empty))
        assert_tables_equal(empty, out)

    def test_full_table_round_trips(self, table_factory):
        table = table_factory("auburn_c", 20.0, 10.0)
        assert_tables_equal(
            table, codec.decode_table(codec.encode_table(table))
        )


class TestReports:
    @pytest.mark.parametrize("seed", range(4))
    def test_chunk_report_round_trip_drops_dispatch(self, seed):
        rng = np.random.default_rng(500 + seed)
        report = ChunkReport(
            chunk_rows=int(rng.integers(0, 500)),
            total_rows=int(rng.integers(500, 5_000)),
            watermark_s=float(rng.random() * 100),
            suppressed=int(rng.integers(0, 50)),
            cnn_inferences=int(rng.integers(0, 500)),
            gpu_seconds=float(rng.random()),
            new_clusters=[int(c) for c in rng.integers(0, 30, rng.integers(0, 5))],
            grown_clusters=[int(c) for c in rng.integers(0, 30, rng.integers(0, 5))],
            dispatch=object(),  # worker-local; must not cross the wire
        )
        out = codec.decode_chunk_report(codec.encode_chunk_report(report))
        assert out.dispatch is None
        for field in (
            "chunk_rows",
            "total_rows",
            "watermark_s",
            "suppressed",
            "cnn_inferences",
            "gpu_seconds",
            "new_clusters",
            "grown_clusters",
        ):
            assert getattr(out, field) == getattr(report, field)


class TestErrorEnvelopes:
    def test_picklable_exception_rearises_with_type_and_args(self):
        try:
            raise KeyError("missing-stream")
        except KeyError as exc:
            env = encode_error(exc)
        with pytest.raises(KeyError) as info:
            raise_remote(env)
        assert info.value.args == ("missing-stream",)
        assert "missing-stream" in info.value.remote_traceback

    def test_domain_exception_survives(self):
        env = encode_error(StaleEpochError("zombie lost the CAS"))
        with pytest.raises(StaleEpochError, match="zombie lost the CAS"):
            raise_remote(env)

    def test_unpicklable_exception_rebuilt_from_triple(self):
        class Unpicklable(RuntimeError):
            def __reduce__(self):
                raise TypeError("nope")

        env = encode_error(Unpicklable("worker-side detail"))
        assert "pickled" not in env
        # a test-local class cannot be imported client-side either
        with pytest.raises(RemoteShardError, match="worker-side detail"):
            raise_remote(env)

    def test_pickle_round_trip_is_verified_not_assumed(self):
        class DumpsButNotLoads(RuntimeError):
            """Pickles fine; explodes on load (a module-moved exception)."""

            def __setstate__(self, state):
                raise TypeError("cannot rebuild")

        env = encode_error(DumpsButNotLoads("detail"))
        # encode_error must have noticed loads() failing and dropped the blob
        assert "pickled" not in env


class TestVersionGuards:
    def test_codec_refuses_foreign_version(self):
        env = codec.encode_array(np.arange(3))
        env["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(CodecError, match="version mismatch"):
            codec.decode_array(env)

    def test_every_envelope_carries_kind_and_version(self, table_factory):
        table = table_factory("auburn_c", 20.0, 10.0)
        env = codec.encode_table(table)
        assert env["kind"] == "table"
        assert env["v"] == PROTOCOL_VERSION
        assert env["columns"]["time_s"]["v"] == PROTOCOL_VERSION

    def test_envelopes_are_plain_primitives(self, table_factory):
        """The whole point of the codec: what crosses the queue is
        primitives + bytes, never live numpy/dataclass objects."""
        table = table_factory("auburn_c", 20.0, 10.0)
        env = codec.encode_table(table.slice(0, 7))

        def walk(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    assert isinstance(k, str)
                    walk(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    walk(v)
            else:
                assert obj is None or isinstance(
                    obj, (str, int, float, bool, bytes)
                ), type(obj)

        walk(env)
        pickle.dumps(env)  # and therefore queue-safe


# -- the shared-memory data plane --------------------------------------------

from repro.fabric import shm as shm_plane  # noqa: E402

needs_shm = pytest.mark.skipif(
    not shm_plane.shm_available(), reason="host cannot serve POSIX shm"
)

_seg_counter = iter(range(10_000))


def _named_sink(threshold=0):
    """A sink backed by a fresh named segment (reply-plane shape)."""
    name = "codec-test-%d" % next(_seg_counter)
    return shm_plane.ShmSink(
        alloc=lambda nbytes: shm_plane.create_segment(name, nbytes),
        threshold=threshold,
    )


def _consume(envelope_decode):
    """Run a decode against an owning reader; unlink on the way out."""
    reader = shm_plane.ShmReader(owns=True)
    try:
        return envelope_decode(reader)
    finally:
        reader.close()


@needs_shm
class TestShmDataPlane:
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_table_slices_round_trip_through_segments(
        self, table_factory, seed
    ):
        rng = np.random.default_rng(700 + seed)
        stream = ["auburn_c", "jacksonh", "lausanne"][seed % 3]
        table = table_factory(stream, 20.0, 10.0)
        lo = int(rng.integers(0, len(table) - 1))
        hi = int(rng.integers(lo + 1, len(table) + 1))  # >= 1 row
        view = table.slice(lo, hi)
        sink = _named_sink(threshold=1)
        envelope = codec.encode_table(view, sink)
        assert sink.seal() is not None  # everything crossed the plane
        sink.close_handoff()
        decoded = _consume(lambda r: codec.decode_table(envelope, r))
        assert_tables_equal(view, decoded)

    def test_empty_slice_round_trips_inline(self, table_factory):
        # an empty message never crosses the threshold: it inlines even
        # at threshold 1 (zero payload bytes), and decodes identically
        table = table_factory("auburn_c", 10.0, 10.0)
        empty = table.slice(5, 5)
        sink = _named_sink(threshold=1)
        envelope = codec.encode_table(empty, sink)
        sink.seal()
        sink.close_handoff()
        decoded = _consume(lambda r: codec.decode_table(envelope, r))
        assert_tables_equal(empty, decoded)

    def test_non_contiguous_view_round_trips(self):
        base = np.arange(64, dtype=np.float32).reshape(8, 8)
        view = base[::2, ::3]  # strided, non-contiguous
        sink = _named_sink(threshold=1)
        envelope = codec.encode_array(view, sink)
        assert sink.seal() is not None
        sink.close_handoff()
        decoded = _consume(lambda r: codec.decode_array(envelope, r))
        np.testing.assert_array_equal(decoded, view)
        assert decoded.flags["C_CONTIGUOUS"]

    def test_below_threshold_inlines_above_ships(self):
        small = np.arange(4, dtype=np.uint8)
        sink = _named_sink(threshold=1024)
        envelope = codec.encode_array(small, sink)
        assert sink.seal() is None  # 4 bytes < 1024: inline fallback
        assert "data" in envelope and "shm" not in envelope
        np.testing.assert_array_equal(codec.decode_array(envelope), small)

        big = np.arange(2048, dtype=np.uint8)
        sink = _named_sink(threshold=1024)
        envelope = codec.encode_array(big, sink)
        assert sink.seal() is not None
        assert "shm" in envelope and "data" not in envelope
        sink.close_handoff()
        np.testing.assert_array_equal(
            _consume(lambda r: codec.decode_array(envelope, r)), big
        )

    def test_sink_without_allocator_forces_inline_fallback(self):
        arr = np.arange(4096, dtype=np.float64)
        sink = shm_plane.ShmSink(alloc=None, threshold=1)
        envelope = codec.encode_array(arr, sink)
        assert sink.seal() is None
        np.testing.assert_array_equal(codec.decode_array(envelope), arr)

    def test_failed_allocation_forces_inline_fallback(self):
        arr = np.arange(4096, dtype=np.float64)
        sink = shm_plane.ShmSink(alloc=lambda n: None, threshold=1)
        envelope = codec.encode_array(arr, sink)
        assert sink.seal() is None
        np.testing.assert_array_equal(codec.decode_array(envelope), arr)

    def test_descriptor_without_reader_refused(self):
        arr = np.arange(1024, dtype=np.uint8)
        sink = _named_sink(threshold=1)
        envelope = codec.encode_array(arr, sink)
        sink.seal()
        with pytest.raises(CodecError, match="no reader"):
            codec.decode_array(envelope)
        # clean up the segment the refused decode left behind
        sink.close_handoff()
        assert shm_plane.unlink_segment(envelope["shm"]["seg"])

    def test_blob_round_trips_and_reader_unlinks_on_close(self):
        payload = pickle.dumps({"docs": list(range(500))})
        sink = _named_sink(threshold=1)
        envelope = codec.encode_blob(payload, sink)
        name = sink.seal()
        assert name is not None
        sink.close_handoff()
        reader = shm_plane.ShmReader(owns=True)
        assert codec.decode_blob(envelope, reader) == payload
        assert reader.total_nbytes == len(payload)
        reader.close()
        # the owning reader consumed the segment: it is gone
        assert not shm_plane.unlink_segment(name)

    def test_multiple_payloads_pack_into_one_aligned_segment(self):
        sink = _named_sink(threshold=1)
        envelopes = []
        arrays = [
            np.arange(7, dtype=np.uint8),
            np.arange(33, dtype=np.float64),
            np.arange(5, dtype=np.int32),
        ]
        for arr in arrays:
            envelopes.append(codec.encode_array(arr, sink))
        name = sink.seal()
        assert name is not None
        segs = {e["shm"]["seg"] for e in envelopes}
        assert segs == {name}  # one segment for the whole message
        for e in envelopes:
            assert e["shm"]["off"] % 64 == 0
        sink.close_handoff()
        reader = shm_plane.ShmReader(owns=True)
        for envelope, arr in zip(envelopes, arrays):
            np.testing.assert_array_equal(
                codec.decode_array(envelope, reader), arr
            )
        reader.close()

    def test_pool_recycles_and_leak_checks(self):
        pool = shm_plane.ShmPool("codec-pool-%d" % next(_seg_counter))
        seg = pool.allocate(1000)
        assert seg is not None
        assert seg.size >= 4096  # power-of-two, page-multiple floor
        name = seg.name
        assert pool.leased_names() == [name]
        pool.release(name)
        assert pool.leased_names() == []
        again = pool.allocate(2000)  # same size class: recycled
        assert again.name == name
        pool.release(name)
        pool.release(name)  # idempotent
        leaked = pool.close()
        assert leaked == []
        assert not shm_plane.unlink_segment(name)  # close unlinked it
        assert pool.allocate(100) is None  # closed pool refuses

    def test_pool_close_reports_still_leased_segments(self):
        pool = shm_plane.ShmPool("codec-pool-%d" % next(_seg_counter))
        seg = pool.allocate(100)
        assert pool.close() == [seg.name]
        assert pool.close() == []  # idempotent

    def test_worker_shaped_reader_cache_does_not_own(self):
        # the worker attaches to pooled request segments through a
        # long-lived cache and must NOT unlink them on close
        pool = shm_plane.ShmPool("codec-pool-%d" % next(_seg_counter))
        sink = shm_plane.ShmSink(alloc=pool.allocate, threshold=1)
        envelope = codec.encode_blob(b"x" * 256, sink)
        name = sink.seal()
        cache = {}
        reader = shm_plane.ShmReader(cache=cache, owns=False)
        assert codec.decode_blob(envelope, reader) == b"x" * 256
        assert name in cache
        reader.close()
        # the segment survives the reader: the pool still owns it
        pool.release(name)
        assert pool.close() == []


class TestConfigs:
    """A config on the wire is its parameters: the model's shared
    ``FeatureExtractor`` memo caches (prototypes, neighbours, track
    profiles) are rebuilt on demand by whoever receives it."""

    @staticmethod
    def _config():
        from repro.cnn.zoo import cheap_cnn
        from repro.core.config import FocusConfig

        return FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.12)

    def test_pickle_size_is_the_same_after_an_ingest(self, table_factory):
        from repro.core.streaming import StreamIngestor

        config = self._config()
        fresh = len(pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL))
        table = table_factory("auburn_c", 20.0, 10.0)
        StreamIngestor(config, table.stream, fps=table.fps).push(table)
        extractor = config.model.feature_extractor()
        assert extractor._track_cache and extractor._proto_known.any()
        warm = pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(warm) == fresh
        assert codec.encode_config(config)["n"] == fresh
        received = pickle.loads(warm).model.feature_extractor()
        assert received._proto_matrix is None and not received._track_cache
        assert np.array_equal(received.extract(table), extractor.extract(table))

    @pytest.mark.parametrize("specialized", [False, True])
    def test_config_crosses_the_wire_as_its_parameters(self, table_factory, specialized):
        from repro.cnn.noise import default_confusion
        from repro.cnn.specialize import specialize
        from repro.core.config import FocusConfig

        table = table_factory("auburn_c", 20.0, 10.0)
        config = self._config()
        if specialized:
            model = specialize(config.model, table.class_histogram(), 5, table.stream)
            config = FocusConfig(model=model, k=2, cluster_threshold=0.12)
        assert codec.encode_config(config)["n"] < 4096  # was 318 kB of derived pools
        received = codec.decode_config(codec.encode_config(config))
        assert received.model.confusion is default_confusion()
        tokens = config.model.space_tokens() if specialized else np.unique(table.class_id)[:3]
        for token in tokens:
            assert np.array_equal(
                received.model.topk_membership(table, int(token), 4),
                config.model.topk_membership(table, int(token), 4))

    def test_non_default_confusion_rebuilds_from_its_parameters(self):
        from repro.cnn.noise import ConfusionModel

        model = ConfusionModel(pool_mass=0.2, num_classes=50)
        received = pickle.loads(pickle.dumps(model))
        assert received is not model
        assert (received.pool_mass, received.num_classes) == (0.2, 50)
        assert received._pools == model._pools
