"""The fabric wire codec and its shared-memory data plane.

One property holds the codec to its contract, per record type and per
transport (inline; a reply's named segment; a pooled request segment
that is recycled after reading): every record a wire op carries --
observation-table slices (empty, whole, one column strided), arrays of
every layout, and a sample of each record type in :data:`SAMPLES` --
comes back bit-identical, with writable arrays that share no memory
with the source and outlive the segment, moving only the bytes it
holds; a reply's value and store delta seal into one message; and a
foreign protocol version is refused.  Around it: the data plane's rules
(the crossover threshold, fallbacks, pool size classes and reader
lifetimes), error envelopes, and configs crossing as their parameters.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.metrics import SegmentMetrics
from repro.core.query import QueryResult
from repro.core.streaming import ChunkReport
from repro.core.system import QueryAnswer
from repro.fabric import codec
from repro.fabric import shm as shm_plane
from repro.fabric.codec import CodecError
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    RemoteShardError,
    StreamHandleInfo,
    encode_error,
    raise_remote,
)
from repro.serve.planner import QueryRequest
from repro.serve.service import MultiStreamAnswer, StreamCheckpoint, StreamSlice
from repro.storage.docstore import DocumentStore
from repro.storage.journal import StaleEpochError
from repro.video.synthesis import ObservationTable

needs_shm = pytest.mark.skipif(
    not shm_plane.shm_available(), reason="host cannot serve POSIX shm"
)
#: ``reply``: a named segment an owning reader unlinks; ``pool``: a
#: pooled request segment a worker-shaped reader attaches through its
#: cache, overwritten by the next command once the lease is released
SEGMENTS = ["reply", "pool"] if shm_plane.shm_available() else []
TRANSPORTS = ["inline"] + SEGMENTS
_examples = settings(
    deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow]
)
_seg_counter = iter(range(100_000))


def _named_sink(threshold=0):
    """A sink backed by a fresh named segment (reply-plane shape)."""
    name = "codec-test-%d" % next(_seg_counter)
    return shm_plane.ShmSink(
        alloc=lambda nbytes: shm_plane.create_segment(name, nbytes),
        threshold=threshold,
    )


def _pool():
    return shm_plane.ShmPool("codec-pool-%d" % next(_seg_counter))


def assert_tables_equal(left, right):
    assert (left.stream, left.fps, left.duration_s) == (right.stream, right.fps, right.duration_s)
    assert len(left) == len(right)
    for name in codec.TABLE_COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_same(left, right):
    """Deep bit-identity that knows arrays, tables and stores; a decoded
    array must also be writable and share no memory with its source."""
    assert type(left) is type(right)
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()
        assert right.flags.writeable and not np.shares_memory(left, right)
    elif isinstance(left, ObservationTable):
        assert_tables_equal(left, right)
        for name in codec.TABLE_COLUMNS:
            assert_same(getattr(left, name), getattr(right, name))
    elif isinstance(left, DocumentStore):
        assert left.to_json_obj() == right.to_json_obj()
    elif isinstance(left, dict):
        assert sorted(left) == sorted(right)
        for key in left:
            assert_same(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_same(a, b)
    elif hasattr(left, "__dataclass_fields__"):
        for name in left.__dataclass_fields__:
            assert_same(getattr(left, name), getattr(right, name))
    else:
        assert left == right


def through(values, transport):
    """``(decoded, envelopes)`` after ``values`` crossed as ONE message
    (one sink); every segment is gone or rewritten before this returns."""
    if transport == "inline":
        envelopes = [codec.encode(value) for value in values]
        wire = pickle.loads(pickle.dumps(envelopes))  # what the queue does
        return [codec.decode(envelope) for envelope in wire], envelopes
    pool = _pool()
    sink = _named_sink() if transport == "reply" else shm_plane.ShmSink(pool.allocate, 0)
    envelopes = [codec.encode(value, sink) for value in values]
    name = sink.seal()
    assert {p["seg"] for e in envelopes for p in e["parts"]} == {name}
    sink.close_handoff()
    cache = {}
    reader = shm_plane.ShmReader(cache, owns=False) if transport == "pool" else shm_plane.ShmReader()
    try:
        decoded = [codec.decode(envelope, reader) for envelope in envelopes]
        for seg in cache.values():  # the next command reuses the segment
            seg.buf[:] = b"\xff" * len(seg.buf)
    finally:
        reader.close()
        pool.release(name)
        assert pool.close() == []
    assert not shm_plane.unlink_segment(name)  # consumed or pooled: never leaked
    return decoded, envelopes


def part_sizes(envelope):
    return [p["n"] if isinstance(p, dict) else len(p) for p in envelope["parts"]]


def assert_round_trip(value, transport, *company):
    """``value`` (sharing its message with ``company``) crosses intact."""
    tokens = {}
    if isinstance(value, DocumentStore):
        tokens = {n: value.collection(n).mark_delta_clean() for n in value.collection_names()}
    (out, *others), (envelope, *_) = through([value, *company], transport)
    assert_same(value, out)
    for sent, received in zip(company, others):
        assert_same(sent, received)
    # a store arrives with a fresh delta lineage, never its source's
    for name, token in tokens.items():
        assert not out.collection(name).unchanged_since(token), name
    assert set(envelope) == {"v", "parts"} and envelope["v"] == PROTOCOL_VERSION
    shape = bytes if transport == "inline" else dict
    assert all(isinstance(part, shape) for part in envelope["parts"])
    assert codec.inline_nbytes(envelope) == (sum(part_sizes(envelope)) if shape is bytes else 0)
    with pytest.raises(CodecError, match="version mismatch"):
        codec.decode(dict(envelope, v=PROTOCOL_VERSION + 1))
    return envelope


# -- the samples: one builder per record type a wire op carries ---------------

def ints(rng, high, most):
    return [int(c) for c in rng.integers(0, high, rng.integers(0, most))]


def random_result(rng):
    return QueryResult(
        int(rng.integers(0, 50)), int(rng.integers(0, 10_000)), ints(rng, 100, 8),
        ints(rng, 100, 8), rng.integers(0, 10_000, rng.integers(0, 64)),
        rng.integers(0, 3_000, rng.integers(0, 64)), int(rng.integers(0, 500)),
        float(rng.random()),
    )


def random_metrics(rng):
    true, returned = (int(n) for n in rng.integers(0, 20, 2))
    return SegmentMetrics(
        int(rng.integers(0, 50)), true, returned, int(rng.integers(0, min(true, returned) + 1))
    )


def maybe_metrics(rng):
    return None if rng.random() < 0.25 else random_metrics(rng)


def random_array(rng):
    dtype = rng.choice(["int64", "int32", "float64", "float32", "bool"])
    shape = tuple(int(n) for n in rng.integers(0, 6, rng.integers(1, 3)))
    arr = (rng.random(shape) * 100).astype(dtype)
    return arr[::2] if arr.ndim == 1 and rng.random() < 0.3 else arr


def random_request(rng):
    return QueryRequest(
        clazz=int(rng.integers(0, 50)) if rng.random() < 0.5 else "person",
        streams=None if rng.random() < 0.3 else ["s%d" % i for i in range(rng.integers(1, 4))],
        kx=None if rng.random() < 0.5 else int(rng.integers(1, 10)),
        time_range=None if rng.random() < 0.5 else (float(rng.random()), 10 + float(rng.random())),
        trace=None if rng.random() < 0.5 else {"trace_id": "t1", "span_id": "s1"},
    )


def random_answer(rng):
    return QueryAnswer(
        "s%d" % rng.integers(0, 9), int(rng.integers(0, 50)), "class-%d" % rng.integers(0, 9),
        rng.integers(0, 3_000, rng.integers(0, 40)), float(rng.random()),
        int(rng.integers(0, 100)), maybe_metrics(rng), random_result(rng),
    )


def random_multi_answer(rng):
    slices = {
        "s%d" % i: StreamSlice("s%d" % i, random_result(rng), maybe_metrics(rng))
        for i in range(int(rng.integers(1, 5)))
    }
    counts = (int(n) for n in rng.integers(0, 200, 4))
    return MultiStreamAnswer(
        int(rng.integers(0, 50)), "class-%d" % rng.integers(0, 9), slices, float(rng.random()), *counts
    )


def random_report(rng):
    # ``dispatch`` is worker-local: the append path clears it (test_fabric_ops)
    return ChunkReport(
        int(rng.integers(0, 500)), int(rng.integers(500, 5_000)), float(rng.random() * 100),
        int(rng.integers(0, 50)), int(rng.integers(0, 500)), float(rng.random()),
        ints(rng, 30, 5), ints(rng, 30, 5), dispatch=None,
    )


def random_checkpoint(rng):
    if rng.random() < 0.5:
        return StreamCheckpoint(stream="a", epoch=int(rng.integers(0, 9)), durable=True)
    return StreamCheckpoint(stream="b", epoch=0, durable=False, error="boom", landed=False)


def random_handle_info(rng):
    flags = (bool(b) for b in rng.random(2) < 0.5)
    return StreamHandleInfo(
        "auburn_c", *flags, float(rng.random() * 100), int(rng.integers(0, 5_000)),
        float(rng.random() * 100), 10.0,
    )


def random_store(rng):
    store = DocumentStore()
    for name in ("checkpoints", "journal:s")[: rng.integers(1, 3)]:
        for i in range(int(rng.integers(1, 5))):
            store.collection(name).insert_one({"stream": "s", "n": i})
    return store


def random_delta(rng):
    """A store delta as ``_store_delta`` ships it."""
    store = random_store(rng)
    return [store.collection(n).delta_snapshot()[0] for n in store.collection_names()]


#: record type -> sample(rng); ``tuple`` is ``migrate_out``'s answer,
#: ``list`` a ``query_batch`` answer, ``dict`` a config-bearing payload
SAMPLES = {
    np.ndarray: random_array,
    bytes: lambda rng: rng.bytes(int(rng.integers(0, 4_096))),
    dict: lambda rng: {"k": int(rng.integers(1, 9)), "threshold": float(rng.random())},
    tuple: lambda rng: (int(rng.integers(0, 9)), 2, {"k": 2}),
    list: lambda rng: [random_multi_answer(rng) for _ in range(int(rng.integers(0, 4)))],
    DocumentStore: random_store,
    QueryRequest: random_request,
    QueryResult: random_result,
    SegmentMetrics: random_metrics,
    QueryAnswer: random_answer,
    MultiStreamAnswer: random_multi_answer,
    ChunkReport: random_report,
    StreamCheckpoint: random_checkpoint,
    StreamHandleInfo: random_handle_info,
}
KINDS = pytest.mark.parametrize("kind", SAMPLES, ids=lambda t: t.__name__)
SEEDS = st.integers(0, 2 ** 32 - 1)


@KINDS
@pytest.mark.parametrize("transport", TRANSPORTS)
@_examples
@given(seed=SEEDS)
def test_every_record_round_trips(kind, transport, seed):
    value = SAMPLES[kind](np.random.default_rng(seed))
    assert type(value) is kind
    assert_round_trip(value, transport)


@KINDS
@pytest.mark.parametrize("transport", SEGMENTS)
@_examples
@given(seed=SEEDS)
def test_a_reply_value_and_its_store_delta_seal_as_one_message(kind, transport, seed):
    rng = np.random.default_rng(seed)
    assert_round_trip(SAMPLES[kind](rng), transport, random_delta(rng))


#: arrays of every layout a payload may hold
ARRAYS = {
    "int8": np.arange(-5, 5, dtype=np.int8),
    "uint16": np.arange(9, dtype=np.uint16),
    "float16": np.linspace(0, 1, 7).astype(np.float16),
    "complex128": np.arange(6) * (1 + 2j),
    "bool": np.arange(5) % 2 == 0,
    "big-endian": np.arange(6, dtype=">i4"),
    "fortran-2d": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    "c-3d": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
    "transposed": np.arange(12.0).reshape(3, 4).T[1:],
    "0-d": np.array(7.5),
    "empty-2d": np.zeros((0, 3)),
    "structured": np.array([(1, 2.5), (3, 4.5)], dtype=[("a", "<i4"), ("b", "<f8")]),
    "datetime64": np.arange(3).astype("datetime64[s]"),
}


@pytest.mark.parametrize("name", ARRAYS)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_arrays_of_every_layout_round_trip(name, transport):
    assert_round_trip(ARRAYS[name], transport)


def with_strided_column(table):
    """The table with ``time_s`` a strided view (it pickles in band)."""
    columns = {name: getattr(table, name) for name in codec.TABLE_COLUMNS}
    columns["time_s"] = np.repeat(columns["time_s"], 2)[::2]
    return ObservationTable(table.stream, table.fps, table.duration_s, **columns)


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("transport", TRANSPORTS)
@_examples
@given(offset=st.integers(0, 10_000), length=st.integers(0, 10_000))
def test_table_slices_round_trip_moving_only_their_rows(
    table_factory, strided, transport, offset, length
):
    table = table_factory("auburn_c", 20.0, 10.0)
    start = offset % (len(table) + 1)
    view = table.slice(start, min(len(table), start + length))
    if strided:
        view = with_strided_column(view)
    stream, *buffers = part_sizes(assert_round_trip(view, transport))
    columns = [getattr(view, name) for name in codec.TABLE_COLUMNS]
    contiguous = [c for c in columns if c.flags.c_contiguous]
    # k rows of column bytes, not the base buffer the view aliases
    assert buffers == [c.nbytes for c in contiguous]
    assert stream < 1024 + sum(c.nbytes for c in columns)


#: what a skewed or broken peer might hand the decoder
FOREIGN = {
    "unversioned": {"parts": [b""]},
    "older": {"v": PROTOCOL_VERSION - 1, "parts": [b""]},
    "newer": {"v": PROTOCOL_VERSION + 1, "parts": [b""]},
    "list": [b""],
    "none": None,
    "bytes": pickle.dumps(None, protocol=5),
}


@pytest.mark.parametrize("obj", FOREIGN.values(), ids=FOREIGN)
@pytest.mark.parametrize(
    "decode", [codec.decode, codec.decode_table, codec.decode_multi_answer],
    ids=lambda f: f.__name__,
)
def test_a_foreign_payload_is_refused(decode, obj):
    with pytest.raises(CodecError, match="version mismatch"):
        decode(obj)


def test_typed_decoders_refuse_another_type(table_factory):
    answer = random_multi_answer(np.random.default_rng(0))
    with pytest.raises(CodecError, match="expected a ObservationTable"):
        codec.decode_table(codec.encode_multi_answer(answer))
    table = table_factory("auburn_c", 20.0, 10.0)
    with pytest.raises(CodecError, match="expected a MultiStreamAnswer"):
        codec.decode_multi_answer(codec.encode_table(table))


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


# -- the shared-memory data plane --------------------------------------------

@needs_shm
class TestShmDataPlane:
    @pytest.mark.parametrize("alloc", ["none", "failing", "named", "pool"])
    @pytest.mark.parametrize("total", ["below", "at", "above"])
    def test_a_message_ships_at_the_threshold_when_it_can_allocate(self, total, alloc):
        value = np.arange(2048, dtype=np.uint8)
        nbytes = sum(part_sizes(codec.encode(value)))
        threshold = nbytes + {"below": 1, "at": 0, "above": -1}[total]
        pool = _pool()
        allocs = {"none": None, "failing": lambda n: None, "pool": pool.allocate}
        sink = _named_sink(threshold) if alloc == "named" else shm_plane.ShmSink(allocs[alloc], threshold)
        envelope = codec.encode(value, sink)
        name = sink.seal()
        assert (name is not None) == (alloc in ("named", "pool") and total != "below")
        assert sink.sealed_nbytes == (nbytes if name else 0)
        sink.close_handoff()
        reader = shm_plane.ShmReader(owns=alloc != "pool")
        np.testing.assert_array_equal(codec.decode(envelope, reader), value)
        reader.close()
        pool.release(name)
        assert pool.close() == [] and not shm_plane.unlink_segment(name or "codec-none")

    def test_descriptor_without_reader_refused(self):
        sink = _named_sink(threshold=1)
        envelope = codec.encode(np.arange(1024, dtype=np.uint8), sink)
        sink.seal()
        with pytest.raises(CodecError, match="no reader"):
            codec.decode(envelope)
        # clean up the segment the refused decode left behind
        sink.close_handoff()
        assert shm_plane.unlink_segment(envelope["parts"][0]["seg"])

    def test_owning_reader_counts_and_unlinks_on_close(self):
        value = {"docs": list(range(500))}
        sink = _named_sink(threshold=1)
        envelope = codec.encode(value, sink)
        name = sink.seal()
        assert name is not None and sink.sealed_nbytes == sum(part_sizes(envelope))
        sink.close_handoff()
        reader = shm_plane.ShmReader(owns=True)
        assert codec.decode(envelope, reader) == value
        assert reader.total_nbytes == sink.sealed_nbytes
        reader.close()
        # the owning reader consumed the segment: it is gone
        assert not shm_plane.unlink_segment(name)

    def test_parts_pack_at_aligned_offsets(self):
        sink = _named_sink(threshold=1)
        envelopes = [codec.encode(np.arange(n, dtype=np.uint8), sink) for n in (7, 33, 5)]
        sink.seal()
        assert all(p["off"] % 64 == 0 for e in envelopes for p in e["parts"])
        sink.close_handoff()
        reader = shm_plane.ShmReader()
        for n, envelope in zip((7, 33, 5), envelopes):
            np.testing.assert_array_equal(codec.decode(envelope, reader), np.arange(n))
        reader.close()

    @pytest.mark.parametrize("nbytes", [1, 4095, 4096, 4097, 65536, 65537, 1 << 20])
    def test_pool_leases_power_of_two_size_classes(self, nbytes):
        pool = _pool()
        seg = pool.allocate(nbytes)
        floor = max(nbytes, 4096)
        assert floor <= seg.size < 2 * floor and seg.size & (seg.size - 1) == 0
        pool.release(seg.name)
        assert pool.allocate(nbytes).name == seg.name  # recycled within its class
        assert pool.close() == [seg.name]  # still leased: the leak check

    def test_pool_recycles_and_leak_checks(self):
        pool = _pool()
        seg = pool.allocate(1000)
        name = seg.name
        assert pool.leased_names() == [name]
        pool.release(name)
        assert pool.leased_names() == []
        assert pool.allocate(2000).name == name  # same size class: recycled
        pool.release(name)
        pool.release(name)  # idempotent
        assert pool.close() == []
        assert pool.close() == []  # idempotent
        assert not shm_plane.unlink_segment(name)  # close unlinked it
        assert pool.allocate(100) is None  # closed pool refuses

    def test_worker_shaped_reader_cache_does_not_own(self):
        # the worker attaches to pooled request segments through a
        # long-lived cache and must NOT unlink them on close
        pool = _pool()
        sink = shm_plane.ShmSink(alloc=pool.allocate, threshold=1)
        envelope = codec.encode(b"x" * 256, sink)
        name = sink.seal()
        cache = {}
        reader = shm_plane.ShmReader(cache=cache, owns=False)
        assert codec.decode(envelope, reader) == b"x" * 256
        assert name in cache
        reader.close()
        # the segment survives the reader: the pool still owns it
        pool.release(name)
        assert pool.close() == []


class TestConfigs:
    """A config on the wire is its parameters: the model's
    ``FeatureExtractor`` memo caches (neighbours, track profiles) are
    rebuilt on demand by whoever receives it, and class prototypes are
    a process-wide table that never travels."""

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
        assert extractor._track_cache and extractor._neighbour_cache
        warm = pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(warm) == fresh
        received = pickle.loads(warm).model.feature_extractor()
        assert not received._track_cache and not received._neighbour_cache
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
        envelope = codec.encode(config)
        assert codec.inline_nbytes(envelope) < 4096  # was 318 kB of derived pools
        received = codec.decode(envelope)
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
