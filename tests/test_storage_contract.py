"""The storage contract, held against every implementation.

``repro.storage.docstore`` states what the program calls as three
Protocols: ``CheckpointStore`` (ingest, checkpoint, recovery),
``IndexSink`` (index persistence) and ``StoredCollection`` under them.
This suite holds ``DocumentStore`` / ``FaultyStore`` /
``CheckpointWriter`` and ``Collection`` / ``FaultyCollection`` to those
names and parameter names, pins the one keyed write (``upsert``) and
its fault model, the closed set of query shapes, and that stores
written before the multikey ``top_k`` index was retired still load,
recover and cold-start frame for frame.
"""

import inspect
import json

import numpy as np
import pytest

from repro.core.system import FocusSystem
from repro.storage.docstore import (
    CheckpointStore,
    Collection,
    DocStoreError,
    DocumentStore,
    IndexSink,
    StoredCollection,
)
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import CheckpointWriter
from test_fabric import frame_aligned_chunks

STREAM = "auburn_c"
CLASSES = ("car", "pedestrian", "traffic_light")


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------

def members(protocol):
    """Public (and ``__len__``) members a Protocol declares, bases included."""
    names = set()
    for klass in protocol.__mro__:
        if klass is not object and getattr(klass, "_is_protocol", False):
            names |= {
                n for n, v in vars(klass).items()
                if callable(v) and (not n.startswith("_") or n == "__len__")
            }
    return sorted(names)


def parameters(fn, bound):
    names = list(inspect.signature(fn).parameters)
    return names if bound else names[1:]  # a Protocol declares ``self``


def assert_satisfies(obj, protocol):
    for name in members(protocol):
        assert hasattr(obj, name), "%s lacks %s" % (type(obj).__name__, name)
        wanted = parameters(getattr(protocol, name), bound=False)
        have = parameters(getattr(obj, name), bound=True)
        assert have == wanted, "%s.%s%r != %s's %r" % (
            type(obj).__name__, name, have, protocol.__name__, wanted
        )


def test_protocols_name_the_surface_the_program_calls():
    assert members(IndexSink) == ["collection", "drop"]
    assert members(CheckpointStore) == [
        "collection", "collection_names", "commit_staged", "discard_staged",
        "drop", "drop_staged", "stage",
    ]
    assert members(StoredCollection) == [
        "__len__", "create_index", "delete_many", "find", "find_one",
        "insert_one", "update_one", "upsert",
    ]


def test_every_store_defines_every_protocol_member_alike():
    store = DocumentStore()
    faulty = FaultyStore(DocumentStore())
    assert_satisfies(store, CheckpointStore)
    assert_satisfies(faulty, CheckpointStore)
    assert_satisfies(CheckpointWriter(store, "s", 0, -1), IndexSink)
    for owner in (store, faulty):
        assert_satisfies(owner.collection("c"), StoredCollection)
        assert_satisfies(owner.stage("c"), StoredCollection)


# ---------------------------------------------------------------------------
# the keyed write
# ---------------------------------------------------------------------------

@pytest.fixture
def coll():
    c = Collection("meta")
    c.create_index("stream")
    for stream in ("a", "b", "c"):
        c.insert_one({"stream": stream, "epoch": 1})
    return c


def test_upsert_replaces_wholesale_keeping_id_and_position(coll):
    old = coll.find_one({"stream": "b"})
    doc_id = coll.upsert({"stream": "b"}, {"stream": "b", "rows": 7})
    assert doc_id == old["_id"]
    assert [d["stream"] for d in coll.find()] == ["a", "b", "c"]
    # wholesale: the old document's other fields are gone, not merged
    assert coll.find_one({"stream": "b"}) == {"_id": doc_id, "stream": "b", "rows": 7}
    assert (coll.inserts, coll.updates, coll.deletes) == (3, 1, 0)


def test_upsert_inserts_when_nothing_matches(coll):
    doc_id = coll.upsert({"stream": "d"}, {"stream": "d", "epoch": 1})
    assert doc_id == 3 and len(coll) == 4
    assert coll.find_one({"stream": "d"})["_id"] == doc_id  # index in step
    assert (coll.inserts, coll.updates) == (4, 0)


def test_upsert_is_copy_on_write_so_a_staged_clone_never_sees_it():
    store = DocumentStore()
    store.collection("meta").insert_one({"stream": "a", "epoch": 1})
    staged = store.stage("meta")
    store.collection("meta").upsert({"stream": "a"}, {"stream": "a", "epoch": 2})
    assert staged.find_one({"stream": "a"})["epoch"] == 1
    # ... and the other direction, through to the commit
    staged.upsert({"stream": "a"}, {"stream": "a", "epoch": 3})
    assert store.collection("meta").find_one({"stream": "a"})["epoch"] == 2
    store.commit_staged(["meta"])
    assert store.collection("meta").find_one({"stream": "a"})["epoch"] == 3


def test_upsert_collapses_surplus_matches_to_one(coll):
    coll.insert_one({"stream": "a", "epoch": 9})  # what delete+insert tolerated
    first = coll.find_one({"stream": "a"})["_id"]
    assert coll.upsert({"stream": "a"}, {"stream": "a", "epoch": 2}) == first
    assert [d["epoch"] for d in coll.find({"stream": "a"})] == [2]
    assert len(coll) == 3


def test_upsert_rejects_non_dict(coll):
    with pytest.raises(DocStoreError):
        coll.upsert({"stream": "a"}, ["not", "a", "doc"])


def test_faulty_upsert_spends_exactly_one_write():
    faulty = FaultyStore(DocumentStore())
    meta = faulty.collection("meta")
    meta.insert_one({"stream": "a", "epoch": 1})
    meta.insert_one({"stream": "a", "epoch": 1})
    before = faulty.writes_applied
    meta.upsert({"stream": "a"}, {"stream": "a", "epoch": 2})  # replace + collapse
    meta.upsert({"stream": "b"}, {"stream": "b", "epoch": 1})  # insert
    assert faulty.writes_applied == before + 2
    assert faulty.write_log[-2:] == [("upsert", "meta"), ("upsert", "meta")]


def test_faulty_upsert_with_no_budget_leaves_the_old_document_intact():
    inner = DocumentStore()
    inner.collection("meta").insert_one({"stream": "a", "epoch": 1})
    stored = inner.collection("meta").find_one({"stream": "a"})
    faulty = FaultyStore(inner, fail_after_writes=0)
    with pytest.raises(FaultInjected) as info:
        faulty.collection("meta").upsert({"stream": "a"}, {"stream": "a", "epoch": 2})
    assert info.value.op == "upsert"
    assert inner.collection("meta").find() == [stored]
    assert inner.collection("meta").find_one({"stream": "a"}) is stored
    assert faulty.writes_applied == 0


# ---------------------------------------------------------------------------
# the closed set of query shapes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "condition",
    [{"$in": [1, 2]}, {"$gte": 1}, {"$lt": 1}, {"$ne": 1}, {"$lte": 1, "$gte": 0}, {}],
)
def test_unsupported_operator_raises(condition):
    empty, full = Collection("e"), Collection("f")
    full.insert_one({"seq": 1})
    for c in (empty, full):  # refused on the query, not on the first document
        with pytest.raises(DocStoreError, match="unsupported query condition"):
            c.find({"seq": condition})
        with pytest.raises(DocStoreError):
            c.delete_many({"seq": condition})


def test_indexes_are_scalar_only():
    c = Collection("clusters")
    c.insert_one({"cluster_id": 0, "top_k": [3, 5]})
    with pytest.raises(TypeError):
        c.create_index("top_k")
    assert not c.has_index("top_k")
    c.create_index("cluster_id")
    c.create_index("cluster_id")  # ensure semantics: a no-op the second time
    assert c.find_one({"cluster_id": 0})["top_k"] == [3, 5]


# ---------------------------------------------------------------------------
# stores written before the top_k index was retired
# ---------------------------------------------------------------------------

def with_legacy_index_declarations(store):
    """``store`` as the parent commit would have saved it: every
    cluster collection declaring the multikey ``top_k`` index."""
    obj = json.loads(json.dumps(store.to_json_obj()))
    injected = 0
    for cobj in obj["collections"]:
        if cobj["name"].startswith("clusters:"):
            cobj["indexes"] = ["cluster_id", "top_k"]
            injected += 1
    assert injected
    return obj


def assert_answers_alike(restored, live):
    for clazz in CLASSES:
        got, want = restored.query(STREAM, clazz), live.query(STREAM, clazz)
        np.testing.assert_array_equal(got.frames, want.frames)
        assert got.metrics == want.metrics


@pytest.mark.parametrize("index_mode", ["materialized", "lazy"])
def test_legacy_top_k_index_declarations_load_and_recover(
    index_mode, table_factory, live_config
):
    chunks = frame_aligned_chunks(table_factory(STREAM, 30.0, 10.0), pieces=4)
    live, store = FocusSystem(), DocumentStore()
    live.open_stream(
        STREAM, fps=10.0, config=live_config, index_mode=index_mode, wal_store=store
    )
    for chunk in chunks[:2]:
        live.append(STREAM, chunk)
    live.checkpoint(store)
    live.append(STREAM, chunks[2])  # a journal suffix past the checkpoint

    legacy = DocumentStore.from_json_obj(with_legacy_index_declarations(store))
    clusters = legacy.collection("clusters:%s" % STREAM)
    assert clusters.has_index("cluster_id") and not clusters.has_index("top_k")

    recovered = FocusSystem()
    assert recovered.recover(legacy, configs={STREAM: live_config}) == [STREAM]
    assert_answers_alike(recovered, live)
    # the recovered session keeps checkpointing onto the legacy snapshot
    # as a delta, and keeps matching the live one
    live.append(STREAM, chunks[3])
    recovered.append(STREAM, chunks[3])
    dirty = recovered.handle(STREAM).index.dirty_clusters
    recovered.checkpoint(legacy)
    clusters = legacy.collection("clusters:%s" % STREAM)
    assert 0 < len(dirty) < len(clusters)
    assert clusters.inserts + clusters.updates == len(dirty)  # no wholesale rewrite
    assert_answers_alike(recovered, live)


def test_legacy_top_k_index_declarations_cold_start(table_factory, live_config):
    table = table_factory(STREAM, 30.0, 10.0)
    live, store = FocusSystem(), DocumentStore()
    live.ingest_stream(table, config=live_config)
    live.save_indexes(store)
    legacy = DocumentStore.from_json_obj(with_legacy_index_declarations(store))
    cold = FocusSystem()
    assert cold.load_indexes(legacy, tables={STREAM: table}) == [STREAM]
    assert_answers_alike(cold, live)
