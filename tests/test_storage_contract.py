"""The storage contract, held against every implementation.

``repro.storage.docstore`` states what the program calls as two
Protocols: ``CheckpointStore`` (ingest, checkpoint, recovery, index
export) and ``StoredCollection`` under it.  This suite holds
``DocumentStore`` / ``FaultyStore`` and ``Collection`` /
``FaultyCollection`` to those names and parameter names, and pins the one keyed write (``upsert``),
its fault model and the closed set of query shapes.
"""

import inspect

import pytest

from repro.storage.docstore import (
    CheckpointStore,
    Collection,
    DocStoreError,
    DocumentStore,
    StoredCollection,
)
from repro.storage.faults import FaultInjected, FaultyStore


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
    # ``collection`` and ``drop`` (all index export writes through) are
    # the store's own members, not a separate sink's
    assert {"collection", "drop"} <= set(vars(CheckpointStore))
    assert members(CheckpointStore) == [
        "collection", "collection_names", "commit_staged", "discard_staged",
        "drop", "stage",
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


def test_faulty_store_meters_durable_writes_only():
    """``update_one`` and ``drop`` are durable writes and spend one each;
    staging a clone is not, until the commit that publishes it."""
    faulty = FaultyStore(DocumentStore())
    meta = faulty.collection("meta")
    doc_id = meta.insert_one({"stream": "a", "epoch": 1})
    meta.update_one(doc_id, {"epoch": 2})
    faulty.stage("meta")
    assert faulty.write_log == [("insert_one", "meta"), ("update_one", "meta")]
    faulty.commit_staged(["meta"])
    assert len(faulty.collection("meta")) == 1
    faulty.drop("meta")
    assert faulty.write_log[2:] == [("commit_staged", "meta"), ("drop", "meta")]
    assert faulty.collection_names() == []


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
