"""Unit tests for the embedded document store."""

import os

import pytest

from repro.storage.docstore import Collection, DocStoreError, DocumentStore


@pytest.fixture
def coll():
    c = Collection("test")
    c.insert_many(
        [
            {"kind": "cluster", "size": 5, "classes": [1, 2]},
            {"kind": "cluster", "size": 9, "classes": [2, 3]},
            {"kind": "meta", "size": 1, "classes": []},
        ]
    )
    return c


def test_insert_assigns_ids(coll):
    doc_id = coll.insert_one({"kind": "x"})
    assert coll.get(doc_id)["kind"] == "x"
    assert len(coll) == 4


def test_insert_rejects_non_dict():
    with pytest.raises(DocStoreError):
        Collection("c").insert_one([1, 2])


def test_find_equality(coll):
    assert len(coll.find({"kind": "cluster"})) == 2


def test_find_operators(coll):
    """``$lte`` is the one range operator the system uses."""
    assert len(coll.find({"size": {"$lte": 5}})) == 2
    assert len(coll.find({"kind": "cluster", "size": {"$lte": 5}})) == 1
    assert coll.find({"absent": {"$lte": 5}}) == []


def test_find_unknown_operator(coll):
    with pytest.raises(DocStoreError):
        coll.find({"size": {"$regex": "x"}})


def test_find_one(coll):
    assert coll.find_one({"kind": "meta"})["size"] == 1
    assert coll.find_one({"kind": "nothing"}) is None


def test_index_accelerated_lookup(coll):
    coll.create_index("kind")
    assert coll.has_index("kind")
    assert len(coll.find({"kind": "cluster"})) == 2


def test_index_maintained_on_insert(coll):
    coll.create_index("kind")
    coll.insert_one({"kind": "cluster"})
    assert len(coll.find({"kind": "cluster"})) == 3


def test_delete(coll):
    doc = coll.find_one({"kind": "meta"})
    coll.delete(doc["_id"])
    assert len(coll.find({"kind": "meta"})) == 0
    with pytest.raises(DocStoreError):
        coll.delete(doc["_id"])


def test_delete_with_index(coll):
    coll.create_index("kind")
    doc = coll.find_one({"kind": "cluster"})
    coll.delete(doc["_id"])
    assert len(coll.find({"kind": "cluster"})) == 1


def test_update_one(coll):
    doc = coll.find_one({"kind": "meta"})
    coll.create_index("kind")
    coll.update_one(doc["_id"], {"kind": "renamed"})
    assert len(coll.find({"kind": "meta"})) == 0
    assert len(coll.find({"kind": "renamed"})) == 1
    with pytest.raises(DocStoreError):
        coll.update_one(99999, {"a": 1})


def test_update_one_is_copy_on_write(coll):
    """The stored document dict is replaced, never mutated: earlier
    references (find results, staged clones) keep the old version."""
    doc = coll.find_one({"kind": "meta"})
    before = coll.get(doc["_id"])
    coll.update_one(doc["_id"], {"size": 2})
    assert before["size"] == 1          # the old dict did not move
    assert coll.get(doc["_id"])["size"] == 2
    assert coll.get(doc["_id"]) is not before


def test_update_one_mid_fault_leaves_state_intact(coll):
    """Regression: a fault during index maintenance (an unindexable
    value) must leave both the stored document and every index exactly
    as they were -- no index pointing at changed keys."""
    coll.create_index("kind")
    doc = coll.find_one({"kind": "meta"})
    stored_before = coll.get(doc["_id"])
    with pytest.raises(TypeError):
        coll.update_one(doc["_id"], {"kind": {"un": "hashable"}})
    assert coll.get(doc["_id"]) is stored_before
    assert coll.get(doc["_id"])["kind"] == "meta"
    assert len(coll.find({"kind": "meta"})) == 1  # index still intact
    assert coll.updates == 0


def test_clone_isolation(coll):
    coll.create_index("kind")
    twin = coll.clone()
    doc = coll.find_one({"kind": "meta"})
    coll.update_one(doc["_id"], {"kind": "renamed"})
    coll.insert_one({"kind": "extra"})
    assert len(twin.find({"kind": "meta"})) == 1
    assert len(twin.find({"kind": "renamed"})) == 0
    assert len(twin.find({"kind": "extra"})) == 0
    assert len(coll) == len(twin) + 1
    # and the other direction: clone writes stay out of the original
    twin.delete(twin.find_one({"kind": "cluster"})["_id"])
    assert len(coll.find({"kind": "cluster"})) == 2


def test_staged_commit_swap():
    store = DocumentStore()
    store.collection("c").insert_one({"v": "live"})
    staged = store.stage("c")
    assert store.stage("c") is staged  # accumulates across calls
    staged.insert_one({"v": "staged"})
    assert len(store.collection("c")) == 1  # not visible before commit
    store.commit_staged(["c"])
    assert len(store.collection("c")) == 2
    assert store.staged_names() == []


def test_commit_unstaged_rejected():
    store = DocumentStore()
    store.stage("a")
    with pytest.raises(DocStoreError):
        store.commit_staged(["a", "b"])
    # the failed commit swapped nothing
    assert store.staged_names() == ["a"]


def test_discard_staged():
    store = DocumentStore()
    store.collection("c").insert_one({"v": "live"})
    store.stage("c").insert_one({"v": "staged"})
    store.drop_staged("d")
    assert store.discard_staged() == ["c", "d"]
    assert len(store.collection("c")) == 1
    assert store.staged_names() == []


def test_drop_staged_is_wholesale_replacement():
    store = DocumentStore()
    store.collection("c").insert_one({"v": "live"})
    store.drop_staged("c")
    store.stage("c").insert_one({"v": "fresh"})
    store.commit_staged(["c"])
    docs = store.collection("c").find()
    assert [d["v"] for d in docs] == ["fresh"]


def test_store_collections():
    store = DocumentStore()
    store.collection("a").insert_one({"x": 1})
    assert store.collection("a") is store.collection("a")
    assert store.collection_names() == ["a"]
    store.drop("a")
    assert store.collection_names() == []


def test_persistence_round_trip(tmp_path):
    store = DocumentStore()
    c = store.collection("clusters")
    c.insert_many([{"id": i, "top_k": [i, i + 1]} for i in range(10)])
    c.create_index("id")
    path = os.path.join(tmp_path, "store.json")
    store.save(path)

    loaded = DocumentStore.load(path)
    lc = loaded.collection("clusters")
    assert len(lc) == 10
    assert lc.has_index("id")
    assert lc.find_one({"id": 7})["top_k"] == [7, 8]
    # ids continue after reload without collision
    new_id = lc.insert_one({"id": 10})
    assert new_id == 10


# -- doc-level deltas (the fabric mirror wire) --------------------------------


def _mirror_of(c):
    """A mirror the way the fabric seeds one: a full-snapshot rebuild."""
    return Collection.from_json_obj(c.to_json_obj())


def test_first_delta_ships_full_then_doc_level(coll):
    envelope, token = coll.delta_snapshot(None)
    assert envelope["kind"] == "cfull"  # no shared baseline yet
    assert coll.unchanged_since(token)
    doc_id = coll.insert_one({"kind": "x", "size": 2})
    envelope, token2 = coll.delta_snapshot(token)
    assert envelope["kind"] == "cdelta"
    assert [d["_id"] for d in envelope["upserts"]] == [doc_id]
    assert envelope["removes"] == []
    assert token2 != token


def test_delta_round_trip_matches_producer_order(coll):
    coll.create_index("kind")
    _, token = coll.delta_snapshot(None)
    mirror = _mirror_of(coll)
    big = coll.insert_one({"kind": "cluster", "size": 99})
    coll.update_one(coll.find_one({"kind": "meta"})["_id"], {"size": 7})
    coll.delete(coll.find_one({"kind": "cluster"})["_id"])
    envelope, _ = coll.delta_snapshot(token)
    assert envelope["kind"] == "cdelta"
    touched = mirror.apply_delta(envelope)
    assert touched == len(envelope["upserts"]) + len(envelope["removes"])
    # bit-identical content AND scan order (mirror snapshots feed
    # worker restarts, which replay scans in insertion order)
    assert mirror.to_json_obj()["docs"] == coll.to_json_obj()["docs"]
    assert [d["_id"] for d in mirror.find({})] == [
        d["_id"] for d in coll.find({})
    ]
    # the index came along and still accelerates
    assert mirror.find_one({"kind": "cluster", "size": 99})["_id"] == big


def test_delta_resets_dirty_set(coll):
    _, token = coll.delta_snapshot(None)
    coll.insert_one({"kind": "x"})
    envelope, token2 = coll.delta_snapshot(token)
    assert len(envelope["upserts"]) == 1
    envelope, _ = coll.delta_snapshot(token2)
    assert envelope["kind"] == "cdelta"
    assert envelope["upserts"] == [] and envelope["removes"] == []


def test_stale_basis_token_falls_back_to_full(coll):
    _, token = coll.delta_snapshot(None)
    rebuilt = _mirror_of(coll)  # a rebuild does not share the lineage
    assert not rebuilt.unchanged_since(token)
    envelope, _ = rebuilt.delta_snapshot(token)
    assert envelope["kind"] == "cfull"


def test_clone_carries_delta_lineage(coll):
    """A staged checkpoint committed over the live name still
    qualifies for a doc-level delta against the shipped baseline."""
    _, token = coll.delta_snapshot(None)
    mirror = _mirror_of(coll)
    twin = coll.clone()
    new_id = twin.insert_one({"kind": "staged", "size": 3})
    envelope, _ = twin.delta_snapshot(token)
    assert envelope["kind"] == "cdelta"
    assert [d["_id"] for d in envelope["upserts"]] == [new_id]
    mirror.apply_delta(envelope)
    assert mirror.to_json_obj()["docs"] == twin.to_json_obj()["docs"]


def test_store_staged_commit_keeps_doc_delta_eligibility():
    store = DocumentStore()
    c = store.collection("wal")
    c.insert_one({"seq": 0})
    _, token = c.delta_snapshot(None)
    mirror = _mirror_of(c)
    staged = store.stage("wal")
    staged.insert_one({"seq": 1})
    store.commit_staged(["wal"])
    live = store.collection("wal")
    envelope, _ = live.delta_snapshot(token)
    assert envelope["kind"] == "cdelta"
    mirror.apply_delta(envelope)
    assert mirror.to_json_obj()["docs"] == live.to_json_obj()["docs"]
