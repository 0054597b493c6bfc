"""Property-based tests (hypothesis) on core invariants."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cnn.hashing import combine, hash_uniform, mix64, stable_salt
from repro.cnn.costs import ArchSpec, inference_seconds
from repro.cnn.noise import true_class_ranks
from repro.core.clustering import IncrementalClusterer
from repro.core.metrics import SegmentMetrics, _segments_from_rows
from repro.core.tuning import CandidateConfig, pareto_front
from repro.core.config import FocusConfig
from repro.cnn.zoo import cheap_cnn
from repro.storage.docstore import Collection
from repro.video.synthesis import ObservationTable

from reference_clusterer import ReferenceClusterer

_slow = settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])


# -- hashing -----------------------------------------------------------------
@_slow
@given(st.lists(st.integers(min_value=0, max_value=2 ** 63 - 1), min_size=1, max_size=50))
def test_mix64_deterministic_any_input(values):
    arr = np.asarray(values, dtype=np.uint64)
    np.testing.assert_array_equal(mix64(arr), mix64(arr))


@_slow
@given(
    st.integers(min_value=0, max_value=2 ** 62),
    st.integers(min_value=0, max_value=2 ** 62),
)
def test_hash_uniform_in_range(seed, salt):
    u = hash_uniform(combine(np.uint64(seed), np.uint64(salt)))
    assert 0.0 <= float(u) < 1.0


@_slow
@given(st.text(min_size=0, max_size=64))
def test_stable_salt_total(text):
    assert stable_salt(text) == stable_salt(text)


# -- cost model ----------------------------------------------------------------
@_slow
@given(
    st.integers(min_value=1, max_value=200),
    st.sampled_from([224, 112, 56, 28]),
    st.integers(min_value=0, max_value=1000),
)
def test_cost_monotone_in_layers_and_batch(layers, px, batch):
    arch = ArchSpec(family="resnet", conv_layers=layers, input_px=px)
    assert arch.gflops > 0
    if layers > 1:
        smaller = ArchSpec(family="resnet", conv_layers=layers - 1, input_px=px)
        assert smaller.gflops < arch.gflops
    assert inference_seconds(arch, batch=batch) == pytest.approx(
        batch * inference_seconds(arch, batch=1)
    )


# -- noise model ----------------------------------------------------------------
@_slow
@given(
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.4, max_value=3.0),
    st.integers(min_value=0, max_value=2 ** 31),
)
def test_rank_bounds_hold(dispersion, difficulty, seed):
    seeds = (np.arange(64, dtype=np.uint64) + np.uint64(seed)) * np.uint64(2654435761)
    ranks = true_class_ranks(7, seeds, np.full(64, difficulty), dispersion, 1000)
    assert ranks.min() >= 1
    assert ranks.max() <= 1000


@_slow
@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2 ** 31))
def test_recall_monotone_in_k(k, seed):
    seeds = (np.arange(256, dtype=np.uint64) + np.uint64(seed)) * np.uint64(0x9E3779B9)
    ranks = true_class_ranks(3, seeds, np.ones(256), 40.0, 1000)
    assert (ranks <= k).mean() <= (ranks <= k + 10).mean()


# -- clustering ----------------------------------------------------------------
@st.composite
def _feature_stream(draw):
    n_tracks = draw(st.integers(min_value=1, max_value=8))
    per_track = draw(st.integers(min_value=1, max_value=12))
    dim = 6
    rng = np.random.RandomState(draw(st.integers(min_value=0, max_value=10 ** 6)))
    anchors = rng.normal(size=(n_tracks, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    feats, tracks = [], []
    for t in range(n_tracks):
        for _ in range(per_track):
            feats.append(anchors[t] + rng.normal(scale=0.02, size=dim))
            tracks.append(t)
    return np.asarray(feats), np.asarray(tracks)


@_slow
@given(_feature_stream(), st.floats(min_value=0.01, max_value=1.5))
def test_clustering_invariants(stream, threshold):
    feats, tracks = stream
    c = IncrementalClusterer(threshold=threshold, dim=feats.shape[1])
    ids = c.add(feats, tracks)
    summary = c.snapshot()
    # every observation assigned exactly one valid cluster id
    assert (ids >= 0).all()
    assert ids.max() < summary.num_clusters
    # sizes partition the observations
    assert summary.sizes.sum() == len(feats)
    assert (summary.sizes >= 1).all()
    # each seed row belongs to its own cluster
    for cid in range(summary.num_clusters):
        assert summary.assignments[summary.seed_rows[cid]] == cid


@_slow
@given(_feature_stream())
def test_clustering_threshold_monotonicity(stream):
    feats, tracks = stream
    counts = []
    for threshold in (0.05, 0.5, 2.5):
        c = IncrementalClusterer(threshold=threshold, dim=feats.shape[1])
        c.add(feats, tracks)
        counts.append(c.snapshot().num_clusters)
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[2] >= 1


@st.composite
def _kernel_case(draw):
    """A tracky stream with suppression, cut into chunks, for a
    clusterer small enough to evict; ``hop`` is the chunk before which
    the clusterer is swapped for a ``from_state_dict`` copy of itself."""
    rng = np.random.RandomState(draw(st.integers(min_value=0, max_value=10 ** 6)))
    dim = draw(st.integers(min_value=1, max_value=19))
    n = draw(st.integers(min_value=8, max_value=160))
    n_tracks = draw(st.integers(min_value=1, max_value=10))
    threshold = draw(st.sampled_from([0.04, 0.09, 0.16, 0.4]))
    # spread set against T so a run holds hits, scans that join and
    # scans that open a cluster
    spread = threshold * draw(st.sampled_from([0.1, 0.3, 0.6])) / np.sqrt(dim)
    tracks = rng.randint(0, n_tracks, size=n)
    anchors = rng.normal(size=(n_tracks, dim)) * threshold
    feats = anchors[tracks] + rng.normal(scale=spread, size=(n, dim))
    jump = rng.uniform(size=n) < 0.1
    feats[jump] += rng.normal(scale=2 * threshold, size=(int(jump.sum()), dim))
    sup = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=4))
    bounds = [0] + sorted(set(cuts)) + [n]
    return dict(
        feats=feats, tracks=tracks, sup=sup, threshold=threshold, bounds=bounds,
        max_live=draw(st.sampled_from([1, 2, 3, 5, 64])),
        strict=draw(st.booleans()),
        hop=draw(st.integers(min_value=0, max_value=len(bounds) - 2)),
    )


@_slow
@given(_kernel_case())
def test_row_loop_matches_reference_primitives(case):
    """The inlined row loop (lazy norms, int-held counts, hoisted
    locals) against the straight-line primitives it replaced: identical
    assignments *and* identical live state after every chunk -- through
    eviction, ``strict``, a checkpoint hop, and rows the caller never
    extracted (every row ``feature_rows_needed`` leaves out holds NaN,
    as on the live ingest path)."""
    feats, tracks, sup = case["feats"], case["tracks"], case["sup"]
    dim = feats.shape[1]
    args = (case["threshold"], dim, case["max_live"], case["strict"])
    real, ref = IncrementalClusterer(*args), ReferenceClusterer(*args)
    for chunk, (a, b) in enumerate(zip(case["bounds"], case["bounds"][1:])):
        if chunk == case["hop"]:
            real = IncrementalClusterer.from_state_dict(
                json.loads(json.dumps(real.bounded_state())),
                real.snapshot().assignments, tracks[:a])
        need = real.feature_rows_needed(tracks[a:b], sup[a:b])
        given_feats = np.where(need[:, None], feats[a:b], np.nan)
        with np.errstate(all="raise"):
            ids = real.add(
                given_feats, tracks[a:b], suppressed=sup[a:b], feature_valid=need)
        np.testing.assert_array_equal(ids, ref.add(feats[a:b], tracks[a:b], sup[a:b]))
        n = ref.n_live
        assert real._n_live == n
        assert (real.full_scans, real.shortcut_hits) == (ref.full_scans, ref.shortcut_hits)
        summary = real.snapshot()
        assert summary.sizes.tolist() == ref.sizes
        assert summary.seed_rows.tolist() == ref.seed_rows
        assert real._track_cache == ref.track_cache
        real._refresh_norms()
        for mine, theirs in (
            (real._sums, ref.sums), (real._centroids, ref.centroids),
            (real._cnorm2, ref.cnorm2), (real._dense, ref.dense),
            (real._counts, ref.counts), (real._live_ids, ref.live_ids),
        ):
            assert np.asarray(mine[:n]).tobytes() == theirs[:n].tobytes()


# -- metrics ----------------------------------------------------------------
@_slow
@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
def test_segment_metrics_bounds(true_n, ret_n, correct_n):
    correct = min(correct_n, true_n, ret_n)
    m = SegmentMetrics(
        class_id=0, true_segments=true_n, returned_segments=ret_n, correct_segments=correct
    )
    assert 0.0 <= m.precision <= 1.0
    assert 0.0 <= m.recall <= 1.0
    assert 0.0 <= m.f1 <= 1.0


@st.composite
def _segment_rows(draw):
    """(table, rows): observations as (second, frame, track) triples --
    duplicate pairs from different tracks included -- a large frame
    base, and an unsorted, repeating (possibly empty) row selection."""
    obs = draw(st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 35), st.integers(0, 3)),
        max_size=80,
    ))
    base = draw(st.integers(min_value=0, max_value=2 ** 40))
    n = len(obs)
    seconds = np.asarray([o[0] for o in obs], dtype=np.float64)
    fractions = np.asarray(
        draw(st.lists(st.floats(0.0, 0.999), min_size=n, max_size=n)), dtype=np.float64)
    table = ObservationTable(
        stream="prop", fps=30.0, duration_s=41.0,
        track_id=np.asarray([o[2] for o in obs], dtype=np.int64),
        class_id=np.zeros(n, dtype=np.int64),
        time_s=seconds + fractions,
        frame_idx=base + np.asarray([o[1] for o in obs], dtype=np.int64),
        difficulty=np.ones(n), appearance_seed=np.zeros(n, dtype=np.int64),
        obs_in_track=np.zeros(n, dtype=np.int64),
    )
    rows = draw(st.lists(st.integers(0, n - 1), max_size=120)) if n else []
    return table, np.asarray(rows, dtype=np.int64)


@_slow
@given(_segment_rows(), st.floats(min_value=0.5, max_value=20.0))
def test_segments_from_rows_matches_definition(case, threshold):
    table, rows = case
    frames_by_second = {}
    for r in rows.tolist():
        second = int(np.floor(table.time_s[r]))
        frames_by_second.setdefault(second, set()).add(int(table.frame_idx[r]))
    expected = {s for s, f in frames_by_second.items() if len(f) >= threshold}
    assert _segments_from_rows(table, rows, threshold) == expected


# -- pareto front ----------------------------------------------------------------
@st.composite
def _candidates(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    out = []
    for i in range(n):
        ingest = draw(st.floats(min_value=1e-4, max_value=1.0))
        query = draw(st.floats(min_value=1e-4, max_value=1.0))
        out.append(
            CandidateConfig(
                config=FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.1),
                precision=0.99,
                recall=0.99,
                ingest_cost_norm=ingest,
                query_latency_norm=query,
                viable=True,
            )
        )
    return out


@_slow
@given(_candidates())
def test_pareto_front_properties(candidates):
    front = pareto_front(candidates)
    assert front, "a nonempty set always has a frontier"
    # no frontier point dominates another
    for a in front:
        for b in front:
            if a is b:
                continue
            dominates = (
                a.ingest_cost_norm <= b.ingest_cost_norm
                and a.query_latency_norm <= b.query_latency_norm
                and (a.ingest_cost_norm < b.ingest_cost_norm
                     or a.query_latency_norm < b.query_latency_norm)
            )
            assert not dominates
    # every candidate is weakly dominated by some frontier point
    for c in candidates:
        assert any(
            f.ingest_cost_norm <= c.ingest_cost_norm
            and f.query_latency_norm <= c.query_latency_norm
            for f in front
        )


# -- docstore ----------------------------------------------------------------
@_slow
@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=-5, max_value=5),
            max_size=3,
        ),
        max_size=20,
    ),
    st.integers(min_value=-5, max_value=5),
)
def test_docstore_find_matches_linear_scan(docs, probe):
    coll = Collection("t")
    coll.insert_many(docs)
    indexed = Collection("t2")
    indexed.insert_many(docs)
    indexed.create_index("a")
    query = {"a": probe}
    assert [d["_id"] for d in coll.find(query)] == [
        d["_id"] for d in indexed.find(query)
    ]


# -- durable ingest: any schedule, any checkpoints, any crash point ------------
@st.composite
def _crash_schedule(draw):
    """Frame-aligned chunk cuts, the chunks to checkpoint after, the
    write the store dies at, and the index mode."""
    table = _durable_table()
    aligned = (np.flatnonzero(np.diff(table.frame_idx)) + 1).tolist()
    cuts = sorted(draw(st.lists(st.sampled_from(aligned), unique=True, max_size=6)))
    bounds = [0] + cuts + [len(table)]
    checkpoints = draw(st.sets(st.integers(0, len(bounds) - 2), max_size=4))
    return (
        bounds,
        checkpoints,
        draw(st.integers(min_value=0, max_value=80)),
        draw(st.sampled_from(["materialized", "lazy"])),
    )


def _durable_table(cache={}):
    if not cache:
        from repro.video.synthesis import generate_observations

        cache["table"] = generate_observations("auburn_c", 20.0, 10.0)
    return cache["table"]


@_slow
@given(_crash_schedule())
def test_recovery_equals_oneshot_for_any_schedule_and_crash(case):
    """Chunk schedule x checkpoint positions x one crash point: the
    recovered, finished session equals one-shot ingest of the window,
    and its checkpoint's row segments tile ``[0, rows)``."""
    from repro.core.ingest import IngestPipeline
    from repro.core.streaming import StreamIngestor
    from repro.storage.docstore import DocumentStore
    from repro.storage.faults import FaultInjected, FaultyStore
    from repro.storage.journal import STATE_PREFIX, IngestJournal

    bounds, checkpoints, budget, index_mode = case
    table = _durable_table()
    config = FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.12)
    chunks = [table.slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def fresh(store):
        return StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode,
            journal=IngestJournal(store, table.stream),
        )

    def feed(ingestor, store, start):
        for i in range(start, len(chunks)):
            ingestor.push(chunks[i])
            if i in checkpoints:
                ingestor.checkpoint(store)

    inner = DocumentStore()
    faulty = FaultyStore(inner, fail_after_writes=budget)
    try:
        session = fresh(faulty)
        feed(session, faulty, 0)
        session.checkpoint(faulty)
    except FaultInjected:
        try:
            session = StreamIngestor.recover(inner, table.stream, config=config)
        except KeyError:  # died before the "open" record
            session = fresh(inner)
        # appends are atomic: the recovered rows sit on a chunk boundary
        feed(session, inner, bounds.index(session.num_rows))
        session.checkpoint(inner)

    oneshot = IngestPipeline(config, index_mode=index_mode).run(table)
    for ingestor in (session, StreamIngestor.recover(inner, table.stream, config=config)):
        assert ingestor.num_rows == len(table)
        np.testing.assert_array_equal(
            ingestor.clusters.assignments, oneshot.clusters.assignments)
        np.testing.assert_array_equal(
            ingestor.clusters.seed_rows, oneshot.clusters.seed_rows)
        np.testing.assert_array_equal(ingestor.clusters.sizes, oneshot.clusters.sizes)
        np.testing.assert_array_equal(ingestor.result.suppressed, oneshot.suppressed)
        assert ingestor.cnn_inferences == oneshot.cnn_inferences
    segments = sorted(
        (doc["start"], doc["rows"])
        for doc in inner.collection(STATE_PREFIX + table.stream).find()
        if "start" in doc
    )
    assert [s for s, _ in segments] == list(
        np.cumsum([0] + [n for _, n in segments[:-1]]))
    assert sum(n for _, n in segments) == len(table)
