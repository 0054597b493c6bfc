"""A query naming a bad class or time window is refused, and costs nothing.

Every query entry point resolves its class and checks its window through
one function, ``repro.core.query.resolve_query``, before any index is
read: a class id outside ``[0, NUM_CLASSES)`` or a window that is not two
finite numbers with start <= end raises ``ValueError``, and no serving
counter, ledger entry or metric moves.  A batch holding one bad request
is refused whole: its good requests run no leg either.
"""

import numpy as np
import pytest

from repro.core.query import resolve_query
from repro.serve.planner import QueryRequest
from repro.video.classes import NUM_CLASSES, class_id
from test_fabric import FABRIC_STREAMS, build_fabric, build_single

STREAM = FABRIC_STREAMS[0]

BAD = [
    pytest.param(-5, None, id="negative-id"),
    pytest.param(np.int64(-5), None, id="numpy-negative-id"),
    pytest.param(NUM_CLASSES, None, id="id-past-the-end"),
    pytest.param("car", (30.0, 10.0), id="reversed-window"),
    pytest.param("car", (float("nan"), 10.0), id="nan-start"),
    pytest.param("car", (0.0, float("nan")), id="nan-end"),
    pytest.param("car", (float("-inf"), 10.0), id="infinite-start"),
    pytest.param("car", (0.0, float("inf")), id="infinite-end"),
]


@pytest.fixture(scope="module")
def tables(table_factory):
    return {s: table_factory(s, 20.0, 10.0) for s in FABRIC_STREAMS}


@pytest.fixture(scope="module")
def system(tables, live_config):
    return build_single(tables, live_config, "lazy")


@pytest.fixture(scope="module")
def router(tables, live_config):
    router = build_fabric(tables, live_config, "lazy", num_shards=2)
    assert len({router.placement.shard_of(s) for s in FABRIC_STREAMS}) == 2
    return router


def system_ledgers(system):
    return (
        system.cost_summary(),
        len(system.ledger.entries),
        system.metrics.snapshot(),
    )


def router_ledgers(router):
    return router.cost_summary(per_shard=True), router.metrics_snapshot()


def mixed_batch(clazz, time_range):
    """A good request ahead of the bad one."""
    return [QueryRequest(clazz="car"), QueryRequest(clazz=clazz, time_range=time_range)]


@pytest.mark.parametrize("clazz, time_range", BAD)
def test_focus_system_query_refuses(system, clazz, time_range):
    before = system_ledgers(system)
    with pytest.raises(ValueError):
        system.query(STREAM, clazz, time_range=time_range)
    assert system_ledgers(system) == before


@pytest.mark.parametrize("clazz, time_range", BAD)
def test_focus_system_query_all_refuses(system, clazz, time_range):
    before = system_ledgers(system)
    with pytest.raises(ValueError):
        system.query_all(clazz, time_range=time_range)
    assert system_ledgers(system) == before


@pytest.mark.parametrize("clazz, time_range", BAD)
def test_focus_system_batch_is_refused_whole(system, clazz, time_range):
    before = system_ledgers(system)
    with pytest.raises(ValueError):
        system.query_batch(mixed_batch(clazz, time_range))
    assert system_ledgers(system) == before


@pytest.mark.parametrize("clazz, time_range", BAD)
def test_two_shard_router_refuses(router, clazz, time_range):
    before = router_ledgers(router)
    with pytest.raises(ValueError):
        router.query_all(clazz, time_range=time_range)
    with pytest.raises(ValueError):
        router.query(STREAM, clazz, time_range=time_range)
    assert router_ledgers(router) == before


@pytest.mark.parametrize("clazz, time_range", BAD)
def test_two_shard_router_batch_is_refused_whole(router, clazz, time_range):
    before = router_ledgers(router)
    with pytest.raises(ValueError):
        router.query_batch(mixed_batch(clazz, time_range))
    assert router_ledgers(router) == before


def test_an_unknown_class_name_is_a_key_error(system, router):
    before = system_ledgers(system), router_ledgers(router)
    for query in (
        lambda: system.query(STREAM, "no_such_class"),
        lambda: system.query_all("no_such_class"),
        lambda: router.query_all("no_such_class"),
        lambda: router.query(STREAM, "no_such_class"),
    ):
        with pytest.raises(KeyError):
            query()
    assert (system_ledgers(system), router_ledgers(router)) == before


@pytest.mark.parametrize(
    "clazz, time_range, expected",
    [
        pytest.param("car", None, class_id("car"), id="name"),
        pytest.param(0, None, 0, id="first-id"),
        pytest.param(NUM_CLASSES - 1, None, NUM_CLASSES - 1, id="last-id"),
        pytest.param(np.int64(7), (0.0, 10.0), 7, id="numpy-id"),
        pytest.param("car", (10.0, 10.0), class_id("car"), id="empty-window"),
    ],
)
def test_resolve_query_accepts(clazz, time_range, expected):
    cid = resolve_query(clazz, time_range)
    assert cid == expected and type(cid) is int


def test_a_good_query_still_moves_the_ledgers(system, router):
    """The comparisons above can see a query: a valid one moves both."""
    before = system_ledgers(system), router_ledgers(router)
    system.query_all("car", time_range=(0.0, 10.0))
    router.query_all("car", time_range=(0.0, 10.0))
    after = system_ledgers(system), router_ledgers(router)
    assert after[0] != before[0] and after[1] != before[1]
