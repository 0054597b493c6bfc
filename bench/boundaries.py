"""The layer boundaries the traced pass records spans at.

One declarative table of (module, qualified name, layer): the public
functions through which one layer of the program calls into another.
``install`` wraps each of them at run time, from the benchmark's side
-- no file under ``src/`` changes -- and ``uninstall`` puts every
original back.  A module-level function that other modules bound with
``from ... import`` is patched in each importing module too.

A renamed or removed function makes ``resolve`` raise, so the
self-tests fail loudly instead of a layer silently dropping out of
the trace.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from typing import Callable, List, Tuple

from bench.trace import SpanRecorder

#: (module, qualname, layer)
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    # simulated CNNs: feature synthesis and top-K draws
    ("repro.cnn.features", "FeatureExtractor.extract", "cnn"),
    ("repro.cnn.model", "ClassifierModel.topk_lists", "cnn"),
    ("repro.cnn.model", "ClassifierModel.topk_membership", "cnn"),
    ("repro.cnn.model", "ClassifierModel.ranks", "cnn"),
    # parameter tuning
    ("repro.core.tuning", "ParameterTuner.tune", "core.tuning"),
    # one-shot ingest
    ("repro.core.ingest", "simulate_pixel_diff", "core.ingest"),
    ("repro.core.ingest", "IngestPipeline.run", "core.ingest"),
    # clustering
    ("repro.core.clustering", "cluster_table", "core.clustering"),
    ("repro.core.clustering", "extract_and_cluster_chunk", "core.clustering"),
    ("repro.core.clustering", "IncrementalClusterer.add", "core.clustering"),
    # the top-K index
    ("repro.core.index", "TopKIndex.build", "core.index"),
    ("repro.core.index", "TopKIndex.lookup", "core.index"),
    ("repro.core.index", "TopKIndex.to_docstore", "core.index"),
    ("repro.core.index", "TopKIndex.from_docstore", "core.index"),
    ("repro.core.index", "LazyTopKIndex.lookup", "core.index"),
    ("repro.core.index", "LazyTopKIndex.refresh", "core.index"),
    ("repro.core.index", "LazyTopKIndex.to_docstore", "core.index"),
    # live ingest sessions
    ("repro.core.streaming", "StreamIngestor.push", "core.streaming"),
    ("repro.core.streaming", "StreamIngestor.checkpoint", "core.streaming"),
    ("repro.core.streaming", "StreamIngestor.recover", "core.streaming"),
    # single-stream query engine
    ("repro.core.query", "QueryEngine.plan", "core.query"),
    ("repro.core.query", "QueryEngine.collect", "core.query"),
    ("repro.core.query", "QueryEngine.query", "core.query"),
    ("repro.core.metrics", "segment_metrics_in_range", "core.metrics"),
    # the single-node facade
    ("repro.core.system", "FocusSystem.ingest_stream", "core.system"),
    ("repro.core.system", "FocusSystem.append", "core.system"),
    ("repro.core.system", "FocusSystem.query", "core.system"),
    ("repro.core.system", "FocusSystem.checkpoint_outcomes", "core.system"),
    ("repro.core.system", "FocusSystem.recover", "core.system"),
    # durable storage
    ("repro.storage.journal", "IngestJournal.append_chunk", "storage.journal"),
    ("repro.storage.journal", "IngestJournal.records", "storage.journal"),
    ("repro.storage.journal", "IngestJournal.truncate_through", "storage.journal"),
    ("repro.storage.journal", "CheckpointWriter.write_state", "storage.journal"),
    ("repro.storage.journal", "CheckpointWriter.commit", "storage.journal"),
    ("repro.storage.docstore", "DocumentStore.stage", "storage.docstore"),
    ("repro.storage.docstore", "DocumentStore.commit_staged", "storage.docstore"),
    # the simulated GPU cluster
    ("repro.sched.cluster", "IngestDispatcher.dispatch", "sched"),
    ("repro.sched.cluster", "QueryCoordinator.dispatch", "sched"),
    # the query service
    ("repro.serve.planner", "QueryPlanner.plan_batch", "serve.planner"),
    ("repro.serve.scheduler", "BatchVerificationScheduler.verify", "serve.scheduler"),
    ("repro.serve.service", "QueryService.query_batch", "serve.service"),
    ("repro.serve.service", "QueryService.checkpoint_streams", "serve.service"),
    ("repro.serve.frontdoor", "FrontDoor.query_batch", "serve.frontdoor"),
    ("repro.serve.frontdoor", "FrontDoor.append", "serve.frontdoor"),
    # the sharded fabric
    ("repro.fabric.router", "FabricRouter.query", "fabric.router"),
    ("repro.fabric.router", "FabricRouter.query_batch", "fabric.router"),
    ("repro.fabric.router", "FabricRouter.append", "fabric.router"),
    ("repro.fabric.router", "FabricRouter.append_many", "fabric.router"),
    ("repro.fabric.router", "FabricRouter.checkpoint_streams", "fabric.router"),
    ("repro.fabric.router", "FabricRouter.gpu_depths", "fabric.router"),
    ("repro.fabric.codec", "encode_table", "fabric.codec"),
    ("repro.fabric.codec", "decode_table", "fabric.codec"),
    ("repro.fabric.codec", "encode_multi_answer", "fabric.codec"),
    ("repro.fabric.codec", "decode_multi_answer", "fabric.codec"),
    ("repro.fabric.shm", "ShmSink.seal", "fabric.shm"),
    ("repro.fabric.shm", "ShmReader.array_at", "fabric.shm"),
    # the worker wire: everything under these spans that is not codec
    # or shm time is the other process working (or the wait for it)
    ("repro.fabric.worker", "ShardClient.append", "fabric.worker"),
    ("repro.fabric.worker", "ShardClient.append_submit", "fabric.worker"),
    ("repro.fabric.worker", "ShardClient.query", "fabric.worker"),
    ("repro.fabric.worker", "ShardClient.query_batch_submit", "fabric.worker"),
    ("repro.fabric.worker", "ShardClient.checkpoint_submit", "fabric.worker"),
    ("repro.fabric.worker", "ShardClient.counters", "fabric.worker"),
    ("repro.fabric.worker", "PendingReply.result", "fabric.worker"),
)

LAYERS: Tuple[str, ...] = tuple(sorted({layer for _, _, layer in BOUNDARIES}))


def resolve(module: str, qualname: str):
    """(owner object, attribute name, raw attribute) of one boundary.

    The raw attribute is what sits in the owner's ``__dict__`` (a
    function, ``classmethod`` or ``staticmethod``); raises
    ``AttributeError`` when the name is gone or no longer callable.
    """
    owner = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = vars(owner).get(attr)
    if raw is None:
        raise AttributeError("%s.%s is not defined" % (module, qualname))
    target = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(target):
        raise AttributeError("%s.%s is not callable" % (module, qualname))
    return owner, attr, raw


def _wrap(fn: Callable, name: str, layer: str, recorder: SpanRecorder) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.in_operation or os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        index = recorder.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    return traced


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every boundary; returns the function that undoes it."""
    undo: List[Tuple[object, str, object]] = []
    for module, qualname, layer in BOUNDARIES:
        owner, attr, raw = resolve(module, qualname)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, qualname, layer, recorder))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(raw.__func__, qualname, layer, recorder))
        else:
            wrapped = _wrap(raw, qualname, layer, recorder)
        targets = [(owner, attr)]
        if "." not in qualname:
            # a module-level function: patch every module that bound it
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if other is owner or not name.startswith(("repro.", "bench.")):
                    continue
                targets.extend(
                    (other, key)
                    for key, value in list(vars(other).items())
                    if value is raw
                )
        for target, key in targets:
            undo.append((target, key, vars(target)[key]))
            setattr(target, key, wrapped)

    def uninstall() -> None:
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return uninstall
