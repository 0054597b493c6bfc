"""Wire codec for the fabric's worker protocol.

Everything that crosses the supervisor/worker boundary is reduced to
plain Python primitives (dicts, lists, numbers, strings, ``bytes``)
before it is enqueued: observation-table slices and chunks, query
requests, single- and multi-stream answers, chunk reports, checkpoint
outcomes.  Numpy columns travel as ``(dtype, shape, bytes)`` triples --
contiguous raw buffers, so a zero-copy ``ObservationTable.slice`` view
encodes exactly like the copy it aliases -- and decode into fresh
writable arrays that own their memory.

Since PR 7 the codec speaks to two transports.  Every array- or
blob-bearing encoder takes an optional :class:`~repro.fabric.shm.ShmSink`
and every matching decoder an optional :class:`~repro.fabric.shm.ShmReader`:
with a sink, bulk bytes are *deferred* -- the sink packs every payload
of one message into a single shared-memory segment at seal time and the
envelope carries a ``{"seg", "off", "n"}`` descriptor under ``"shm"``
instead of inline ``"data"`` bytes (below the sink's crossover
threshold, or without shared memory, the bytes inline exactly as
before).  Decoders accept either shape, so the fallback is transparent
end to end.

Two object kinds are deliberately *not* given a field-by-field wire
shape:

* :class:`~repro.core.config.FocusConfig` (and the model object inside
  it) crosses as a pickle blob.  Configs are deterministic value
  objects the caller already holds; the codec's job is transport, not
  a stable schema for model internals.
* ``ChunkReport.dispatch`` (the GPU placement of one chunk's batches)
  is dropped -- it describes the *worker's* cluster and is meaningful
  only inside the shard process.  Decoded reports carry ``None`` there;
  every scalar ingest statistic survives.

Every envelope is tagged with its ``kind`` and the module's
:data:`~repro.fabric.protocol.PROTOCOL_VERSION`; a decoder handed the
wrong kind or a foreign version raises :class:`CodecError` instead of
misreading the payload.

Every codec has one shape, ``encode(value, sink=None)`` /
``decode(obj, reader=None)``, and is registered once, by kind, in
:data:`CODECS`; the op table (``protocol.OPS``) names codecs by kind
and both ends of the wire resolve them (:func:`wire_codec`) at import.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Optional

import numpy as np

from repro.core.metrics import SegmentMetrics
from repro.core.query import QueryResult
from repro.core.streaming import ChunkReport
from repro.core.system import QueryAnswer
from repro.fabric.protocol import PROTOCOL_VERSION, StreamHandleInfo
from repro.serve.planner import QueryRequest
from repro.serve.service import MultiStreamAnswer, StreamCheckpoint, StreamSlice
from repro.storage.docstore import DocumentStore
from repro.video.synthesis import ObservationTable

#: the observation-table columns, in constructor order
TABLE_COLUMNS = (
    "track_id",
    "class_id",
    "time_s",
    "frame_idx",
    "difficulty",
    "appearance_seed",
    "obs_in_track",
)


class CodecError(ValueError):
    """A payload that cannot be (de)serialized as requested."""


def _envelope(kind: str, **fields: Any) -> Dict[str, Any]:
    fields["kind"] = kind
    fields["v"] = PROTOCOL_VERSION
    return fields


def _open(obj: Any, kind: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise CodecError("expected a %r envelope, got %r" % (kind, type(obj).__name__))
    if obj.get("v") != PROTOCOL_VERSION:
        raise CodecError(
            "protocol version mismatch: payload v%r, this codec speaks v%r"
            % (obj.get("v"), PROTOCOL_VERSION)
        )
    if obj.get("kind") != kind:
        raise CodecError(
            "expected a %r envelope, got %r" % (kind, obj.get("kind"))
        )
    return obj


# -- arrays ------------------------------------------------------------------

def encode_array(arr: np.ndarray, sink=None) -> Dict[str, Any]:
    """One ndarray as a ``(dtype, shape, bytes-or-descriptor)`` envelope.

    With a sink the bytes are deferred: the envelope is resolved (to an
    inline copy or a shared-memory descriptor) when the sink seals the
    whole message.
    """
    contiguous = np.ascontiguousarray(arr)
    envelope = _envelope(
        "array",
        dtype=str(contiguous.dtype),
        shape=list(contiguous.shape),
    )
    if sink is None:
        envelope["data"] = contiguous.tobytes()
    else:
        sink.add_array(envelope, contiguous)
    return envelope


def decode_array(obj: Dict[str, Any], reader=None) -> np.ndarray:
    obj = _open(obj, "array")
    desc = obj.get("shm")
    if desc is not None:
        if reader is None:
            raise CodecError("array envelope carries a shm descriptor but no reader was given")
        return reader.array_at(desc, np.dtype(obj["dtype"]), obj["shape"])
    arr = np.frombuffer(obj["data"], dtype=np.dtype(obj["dtype"]))
    return arr.reshape(obj["shape"]).copy()  # writable, owns its memory


# -- opaque blobs (pickled store deltas / migration snapshots) ---------------

def encode_blob(data: bytes, sink=None) -> Dict[str, Any]:
    """Opaque bytes (already serialized by the caller) as an envelope."""
    envelope = _envelope("blob", n=len(data))
    if sink is None:
        envelope["data"] = data
    else:
        sink.add_bytes(envelope, data)
    return envelope


def decode_blob(obj: Dict[str, Any], reader=None) -> bytes:
    obj = _open(obj, "blob")
    desc = obj.get("shm")
    if desc is not None:
        if reader is None:
            raise CodecError("blob envelope carries a shm descriptor but no reader was given")
        return reader.bytes_at(desc)
    return obj["data"]


def payload_nbytes(obj: Any) -> int:
    """Approximate inline wire footprint of a payload: the bytes/str
    content it carries through the control-plane queue (descriptors and
    scalars count as nothing -- they are what the data plane exists to
    leave behind)."""
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(v) for v in obj)
    return 0


# -- observation tables ------------------------------------------------------

def encode_table(table: ObservationTable, sink=None) -> Dict[str, Any]:
    return _envelope(
        "table",
        stream=table.stream,
        fps=float(table.fps),
        duration_s=float(table.duration_s),
        columns={
            name: encode_array(getattr(table, name), sink) for name in TABLE_COLUMNS
        },
    )


def decode_table(obj: Dict[str, Any], reader=None) -> ObservationTable:
    obj = _open(obj, "table")
    columns = {
        name: decode_array(obj["columns"][name], reader) for name in TABLE_COLUMNS
    }
    return ObservationTable(
        stream=obj["stream"],
        fps=obj["fps"],
        duration_s=obj["duration_s"],
        **columns,
    )


# -- configs (pickle transport) ----------------------------------------------

def encode_config(config: Optional[Any], sink=None) -> Optional[Dict[str, Any]]:
    """Config objects as pickled blob envelopes.

    A config pickles to its parameters -- under 4 kB, generic or
    specialized: ``ConfusionModel`` and ``FeatureExtractor`` leave their
    derived tables out -- and with a sink it rides the data plane like
    any other payload instead of the control-plane queue.
    """
    if config is None:
        return None
    return encode_blob(pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL), sink)


def decode_config(obj: Optional[Dict[str, Any]], reader=None) -> Optional[Any]:
    if obj is None:
        return None
    return pickle.loads(decode_blob(obj, reader))


# -- query plans -------------------------------------------------------------

def encode_query_request(request: QueryRequest, sink=None) -> Dict[str, Any]:
    return _envelope(
        "query_request",
        clazz=request.clazz,
        streams=list(request.streams) if request.streams is not None else None,
        kx=request.kx,
        time_range=list(request.time_range) if request.time_range else None,
        priority=int(request.priority),
        deadline_s=(
            float(request.deadline_s) if request.deadline_s is not None else None
        ),
        # v4: optional trace context -- plain string-keyed dict of ids,
        # absent (None) on the untraced fast path
        trace=dict(request.trace) if request.trace is not None else None,
    )


def decode_query_request(obj: Dict[str, Any], reader=None) -> QueryRequest:
    obj = _open(obj, "query_request")
    return QueryRequest(
        clazz=obj["clazz"],
        streams=obj["streams"],
        kx=obj["kx"],
        time_range=tuple(obj["time_range"]) if obj["time_range"] else None,
        priority=obj["priority"],
        deadline_s=obj["deadline_s"],
        trace=obj.get("trace"),
    )


# -- results / metrics / answers ---------------------------------------------

def encode_query_result(result: QueryResult, sink=None) -> Dict[str, Any]:
    return _envelope(
        "query_result",
        class_id=int(result.class_id),
        token=int(result.token),
        candidate_clusters=[int(c) for c in result.candidate_clusters],
        matched_clusters=[int(c) for c in result.matched_clusters],
        returned_rows=encode_array(result.returned_rows, sink),
        returned_frames=encode_array(result.returned_frames, sink),
        gt_inferences=int(result.gt_inferences),
        gpu_seconds=float(result.gpu_seconds),
    )


def decode_query_result(obj: Dict[str, Any], reader=None) -> QueryResult:
    obj = _open(obj, "query_result")
    return QueryResult(
        class_id=obj["class_id"],
        token=obj["token"],
        candidate_clusters=list(obj["candidate_clusters"]),
        matched_clusters=list(obj["matched_clusters"]),
        returned_rows=decode_array(obj["returned_rows"], reader),
        returned_frames=decode_array(obj["returned_frames"], reader),
        gt_inferences=obj["gt_inferences"],
        gpu_seconds=obj["gpu_seconds"],
    )


def encode_metrics(
    metrics: Optional[SegmentMetrics], sink=None
) -> Optional[Dict[str, Any]]:
    if metrics is None:
        return None
    return _envelope(
        "segment_metrics",
        class_id=int(metrics.class_id),
        true_segments=int(metrics.true_segments),
        returned_segments=int(metrics.returned_segments),
        correct_segments=int(metrics.correct_segments),
    )


def decode_metrics(obj: Optional[Dict[str, Any]], reader=None) -> Optional[SegmentMetrics]:
    if obj is None:
        return None
    obj = _open(obj, "segment_metrics")
    return SegmentMetrics(
        class_id=obj["class_id"],
        true_segments=obj["true_segments"],
        returned_segments=obj["returned_segments"],
        correct_segments=obj["correct_segments"],
    )


def encode_query_answer(answer: QueryAnswer, sink=None) -> Dict[str, Any]:
    return _envelope(
        "query_answer",
        stream=answer.stream,
        class_id=int(answer.class_id),
        class_name=answer.class_name,
        frames=encode_array(answer.frames, sink),
        latency_seconds=float(answer.latency_seconds),
        gt_inferences=int(answer.gt_inferences),
        metrics=encode_metrics(answer.metrics),
        result=encode_query_result(answer.result, sink),
    )


def decode_query_answer(obj: Dict[str, Any], reader=None) -> QueryAnswer:
    obj = _open(obj, "query_answer")
    return QueryAnswer(
        stream=obj["stream"],
        class_id=obj["class_id"],
        class_name=obj["class_name"],
        frames=decode_array(obj["frames"], reader),
        latency_seconds=obj["latency_seconds"],
        gt_inferences=obj["gt_inferences"],
        metrics=decode_metrics(obj["metrics"]),
        result=decode_query_result(obj["result"], reader),
    )


def encode_multi_answer(answer: MultiStreamAnswer, sink=None) -> Dict[str, Any]:
    return _envelope(
        "multi_answer",
        class_id=int(answer.class_id),
        class_name=answer.class_name,
        slices={
            name: {
                "result": encode_query_result(s.result, sink),
                "metrics": encode_metrics(s.metrics),
            }
            for name, s in answer.slices.items()
        },
        latency_seconds=float(answer.latency_seconds),
        gt_inferences=int(answer.gt_inferences),
        candidates=int(answer.candidates),
        cache_hits=int(answer.cache_hits),
        duplicates_coalesced=int(answer.duplicates_coalesced),
    )


def decode_multi_answer(obj: Dict[str, Any], reader=None) -> MultiStreamAnswer:
    obj = _open(obj, "multi_answer")
    slices = {
        name: StreamSlice(
            stream=name,
            result=decode_query_result(s["result"], reader),
            metrics=decode_metrics(s["metrics"]),
        )
        for name, s in obj["slices"].items()
    }
    return MultiStreamAnswer(
        class_id=obj["class_id"],
        class_name=obj["class_name"],
        slices=slices,
        latency_seconds=obj["latency_seconds"],
        gt_inferences=obj["gt_inferences"],
        candidates=obj["candidates"],
        cache_hits=obj["cache_hits"],
        duplicates_coalesced=obj["duplicates_coalesced"],
    )


# -- ingest / durability reports ---------------------------------------------

def encode_chunk_report(report: ChunkReport, sink=None) -> Dict[str, Any]:
    """``dispatch`` (worker-local GPU placement) does not cross the wire."""
    return _envelope(
        "chunk_report",
        chunk_rows=int(report.chunk_rows),
        total_rows=int(report.total_rows),
        watermark_s=float(report.watermark_s),
        suppressed=int(report.suppressed),
        cnn_inferences=int(report.cnn_inferences),
        gpu_seconds=float(report.gpu_seconds),
        new_clusters=[int(c) for c in report.new_clusters],
        grown_clusters=[int(c) for c in report.grown_clusters],
    )


def decode_chunk_report(obj: Dict[str, Any], reader=None) -> ChunkReport:
    obj = _open(obj, "chunk_report")
    return ChunkReport(
        chunk_rows=obj["chunk_rows"],
        total_rows=obj["total_rows"],
        watermark_s=obj["watermark_s"],
        suppressed=obj["suppressed"],
        cnn_inferences=obj["cnn_inferences"],
        gpu_seconds=obj["gpu_seconds"],
        new_clusters=list(obj["new_clusters"]),
        grown_clusters=list(obj["grown_clusters"]),
        dispatch=None,
    )


def encode_checkpoint(outcome: StreamCheckpoint, sink=None) -> Dict[str, Any]:
    return _envelope(
        "stream_checkpoint",
        stream=outcome.stream,
        epoch=outcome.epoch,
        durable=bool(outcome.durable),
        error=outcome.error,
        landed=bool(outcome.landed),
    )


def decode_checkpoint(obj: Dict[str, Any], reader=None) -> StreamCheckpoint:
    obj = _open(obj, "stream_checkpoint")
    return StreamCheckpoint(
        stream=obj["stream"],
        epoch=obj["epoch"],
        durable=obj["durable"],
        error=obj["error"],
        landed=obj["landed"],
    )


def encode_handle_info(info: StreamHandleInfo, sink=None) -> Dict[str, Any]:
    return _envelope(
        "handle_info",
        stream=info.stream,
        live=bool(info.live),
        restored=bool(info.restored),
        watermark_s=float(info.watermark_s),
        rows=int(info.rows),
        duration_s=float(info.duration_s),
        fps=float(info.fps),
    )


def decode_handle_info(obj: Dict[str, Any], reader=None) -> StreamHandleInfo:
    obj = _open(obj, "handle_info")
    return StreamHandleInfo(
        stream=obj["stream"],
        live=obj["live"],
        restored=obj["restored"],
        watermark_s=obj["watermark_s"],
        rows=obj["rows"],
        duration_s=obj["duration_s"],
        fps=obj["fps"],
    )


# -- migration staging stores ---------------------------------------------------

def encode_store(store: DocumentStore, sink=None) -> Dict[str, Any]:
    """A whole document store (a migration's staging copy), as the
    pickle of its JSON form."""
    return encode_config(store.to_json_obj(), sink)


def decode_store(obj: Dict[str, Any], reader=None) -> DocumentStore:
    return DocumentStore.from_json_obj(decode_config(obj, reader))


# -- the registry ------------------------------------------------------------

#: codec kind -> ``(encode, decode)``.  A kind is the tag its envelope
#: carries, except the two riding a ``blob``: ``pickled`` (value
#: objects the caller already holds -- configs, ``migrate_out``'s
#: triple) and ``store`` are pickles in one
CODECS = {
    "array": (encode_array, decode_array),
    "blob": (encode_blob, decode_blob),
    "table": (encode_table, decode_table),
    "pickled": (encode_config, decode_config),
    "store": (encode_store, decode_store),
    "query_request": (encode_query_request, decode_query_request),
    "query_result": (encode_query_result, decode_query_result),
    "segment_metrics": (encode_metrics, decode_metrics),
    "query_answer": (encode_query_answer, decode_query_answer),
    "multi_answer": (encode_multi_answer, decode_multi_answer),
    "chunk_report": (encode_chunk_report, decode_chunk_report),
    "stream_checkpoint": (encode_checkpoint, decode_checkpoint),
    "handle_info": (encode_handle_info, decode_handle_info),
}


def wire_codec(spec: str):
    """``(encode, decode)`` for one op-table codec spec: a
    :data:`CODECS` kind, or ``"[kind]"`` for a list of that kind."""
    if not spec.startswith("["):
        return CODECS[spec]
    encode, decode = CODECS[spec[1:-1]]
    return (
        lambda values, sink=None: [encode(value, sink) for value in values],
        lambda objs, reader=None: [decode(obj, reader) for obj in objs],
    )
