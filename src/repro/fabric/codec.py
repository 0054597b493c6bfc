"""Wire codec for the fabric's worker protocol: one pickle per payload.

Every value that crosses the supervisor/worker boundary -- a request's
keyword arguments, a reply's value, a reply's store delta -- is one
:func:`encode`: ``pickle`` protocol 5 with every contiguous numpy buffer
handed out of band.  A payload's *parts* are the pickle stream followed
by those buffers.  Without a sink each part inlines as ``bytes``; with a
:class:`~repro.fabric.shm.ShmSink` the parts are deferred and the sink
resolves the whole message when it seals -- inline below its crossover
threshold, otherwise packed into one shared-memory segment with each
part replaced by a ``{"seg", "off", "n"}`` descriptor.  A contiguous
``ObservationTable.slice`` view hands out only its own rows' bytes,
never its base buffer; a strided array pickles in band.

:func:`decode` copies every buffer part into private memory before
unpickling, so decoded arrays never alias a segment that is unlinked
after reading, and are writable whenever their source was.  The
envelope carries :data:`~repro.fabric.protocol.PROTOCOL_VERSION` and
nothing else: a foreign version is refused with :class:`CodecError`.

A record's wire form is its pickle.  Configs pickle to their
parameters, a ``DocumentStore`` to its JSON form (so it arrives with a
fresh delta lineage), and the worker clears ``ChunkReport.dispatch``
(worker-local GPU placement) before an append's report is encoded.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List

from repro.fabric.protocol import PROTOCOL_VERSION
from repro.serve.service import MultiStreamAnswer
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


def encode(value: Any, sink=None) -> Dict[str, Any]:
    """``value`` as one envelope: its parts inline, or deferred into
    ``sink`` until the sink seals the message."""
    buffers: List[pickle.PickleBuffer] = []
    stream = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
    parts = [stream] + [buffer.raw() for buffer in buffers]
    envelope: Dict[str, Any] = {"v": PROTOCOL_VERSION}
    if sink is None:
        envelope["parts"] = [bytes(part) for part in parts]
    else:
        sink.add(envelope, parts)
    return envelope


def decode(obj: Any, reader=None) -> Any:
    """The value one :func:`encode` envelope carries; shared-memory
    descriptors resolve through ``reader``."""
    version = obj.get("v") if isinstance(obj, dict) else None
    if version != PROTOCOL_VERSION:
        raise CodecError(
            "protocol version mismatch: payload v%r, this codec speaks v%r"
            % (version, PROTOCOL_VERSION)
        )
    stream, *buffers = [_private(part, reader) for part in obj["parts"]]
    return pickle.loads(stream, buffers=buffers)


def _private(part: Any, reader) -> Any:
    """One part as writable memory this process owns."""
    if isinstance(part, dict):
        if reader is None:
            raise CodecError("payload carries a shm descriptor but no reader was given")
        return reader.array_at(part)
    return bytearray(part)


def inline_nbytes(obj: Any) -> int:
    """The bytes one envelope moves through the control-plane queue:
    its inline parts (descriptors are what the data plane leaves
    behind); 0 for an absent payload."""
    if obj is None:
        return 0
    return sum(len(part) for part in obj["parts"] if not isinstance(part, dict))


def _typed(value: Any, cls: type) -> Any:
    if not isinstance(value, cls):
        raise CodecError("expected a %s, got %r" % (cls.__name__, type(value).__name__))
    return value


# -- the typed entry points the benchmark times --------------------------------

def encode_table(table: ObservationTable, sink=None) -> Dict[str, Any]:
    return encode(table, sink)


def decode_table(obj: Dict[str, Any], reader=None) -> ObservationTable:
    return _typed(decode(obj, reader), ObservationTable)


def encode_multi_answer(answer: MultiStreamAnswer, sink=None) -> Dict[str, Any]:
    return encode(answer, sink)


def decode_multi_answer(obj: Dict[str, Any], reader=None) -> MultiStreamAnswer:
    return _typed(decode(obj, reader), MultiStreamAnswer)
