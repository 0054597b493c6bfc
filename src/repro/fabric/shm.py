"""Shared-memory data plane for the fabric's worker protocol.

The wire is split in two:

* the **control plane** stays on the queues: small
  :class:`~repro.fabric.protocol.Request`/``Reply`` envelopes, and every
  request payload, inline;
* the **data plane** moves a reply's bulk bytes through POSIX shared
  memory (``multiprocessing.shared_memory``): each part of an encoded
  payload (``repro.fabric.codec``: the pickle stream and its
  out-of-band buffers) is replaced by a ``(segment, offset, nbytes)``
  descriptor and the bytes themselves are written once into a mapped
  segment the supervisor reads directly -- no kernel-mediated copies
  through a pipe.

Only replies take the data plane: a checkpoint's store delta is the
bulk reply that measurably gains from it, while requests -- appends,
and even a migration's ``import_stream`` -- measured within noise of a
pooled segment when inline (``docs/SHARDING.md``, "The shared-memory
data plane").

Two cooperating pieces:

* :class:`ShmSink` -- collects every part of ONE message (one or more
  encoded payloads), then :meth:`ShmSink.seal` packs them into a single
  segment when their total crosses the crossover threshold.  Below the
  threshold -- or when shared memory is unavailable, or allocation
  fails -- it inlines the parts as ``bytes`` instead, so every consumer
  handles both shapes.
* :class:`ShmReader` -- resolves descriptors back to bytes; the
  supervisor consumes each reply segment exactly once and unlinks it.

A worker creates one segment per reply under a *deterministic* name
derived from the correlation id, which is what makes crash reclamation
possible -- a supervisor condemning a worker probes the names of every
unacknowledged command and unlinks the orphans (:func:`unlink_segment`).

Resource-tracker discipline: the supervisor and its workers are one
process tree sharing ONE ``resource_tracker`` process (fork inherits
it; spawn is handed its fd), whose per-name cache is a *set* -- the
registration a create adds and the duplicate an attach adds collapse
into a single entry that exactly one ``unlink`` must consume.  So
nobody unregisters manually: the consuming supervisor unlinks each
reply segment after reading it (or reclaims orphans by name after a
worker death), and every other close is just an unmap.  A segment
nobody unlinks stays registered and the tracker's exit warning
(``leaked shared_memory``) is the leak signal, on purpose.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: per-reply crossover: replies whose parts total fewer bytes than
#: this are inlined in the envelope (a queue round trip on a few KB
#: beats a segment create/attach)
DEFAULT_SHM_THRESHOLD = 32 * 1024

#: part alignment inside a packed segment
_ALIGN = 64

_availability: Optional[bool] = None


def shm_available() -> bool:
    """Can this host create, attach, and unlink a shared segment?"""
    global _availability
    if _availability is None:
        try:
            seg = shared_memory.SharedMemory(create=True, size=64)
            seg.buf[:4] = b"ok??"
            twin = shared_memory.SharedMemory(name=seg.name)
            ok = bytes(twin.buf[:2]) == b"ok"
            twin.close()
            seg.close()
            seg.unlink()
            _availability = bool(ok)
        except Exception:
            _availability = False
    return _availability


def create_segment(name: str, nbytes: int) -> shared_memory.SharedMemory:
    """Create a named segment, replacing any stale leftover under the
    same name (a previous incarnation that died mid-handoff)."""
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    except FileExistsError:
        unlink_segment(name)
        return shared_memory.SharedMemory(name=name, create=True, size=nbytes)


def unlink_segment(name: str) -> bool:
    """Unlink a segment by name if it exists (orphan reclamation).

    Returns True when a segment was actually found and removed.
    """
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except Exception:
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    return True


class ShmSink:
    """Collects one message's payload parts; seals them into one segment.

    :func:`repro.fabric.codec.encode` hands each payload's parts (its
    pickle stream and out-of-band buffers) to the sink together with
    the envelope they belong to.  The envelope leaves the encoder
    *unresolved*; :meth:`seal` then either

    * packs every part of every envelope into a single shared segment
      at 64-byte-aligned offsets and sets each envelope's ``"parts"``
      to ``{"seg", "off", "n"}`` descriptors, or
    * inlines each part as ``bytes`` -- the fallback when the message
      totals below the crossover threshold, there is no allocator, or
      allocation fails.

    ``alloc(nbytes)`` supplies the segment (a fresh named segment) and
    may return None to force the fallback; ``alloc=None`` (a host
    without shared memory) always inlines.
    """

    def __init__(
        self,
        alloc: Optional[Callable[[int], Any]] = None,
        threshold: int = DEFAULT_SHM_THRESHOLD,
    ):
        self._alloc = alloc
        self._threshold = threshold
        self._items: List[Tuple[Dict[str, Any], List[Any]]] = []
        self._total = 0
        self._sealed = False
        #: set by seal(): the packed segment's name (None = inlined)
        self.segment_name: Optional[str] = None
        #: bytes that went through shared memory (0 when inlined)
        self.sealed_nbytes = 0
        self._segment: Optional[Any] = None

    def add(self, envelope: Dict[str, Any], parts: List[Any]) -> None:
        """Defer one envelope's parts (``bytes`` or byte memoryviews)."""
        self._items.append((envelope, parts))
        self._total += sum(len(part) for part in parts)

    def _inline_all(self) -> None:
        for envelope, parts in self._items:
            envelope["parts"] = [bytes(part) for part in parts]

    def seal(self) -> Optional[str]:
        """Resolve every collected envelope; returns the segment name
        when the parts went to shared memory, else None."""
        if self._sealed:
            return self.segment_name
        self._sealed = True
        if not self._items:
            return None
        if self._alloc is None or self._total < self._threshold:
            self._inline_all()
            return None
        offsets = []
        cursor = 0
        for _, parts in self._items:
            for part in parts:
                cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
                offsets.append(cursor)
                cursor += len(part)
        segment = None
        try:
            segment = self._alloc(max(cursor, 1))
        except Exception:
            segment = None
        if segment is None:
            self._inline_all()
            return None
        buf = segment.buf
        places = iter(offsets)
        for envelope, parts in self._items:
            descriptors = []
            for part in parts:
                offset, nbytes = next(places), len(part)
                buf[offset : offset + nbytes] = part
                descriptors.append({"seg": segment.name, "off": offset, "n": nbytes})
            envelope["parts"] = descriptors
        self.segment_name = segment.name
        self.sealed_nbytes = self._total
        self._segment = segment
        return self.segment_name

    def close_handoff(self) -> None:
        """Creator-side release after the message is enqueued: unmap
        this process's view.  The consuming peer owns the segment's
        lifetime from here and unlinks it after reading."""
        seg = self._segment
        if seg is not None:
            self._segment = None
            seg.close()


class ShmReader:
    """Resolves ``{"seg", "off", "n"}`` descriptors back to bytes.

    ``owns=True`` (the supervisor side) consumes each segment exactly
    once: :meth:`close` closes *and unlinks* every segment this reader
    attached.  ``owns=False`` only unmaps them.
    """

    def __init__(self, owns: bool = True):
        self._owns = owns
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        #: bytes resolved through shared memory by this reader
        self.total_nbytes = 0

    def _segment(self, name: str) -> shared_memory.SharedMemory:
        seg = self._segments.get(name)
        if seg is None:
            # attaching re-registers the name, but the fabric's shared
            # tracker dedupes it against the creator's registration --
            # lifetime stays with whoever unlinks (see module docstring)
            seg = self._segments[name] = shared_memory.SharedMemory(name=name)
        return seg

    def array_at(self, desc: Dict[str, Any]) -> np.ndarray:
        """The described bytes as a uint8 array that owns its memory:
        writable, and valid after the segment is closed or unlinked."""
        seg = self._segment(desc["seg"])
        off, n = desc["off"], desc["n"]
        self.total_nbytes += n
        return np.frombuffer(seg.buf, dtype=np.uint8, count=n, offset=off).copy()

    def close(self) -> None:
        """Unmap every segment this reader attached, and unlink them
        when this reader owns their lifetime (the reply-plane contract)."""
        for seg in self._segments.values():
            seg.close()
            if self._owns:
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
        self._segments = {}
