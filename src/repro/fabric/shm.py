"""Shared-memory data plane for the fabric's worker protocol.

The wire is split in two:

* the **control plane** stays on the queues: small
  :class:`~repro.fabric.protocol.Request`/``Reply`` envelopes;
* the **data plane** moves bulk bytes through POSIX shared memory
  (``multiprocessing.shared_memory``): each part of an encoded payload
  (``repro.fabric.codec``: the pickle stream and its out-of-band
  buffers) is replaced by a ``(segment, offset, nbytes)`` descriptor
  and the bytes themselves are written once into a mapped segment the
  peer reads directly -- no kernel-mediated copies through a pipe.

Three cooperating pieces:

* :class:`ShmSink` -- collects every part of ONE message (one or more
  encoded payloads), then :meth:`ShmSink.seal` packs them into a single
  segment when their total crosses the crossover threshold.  Below the
  threshold -- or when shared memory is unavailable, or allocation
  fails -- it inlines the parts as ``bytes`` instead, so every consumer
  handles both shapes.
* :class:`ShmReader` -- resolves descriptors back to bytes.  Attachments
  can be cached across messages (workers re-read the supervisor's
  pooled segments) or owned-and-unlinked (the supervisor consumes each
  worker reply segment exactly once).
* :class:`ShmPool` -- the supervisor-owned allocator for request-plane
  segments: power-of-two sized segments, leased per in-flight command
  and recycled at gather, every lease reclaimed when a worker dies and
  every segment unlinked (and leak-checked) at shutdown.

Reply-plane segments are not pooled: the worker creates one per reply
under a *deterministic* name derived from the correlation id, which is
what makes crash reclamation possible -- a supervisor restarting a dead
worker probes the names of every unacknowledged command and unlinks the
orphans (:func:`unlink_segment`).

Resource-tracker discipline: the supervisor and its workers are one
process tree sharing ONE ``resource_tracker`` process (fork inherits
it; spawn is handed its fd), whose per-name cache is a *set* -- the
registration a create adds and the duplicate an attach adds collapse
into a single entry that exactly one ``unlink`` must consume.  So
nobody unregisters manually: the pool unlinks request segments at
:meth:`ShmPool.close`, the consuming supervisor unlinks each reply
segment after reading it (or reclaims orphans by name after a worker
death), and every other close is just an unmap.  A segment nobody
unlinks stays registered and the tracker's exit warning is the leak
signal, on purpose.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: per-message crossover: messages whose parts total fewer bytes than
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

    ``alloc(nbytes)`` supplies the segment (pool lease or fresh named
    segment) and may return None to force the fallback; ``alloc=None``
    (a host without shared memory) always inlines.
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
        lifetime from here and unlinks it after reading (the
        reply-plane contract; pool-leased request segments are released
        through the pool instead and never call this)."""
        seg = self._segment
        if seg is not None:
            self._segment = None
            seg.close()


class ShmReader:
    """Resolves ``{"seg", "off", "n"}`` descriptors back to bytes.

    Two lifetimes:

    * ``cache`` + ``owns=False`` -- the worker side: attachments go
      into a long-lived cache (the supervisor's pooled request segments
      recur under the same names command after command) and are
      unregistered from the resource tracker immediately -- the pool
      owns them.
    * ``owns=True`` -- the supervisor side: each reply's segment is
      consumed exactly once; :meth:`close` closes *and unlinks* every
      segment this reader attached.
    """

    def __init__(
        self,
        cache: Optional[Dict[str, shared_memory.SharedMemory]] = None,
        owns: bool = True,
    ):
        self._cache = {} if cache is None else cache
        self._owns = owns
        self._opened: List[str] = []
        #: bytes resolved through shared memory by this reader
        self.total_nbytes = 0

    def _segment(self, name: str) -> shared_memory.SharedMemory:
        seg = self._cache.get(name)
        if seg is None:
            # attaching re-registers the name, but the fabric's shared
            # tracker dedupes it against the creator's registration --
            # lifetime stays with whoever unlinks (see module docstring)
            seg = shared_memory.SharedMemory(name=name)
            self._cache[name] = seg
            self._opened.append(name)
        return seg

    def array_at(self, desc: Dict[str, Any]) -> np.ndarray:
        """The described bytes as a uint8 array that owns its memory:
        writable, and valid after the segment is closed or reused."""
        seg = self._segment(desc["seg"])
        off, n = desc["off"], desc["n"]
        self.total_nbytes += n
        return np.frombuffer(seg.buf, dtype=np.uint8, count=n, offset=off).copy()

    def close(self) -> None:
        """Release this reader's attachments (and unlink them when this
        reader owns their lifetime -- the reply-plane contract)."""
        for name in self._opened:
            seg = self._cache.pop(name, None)
            if seg is None:
                continue
            seg.close()
            if self._owns:
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
        self._opened = []


class _FreeList:
    __slots__ = ("segments",)

    def __init__(self):
        self.segments: List[shared_memory.SharedMemory] = []


class ShmPool:
    """Supervisor-owned pooled allocator for request-plane segments.

    Segments are created in power-of-two sizes and recycled: a sealed
    request leases one for exactly the command's flight time (submit ->
    gather), after which :meth:`release` returns it to the free list --
    the worker executes commands strictly in order, so a gathered
    reply proves the worker is done reading the request's segment.

    Leases for a dead worker are reclaimed by the supervisor (no
    concurrent reader can exist), and :meth:`close` unlinks every
    segment, returning the names still leased -- the shutdown leak
    check the tests assert empty.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._seq = 0
        self._free: Dict[int, _FreeList] = {}
        self._leased: Dict[str, shared_memory.SharedMemory] = {}
        self._closed = False

    def allocate(self, nbytes: int) -> Optional[shared_memory.SharedMemory]:
        """Lease a segment of at least ``nbytes`` (None on failure)."""
        if self._closed:
            return None
        size = max(4096, 1 << (int(nbytes) - 1).bit_length())
        free = self._free.get(size)
        if free is not None and free.segments:
            seg = free.segments.pop()
        else:
            name = "%s-p%d" % (self._prefix, self._seq)
            self._seq += 1
            try:
                seg = shared_memory.SharedMemory(name=name, create=True, size=size)
            except Exception:
                return None
        self._leased[seg.name] = seg
        return seg

    def release(self, name: str) -> None:
        """Return a leased segment to the free list (idempotent)."""
        seg = self._leased.pop(name, None)
        if seg is None:
            return
        # segments are created in power-of-two sizes >= 4096 (always
        # page multiples), so seg.size is its own size class
        self._free.setdefault(int(seg.size), _FreeList()).segments.append(seg)

    def leased_names(self) -> List[str]:
        return sorted(self._leased)

    def release_many(self, names: Sequence[str]) -> int:
        """Reclaim a batch of leases (idempotent); returns how many were
        actually returned to the free list.

        This is the failure-time reclamation path: when a worker dies or
        is deadline-killed, the supervisor condemns it and returns every
        request segment leased to that worker's in-flight commands *at
        detection time* -- no concurrent reader can exist (the only
        reader is dead), and waiting for a later restart would leak the
        leases for the whole outage.
        """
        reclaimed = 0
        for name in list(names):
            if name in self._leased:
                self.release(name)
                reclaimed += 1
        return reclaimed

    def close(self) -> List[str]:
        """Unlink every segment (free and leased); returns the names
        that were still leased -- a non-empty answer is a leak."""
        if self._closed:
            return []
        self._closed = True
        leaked = sorted(self._leased)
        doomed = list(self._leased.values())
        for free in self._free.values():
            doomed.extend(free.segments)
        self._leased.clear()
        self._free.clear()
        for seg in doomed:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        return leaked
