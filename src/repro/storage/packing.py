"""Packed arrays: how durable state stores a numpy array.

A leaf module (numpy and the standard library only), so the layers
that pack state -- the clusterer's checkpoint head, the journal's row
segments -- share one encoding without importing each other.
"""

from __future__ import annotations

import base64

import numpy as np


def pack_array(values, dtype, digest=None) -> str:
    """``values`` as base64 of its ``dtype`` little-endian bytes.

    How checkpoint state stores an array: one ``str`` (documents stay
    JSON-serializable), encoded once and never re-marshalled element by
    element.  ``digest``, a running ``hashlib`` object, is fed the raw
    bytes.
    """
    raw = np.ascontiguousarray(
        values, dtype=np.dtype(dtype).newbyteorder("<")
    ).tobytes()
    if digest is not None:
        digest.update(raw)
    return base64.b64encode(raw).decode("ascii")


def unpack_array(data, dtype, digest=None) -> np.ndarray:
    """The array :func:`pack_array` stored, bit-exact (read-only).

    An array or list (the form older stores hold) passes through as
    ``dtype``; ``digest`` is fed the raw bytes either way.  Raises
    ``ValueError`` when a packed string does not decode to whole
    ``dtype`` items.
    """
    little = np.dtype(dtype).newbyteorder("<")
    if not isinstance(data, str):
        values = np.asarray(data, dtype=dtype)
        if digest is not None:
            digest.update(np.ascontiguousarray(values, dtype=little).tobytes())
        return values
    raw = base64.b64decode(data, validate=True)
    values = np.frombuffer(raw, dtype=little)
    if digest is not None:
        digest.update(raw)
    return values.astype(dtype, copy=False)
