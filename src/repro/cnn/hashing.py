"""Counter-based deterministic hashing for vectorized simulation.

All stochastic behaviour of the simulated CNNs must be a *pure
function* of (model, object): the same model must always produce the
same ranked output and feature vector for the same object, across
ingest, tuning and querying.  Python's ``random`` cannot provide that
in vectorized form, so we use a splitmix64-style mixer over uint64
seeds, which is stateless, fast on numpy arrays, and high-quality for
simulation purposes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix64(x: np.ndarray, copy: bool = True) -> np.ndarray:
    """splitmix64 finalizer: maps uint64 -> well-mixed uint64.

    ``copy=False`` mixes in place -- only for arrays the caller owns
    (fresh temporaries); it saves one full pass over wide hash grids.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(x)
        if copy or z.dtype != np.uint64:
            z = z.astype(np.uint64, copy=True)
        z += _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def combine(*parts) -> np.ndarray:
    """Combine seeds / salts into one mixed uint64 array.

    Accepts any mix of scalars and arrays (broadcast together).
    Position-dependent: ``combine(a, b) != combine(b, a)``, so swapped
    seed/salt pairs cannot collide.
    """
    acc = None
    with np.errstate(over="ignore"):
        for position, part in enumerate(parts):
            arr = np.asarray(part, dtype=np.uint64)
            # the sum/xor results are fresh arrays: mix them in place
            mixed = mix64(arr + np.uint64(position + 1) * _GOLDEN, copy=False)
            acc = mixed if acc is None else mix64(acc ^ mixed, copy=False)
    if acc is None:
        raise ValueError("combine() requires at least one seed part")
    return acc


def hash_uniform(seeds: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from uint64 seeds."""
    z = mix64(np.asarray(seeds, dtype=np.uint64))
    # use the top 53 bits for a full-precision double in [0, 1)
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def hash_normal_matrix(seeds: np.ndarray, dim: int, salt: int = 0) -> np.ndarray:
    """Deterministic [len(seeds), dim] standard-normal matrix.

    Row i depends only on ``seeds[i]``; column j mixes in ``j`` so the
    coordinates are independent.
    """
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    cols = (np.arange(dim, dtype=np.uint64) + np.uint64(salt + 1)).reshape(1, -1)
    grid = mix64(s ^ (cols * _GOLDEN), copy=False)  # xor result is fresh
    u = (grid >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return ndtri(u)


def stable_salt(text: str) -> int:
    """Stable uint64 salt from a string (model names, query classes)."""
    acc = np.uint64(1469598103934665603)  # FNV-1a offset basis
    with np.errstate(over="ignore"):
        for byte in text.encode("utf-8"):
            acc = np.uint64(acc ^ np.uint64(byte)) * np.uint64(1099511628211)
    return int(acc)
