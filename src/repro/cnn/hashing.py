"""Counter-based deterministic hashing for vectorized simulation.

All stochastic behaviour of the simulated CNNs must be a *pure
function* of (model, object): the same model must always produce the
same ranked output and feature vector for the same object, across
ingest, tuning and querying.  Python's ``random`` cannot provide that
in vectorized form, so we use a splitmix64-style mixer over uint64
seeds, which is stateless, fast on numpy arrays, and high-quality for
simulation purposes.  Normals come from the inverse normal CDF,
:func:`_ndtri`, a numpy port of the Cephes routine.
"""

from __future__ import annotations

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# Cephes ndtri (S. Moshier, Cephes Math Library): the constants below
# are its P0/Q0 and P1/Q1 tables, digit for digit.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)

#: elements per :func:`_ndtri` pass: ~6 float64 temporaries of 256 KiB
#: stay L2-resident, and the ~80 ufunc calls per chunk stay cheap
_NDTRI_CHUNK = 1 << 15


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
    # as hash_uniform, with each step in place: the grid is dropped once
    # its uniforms exist, so at most two [rows, dim] arrays are live
    grid >>= np.uint64(11)
    u = grid.astype(np.float64)
    del grid
    u *= 1.0 / (1 << 53)
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    return _ndtri(u)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``polevl``: Horner from the leading coefficient (fresh array)."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF of ``u``, computed in place.

    ``u`` is a C-contiguous float64 array the caller owns, with every
    element in ``[1e-12, 1 - 1e-12]`` (:func:`hash_normal_matrix`'s
    clip).  Cephes' branch tests, constants and Horner order are kept,
    so every rounding step is the C routine's:

    * central, ``e^-2 < y <= 1 - e^-2``:
      ``sqrt(2 pi) * (y' + y' * (y'^2 P0(y'^2) / Q0(y'^2)))``, ``y' = y - 0.5``;
    * tails (``y`` reflected to ``1 - y`` above ``1 - e^-2``):
      ``x = sqrt(-2 log y)``, ``x - log(x) / x - z P1(z) / Q1(z)``, ``z = 1/x``,
      negated below ``e^-2``.

    On that domain ``x <= sqrt(-2 log 1e-12) < 7.44``, so Cephes' third
    branch (P2/Q2, ``x >= 8``, ``y < e^-32``) is unreachable and left
    out; ``0``, ``1`` and out-of-range inputs are not handled.  Central
    values equal the C routine's bit for bit; a tail value does too
    unless numpy's ``log`` differs from libm's in the last bit (numpy's
    AVX-512 ``log`` does for ~2e-4 of tail draws), which moves it by at
    most a few ulp.

    The central branch runs in place over each whole chunk; only the
    ~27 % of elements that take a tail are gathered.  A gathered ``u``
    reflects as ``min(u, 1 - u)`` (exactly Cephes' ``1 - y`` above
    ``1 - e^-2`` and ``y`` below ``e^-2``) and takes the sign of
    ``u - 0.5``, so neither step needs a masked ufunc.
    """
    flat = u.reshape(-1)
    for start in range(0, len(flat), _NDTRI_CHUNK):
        y = flat[start:start + _NDTRI_CHUNK]
        in_tail = y <= _EXP_M2
        in_tail |= y > 1.0 - _EXP_M2
        tails = np.flatnonzero(in_tail)
        t = y[tails]
        reflected = 1.0 - t
        np.minimum(t, reflected, out=reflected)
        t -= 0.5

        # over tail elements too: y'^2 <= 1/4 there, where Q0 < 0, so
        # the values thrown away never divide by zero
        y -= 0.5
        y2 = y * y
        x = _polevl(y2, _P0)
        x *= y2
        x /= _p1evl(y2, _Q0)
        x *= y
        x += y
        np.multiply(x, _S2PI, out=y)

        if len(tails):
            x = np.log(reflected)
            x *= -2.0
            np.sqrt(x, out=x)
            z = 1.0 / x
            x0 = np.log(x)
            x0 /= x
            np.subtract(x, x0, out=x0)
            x1 = _polevl(z, _P1)
            x1 *= z
            x1 /= _p1evl(z, _Q1)
            x0 -= x1
            np.copysign(x0, t, out=x0)  # x0 > 0: negates the lower tail only
            y[tails] = x0
    return u


def stable_salt(text: str) -> int:
    """Stable uint64 salt from a string (model names, query classes)."""
    acc = np.uint64(1469598103934665603)  # FNV-1a offset basis
    with np.errstate(over="ignore"):
        for byte in text.encode("utf-8"):
            acc = np.uint64(acc ^ np.uint64(byte)) * np.uint64(1099511628211)
    return int(acc)
