"""Reproducible, counter-based random number streams.

Every output is a pure function of (seed, stream_id, counter): the raw
64-bit word for draw n of stream i is a keyed avalanche hash of n, with
the key derived once from (seed, i).  That makes replicate i consume
stream i no matter how work is scheduled, allows random access by
counter offset (needed for the ragged jump draws in the path engine),
and guarantees bit-identical results for any thread count or block size.

``StreamBundle`` holds one stream per lane as parallel numpy arrays and
is what the vectorized simulation consumes.  ``RngStream`` is the scalar
view of a single lane.
"""

import numpy as np
from scipy.special import ndtri

__all__ = ["RngStream", "StreamBundle"]

_U64 = np.uint64
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_GOLD = _U64(0x9E3779B97F4A7C15)
_SALT = _U64(0xD1B54A32D192ED03)

# Poisson sampling: sequential-search inversion is exact but needs
# exp(-lam) > 0, so lam is split into at most two halves up to this bound
# and the count is the sum of the pieces.  Above _POISSON_EXACT_MAX a
# moment-matched rounded normal is used instead.
_POISSON_SPLIT = 500.0
_POISSON_EXACT_MAX = 1000.0


def _mix(z):
    """splitmix64 finalizer: a high-quality 64-bit avalanche permutation."""
    z = (z ^ (z >> _U64(30))) * _M1
    z = (z ^ (z >> _U64(27))) * _M2
    return z ^ (z >> _U64(31))


def _derive_keys(seed, stream_ids):
    # arrays throughout: numpy integer arrays wrap modulo 2^64 silently,
    # scalar numpy ints would emit overflow warnings
    s = _mix(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) + _GOLD)
    sid = np.asarray(stream_ids, dtype=np.uint64)
    k1 = _mix(s ^ (sid * _SALT + _M2))
    k2 = _mix(k1 + _GOLD)
    return k1, k2


def _raw(k1, k2, hi, lo):
    return _mix((k1 ^ _mix(lo * _GOLD + k2)) + hi * _SALT)


def _to_unit(word):
    # 53-bit mantissa in the open interval (0, 1); the top value
    # 1 - 2^-54 rounds to 1.0, so it is clamped to the largest float below 1
    u = (word >> _U64(11)).astype(np.float64) * (0.5 ** 53) + 0.5 ** 54
    return np.minimum(u, 1.0 - 0.5 ** 53)


class StreamBundle:
    """A vector of independent streams, one per lane.

    All draw methods produce one value per selected lane and advance only
    the selected lanes' counters by exactly the number of words consumed.
    """

    def __init__(self, seed: int, stream_ids):
        self.seed = int(seed)
        self.stream_ids = np.asarray(stream_ids, dtype=np.uint64)
        self._k1, self._k2 = _derive_keys(self.seed, self.stream_ids)
        n = self.stream_ids.shape[0]
        self._lo = np.zeros(n, dtype=np.uint64)
        self._hi = np.zeros(n, dtype=np.uint64)

    @property
    def size(self) -> int:
        return self.stream_ids.shape[0]

    def counters(self):
        return (self._hi.astype(object) << 64) + self._lo.astype(object)

    def set_counter(self, value: int, idx=None):
        idx = slice(None) if idx is None else idx
        self._lo[idx] = _U64(value & 0xFFFFFFFFFFFFFFFF)
        self._hi[idx] = _U64((value >> 64) & 0xFFFFFFFFFFFFFFFF)

    def take(self, idx) -> "StreamBundle":
        """A new bundle of the selected lanes (an index array or a mask),
        their keys and counters copied: its draws leave this bundle as it
        was until ``put`` writes the counters back."""
        sub = type(self).__new__(type(self))
        sub.seed = self.seed
        sub.stream_ids = self.stream_ids[idx]
        sub._k1, sub._k2 = self._k1[idx], self._k2[idx]
        sub._lo, sub._hi = self._lo[idx], self._hi[idx]
        return sub

    def put(self, idx, source: "StreamBundle"):
        """Set the selected lanes' counters to those of ``source``, a bundle
        of the same streams in the same order (a ``take`` of these lanes)."""
        if not np.array_equal(self.stream_ids[idx], source.stream_ids):
            raise ValueError("put needs a bundle of the selected streams")
        self._lo[idx] = source._lo
        self._hi[idx] = source._hi

    def _advance(self, idx, amount):
        lo = self._lo[idx]
        new_lo = lo + np.asarray(amount, dtype=np.uint64)
        self._hi[idx] += new_lo < lo  # carry
        self._lo[idx] = new_lo

    def advance(self, amounts, idx=None):
        """Consume ``amounts`` words per selected lane without generating."""
        idx = slice(None) if idx is None else idx
        self._advance(idx, np.asarray(amounts))

    def words_at(self, offsets, idx=None):
        """Raw words at counter+offset for the selected lanes; no advance."""
        idx = slice(None) if idx is None else idx
        off = np.asarray(offsets, dtype=np.uint64)
        lo = self._lo[idx] + off
        hi = self._hi[idx] + (lo < self._lo[idx]).astype(np.uint64)
        return _raw(self._k1[idx], self._k2[idx], hi, lo)

    def uniforms_at(self, offsets, idx=None):
        return _to_unit(self.words_at(offsets, idx))

    def uniforms(self, idx=None):
        """One uniform in (0,1) per selected lane; advances counters."""
        idx = slice(None) if idx is None else idx
        u = _to_unit(_raw(self._k1[idx], self._k2[idx], self._hi[idx],
                          self._lo[idx]))
        self._advance(idx, 1)
        return u

    def normals(self, idx=None):
        """One standard normal per lane via the inverse-CDF transform."""
        return ndtri(self.uniforms(idx))

    def poissons(self, lam, idx=None):
        """One Poisson count per lane with per-lane rates ``lam``.

        Exact (inversion, split in halves) for lam <= 1000; above that a
        rounded normal approximation with matched mean/variance is used.
        """
        shape = (self.size,) if idx is None else np.shape(idx)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), shape)
        top = lam.max(initial=0.0)
        # a nan fails the min, an infinite rate the max
        if not (lam.min(initial=0.0) >= 0.0 and top < np.inf):
            raise ValueError("poisson rate must be finite and >= 0")
        if top <= _POISSON_SPLIT:
            # one piece per lane: every selected lane draws, none gathered
            return _poisson_inversion(lam, self.uniforms(idx))

        idx_arr = np.arange(self.size) if idx is None else np.asarray(idx)
        out = np.zeros(shape, dtype=np.int64)

        exact = lam <= _POISSON_EXACT_MAX
        two_piece = exact & (lam > _POISSON_SPLIT)
        pieces = np.where(two_piece, 2, 1)
        lam_piece = np.where(exact, lam / pieces, 0.0)
        for j in (0, 1):
            sel = exact & (pieces > j)
            if np.any(sel):
                u = self.uniforms(idx_arr[sel])
                out[sel] += _poisson_inversion(lam_piece[sel], u)

        approx = ~exact
        if np.any(approx):
            u = self.uniforms(idx_arr[approx])
            la = lam[approx]
            draw = np.rint(la + np.sqrt(la) * ndtri(u))
            out[approx] = np.maximum(draw, 0.0).astype(np.int64)
        return out


def _poisson_inversion(lam, u):
    """Sequential-search inversion; consumes exactly one uniform per lane."""
    p = np.exp(-lam)
    cdf = p.copy()
    k = np.zeros(lam.shape, dtype=np.int64)
    top = lam.max(initial=0.0)
    k_max = int(top + 40.0 * np.sqrt(top + 1.0) + 25.0)
    active = u > cdf
    while np.any(active):
        k[active] += 1
        p[active] *= lam[active] / k[active]
        cdf[active] += p[active]
        active &= u > cdf
        if np.max(k) > k_max:
            break
    return k


class RngStream:
    """Scalar stream: the single-lane view used outside the path engine.
    ``bundle`` is its one-lane ``StreamBundle`` (shared, not a copy)."""

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        self.bundle = StreamBundle(seed, np.array([stream_id], dtype=np.uint64))
        if counter:
            self.bundle.set_counter(counter)
        self.seed = int(seed)
        self.stream_id = int(stream_id)

    @property
    def counter(self) -> int:
        return int(self.bundle.counters()[0])

    def next_uniform(self) -> float:
        return float(self.bundle.uniforms()[0])

    def next_normal(self) -> float:
        return float(self.bundle.normals()[0])

    def next_poisson(self, lam: float) -> int:
        return int(self.bundle.poissons(np.array([float(lam)]))[0])

    def uniforms(self, n: int):
        """The next n uniforms, as n calls of ``next_uniform`` would give."""
        n = int(n)
        u = self.bundle.uniforms_at(np.arange(n, dtype=np.uint64))
        self.bundle.advance(n)
        return u
