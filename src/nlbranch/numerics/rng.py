"""Reproducible, counter-based random number streams.

Every output is a pure function of (seed, stream_id, counter): the raw
64-bit word for draw n of stream i is a keyed avalanche hash of n, with
the key derived once from (seed, i).  That makes replicate i consume
stream i no matter how work is scheduled, allows random access by
counter offset (needed for the ragged jump draws in the path engine),
and guarantees bit-identical results for any thread count or block size.

``StreamBundle`` holds one stream per lane as parallel numpy arrays, one
64-bit counter per lane; a single stream is a one-lane bundle.
"""

import numpy as np
from scipy.special import ndtri

__all__ = ["StreamBundle"]

_U64 = np.uint64
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_GOLD = _U64(0x9E3779B97F4A7C15)
_SALT = _U64(0xD1B54A32D192ED03)

# Poisson sampling: sequential-search inversion is exact but needs
# exp(-lam) > 0, so a lane's rate is split into ceil(lam / _POISSON_PIECE)
# equal pieces, each inverted on its own word, and the count is their sum.
_POISSON_PIECE = 500.0
# the inversion search is a guard: it raises past this many standard
# deviations above the block's largest rate, where no sum still grows
_POISSON_SEARCH_SD = 40.0


def _mix(z, tmp=None):
    """splitmix64 finalizer, a high-quality 64-bit avalanche permutation,
    in place on ``z`` with ``tmp`` (same shape; default a new one) as
    scratch."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(z, _U64(shift), out=tmp)
        z ^= tmp
        if mult is not None:
            z *= mult
    return z


def _derive_keys(seed, stream_ids):
    # arrays throughout: numpy integer arrays wrap modulo 2^64 silently,
    # scalar numpy ints would emit overflow warnings; a seed outside
    # [0, 2^64) raises OverflowError here rather than alias another
    s = _mix(np.array([seed], dtype=np.uint64) + _GOLD)
    sid = np.asarray(stream_ids, dtype=np.uint64)
    k1 = _mix(s ^ (sid * _SALT + _M2))
    k2 = _mix(k1 + _GOLD)
    return k1, k2


def _raw(k1, k2, ctr, tmp):
    """The words at counters ``ctr``, hashed in place in ``ctr`` with
    ``tmp`` as scratch; the keys broadcast against the counters."""
    ctr *= _GOLD
    ctr += k2
    _mix(ctr, tmp)
    ctr ^= k1
    return _mix(ctr, tmp)


def _to_unit(word, out):
    # 53-bit mantissa in the open interval (0, 1), written to the float64
    # array ``out`` (``word`` is shifted in place); the top value
    # 1 - 2^-54 rounds to 1.0, so it is clamped to the largest float below 1
    word >>= _U64(11)
    out[...] = word
    out *= 0.5 ** 53
    out += 0.5 ** 54
    return np.minimum(out, 1.0 - 0.5 ** 53, out=out)


class StreamBundle:
    """A vector of independent streams, one per lane.

    ``uniforms``, ``normals`` and ``poissons`` draw one value per lane (or
    for ``poissons`` rows of them) and advance each counter by exactly
    the words it consumed; ``uniforms_at`` and ``advance`` act on the
    lanes they are given (default: all).
    """

    def __init__(self, seed: int, stream_ids):
        self.seed = int(seed)
        self.stream_ids = np.asarray(stream_ids, dtype=np.uint64)
        self._k1, self._k2 = _derive_keys(self.seed, self.stream_ids)
        self._ctr = np.zeros(self.stream_ids.shape[0], dtype=np.uint64)

    @property
    def size(self) -> int:
        return self.stream_ids.shape[0]

    def counters(self):
        return self._ctr.copy()

    def set_counter(self, value: int, idx=None):
        """Set the selected lanes' counters to ``value`` in [0, 2^63).

        No run draws 2^63 words from one stream, so a counter that starts
        below 2^63 never wraps its 64-bit word."""
        if not 0 <= value < 2 ** 63:
            raise ValueError(f"counter {value} is outside [0, 2^63)")
        self._ctr[slice(None) if idx is None else idx] = value

    def take(self, idx) -> "StreamBundle":
        """A new bundle of the selected lanes (an index array or a mask),
        their keys and counters copied: its draws leave this bundle as it
        was until ``put`` writes the counters back."""
        sub = type(self).__new__(type(self))
        sub.seed = self.seed
        sub.stream_ids = self.stream_ids[idx]
        sub._k1, sub._k2 = self._k1[idx], self._k2[idx]
        sub._ctr = self._ctr[idx]
        return sub

    def put(self, idx, source: "StreamBundle"):
        """Set the selected lanes' counters to those of ``source``, a bundle
        of the same streams in the same order (a ``take`` of these lanes)."""
        if not np.array_equal(self.stream_ids[idx], source.stream_ids):
            raise ValueError("put needs a bundle of the selected streams")
        self._ctr[idx] = source._ctr

    def advance(self, amounts, idx=None):
        """Consume ``amounts`` words per selected lane without generating."""
        idx = slice(None) if idx is None else idx
        self._ctr[idx] += np.asarray(amounts, dtype=np.uint64)

    def _words(self, offsets, idx):
        # a fresh counter array, hashed in place; the uniforms land in
        # the scratch array
        ctr = self._ctr[idx] + offsets
        tmp = np.empty_like(ctr)
        return _to_unit(_raw(self._k1[idx], self._k2[idx], ctr, tmp),
                        tmp.view(np.float64))

    def uniforms_at(self, offsets, idx=None):
        """Uniforms at counter + offset for the selected lanes; no advance.

        ``offsets`` broadcast against the lanes: offsets of shape
        (..., 1) give an array of shape (..., lanes)."""
        idx = slice(None) if idx is None else idx
        return self._words(np.asarray(offsets, dtype=np.uint64), idx)

    def uniforms(self):
        """One uniform in (0,1) per lane; advances counters."""
        u = self._words(_U64(0), slice(None))
        self._ctr += _U64(1)
        return u

    def normals(self):
        """One standard normal per lane via the inverse-CDF transform."""
        return ndtri(self.uniforms())

    def poissons(self, lam):
        """Poisson counts with rates ``lam``, which broadcast against the
        lanes: one count per lane, or rows of counts for rates of shape
        (rows, lanes) or (rows, 1), drawn in row order.

        Exact at every rate: a rate splits into max(ceil(lam / 500), 1)
        equal pieces, each inverted on one word.  A lane's row j takes
        its first piece at offset j plus the extra pieces of its rows
        before j, and its extra pieces on the words after that, so the
        block reads the words and gives the counts of one call per row.
        Every piece of the block comes from one ``uniforms_at`` pass and
        one inversion.
        """
        lam = np.asarray(lam, dtype=float)
        shape = np.broadcast_shapes(lam.shape, (self.size,))
        rows = shape[0] if len(shape) == 2 else 1
        lam = np.broadcast_to(lam, shape).reshape(rows, self.size)
        top = lam.max(initial=0.0)
        # a nan fails the min, an infinite rate the max
        if not (lam.min(initial=0.0) >= 0.0 and top < np.inf):
            raise ValueError("poisson rate must be finite and >= 0")
        if top <= _POISSON_PIECE:   # one piece per rate: row j on word j
            u = self.uniforms_at(np.arange(rows, dtype=_U64)[:, None])
            self.advance(rows)
            return _poisson_inversion(lam.ravel(), u.ravel()).reshape(shape)
        # x / 500 rounds above k for every float x > 500 k: a rate above
        # one piece's has two pieces or more
        pieces = np.maximum(np.ceil(lam / _POISSON_PIECE), 1.0)
        extra = pieces.astype(np.int64) - 1
        first = np.arange(rows)[:, None] + np.cumsum(extra, axis=0) - extra
        # each rate's pieces in one run, on its words first, first + 1, ...
        n = (extra + 1).ravel()
        starts = np.cumsum(n) - n
        offsets = np.repeat(first.ravel() - starts, n) + np.arange(n.sum())
        lanes = np.repeat(np.tile(np.arange(self.size), rows), n)
        counts = _poisson_inversion(np.repeat((lam / pieces).ravel(), n),
                                    self.uniforms_at(offsets, lanes))
        self.advance(rows + extra.sum(axis=0))
        return np.add.reduceat(counts, starts).reshape(shape)


def _poisson_inversion(lam, u):
    """Sequential-search inversion; consumes exactly one uniform per lane.

    Only the lanes with u above P(0) = exp(-lam) search, held compacted:
    at small rates that is a few of them.  A lane whose cumulative sum
    stops growing while still below u (u in the rounding gap below 1)
    ends there, at the last count that grew it, so its draw does not
    depend on the other rates of the block.
    """
    k = np.zeros(lam.shape, dtype=np.int64)
    p = np.exp(-lam)
    (idx,) = np.nonzero(u > p)
    top = lam.max(initial=0.0)
    k_max = int(top + _POISSON_SEARCH_SD * np.sqrt(top + 1.0) + 25.0)
    lam, u, p = lam[idx], u[idx], p[idx]
    cdf = p.copy()
    n = 0
    while idx.size:
        if n == k_max:
            raise RuntimeError(
                f"Poisson search reached {k_max} terms with {idx.size} "
                f"lanes still below their uniform")
        n += 1
        p *= lam / n
        total = cdf + p
        grew = total > cdf
        more = grew & (u > total)
        if n < top and more.all():
            # no lane ended, as in the first 300 terms at rate 500: the
            # arrays stay as they are
            cdf = total
            continue
        k[idx] = n - 1 + grew
        idx, lam, u, p, cdf = (idx[more], lam[more], u[more], p[more],
                               total[more])
    return k

