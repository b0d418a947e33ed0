import hashlib

import numpy as np
import pytest
from scipy.stats import chi2

from nlbranch.numerics import StreamBundle
from nlbranch.numerics.rng import _raw, _to_unit


def one_lane(seed, stream_id=0, counter=0):
    """Stream ``stream_id`` of ``seed`` alone, as a one-lane bundle at
    ``counter``."""
    bundle = StreamBundle(seed, np.array([stream_id], dtype=np.uint64))
    bundle.set_counter(counter)
    return bundle


def draws(bundle, n):
    """The next n uniforms of a one-lane bundle, one call each."""
    return [float(bundle.uniforms()[0]) for _ in range(n)]


def test_same_seed_same_stream_identical_sequences():
    a = one_lane(1234, 7)
    b = one_lane(1234, 7)
    assert draws(a, 200) == draws(b, 200)


def test_output_is_pure_function_of_counter():
    first = draws(one_lane(42, 3), 50)
    replay = one_lane(42, 3, counter=10)
    assert draws(replay, 40) == first[10:]
    # one random-access read equals the one-at-a-time draws bit for bit
    vector = one_lane(42, 3, counter=10)
    assert np.array_equal(vector.uniforms_at(np.arange(40)), first[10:])
    vector.advance(40)
    assert vector.counters()[0] == 50


def test_distinct_streams_differ_and_counter_advances():
    s0 = one_lane(9, 0)
    s1 = one_lane(9, 1)
    assert draws(s0, 100) != draws(s1, 100)
    assert s0.counters()[0] == 100


def test_seeds_outside_64_bits_are_refused_not_aliased():
    # -1 would alias 2^64 - 1, and 2^70 would alias 0
    assert draws(one_lane(2 ** 64 - 1), 3) != draws(one_lane(0), 3)
    for seed in (-1, 2 ** 64, 2 ** 70):
        with pytest.raises(OverflowError):
            one_lane(seed)


def test_uniforms_at_fixed_counters_match_their_digest():
    # the words at counters 0-63 and at the top 64 below 2^63, streams 0-7
    # of three seeds (one past 2^63), as little-endian float64: a change to
    # the hash, the key derivation or the conversion changes the digest
    digest = hashlib.sha256()
    lanes = np.repeat(np.arange(8), 64)
    offsets = np.tile(np.arange(64, dtype=np.uint64), 8)
    for seed in (0, 1, 2 ** 63 + 5):
        bundle = StreamBundle(seed, np.arange(8, dtype=np.uint64))
        for base in (0, 2 ** 63 - 64):
            bundle.set_counter(base)
            u = bundle.uniforms_at(offsets, lanes)
            digest.update(u.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "c0da00d2c5be43dc03a8503f450d9d41b2e91883cb329fc911a7292a33e700bf")


def test_uniforms_at_a_column_of_offsets_equals_successive_draws():
    # offsets of shape (k, 1) broadcast against the lanes: row j is every
    # lane's word at its counter + j, the j-th of k one-at-a-time draws,
    # also for a lane whose k words end just below 2^63
    k, lanes = 64, np.arange(5)
    bundle = StreamBundle(17, lanes.astype(np.uint64))
    bundle.set_counter(2 ** 63 - k, np.array([1]))
    bundle.set_counter(12345, np.array([3]))
    ahead = bundle.uniforms_at(np.arange(k)[:, None])
    assert ahead.shape == (k, lanes.size)
    assert np.array_equal(ahead, [bundle.uniforms() for _ in range(k)])
    assert bundle.counters()[1] == 2 ** 63


def test_in_place_hash_equals_the_allocating_expression():
    # the splitmix64 hash and unit transform written as one allocating
    # expression per operation, on 10^5 random keys and counters
    u64 = np.uint64

    def mix(z):
        z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
        return z ^ (z >> u64(31))

    k1, k2, ctr = np.random.default_rng(8).integers(
        0, 2 ** 64, size=(3, 10 ** 5), dtype=np.uint64)
    word = mix(k1 ^ mix(ctr * u64(0x9E3779B97F4A7C15) + k2))
    unit = np.minimum((word >> u64(11)).astype(np.float64) * 0.5 ** 53
                      + 0.5 ** 54, 1.0 - 0.5 ** 53)
    fresh = ctr.copy()
    scratch = np.empty_like(fresh)
    assert np.array_equal(_raw(k1, k2, fresh, scratch), word)
    assert np.array_equal(_to_unit(fresh, scratch.view(np.float64)), unit)


def test_set_counter_takes_counters_below_two_to_the_63():
    bundle = StreamBundle(3, np.arange(2, dtype=np.uint64))
    bundle.set_counter(2 ** 63 - 1, np.array([1]))
    assert bundle.counters().tolist() == [0, 2 ** 63 - 1]
    for bad in (2 ** 63, -1):
        with pytest.raises(ValueError, match="outside"):
            bundle.set_counter(bad)
    assert bundle.counters().tolist() == [0, 2 ** 63 - 1]


def test_neighbouring_streams_are_uncorrelated():
    # streams i and i + 1 of one seed, 2^16 words each from counter 0:
    # under independence each correlation is about N(0, 1/n), so 4.5
    # standard deviations bound all 16 pairs with probability 1 - 1e-4
    n, ids = 2 ** 16, np.arange(17)
    bundle = StreamBundle(2024, ids.astype(np.uint64))
    u = bundle.uniforms_at(np.tile(np.arange(n, dtype=np.uint64), ids.size),
                           np.repeat(ids, n)).reshape(ids.size, n)
    r = [np.corrcoef(u[i], u[i + 1])[0, 1] for i in range(ids.size - 1)]
    assert np.max(np.abs(r)) < 4.5 / np.sqrt(n)


def test_consecutive_pairs_of_one_stream_fill_a_16x16_grid_evenly():
    # serial test: 2^18 disjoint pairs (u_2k, u_2k+1) of one stream in a
    # 16 x 16 grid, 1024 expected per cell; chi-square with 255 degrees of
    # freedom, both tails at 1e-6.  Streams near 0 and past 2^32, from
    # counter 0 and from the top of the counter range
    pairs = 2 ** 18
    lo, hi = chi2.ppf(1e-6, 255), chi2.isf(1e-6, 255)
    for stream_id, counter in ((0, 0), (1, 0), (2 ** 32 + 7, 0),
                               (5, 2 ** 63 - 2 * pairs)):
        bundle = one_lane(99, stream_id, counter)
        u = bundle.uniforms_at(np.arange(2 * pairs)).reshape(pairs, 2)
        cells = (u * 16).astype(int)
        counts = np.bincount(cells[:, 0] * 16 + cells[:, 1], minlength=256)
        expected = pairs / 256
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert lo < stat < hi, (stream_id, counter, stat)


def test_uniform_range_and_equidistribution_smoke():
    b = StreamBundle(2024, np.arange(4))
    draws = np.array([b.uniforms() for _ in range(50_000)])  # (n, 4)
    assert np.all(draws > 0.0) and np.all(draws < 1.0)
    # the two top words would round up to 1.0; the word below keeps its value
    top = _to_unit(np.array([0xFFFFFFFFFFFFF800, 0xFFFFFFFFFFFFFFFF,
                             0xFFFFFFFFFFFFF7FF], dtype=np.uint64),
                   np.empty(3))
    assert list(top) == [1.0 - 2.0 ** -53] * 2 + [1.0 - 2.0 ** -52]
    # per-stream first two moments
    assert np.allclose(draws.mean(axis=0), 0.5, atol=0.01)
    assert np.allclose(draws.var(axis=0), 1.0 / 12.0, atol=0.005)
    # cross-stream independence smoke: pairwise correlation and a joint
    # 8x8 occupancy test between streams 0 and 1
    c = np.corrcoef(draws.T)
    off = c[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 0.02)
    h, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=8,
                             range=[[0, 1], [0, 1]])
    expected = draws.shape[0] / 64.0
    chi2 = float(((h - expected) ** 2 / expected).sum())
    # 63 dof: mean 63, sd ~11.2; anything under 120 is unremarkable
    assert chi2 < 120.0


def test_streams_are_not_shifted_copies():
    # same seed, neighboring ids: no alignment of long subsequences
    b = StreamBundle(5, np.array([0, 1]))
    draws = np.array([b.uniforms() for _ in range(2000)])
    x0, x1 = draws[:, 0], draws[:, 1]
    for lag in range(0, 32):
        assert not np.array_equal(x0[lag:lag + 64], x1[:64])


def test_normal_moments():
    s = one_lane(77)
    z = np.array([s.normals()[0] for _ in range(30_000)])
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03
    assert abs((z ** 3).mean()) < 0.06


def test_poisson_zero_rate_and_domain():
    s = one_lane(3)
    assert s.poissons(np.array([0.0]))[0] == 0
    with pytest.raises(ValueError):
        s.poissons(np.array([-1.0]))
    with pytest.raises(ValueError):
        s.poissons(np.array([float("inf")]))


def test_poisson_mean_lambda_4():
    # CLT: 3 sigma of the mean of 1e5 draws at lam=4 is 0.019 < 0.05
    b = StreamBundle(101, np.arange(100))
    draws = np.concatenate([b.poissons(np.full(100, 4.0))
                            for _ in range(1000)])
    assert draws.shape[0] == 100_000
    assert abs(draws.mean() - 4.0) <= 0.05


def test_poisson_moments_of_split_rates():
    b = StreamBundle(55, np.arange(200))
    for lam in (700.0, 5000.0):  # two pieces, ten pieces
        draws = np.concatenate([b.poissons(np.full(200, lam))
                                for _ in range(50)])
        n = draws.shape[0]
        assert abs(draws.mean() - lam) < 4.0 * np.sqrt(lam / n) + 1.0
        assert abs(draws.var() / lam - 1.0) < 0.1


def test_bundle_matches_scalar_streams_bitwise():
    bundle = StreamBundle(31415, np.array([2, 5, 11]))
    block = np.array([bundle.uniforms() for _ in range(20)])
    for col, sid in enumerate((2, 5, 11)):
        assert np.array_equal(block[:, col], draws(one_lane(31415, sid), 20))


def test_partial_lane_consumption_keeps_purity():
    # consuming words of a subset of lanes must not disturb the others
    bundle = StreamBundle(8, np.array([0, 1]))
    bundle.advance(1, np.array([0]))  # lane 0 consumes one word
    u0, u1 = bundle.uniforms()        # lane 1 still at counter 0
    assert u1 == one_lane(8, 1).uniforms()[0]
    assert u0 == draws(one_lane(8, 0), 2)[1]


def test_random_access_by_offset():
    bundle = StreamBundle(123, np.array([4]))
    ahead = bundle.uniforms_at(np.array([3]))[0]
    seq = [bundle.uniforms()[0] for _ in range(4)]
    assert seq[3] == ahead


def test_taken_lanes_draw_as_in_place_and_put_back_their_counters():
    # draws on a take of some lanes equal those lanes' draws in place;
    # put writes the counters back and leaves the other lanes alone
    ids = np.array([3, 9, 14, 20], dtype=np.uint64)
    ref = StreamBundle(77, ids)
    bundle = StreamBundle(77, ids)
    start = 2 ** 63 - 5  # the draws below end at the top counter, 2^63 - 1
    ref.set_counter(start)
    bundle.set_counter(start)
    pick = np.array([1, 3])
    sub = bundle.take(pick)
    assert np.array_equal(sub.stream_ids, ids[pick])
    for _ in range(3):
        assert np.array_equal(sub.normals(), ref.normals()[pick])
    lam = np.array([0.0, 2.0, 0.0, 700.0])
    assert np.array_equal(sub.poissons(lam[pick]), ref.poissons(lam)[pick])
    assert np.array_equal(bundle.counters(), [start] * 4)
    assert np.array_equal(ref.counters(), [start + 4] * 3 + [start + 5])
    bundle.put(pick, sub)
    assert np.array_equal(bundle.counters(),
                          [start, start + 4, start, start + 5])
    with pytest.raises(ValueError):
        bundle.put(np.array([0, 1]), sub)


def test_poisson_all_lanes_equal_indexed_lanes_bitwise():
    # a bundle and a take of the same streams from a wider bundle give
    # the same counts and counters, with rates of one, two and up to a
    # hundred pieces
    small = np.concatenate([np.linspace(0.0, 3.0, 40), np.full(8, 0.02)])
    rates = np.concatenate([small, np.linspace(501.0, 999.0, 8),
                            np.linspace(1001.0, 5e4, 8)])
    for lam in (small, rates):
        n = lam.size
        whole = StreamBundle(19, np.arange(n))
        indexed = StreamBundle(19, np.arange(n + 7)).take(np.arange(n))
        for _ in range(5):
            assert np.array_equal(whole.poissons(lam), indexed.poissons(lam))
        assert np.array_equal(whole.counters(), indexed.counters())
    # one word per piece: one below 500, two up to 1000, ceil(lam / 500)
    pieces = np.maximum(np.ceil(rates / 500.0), 1.0)
    assert pieces[-1] == 100
    assert np.array_equal(whole.counters(), 5 * pieces)
    # a lane draws the same count whether or not larger rates share the call
    alone = StreamBundle(19, np.arange(small.size))
    mixed = StreamBundle(19, np.arange(rates.size))
    for _ in range(5):
        assert np.array_equal(alone.poissons(small),
                              mixed.poissons(rates)[:small.size])
    assert np.array_equal(alone.counters(), mixed.counters()[:small.size])


def test_a_block_of_poisson_rows_equals_one_call_per_row():
    # every lane meets rates of one to five pieces in some row order, so
    # a row's first word sits past the extra pieces of the rows before it
    rates = np.array([0.0, 2e-5, 3.0, 700.0, 2500.0])
    lam = np.tile([np.roll(rates, j) for j in range(5)], 4)
    for block_rates in (lam, rates[:, None]):
        block = StreamBundle(41, np.arange(20))
        rows = StreamBundle(41, np.arange(20))
        counts = block.poissons(block_rates)
        assert counts.shape == (5, 20)
        assert np.array_equal(counts, [rows.poissons(r) for r in block_rates])
        assert np.array_equal(block.counters(), rows.counters())
    # one word per piece: 1 + 1 + 1 + 2 + 5
    assert block.counters().tolist() == [10] * 20


def _poisson_search(lam, u, p0):
    """The textbook sequential search, one lane at a time, from
    P(0) = p0."""
    out = []
    for rate, v, p in zip(lam.tolist(), u.tolist(), p0.tolist()):
        n, cdf = 0, p
        while v > cdf:
            n += 1
            p *= rate / n
            cdf += p
        out.append(n)
    return out


def test_poisson_count_is_its_pieces_inverted_by_the_textbook_search():
    # a lane splits its rate into ceil(lam / 500) equal pieces (one at most
    # 500) and inverts each on its next word; lanes of 1 to 100 pieces
    # share the call, selected in any order, and the 100-piece lanes read
    # the top words below 2^63
    lam = np.array([1001.0, 5000.0, 5e4, 0.5, 700.0, 5e4, 1001.0, 0.0,
                    500.0, 5000.0])
    pieces = np.maximum(np.ceil(lam / 500.0), 1.0).astype(int)
    ids = np.arange(3, 31, 2, dtype=np.uint64)
    start = 2 ** 63 - 100
    for idx in (None, np.array([13, 2, 7, 0, 11, 5, 9, 3, 12, 6])):
        lanes = np.arange(lam.size) if idx is None else idx
        bundle = StreamBundle(808, ids if idx is not None else ids[:lam.size])
        bundle.set_counter(start)
        sub = bundle.take(lanes)
        counts = sub.poissons(lam)
        bundle.put(lanes, sub)
        counters = [start] * bundle.size
        for count, rate, m, i in zip(counts, lam, pieces, lanes):
            lane = StreamBundle(808, ids[i:i + 1])
            lane.set_counter(start)
            u = lane.uniforms_at(np.arange(m, dtype=np.uint64))
            piece = np.full(m, rate / m)
            assert count == sum(_poisson_search(piece, u, np.exp(-piece)))
            counters[i] += int(m)
        assert bundle.counters().tolist() == counters


def test_poisson_inversion_equals_the_textbook_search():
    from nlbranch.numerics.rng import _poisson_inversion
    gen = np.random.default_rng(2024)
    lam = np.exp(gen.uniform(np.log(1e-4), np.log(500.0), 20_000))
    u = gen.uniform(size=lam.size)
    assert _poisson_inversion(lam, u).tolist() \
        == _poisson_search(lam, u, np.exp(-lam))


def test_poisson_count_in_the_rounding_gap_below_one():
    # at the top uniforms the cumulative sum stalls below u; the search
    # ends at the last count that grew it, whatever the block's largest rate
    from nlbranch.numerics.rng import _poisson_inversion
    top = np.array([1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52])
    assert _poisson_inversion(np.full(2, 0.1), top).tolist() == [9, 9]
    for lam in (1e-4, 0.1, 3.0, 60.0, 499.0):
        alone = _poisson_inversion(np.full(2, lam), top)
        beside = _poisson_inversion(np.array([lam, lam, 499.0]),
                                    np.array([*top, 0.5]))
        assert alone.tolist() == beside[:2].tolist()
        assert (alone > lam).all()


def test_poisson_search_raises_at_its_bound(monkeypatch):
    # the count at u = 0.999 and rate 100 is about 131, past a bound of
    # 100 + 25 terms
    from nlbranch.numerics import rng
    monkeypatch.setattr(rng, "_POISSON_SEARCH_SD", 0.0)
    with pytest.raises(RuntimeError, match="Poisson search reached 125"):
        rng._poisson_inversion(np.array([100.0, 1.0]), np.array([0.999, 0.5]))
