import numpy as np
import pytest

from nlbranch.numerics import RngStream, StreamBundle
from nlbranch.numerics.rng import _to_unit


def test_same_seed_same_stream_identical_sequences():
    a = RngStream(1234, stream_id=7)
    b = RngStream(1234, stream_id=7)
    seq_a = [a.next_uniform() for _ in range(200)]
    seq_b = [b.next_uniform() for _ in range(200)]
    assert seq_a == seq_b


def test_output_is_pure_function_of_counter():
    s = RngStream(42, stream_id=3)
    first = [s.next_uniform() for _ in range(50)]
    replay = RngStream(42, stream_id=3, counter=10)
    assert [replay.next_uniform() for _ in range(40)] == first[10:]
    # one vector draw equals the scalar draws bit for bit
    vector = RngStream(42, stream_id=3, counter=10)
    assert np.array_equal(vector.uniforms(40), first[10:])
    assert vector.counter == 50


def test_distinct_streams_differ_and_counter_advances():
    s0 = RngStream(9, stream_id=0)
    s1 = RngStream(9, stream_id=1)
    x0 = [s0.next_uniform() for _ in range(100)]
    x1 = [s1.next_uniform() for _ in range(100)]
    assert x0 != x1
    assert s0.counter == 100


def test_uniform_range_and_equidistribution_smoke():
    b = StreamBundle(2024, np.arange(4))
    draws = np.array([b.uniforms() for _ in range(50_000)])  # (n, 4)
    assert np.all(draws > 0.0) and np.all(draws < 1.0)
    # the two top words would round up to 1.0; the word below keeps its value
    top = _to_unit(np.array([0xFFFFFFFFFFFFF800, 0xFFFFFFFFFFFFFFFF,
                             0xFFFFFFFFFFFFF7FF], dtype=np.uint64))
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
    s = RngStream(77)
    z = np.array([s.next_normal() for _ in range(30_000)])
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03
    assert abs((z ** 3).mean()) < 0.06


def test_poisson_zero_rate_and_domain():
    s = RngStream(3)
    assert s.next_poisson(0.0) == 0
    with pytest.raises(ValueError):
        s.next_poisson(-1.0)
    with pytest.raises(ValueError):
        s.next_poisson(float("inf"))


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
        s = RngStream(31415, stream_id=sid)
        vals = np.array([s.next_uniform() for _ in range(20)])
        assert np.array_equal(block[:, col], vals)


def test_partial_lane_consumption_keeps_purity():
    # drawing for a subset of lanes must not disturb the others
    bundle = StreamBundle(8, np.array([0, 1]))
    bundle.uniforms(idx=np.array([0]))          # lane 0 consumes one word
    u1 = bundle.uniforms(idx=np.array([1]))[0]  # lane 1 still at counter 0
    assert u1 == RngStream(8, stream_id=1).next_uniform()


def test_random_access_by_offset():
    bundle = StreamBundle(123, np.array([4]))
    ahead = bundle.uniforms_at(np.array([3]))[0]
    seq = [bundle.uniforms()[0] for _ in range(4)]
    assert seq[3] == ahead


def test_taken_lanes_draw_as_in_place_and_put_back_their_counters():
    # draws on a take of some lanes equal draws on those lanes in place;
    # put writes the counters back and leaves the other lanes alone
    ids = np.array([3, 9, 14, 20], dtype=np.uint64)
    ref = StreamBundle(77, ids)
    bundle = StreamBundle(77, ids)
    start = 2 ** 64 - 2  # the draws below carry into the high word
    ref.set_counter(start)
    bundle.set_counter(start)
    pick = np.array([1, 3])
    sub = bundle.take(pick)
    assert np.array_equal(sub.stream_ids, ids[pick])
    for _ in range(3):
        assert np.array_equal(sub.normals(), ref.normals(pick))
    assert np.array_equal(sub.poissons(np.array([2.0, 700.0])),
                          ref.poissons(np.array([2.0, 700.0]), pick))
    assert np.array_equal(bundle.counters(), [start] * 4)
    assert np.array_equal(ref.counters(), [start, start + 4, start, start + 5])
    bundle.put(pick, sub)
    assert np.array_equal(bundle.counters(), ref.counters())
    with pytest.raises(ValueError):
        bundle.put(np.array([0, 1]), sub)


def test_poisson_all_lanes_equal_indexed_lanes_bitwise():
    # idx=None and the same lanes by index give the same counts and
    # counters, with rates of one, two and up to a hundred pieces
    small = np.concatenate([np.linspace(0.0, 3.0, 40), np.full(8, 0.02)])
    rates = np.concatenate([small, np.linspace(501.0, 999.0, 8),
                            np.linspace(1001.0, 5e4, 8)])
    for lam in (small, rates):
        n = lam.size
        whole, indexed = (StreamBundle(19, np.arange(n)) for _ in range(2))
        for _ in range(5):
            assert np.array_equal(whole.poissons(lam),
                                  indexed.poissons(lam, np.arange(n)))
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
    # share the call, selected in any order, and the counters carry into
    # the high word
    lam = np.array([1001.0, 5000.0, 5e4, 0.5, 700.0, 5e4, 1001.0, 0.0,
                    500.0, 5000.0])
    pieces = np.maximum(np.ceil(lam / 500.0), 1.0).astype(int)
    ids = np.arange(3, 31, 2, dtype=np.uint64)
    start = 2 ** 64 - 30
    for idx in (None, np.array([13, 2, 7, 0, 11, 5, 9, 3, 12, 6])):
        lanes = np.arange(lam.size) if idx is None else idx
        bundle = StreamBundle(808, ids if idx is not None else ids[:lam.size])
        bundle.set_counter(start)
        counts = bundle.poissons(lam, idx)
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
