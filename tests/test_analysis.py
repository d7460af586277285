"""Closed-form rates against hand-expanded values and structural identities."""
import random
from fractions import Fraction

import pytest

from mdscache.analysis import (accumulated_share, best_r, comb0, rate_mds_dec,
                               rate_uncoded_cen, rate_uncoded_dec, stop_index)


def test_comb0_out_of_range_is_zero():
    assert comb0(5, 2) == 10
    assert comb0(3, 5) == 0
    assert comb0(-1, 0) == 0
    assert comb0(4, -2) == 0
    assert comb0(0, 0) == 1


def test_accumulated_share_hand_expansion():
    # n=2, m=1, k=3, r=2: q = 1/4
    # share(3) = 1/2 + 2 * (1/4)^2 * (3/4) * C(2,2) = 1/2 + 3/32 = 19/32
    assert accumulated_share(3, 2, 1, 3, 2) == Fraction(19, 32)
    # share(2) adds 2 * (1/4) * (3/4)^2 * C(2,1) = 2*9/64*... = 9/16
    assert accumulated_share(2, 2, 1, 3, 2) == Fraction(19, 32) + Fraction(9, 16)
    assert accumulated_share(2, 2, 1, 3, 2) == Fraction(37, 32)
    # the empty tail is just the cached share
    assert accumulated_share(4, 2, 1, 3, 2) == Fraction(1, 2)


def test_accumulated_share_full_sum_is_r():
    # running the loop over every subset size recovers the whole coded file
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 10)
        k = rng.randint(1, 8)
        m = Fraction(rng.randint(0, 3 * n), 3)
        r = Fraction(rng.randint(4, 12), 4)
        if r < Fraction(m, n):
            continue
        assert accumulated_share(1, n, m, k, r) == r


def test_accumulated_share_argument_validation():
    with pytest.raises(ValueError):
        accumulated_share(0, 2, 1, 3, 2)
    with pytest.raises(ValueError):
        accumulated_share(5, 2, 1, 3, 2)  # beyond k+1


def test_stop_index_examples():
    assert stop_index(2, 1, 3, 2) == 2       # share(3) = 19/32 < 1 <= 37/32
    assert stop_index(2, 1, 2, 1) == 1
    assert stop_index(2, 2, 3, 2) == 4       # full caches: sentinel k+1
    assert stop_index(2, 0, 3, 2) == 1


def test_stop_index_brackets_one():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 12)
        k = rng.randint(1, 9)
        m = Fraction(rng.randint(0, 4 * n), 4)
        r = Fraction(rng.randint(4, 16), 4)
        if r < Fraction(m, n):
            continue
        s = stop_index(n, m, k, r)
        if m == n:
            assert s == k + 1
            continue
        assert 1 <= s <= k
        assert accumulated_share(s, n, m, k, r) >= 1
        if s < k:
            assert accumulated_share(s + 1, n, m, k, r) < 1


def test_golden_rates_small_library():
    assert rate_mds_dec(2, 1, 2, 1) == Fraction(3, 4)
    assert rate_mds_dec(2, 1, 2, 2) == Fraction(5, 8)
    assert rate_mds_dec(2, 1, 2, 3) == Fraction(7, 12)
    assert rate_mds_dec(2, 1, 2, 4) == Fraction(9, 16)
    assert rate_mds_dec(2, 1, 3, 2) == Fraction(45, 64)
    assert rate_mds_dec(2, 1, 3, Fraction(3, 2)) == Fraction(25, 36)


def test_two_user_rate_closed_form_in_r():
    # n=2, m=1, k=2: rate = 1/2 + 1/(4r)
    for r in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(10), Fraction(1000)):
        assert rate_mds_dec(2, 1, 2, r) == Fraction(1, 2) + 1 / (4 * r)


def test_rate_more_expansion_can_help_and_hurt():
    # at n=2, m=1, k=3 the best expansion is interior: r=3/2 beats both
    assert rate_mds_dec(2, 1, 3, Fraction(3, 2)) < rate_mds_dec(2, 1, 3, 1)
    assert rate_mds_dec(2, 1, 3, Fraction(3, 2)) < rate_mds_dec(2, 1, 3, 2)


def test_rate_endpoints():
    assert rate_mds_dec(4, 0, 6, 2) == 4      # no caches: send min(n, k) files
    assert rate_mds_dec(4, 0, 3, 2) == 3
    assert rate_mds_dec(4, 4, 6, 2) == 0      # full caches
    assert rate_mds_dec(5, 2, 1, 2) == Fraction(3, 5)  # single user: 1 - m/n


def test_rate_r_one_equals_uncoded_decentralized():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 20)
        k = rng.randint(1, 10)
        m = Fraction(rng.randint(0, 2 * n), 2)
        assert rate_mds_dec(n, m, k, 1) == rate_uncoded_dec(n, m, k)


def test_rate_distinct_files_variant():
    # fewer distinct requests can only lower the load
    full = rate_mds_dec(4, 1, 4, 2, n_distinct=4)
    assert rate_mds_dec(4, 1, 4, 2) == full
    prev = full
    for nd in (3, 2, 1):
        cur = rate_mds_dec(4, 1, 4, 2, n_distinct=nd)
        assert cur < prev
        prev = cur
    with pytest.raises(ValueError):
        rate_mds_dec(4, 1, 4, 2, n_distinct=5)
    with pytest.raises(ValueError):
        rate_mds_dec(4, 1, 4, 2, n_distinct=0)


def test_rate_without_reconstruction_counts_every_fallback_subset():
    # k = 4, two leaders: the leaderless pair {3, 4} is sent as well
    assert rate_mds_dec(2, 1, 4, 2) == Fraction(287, 384)
    assert rate_mds_dec(2, 1, 4, 2, reconstruct=False) == Fraction(107, 128)
    assert rate_mds_dec(3, 1, 6, 2, reconstruct=False) == Fraction(4787, 2916)
    # at k = 3 every subset of size >= 2 holds one of the two leaders
    assert rate_mds_dec(2, 1, 3, 2, reconstruct=False) == Fraction(45, 64)
    rng = random.Random(3)
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 8)
        m = Fraction(rng.randint(0, 2 * n), 2)
        r = max(Fraction(1), m / n) + Fraction(rng.randint(0, 6), 2)
        nd = rng.randint(1, min(n, k))
        leader_only = rate_mds_dec(n, m, k, r, n_distinct=nd)
        every = rate_mds_dec(n, m, k, r, n_distinct=nd, reconstruct=False)
        if k <= nd + 1:  # no leaderless subset of size >= 2
            assert every == leader_only, (n, m, k, r, nd)
        else:
            assert every >= leader_only, (n, m, k, r, nd)


def test_uncoded_decentralized_formula():
    # (n-m)/m * (1 - ((n-m)/n)^j) with j = min(n, k)
    assert rate_uncoded_dec(2, 1, 2) == Fraction(3, 4)
    assert rate_uncoded_dec(2, 1, 3) == Fraction(3, 4)  # j caps at n
    assert rate_uncoded_dec(4, 0, 3) == 3
    assert rate_uncoded_dec(4, 4, 3) == 0


def test_uncoded_centralized_integer_points_and_interpolation():
    assert rate_uncoded_cen(20, 5, 4) == Fraction(3, 2)  # t = 1 exactly
    # between t=1 (rate 3/2) and t=2 (rate hand-checked below)
    t2 = Fraction(comb0(4, 3) - comb0(0, 3), comb0(4, 2))
    assert rate_uncoded_cen(20, 10, 4) == t2
    mid = rate_uncoded_cen(20, Fraction(15, 2), 4)
    assert mid == (Fraction(3, 2) + t2) / 2
    assert rate_uncoded_cen(20, 0, 4) == 4
    assert rate_uncoded_cen(20, 20, 4) == 0


def test_uncoded_centralized_between_neighbors():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 15)
        k = rng.randint(1, 8)
        m = Fraction(rng.randint(0, 6 * n), 6)
        lo = rate_uncoded_cen(n, Fraction((k * m // n) * n, k), k) if m < n else Fraction(0)
        rate = rate_uncoded_cen(n, m, k)
        assert rate <= lo


def test_centralized_beats_decentralized():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 15)
        k = rng.randint(2, 8)
        m = Fraction(rng.randint(1, 2 * n), 2)
        if m > n:
            continue
        assert rate_uncoded_cen(n, m, k) <= rate_uncoded_dec(n, m, k)


def test_coded_prefetch_never_worse_than_uncoded_on_grid():
    # r >= 1 includes r = 1, so the grid minimum cannot exceed the uncoded rate
    grid = [Fraction(x, 4) for x in range(4, 41)]
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 12)
        k = rng.randint(2, 6)
        m = Fraction(rng.randint(1, 2 * n - 1), 2)
        r, rate = best_r(n, m, k, grid)
        assert rate <= rate_uncoded_dec(n, m, k)


def test_best_r_ties_break_small():
    # constant grid section: full caches give rate 0 for every r
    r, rate = best_r(2, 2, 3, [1, 2, 3])
    assert (r, rate) == (Fraction(1), Fraction(0))


def test_best_r_interior_example():
    grid = [Fraction(n, 4) for n in range(4, 41)]  # 1 .. 10 step 1/4
    r, rate = best_r(20, 12, 4, grid)
    assert Fraction(5, 4) <= r <= Fraction(2)
    assert rate == min(rate_mds_dec(20, 12, 4, g) for g in grid)


def test_argument_validation():
    with pytest.raises(ValueError):
        rate_mds_dec(0, 0, 2, 1)
    with pytest.raises(ValueError):
        rate_mds_dec(2, 3, 2, 2)  # m > n
    with pytest.raises(ValueError):
        rate_mds_dec(2, 1, 0, 1)
    with pytest.raises(ValueError):
        rate_mds_dec(2, 1, 2, Fraction(1, 2))  # r < 1
    with pytest.raises(ValueError):
        best_r(2, 1, 2, [])
