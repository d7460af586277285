"""Cache filling: exact budgets, determinism, uniformity, block statistics."""
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from mdscache.params import SystemParams, subset_mask
from mdscache.placement import (derive_seed, expected_subfile_size, keyed_u64,
                                partition_subfiles, prefetch,
                                sample_without_replacement, splitmix64)


def make(n=2, kp=3, k=3, m=1, r=2, f=64) -> SystemParams:
    return SystemParams(n_files=n, k_prime=kp, k=k,
                        m=Fraction(m), r=Fraction(r), f=f)


def test_splitmix64_reference_vectors():
    # the first two outputs of the reference stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert splitmix64(1) != splitmix64(2)
    # elementwise on uint64 arrays, bit-identical to the scalar function
    got = splitmix64(np.array([0, 0x9E3779B97F4A7C15], dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 2)
    assert derive_seed(5, 7, 9) == derive_seed(5, 7, 9)


def test_sample_without_replacement_is_a_uniform_subset():
    # all C(5,2)=10 subsets should appear equally often
    trials = 20000
    counts: dict[tuple, int] = {}
    for t in range(trials):
        picked = sample_without_replacement(derive_seed(4, t), 5, 2)
        key = tuple(picked.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 10
    p = 1 / 10
    se = (trials * p * (1 - p)) ** 0.5
    for key, cnt in counts.items():
        assert abs(cnt - trials * p) < 4 * se, (key, cnt)


def test_sample_edge_sizes():
    assert sample_without_replacement(1, 6, 0).tolist() == []
    assert sample_without_replacement(1, 6, 6).tolist() == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        sample_without_replacement(1, 3, 4)
    with pytest.raises(ValueError):
        sample_without_replacement(1, 3, -1)
    # seeds are taken modulo 2^64
    assert np.array_equal(sample_without_replacement(-1, 9, 4),
                          sample_without_replacement(2**64 - 1, 9, 4))


def test_sample_matches_full_sort_reference():
    # the m positions with the smallest keys, found by sorting every key
    rng = np.random.default_rng(17)
    for _ in range(200):
        seed = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, n + 1))
        want = np.sort(np.argsort(keyed_u64(seed, n))[:m])
        got = sample_without_replacement(seed, n, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (seed, n, m)


def test_prefetch_exact_budget_and_range():
    p = make()
    cache = prefetch(p, 7)
    for u in range(p.k_prime):
        for fl in range(p.n_files):
            idx = cache.indices(u, fl)
            assert len(idx) == p.cached_per_file
            assert len(np.unique(idx)) == len(idx)
            assert idx.min() >= 0 and idx.max() < p.coded_len
            assert np.array_equal(idx, np.sort(idx))


def test_prefetch_deterministic_and_seed_sensitive():
    p = make()
    assert prefetch(p, 3) == prefetch(p, 3)
    assert prefetch(p, 3) != prefetch(p, 4)


def test_prefetch_schedule_independent():
    # user 0's cache depends only on (seed, user, file), not on k_prime
    big = prefetch(make(kp=5, k=5), 11)
    small = prefetch(make(kp=1, k=1), 11)
    for fl in range(2):
        assert np.array_equal(big.indices(0, fl), small.indices(0, fl))


def test_full_and_empty_cache_budgets():
    full = make(n=2, m=2, f=64)
    cache = prefetch(full, 0)
    assert len(cache.indices(0, 0)) == full.f
    empty = make(n=2, m=0, f=64)
    cache = prefetch(empty, 0)
    assert len(cache.indices(0, 0)) == 0


def test_inclusion_probability_matches_q():
    # every coded symbol is cached with probability m/(r n) = q
    p = make(n=2, kp=1, k=1, m=1, r=2, f=40)  # q = 1/4, 20 of 80 symbols
    trials = 2000
    hits = 0
    for t in range(trials):
        cache = prefetch(p, derive_seed(8, t))
        hits += 17 in cache.indices(0, 0)
    q = float(p.q)
    se = (trials * q * (1 - q)) ** 0.5
    assert abs(hits - trials * q) < 4 * se


def test_partition_disjoint_cover_random_placements():
    p = make(n=2, kp=4, k=4, m=1, r=2, f=32)
    for t in range(100):
        cache = prefetch(p, derive_seed(13, t))
        part = partition_subfiles(cache, range(p.k), 0, p)
        blocks = list(part.blocks.values())
        # every coded index lies in exactly one block
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(p.coded_len))


@pytest.mark.parametrize("active", [range(5), [1, 3, 4]])
def test_partition_blocks_ascending_and_exact(active):
    # the stable sort by subset key is what keeps each block ascending
    p = make(n=2, kp=5, k=5, m=1, r=2, f=48)
    active = list(active)
    for t in range(20):
        cache = prefetch(p, derive_seed(19, t))
        for nf in range(p.n_files):
            part = partition_subfiles(cache, active, nf, p)
            keys = np.zeros(p.coded_len, dtype=np.int64)
            for bit, user in enumerate(active):
                keys[cache.indices(user, nf)] |= 1 << bit
            nonempty = 0
            for mask in range(1 << len(active)):
                block = part.block(mask)
                assert np.all(np.diff(block) > 0)
                assert np.array_equal(block, np.flatnonzero(keys == mask))
                nonempty += block.size > 0
            assert len(part.blocks) == nonempty


@pytest.mark.parametrize("n_active", [8, 9, 16, 20])
def test_partition_narrow_keys_equal_int64_keys(n_active):
    # keys are stored in uint8, uint16 or uint32 at these sizes; q = 3/4 makes the
    # all-ones mask, the largest key of each type, a nonempty block
    p = make(n=4, kp=20, k=20, m=3, r=1, f=4000)
    active = np.random.default_rng(n_active).permutation(20)[:n_active].tolist()
    for t in range(2):
        cache = prefetch(p, derive_seed(41, t))
        for nf in (0, 3):
            keys = np.zeros(p.coded_len, dtype=np.int64)
            for bit, user in enumerate(active):
                keys[cache.indices(user, nf)] |= 1 << bit
            order = np.argsort(keys, kind="stable")
            firsts = np.flatnonzero(np.diff(keys[order], prepend=-1))
            part = partition_subfiles(cache, active, nf, p)
            assert part.masks.dtype == np.int64
            assert np.array_equal(part.order, order)
            assert np.array_equal(part.masks, keys[order][firsts])
            assert np.array_equal(part.starts, np.append(firsts, p.coded_len))
            assert part.masks[-1] == (1 << n_active) - 1


def test_partition_blocks_match_masks():
    p = make(n=2, kp=3, k=3, m=1, r=2, f=32)
    cache = prefetch(p, 21)
    part = partition_subfiles(cache, range(3), 1, p)
    for mask, block in part.blocks.items():
        for u in range(3):
            cached = np.isin(block, cache.indices(u, 1))
            if mask >> u & 1:
                assert cached.all()
            else:
                assert not cached.any()


def test_partition_respects_active_subset():
    # only the listed users define the blocks; bit i = active[i]
    p = make(n=2, kp=4, k=4, m=1, r=2, f=32)
    cache = prefetch(p, 5)
    part = partition_subfiles(cache, [1, 3], 0, p)
    exclusive = part.block(0b01)  # cached by user 1, not by user 3
    assert np.isin(exclusive, cache.indices(1, 0)).all()
    assert not np.isin(exclusive, cache.indices(3, 0)).any()


def test_expected_subfile_size_table():
    # q = 1/4: sizes r*f * q^t (1-q)^(3-t) for t = 0..3
    p = make(f=32)
    want = {0: Fraction(27, 32), 1: Fraction(9, 32), 2: Fraction(3, 32),
            3: Fraction(1, 32)}
    for t, frac in want.items():
        assert expected_subfile_size(p, t) == frac * p.f
    # sizes over all subsets account for every coded symbol
    assert sum(expected_subfile_size(p, t) * comb(3, t) for t in range(4)) == p.coded_len


def test_expected_subfile_size_matches_measured_blocks():
    p = make(n=2, kp=3, k=3, m=1, r=2, f=10000)
    t_size = 1
    want = float(expected_subfile_size(p, t_size))
    sizes = []
    for t in range(16):
        cache = prefetch(p, derive_seed(30, t))
        part = partition_subfiles(cache, range(3), 0, p)
        for users in [(0,), (1,), (2,)]:
            sizes.append(len(part.block(subset_mask(users))))
    mean = sum(sizes) / len(sizes)
    assert abs(mean - want) / want < 0.02
