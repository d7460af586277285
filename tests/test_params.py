"""Parameter validation, request vectors, subset masks, serialization."""
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from mdscache.params import (CacheContents, ParamError, RequestVector,
                             SubfilePartition, SystemParams, as_fraction,
                             fraction_str, mask_users, require_valid, subset_mask,
                             subset_masks, suggest_feasible_f, validate)


def make(n=2, kp=3, k=3, m=1, r=2, f=64) -> SystemParams:
    return SystemParams(n_files=n, k_prime=kp, k=k,
                        m=as_fraction(m), r=as_fraction(r), f=f)


def test_as_fraction_accepts_common_spellings():
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction("1.25") == Fraction(5, 4)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(7, 3)) == Fraction(7, 3)


def test_fraction_str():
    assert fraction_str(Fraction(3, 2)) == "3/2"
    assert fraction_str(Fraction(4, 2)) == "2"


def test_valid_point_passes():
    assert validate(make()) == []
    require_valid(make())


def test_q_and_derived_lengths():
    p = make()
    assert p.q == Fraction(1, 4)
    assert p.coded_len == 128
    assert p.cached_per_file == 32


@pytest.mark.parametrize("kwargs,needle", [
    (dict(n=0), "n_files"),
    (dict(k=0), "1 <= k"),
    (dict(kp=2, k=3), "k_prime"),
    (dict(m=3), "cache budget"),
    (dict(m=-1), "cache budget"),
    (dict(r="1/2"), "expansion"),
    (dict(f=0), "f must be"),
])
def test_invalid_points_name_the_problem(kwargs, needle):
    problems = validate(make(**kwargs))
    assert problems, f"expected a problem for {kwargs}"
    assert any(needle in p for p in problems), problems


def test_expansion_below_cache_pressure_rejected():
    # caching m/n of each file needs the coded file to be at least that long
    p = SystemParams(n_files=4, k_prime=2, k=2, m=as_fraction(3),
                     r=as_fraction("1/2"), f=16)
    assert validate(p)


def test_non_integer_coded_length_rejected_with_suggestion():
    p = make(r="3/2", f=5)  # 7.5 coded symbols
    problems = validate(p)
    assert any("smallest feasible f" in msg for msg in problems)
    with pytest.raises(ParamError):
        require_valid(p)


def test_non_integer_cache_size_rejected():
    p = make(n=3, m=1, r=1, f=10)  # 10/3 cached symbols per file
    assert validate(p)
    assert validate(make(n=3, m=1, r=1, f=9)) == []


def test_suggest_feasible_f():
    assert suggest_feasible_f(3, Fraction(1), Fraction(3, 2), 1) == 6
    assert suggest_feasible_f(2, Fraction(1), Fraction(2), 7) == 8
    assert suggest_feasible_f(2, Fraction(1), Fraction(2), 8) == 8
    for n, m, r in [(3, Fraction(1), Fraction(3, 2)), (5, Fraction(7, 2), Fraction(9, 4))]:
        f = suggest_feasible_f(n, m, r, 1)
        p = SystemParams(n_files=n, k_prime=2, k=2, m=m, r=r, f=f)
        assert validate(p) == []


def test_params_json_roundtrip():
    p = make(m="3/2", r="5/2", f=80)
    assert SystemParams.from_json(p.to_json()) == p


def test_coded_len_raises_when_infeasible():
    p = make(r="3/2", f=5)
    with pytest.raises(ParamError):
        p.coded_len


def test_request_vector_basics():
    p = make()
    d = RequestVector((1, 2, 1))
    d.validate_for(p)
    assert d.zero_based == (0, 1, 0)
    assert d.n_distinct == 2
    with pytest.raises(ParamError):
        RequestVector((1, 2)).validate_for(p)  # wrong length
    with pytest.raises(ParamError):
        RequestVector((0, 1, 1)).validate_for(p)  # ids are 1-based
    with pytest.raises(ParamError):
        RequestVector((1, 3, 1)).validate_for(p)  # beyond the library


def test_worst_case_round_robin():
    p = make(n=3, kp=5, k=5, m=1, r=1, f=3)
    assert RequestVector.worst_case(p).files == (1, 2, 3, 1, 2)
    p2 = make(n=10, kp=2, k=2, m=1, r=1, f=10)
    assert RequestVector.worst_case(p2).files == (1, 2)


def test_subset_masks():
    assert subset_mask([0, 2]) == 0b101
    assert mask_users(0b1011) == (0, 1, 3)
    masks = subset_masks(4, 2).tolist()
    assert len(masks) == 6
    assert masks == sorted(masks)
    assert all(bin(m).count("1") == 2 for m in masks)
    assert subset_masks(3, 0).tolist() == [0]


def test_subset_masks_at_k16():
    # the largest k delivery admits: every mask once, each size ascending
    tables = [subset_masks(16, j) for j in range(17)]
    assert sum(t.size for t in tables) == 1 << 16
    assert np.array_equal(np.sort(np.concatenate(tables)), np.arange(1 << 16))
    for j, table in enumerate(tables):
        assert table.size == comb(16, j)
        assert np.all(np.diff(table) > 0)
        assert all(m.bit_count() == j for m in table.tolist())
    assert not tables[3].flags.writeable


def test_cache_contents_equality_and_json():
    idx = {(0, 0): np.array([1, 5, 9], dtype=np.int64),
           (0, 1): np.array([0, 2], dtype=np.int64)}
    c1 = CacheContents(1, 2, 12, idx)
    c2 = CacheContents.from_json(c1.to_json())
    assert c1 == c2
    idx2 = {k: v.copy() for k, v in idx.items()}
    idx2[(0, 0)] = np.array([1, 5, 10], dtype=np.int64)
    assert c1 != CacheContents(1, 2, 12, idx2)


def test_cache_mask_matches_indices():
    idx = {(0, 0): np.array([3, 7], dtype=np.int64)}
    c = CacheContents(1, 1, 8, idx)
    mask = c.mask(0, 0)
    assert mask.dtype == bool and mask.sum() == 2
    assert np.array_equal(np.flatnonzero(mask), [3, 7])


def partition_of(coded_len, blocks) -> SubfilePartition:
    masks = sorted(blocks)
    sizes = [len(blocks[m]) for m in masks]
    return SubfilePartition(file=0, coded_len=coded_len,
                            order=np.array([i for m in masks for i in blocks[m]], dtype=np.int64),
                            masks=np.array(masks, dtype=np.int64),
                            starts=np.cumsum([0] + sizes))


def test_partition_check_catches_overlap_and_gap():
    good = partition_of(4, {0: [0, 1], 1: [2, 3]})
    good.check()
    assert good.block(1).tolist() == [2, 3]
    overlap = partition_of(4, {0: [0, 1], 1: [1, 2, 3]})
    with pytest.raises(AssertionError):
        overlap.check()
    gap = partition_of(4, {0: [0, 1], 1: [3]})
    with pytest.raises(AssertionError):
        gap.check()


def test_partition_block_default_empty():
    part = partition_of(4, {})
    assert len(part.block(0b11)) == 0
    part = partition_of(4, {0b01: [0, 2], 0b10: [1, 3]})
    assert len(part.block(0b11)) == 0 and len(part.block(0)) == 0
