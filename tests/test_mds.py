"""Codec behavior: any f of n symbols reconstruct the data, none fewer."""
import hashlib
import itertools
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdscache import mds
from mdscache.gf import field
from mdscache.mds import (CodecConfig, InsufficientSymbolsError,
                          generator_matrix, mds_decode, mds_encode)
from mdscache.simulate import pseudo_symbols


def naive_eval(gf, xs, ys, t):
    """Schoolbook Lagrange evaluation, the oracle for the fast interpolator."""
    total = 0
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = gf.mul(num, t ^ xj)
            den = gf.mul(den, xi ^ xj)
        total ^= gf.mul(ys[i], gf.div(num, den))
    return total


def test_encode_matches_naive_lagrange():
    config = CodecConfig(5, 12)
    gf = config.gf
    rng = np.random.default_rng(0)
    data = rng.integers(0, gf.order, size=5).astype(np.int64)
    coded = mds_encode(data, config)
    assert np.array_equal(coded[:5], data)  # systematic prefix
    xs = list(range(5))
    for t in range(5, 12):
        assert coded[t] == naive_eval(gf, xs, data.tolist(), t)


def test_frozen_golden_codeword():
    # computed once with the naive oracle; same in both field widths because
    # every intermediate product stays below the reduction threshold
    data = np.array([1, 2, 3, 4], dtype=np.int64)
    want = [1, 2, 3, 4, 69, 94, 103, 120]
    assert mds_encode(data, CodecConfig(4, 8)).tolist() == want
    assert mds_encode(data, CodecConfig(4, 8, field_width=8)).tolist() == want


def test_every_4_of_8_subset_decodes():
    config = CodecConfig(4, 8)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 65536, size=4).astype(np.int64)
    coded = mds_encode(data, config)
    for subset in itertools.combinations(range(8), 4):
        got = mds_decode([(i, int(coded[i])) for i in subset], config)
        assert np.array_equal(got, data), f"subset {subset} failed"


@pytest.mark.parametrize("f,n", [(16, 32), (16, 24), (64, 128), (10, 15)])
def test_random_roundtrips(f, n):
    config = CodecConfig(f, n)
    rng = np.random.default_rng(f * 1000 + n)
    for _ in range(20):
        data = rng.integers(0, 65536, size=f).astype(np.int64)
        coded = mds_encode(data, config)
        keep = rng.permutation(n)[:f]
        got = mds_decode([(int(i), int(coded[i])) for i in keep], config)
        assert np.array_equal(got, data)


def test_too_few_symbols_raises():
    config = CodecConfig(4, 8)
    data = np.array([9, 8, 7, 6], dtype=np.int64)
    coded = mds_encode(data, config)
    with pytest.raises(InsufficientSymbolsError):
        mds_decode([(i, int(coded[i])) for i in range(3)], config)
    # duplicates of one index do not count twice
    with pytest.raises(InsufficientSymbolsError):
        mds_decode([(0, int(coded[0]))] * 4 + [(1, int(coded[1]))], config)


def test_conflicting_duplicate_values_rejected():
    config = CodecConfig(4, 8)
    points = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 99)]
    with pytest.raises(ValueError, match="conflict"):
        mds_decode(points, config)


def test_decode_prefers_systematic_symbols():
    config = CodecConfig(4, 8)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 65536, size=4).astype(np.int64)
    coded = mds_encode(data, config)
    # all 8 available: result must still be exact
    got = mds_decode([(i, int(coded[i])) for i in range(8)], config)
    assert np.array_equal(got, data)


def test_r_equal_one_is_passthrough():
    config = CodecConfig.from_expansion(16, 1)
    assert config.n == 16
    rng = np.random.default_rng(3)
    data = rng.integers(0, 65536, size=16).astype(np.int64)
    coded = mds_encode(data, config)
    assert np.array_equal(coded, data)
    got = mds_decode([(int(i), int(v)) for i, v in enumerate(data)], config)
    assert np.array_equal(got, data)


def test_fractional_expansion():
    config = CodecConfig.from_expansion(16, "3/2")
    assert config.n == 24
    with pytest.raises(ValueError):
        CodecConfig.from_expansion(15, "3/2")  # 22.5 symbols is not a codeword


def test_config_validation():
    with pytest.raises(ValueError):
        CodecConfig(10, 5)  # n < f
    with pytest.raises(ValueError):
        CodecConfig(8, 300, field_width=8)  # more nodes than field elements
    with pytest.raises(ValueError):
        CodecConfig(4, 8, field_width=12)


def test_config_json_roundtrip():
    config = CodecConfig(16, 40, field_width=16)
    text = config.to_json()
    obj = json.loads(text)
    assert obj["generator"]["family"] == "systematic-evaluation"
    assert CodecConfig.from_json(text) == config


def test_generator_matrix_agrees_with_encode():
    config = CodecConfig(6, 10)
    gf = config.gf
    gen = generator_matrix(config)
    assert gen.shape == (10, 6)
    rng = np.random.default_rng(4)
    data = rng.integers(0, gf.order, size=6).astype(np.int64)
    coded = mds_encode(data, config)
    for row in range(10):
        acc = 0
        for col in range(6):
            acc ^= gf.mul(int(gen[row, col]), int(data[col]))
        assert acc == coded[row]


def test_large_block_roundtrip_gf16():
    # the sizes the caching simulations actually use
    config = CodecConfig.from_expansion(256, 2)
    rng = np.random.default_rng(5)
    data = rng.integers(0, 65536, size=256).astype(np.int64)
    coded = mds_encode(data, config)
    keep = rng.permutation(512)[:256]
    got = mds_decode([(int(i), int(coded[i])) for i in keep], config)
    assert np.array_equal(got, data)


def test_parity_only_decode():
    # no systematic symbol survives
    config = CodecConfig(4, 12)
    rng = np.random.default_rng(6)
    data = rng.integers(0, 65536, size=4).astype(np.int64)
    coded = mds_encode(data, config)
    got = mds_decode([(i, int(coded[i])) for i in range(8, 12)], config)
    assert np.array_equal(got, data)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(width=st.sampled_from([8, 16]), f=st.integers(1, 24), extra=st.integers(0, 24),
       zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       budget=st.one_of(st.integers(1, 600), st.just(mds._BLOCK_ELEMENTS)),
       seed=st.integers(0, 2**32 - 1))
@example(width=16, f=1, extra=0, zero_share=0.0, budget=mds._BLOCK_ELEMENTS, seed=0)  # f = 1, r = 1
@example(width=8, f=1, extra=7, zero_share=0.0, budget=1, seed=1)
@example(width=16, f=9, extra=0, zero_share=0.5, budget=20, seed=2)  # r = 1
@example(width=8, f=24, extra=24, zero_share=0.9, budget=100, seed=3)  # 4-row blocks, 24 = 6 * 4
@example(width=16, f=23, extra=17, zero_share=0.9, budget=100, seed=4)  # 17 targets in 4-row blocks
def test_blocked_codec_matches_lagrange_and_roundtrips(width, f, extra, zero_share, budget, seed):
    # the block budget sets the rows per kernel call; outputs must not depend on it
    config = CodecConfig(f, f + extra, field_width=width)
    gf = config.gf
    rng = np.random.default_rng(seed)
    data = rng.integers(0, gf.order, size=f).astype(np.int64)
    data[rng.random(f) < zero_share] = 0  # zero w_j*y_j terms take the placeholder path
    with mock.patch.object(mds, "_BLOCK_ELEMENTS", budget):
        coded = mds_encode(data, config)
        assert np.array_equal(coded[:f], data)
        for t in range(f, config.n):
            assert coded[t] == naive_eval(gf, list(range(f)), data.tolist(), t)
        keep = rng.permutation(config.n)[:f]
        got = mds_decode([(int(i), int(coded[i])) for i in keep], config)
    assert np.array_equal(got, data)


@pytest.mark.parametrize("f,n,width", [(1, 1, 16), (1, 4, 8), (6, 10, 16), (37, 100, 16),
                                       (128, 256, 16), (200, 255, 8)])
def test_generator_matrix_columns_are_unit_encodes(f, n, width):
    config = CodecConfig(f, n, field_width=width)
    gen = generator_matrix(config)
    units = np.eye(f, dtype=np.int64)
    want = np.stack([mds_encode(units[j], config) for j in range(f)], axis=1)
    assert gen.dtype == want.dtype and np.array_equal(gen, want)


def test_parity_pinned_at_benchmark_size():
    # recorded with the per-target interpolation loop the blocked kernel replaced
    coded = mds_encode(pseudo_symbols(1, 4096, 65535), CodecConfig(4096, 8192))
    assert {i: int(coded[i]) for i in (4096, 4097, 5000, 6143, 8191)} == {
        4096: 8880, 4097: 2342, 5000: 32800, 6143: 46473, 8191: 60026}
    assert hashlib.sha256(coded.astype("<i8").tobytes()).hexdigest() == (
        "1e7873db562e87116f4de1c7c9490bf6437dba81403b804ebcd302db0dbc8e98")
