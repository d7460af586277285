"""Codec behavior: any f of n symbols reconstruct the data, none fewer."""
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdscache.gf import field
from mdscache.mds import (CodecConfig, InsufficientSymbolsError, _encoder_locator,
                          _erasure_decode, _levels, _locator, _log_sums, _mod_q1,
                          _walsh_hadamard, generator_matrix, mds_decode, mds_encode)
from mdscache.simulate import pseudo_symbols


def naive_eval(gf, xs, ys, t):
    """Schoolbook Lagrange evaluation, the oracle for the transform codec."""
    total = 0
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = gf.mul(num, t ^ xj)
            den = gf.mul(den, xi ^ xj)
        total ^= gf.mul(ys[i], gf.mul(num, gf.inv(den)))
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
    # computed once with the naive oracle
    data = np.array([1, 2, 3, 4], dtype=np.int64)
    want = [1, 2, 3, 4, 69, 94, 103, 120]
    assert mds_encode(data, CodecConfig(4, 8)).tolist() == want


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
        CodecConfig(4, 65536)  # more nodes than nonzero field elements


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
@given(f=st.integers(1, 24), extra=st.integers(0, 24),
       zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(f=1, extra=0, zero_share=0.0, seed=0)  # f = 1, r = 1
@example(f=1, extra=7, zero_share=0.0, seed=1)
@example(f=9, extra=0, zero_share=0.5, seed=2)  # r = 1
@example(f=24, extra=24, zero_share=0.9, seed=3)
@example(f=23, extra=17, zero_share=0.9, seed=4)
@example(f=5, extra=11, zero_share=0.0, seed=5)  # n = 16 = 2^4: N = n
@example(f=12, extra=5, zero_share=0.5, seed=6)  # n = 17 = 2^4 + 1: N = 32
@example(f=1, extra=1, zero_share=0.0, seed=7)  # n = 2: one level
@example(f=2, extra=1, zero_share=0.0, seed=8)  # n = 3 = 2^1 + 1
@example(f=20, extra=12, zero_share=0.9, seed=9)  # n = 32 = 2^5
@example(f=24, extra=9, zero_share=0.0, seed=10)  # n = 33 = 2^5 + 1
def test_fft_codec_matches_lagrange_and_roundtrips(f, extra, zero_share, seed):
    # the transform size N = 2^ceil(log2 n) changes between n = 2^j and 2^j + 1
    config = CodecConfig(f, f + extra)
    gf = config.gf
    rng = np.random.default_rng(seed)
    data = rng.integers(0, gf.order, size=f).astype(np.int64)
    data[rng.random(f) < zero_share] = 0  # zero symbols map to the zero band of the product table
    coded = mds_encode(data, config)
    assert np.array_equal(coded[:f], data)
    for t in range(f, config.n):
        assert coded[t] == naive_eval(gf, list(range(f)), data.tolist(), t)
    keep = rng.permutation(config.n)[:f]
    got = mds_decode([(int(i), int(coded[i])) for i in keep], config)
    assert np.array_equal(got, data)


def gf_matvec(gf, mat, vec):
    """mat @ vec over GF(2^16)."""
    return np.bitwise_xor.reduce(gf.mul_vec(mat, vec[None, :]).astype(np.int64), axis=1)


# (f, n) as fractions of N = 2^levels: r = 2 fills V, r = 3/2 leaves its top quarter out
PRUNED_SHAPES = [(Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(3, 4)),
                 (Fraction(1, 8), Fraction(1))]


@pytest.mark.parametrize("levels", range(9, 14))
@pytest.mark.parametrize("f_share,n_share", PRUNED_SHAPES,
                         ids=[f"f={f}N-n={n}N" for f, n in PRUNED_SHAPES])
def test_pruned_transforms_match_closed_form_rows(levels, f_share, n_share):
    # the transforms skip the blocks above max(known) and outside the wanted span;
    # a highest known point of exactly 2^j - 1 fills its blocks, one of 2^j opens one more
    size = 1 << levels
    config = CodecConfig(int(f_share * size), int(n_share * size))
    assert _levels(config) == levels
    f, n, gf = config.f, config.n, config.gf
    rng = np.random.default_rng(levels * 100 + f * 10 + n)
    data = rng.integers(0, gf.order, size=f)
    coded = mds_encode(data, config)
    ends = np.array([f, n - 1])
    assert np.array_equal(coded[ends], gf_matvec(gf, generator_matrix(config, rows=ends), data))
    assert not _encoder_locator(levels, f).flags.writeable
    for j in range((f - 1).bit_length(), levels):
        for highest in (1 << j) - 1, 1 << j:
            known = np.append(rng.choice(highest, size=f - 1, replace=False), highest)
            erased = np.setdiff1d(np.arange(n), known)
            values = rng.integers(0, gf.order, size=f)
            ell = _locator(levels, known)
            for wanted in erased[:1], erased[-1:], erased[[0, -1]]:
                want = gf_matvec(gf, generator_matrix(config, basis=known, rows=wanted), values)
                assert np.array_equal(_erasure_decode(levels, known, values, wanted, ell), want)
            assert np.array_equal(mds_decode(np.column_stack((known, coded[known])), config), data)


def test_field_edge_codewords_in_closed_form():
    # n = 65535 fills N = 65536 = all of GF(2^16), the most erasures a transform holds
    config = CodecConfig(1, 65535)
    coded = mds_encode(np.array([40503]), config)
    assert np.array_equal(coded, np.full(65535, 40503))  # degree 0: constant
    assert mds_decode([(65534, 40503)], config).tolist() == [40503]
    # degree 1 through (0, y0) and (1, y1): p(x) = y0 ^ (y0 ^ y1) * x
    config = CodecConfig(2, 65535)
    y0, y1 = 51966, 4660
    coded = mds_encode(np.array([y0, y1]), config)
    gf = config.gf
    xs = np.arange(65535)
    assert np.array_equal(coded, y0 ^ gf.mul_vec(np.full(65535, y0 ^ y1), xs))


def test_largest_codeword_roundtrips_from_top_parity():
    config = CodecConfig.from_expansion(32767, 2)
    assert config.n == 65534
    data = pseudo_symbols(9, 32767)
    coded = mds_encode(data, config)
    top = np.arange(config.n - config.f, config.n)
    got = mds_decode(np.column_stack((top, coded[top])), config)
    assert np.array_equal(got, data)


def test_decode_accepts_pair_arrays_and_reports_faults_in_input_order():
    config = CodecConfig(4, 8)
    data = np.array([9, 8, 7, 6], dtype=np.int64)
    coded = mds_encode(data, config)
    pairs = np.column_stack((np.arange(8), coded))
    assert np.array_equal(mds_decode(pairs[::-1], config), data)
    assert np.array_equal(mds_decode(((int(i), int(v)) for i, v in pairs[4:]), config), data)
    with pytest.raises(ValueError, match="outside"):
        mds_decode([(0, 1), (8, 2), (0, 3)], config)
    with pytest.raises(ValueError, match="conflicting values supplied for coded index 0"):
        mds_decode([(0, 1), (0, 3), (8, 2)], config)
    with pytest.raises(ValueError, match="pairs"):
        mds_decode(np.zeros((4, 3), dtype=np.int64), config)
    with pytest.raises(InsufficientSymbolsError, match="got 0"):
        mds_decode([], config)


def test_decode_rejects_values_outside_the_field_in_input_order():
    config = CodecConfig(4, 8)
    coded = mds_encode(np.array([9, 8, 7, 6]), config)
    parity = [(i, int(coded[i])) for i in range(4, 8)]
    for value in (-1, -5, 65536, 70000):
        for index in (0, 4):  # a systematic pair and a parity pair
            with pytest.raises(ValueError, match=f"value {value} of coded index {index} outside"):
                mds_decode([(index, value)] + parity, config)
    with pytest.raises(ValueError, match="value -1 of coded index 0"):
        mds_decode([(0, -1), (8, 2), (1, 3), (1, 4)], config)
    with pytest.raises(ValueError, match="coded index 8 outside"):
        mds_decode([(8, -1), (0, -1)], config)
    with pytest.raises(ValueError, match="conflicting values supplied for coded index 1"):
        mds_decode([(1, 3), (1, 4), (0, -1)], config)
    # the first pair of an index fixes its value, so a bad repeat is a conflict
    with pytest.raises(ValueError, match="value 65536 of coded index 1"):
        mds_decode([(1, 65536), (1, 4)], config)


def naive_walsh_hadamard(x):
    """sum_y (-1)^popcount(s & y) x[y] for every s, one row at a time."""
    points = np.arange(len(x))
    out = np.empty(len(x), dtype=np.int64)
    for s in range(len(x)):
        parity = points & s
        for shift in 8, 4, 2, 1:  # bit 0 ends as the parity of bits 0..15
            parity ^= parity >> shift
        out[s] = np.where(parity & 1, -x, x).sum()
    return out


@pytest.mark.parametrize("levels", range(1, 17))
def test_walsh_hadamard_matches_the_sign_sums(levels):
    rng = np.random.default_rng(levels)
    x = rng.integers(-(1 << 20), 1 << 20, size=1 << levels)
    x.flags.writeable = False  # the transform writes only its own buffers
    got = _walsh_hadamard(x)
    assert got.dtype == np.int64
    if levels <= 10:
        assert np.array_equal(got, naive_walsh_hadamard(x))
    # H is symmetric with H H = N I, so a second transform gives N x back
    assert np.array_equal(_walsh_hadamard(got), x << levels)
    if levels > 10:  # spot rows of the sign sums
        for s in (0, 1, (1 << levels) - 1, int(rng.integers(1 << levels))):
            signs = np.array([(-1) ** bin(s & y).count("1") for y in range(1 << levels)])
            assert got[s] == int((signs * x).sum())


def direct_log_sums(levels, members):
    """sum_{s in members} log(x ^ s) mod 2^16 - 1 by the definition, log 0 = 0."""
    q1 = (1 << 16) - 1
    log = field(16).log % q1
    points = np.arange(1 << levels)
    total = np.zeros(1 << levels, dtype=np.int64)
    for s in np.flatnonzero(members):
        total += log[points ^ s]
    return total % q1


@pytest.mark.parametrize("levels", range(1, 13))
def test_log_sums_equal_the_direct_sums(levels):
    rng = np.random.default_rng(100 + levels)
    size = 1 << levels
    for members in (np.zeros(size, dtype=np.int64), np.ones(size, dtype=np.int64),
                    (rng.random(size) < 0.5).astype(np.int64)):
        members.flags.writeable = False
        assert np.array_equal(_log_sums(levels, members), direct_log_sums(levels, members))


def test_log_sums_of_a_sparse_set_at_the_field_width():
    members = np.zeros(1 << 16, dtype=np.int64)
    members[[0, 1, 2, 777, 40000, 65534, 65535]] = 1
    members.flags.writeable = False
    assert np.array_equal(_log_sums(16, members), direct_log_sums(16, members))


def test_mod_q1_folds_digits_exactly():
    q1 = (1 << 16) - 1
    x = [0, 1, q1 - 1, q1, q1 + 1, 2 * q1, 3 * q1, 12345 * q1, 1 << 16, (1 << 16) + q1,
         1 << 32, (1 << 32) - 1, q1 << 32, (1 << 48) - 1, 1 << 48, (1 << 63) - 1]
    x += [-v for v in x[1:]] + [-(1 << 63)]  # the shifts floor, so negatives fold too
    rng = random.Random(4)
    x += [rng.randrange(-(1 << 63), 1 << 63) for _ in range(500)]
    got = _mod_q1(np.array(x, dtype=np.int64))
    assert got.tolist() == [v % q1 for v in x]


GENERATOR_SHAPES = [(1, 1), (1, 4), (6, 10), (37, 100), (128, 256)]


# the ids end in the field width, 16 for every codec
@pytest.mark.parametrize("f,n", GENERATOR_SHAPES, ids=[f"{f}-{n}-16" for f, n in GENERATOR_SHAPES])
def test_generator_matrix_columns_are_unit_encodes(f, n):
    config = CodecConfig(f, n)
    gen = generator_matrix(config)
    units = np.eye(f, dtype=np.int64)
    want = np.stack([mds_encode(units[j], config) for j in range(f)], axis=1)
    assert gen.dtype == want.dtype and np.array_equal(gen, want)


BASIS_SHAPES = [(1, 1), (6, 10), (37, 100), (128, 256)]


@pytest.mark.parametrize("f,n", BASIS_SHAPES, ids=[f"{f}-{n}" for f, n in BASIS_SHAPES])
def test_generator_matrix_in_a_random_basis(f, n):
    config = CodecConfig(f, n)
    gf = config.gf
    rng = np.random.default_rng(f * 1000 + n)
    assert np.array_equal(generator_matrix(config, np.arange(f)), generator_matrix(config))
    for _ in range(3):
        basis = rng.permutation(n)[:f]
        gen = generator_matrix(config, basis)
        assert gen.shape == (n, f) and gen.dtype == np.int64
        assert np.array_equal(gen[basis], np.eye(f, dtype=np.int64))  # unit rows, basis order
        coded = mds_encode(rng.integers(0, gf.order, size=f), config)
        # G_B . coded[B] over GF(2^16) is the whole codeword
        terms = gf.mul_vec(gen, coded[basis][None, :]).astype(np.int64)
        assert np.array_equal(np.bitwise_xor.reduce(terms, axis=1), coded)


@pytest.mark.parametrize("f,n", BASIS_SHAPES, ids=[f"{f}-{n}" for f, n in BASIS_SHAPES])
def test_generator_matrix_rows_are_those_of_the_whole_matrix(f, n):
    config = CodecConfig(f, n)
    rng = np.random.default_rng(f * 1000 + n + 1)
    basis = rng.permutation(n)[:f]
    rows = rng.integers(0, n, size=2 * n)  # basis rows, repeats and any order
    assert np.array_equal(generator_matrix(config, basis, rows),
                          generator_matrix(config, basis)[rows])
    assert generator_matrix(config, basis, []).shape == (0, f)


@pytest.mark.parametrize("basis", [[0], [0, 1, 1], [0, 1, 10], [-1, 1, 2]])
def test_generator_matrix_rejects_a_bad_basis(basis):
    with pytest.raises(ValueError, match="basis must be 3 distinct coded indices"):
        generator_matrix(CodecConfig(3, 10), basis)


def test_parity_pinned_at_benchmark_size():
    # recorded with the per-target interpolation loop that preceded the transform codec
    coded = mds_encode(pseudo_symbols(1, 4096, 65535), CodecConfig(4096, 8192))
    assert {i: int(coded[i]) for i in (4096, 4097, 5000, 6143, 8191)} == {
        4096: 8880, 4097: 2342, 5000: 32800, 6143: 46473, 8191: 60026}
    assert hashlib.sha256(coded.astype("<i8").tobytes()).hexdigest() == (
        "1e7873db562e87116f4de1c7c9490bf6437dba81403b804ebcd302db0dbc8e98")
