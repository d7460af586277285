"""Field arithmetic against an independent carry-less oracle."""
import random

import numpy as np
import pytest

from mdscache.gf import GF2, _PRIM_POLY, field


def clmul_mod(a: int, b: int, poly: int, width: int) -> int:
    """Schoolbook carry-less multiply reduced by the field polynomial."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> width & 1:
            a ^= poly
    return acc


@pytest.mark.parametrize("width", [8, 16])
def test_tables_against_carry_less_oracle(width):
    gf = field(width)
    poly = _PRIM_POLY[width]
    rng = random.Random(width)
    for _ in range(500):
        a = rng.randrange(gf.order)
        b = rng.randrange(gf.order)
        assert gf.mul(a, b) == clmul_mod(a, b, poly, width)


@pytest.mark.parametrize("width", [8, 16])
def test_exp_log_are_inverse_bijections(width):
    gf = field(width)
    seen = set(gf.exp[: gf.order - 1])
    assert len(seen) == gf.order - 1
    assert 0 not in seen
    for x in (1, 2, 3, gf.order // 2, gf.order - 1):
        assert gf.exp[gf.log[x]] == x


def test_gf256_exhaustive_against_oracle():
    gf = field(8)
    poly = _PRIM_POLY[8]
    for a in range(256):
        for b in range(256):
            assert gf.mul(a, b) == clmul_mod(a, b, poly, 8)


@pytest.mark.parametrize("width", [8, 16])
def test_field_axioms_on_seeded_samples(width):
    gf = field(width)
    rng = random.Random(1000 + width)
    for _ in range(300):
        a = rng.randrange(gf.order)
        b = rng.randrange(gf.order)
        c = rng.randrange(gf.order)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.div(gf.mul(a, b), a) == b


@pytest.mark.parametrize("width", [8, 16])
def test_vectorized_mul_matches_scalar(width):
    gf = field(width)
    rng = np.random.default_rng(width)
    a = rng.integers(0, gf.order, size=1000).astype(np.int64)
    b = rng.integers(0, gf.order, size=1000).astype(np.int64)
    # zero operands on either side and on both
    a[:50] = 0
    b[25:75] = 0
    got = gf.mul_vec(a, b)
    want = np.array([gf.mul(int(x), int(y)) for x, y in zip(a, b)], dtype=np.int64)
    assert np.array_equal(got, want)
    assert not got[:75].any()
    # broadcasting against a scalar, zero included
    assert np.array_equal(gf.mul_vec(a, 7), np.array([gf.mul(int(x), 7) for x in a]))
    assert not gf.mul_vec(a, 0).any() and not gf.mul_vec(0, b).any()


def test_zero_has_no_inverse():
    gf = field(16)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.div(5, 0)


@pytest.mark.parametrize("width", [8, 16])
def test_verify_passes_on_clean_tables(width):
    assert field(width).verify() == []


def _writable_copy(width: int) -> GF2:
    """A private instance, so the shared cache stays intact, with writable tables."""
    bad = GF2(width)
    bad.exp.flags.writeable = bad.log.flags.writeable = True
    return bad


def test_verify_catches_corrupted_exp_table():
    bad = _writable_copy(8)
    bad.exp[10] ^= 3
    assert bad.verify() != []


def test_verify_catches_corrupted_log_table():
    bad = _writable_copy(16)
    bad.log[12345] ^= 1
    assert bad.verify() != []


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("table, at", [
    ("exp", lambda q1: q1 + 10),       # the doubled half
    ("exp", lambda q1: 2 * q1 + 10),   # the zero band
    ("exp", lambda q1: 4 * q1),        # the product of two zeros
    ("log", lambda q1: 0),             # the zero sentinel
], ids=["exp-doubled-half", "exp-zero-band", "exp-zero-times-zero", "log-zero"])
def test_verify_catches_corrupted_table_region(width, table, at):
    bad = _writable_copy(width)
    getattr(bad, table)[at(bad.order - 1)] ^= 3
    assert bad.verify() != []


def test_field_holds_two_small_readonly_tables():
    gf = field(16)
    tables = [v for v in vars(gf).values() if isinstance(v, np.ndarray)]
    assert len(tables) == 2
    assert all(not t.flags.writeable for t in tables)
    assert sum(t.nbytes for t in tables) < 1 << 20
    assert not any(isinstance(v, list) for v in vars(gf).values())


def test_field_cache_returns_same_instance():
    assert field(8) is field(8)
    assert field(16) is field(16)
    with pytest.raises(ValueError):
        field(12)
