"""Closed-form traffic rates, exact over the rationals.

All rates are normalized by the file length: a rate of 1 means one file's
worth of symbols crosses the shared link.  q = m/(r*n_files) is the
probability that a user caches any given coded symbol.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .params import as_fraction


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with out-of-range arguments evaluating to 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _check_args(n_files: int, m: Fraction, k: int, r: Fraction | None = None) -> tuple[Fraction, Fraction | None]:
    if n_files < 1:
        raise ValueError(f"n_files must be >= 1, got {n_files}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = as_fraction(m)
    if not 0 <= m <= n_files:
        raise ValueError(f"cache budget m must lie in [0, {n_files}], got {m}")
    if r is None:
        return m, None
    r = as_fraction(r)
    if r < 1 or r < m / n_files:
        raise ValueError(f"expansion factor must satisfy r >= max(1, m/n_files), got {r}")
    return m, r


def accumulated_share(x: int, n_files: int, m, k: int, r) -> Fraction:
    """Fraction of its requested file a user holds once delivery ran subset sizes k..x.

    Cached share m/n_files plus one term r * q^(j-1) * (1-q)^(k-j+1) * C(k-1, j-1)
    per completed subset size j; x = k+1 means nothing was delivered yet.
    """
    m, r = _check_args(n_files, m, k, r)
    if not 1 <= x <= k + 1:
        raise ValueError(f"x must lie in [1, {k + 1}], got {x}")
    q = m / (r * n_files)
    total = Fraction(m, n_files)
    for j in range(x, k + 1):
        total += r * q ** (j - 1) * (1 - q) ** (k - j + 1) * comb0(k - 1, j - 1)
    return total


@lru_cache(maxsize=256)  # every delivery asks for it; it costs O(k^2) rational products
def stop_index(n_files: int, m, k: int, r) -> int:
    """Smallest subset size the delivery loop reaches before caches fill.

    Returns s with accumulated_share(s+1) < 1 <= accumulated_share(s), or the
    sentinel k+1 when caches already hold full files (m = n_files).
    """
    m, r = _check_args(n_files, m, k, r)
    if m == n_files:
        return k + 1
    for s in range(k, 0, -1):
        if accumulated_share(s, n_files, m, k, r) >= 1:
            return s
    raise AssertionError("r >= 1 guarantees the share reaches 1 by subset size 1")


def rate_mds_dec(n_files: int, m, k: int, r, n_distinct: int | None = None,
                 reconstruct: bool = True) -> Fraction:
    """Delivery rate of decentralized placement with MDS-coded prefetching.

    Sums the per-subset-size message loads, with the final size s truncated to
    exactly fill every cache.  n_distinct overrides the worst-case count
    min(n_files, k) of distinct requested files.  A size-j subset is sent when
    it holds a leader; with reconstruct=False the leaderless ones of size
    j >= 2 are sent too, as fallbacks for receiver-side reconstruction.
    """
    m, r = _check_args(n_files, m, k, r)
    j_distinct = min(n_files, k) if n_distinct is None else n_distinct
    if not 1 <= j_distinct <= min(n_files, k):
        raise ValueError(f"n_distinct must lie in [1, {min(n_files, k)}], got {n_distinct}")
    s = stop_index(n_files, m, k, r)
    if s == k + 1:
        return Fraction(0)

    def sent(j: int) -> int:
        leaderless = 0 if not reconstruct and j >= 2 else comb0(k - j_distinct, j)
        return comb0(k, j) - leaderless

    q = m / (r * n_files)
    total = Fraction(0)
    for j in range(s + 1, k + 1):
        total += r * q ** (j - 1) * (1 - q) ** (k - j + 1) * sent(j)
    leftover = 1 - accumulated_share(s + 1, n_files, m, k, r)
    total += leftover / comb0(k - 1, s - 1) * sent(s)
    return total


def rate_uncoded_dec(n_files: int, m, k: int) -> Fraction:
    """Rate of the uncoded decentralized scheme; m = 0 returns the no-cache limit."""
    m, _ = _check_args(n_files, m, k)
    j = min(n_files, k)
    if m == 0:
        return Fraction(j)
    g = Fraction(n_files - m, n_files)
    return (n_files - m) / m * (1 - g**j)


def rate_uncoded_cen(n_files: int, m, k: int) -> Fraction:
    """Rate of the uncoded centralized scheme, linearly interpolated between
    the integer cache-to-library ratios t = k*m/n_files."""
    m, _ = _check_args(n_files, m, k)
    j = min(n_files, k)

    def point(t: int) -> Fraction:
        return Fraction(comb0(k, t + 1) - comb0(k - j, t + 1), comb0(k, t))

    t = Fraction(k) * m / n_files
    if t.denominator == 1:
        return point(int(t))
    lo = int(t)  # floor: t is positive
    w = t - lo
    return (1 - w) * point(lo) + w * point(lo + 1)


def best_r(n_files: int, m, k: int, r_grid) -> tuple[Fraction, Fraction]:
    """Grid point minimizing rate_mds_dec; ties break toward the smaller r (min keeps
    the first of equal rates, and the grid ascends)."""
    grid = sorted({as_fraction(r) for r in r_grid})
    if not grid:
        raise ValueError("r_grid must contain at least one expansion factor")
    return min(((r, rate_mds_dec(n_files, m, k, r)) for r in grid), key=lambda point: point[1])
