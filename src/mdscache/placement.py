"""Random symbol placement from keyed splitmix64 values.

Seed derivation: a 64-bit master seed is stirred through splitmix64 and each
context label (tag, user id, file id, ...) is absorbed one at a time with
``state = splitmix64(state XOR part)``.  Every (user, file) pair therefore owns
an independent key that does not depend on iteration order or thread count.

Placement gives each coded symbol position i of a file the value
``splitmix64(key XOR (i+1))`` (``keyed_u64``) and caches the m positions with
the smallest values: a uniform random m-subset drawn in one vectorized pass.
The same keyed values, masked to the symbol width, make the pseudo-random file
contents of ``simulate.pseudo_symbols``.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .params import CacheContents, SubfilePartition, SystemParams, require_valid

_MASK64 = (1 << 64) - 1

# context labels for unrelated stream families derived from one master seed
TAG_PLACEMENT = 0x706C6163  # "plac"
TAG_FILE = 0x66696C65       # "file"
TAG_TRIAL = 0x7472696C      # "tril"
TAG_VIRTUAL = 0x76697274    # "virt"


def splitmix64(x):
    """splitmix64 finalizer of x + golden gamma; also elementwise on uint64 arrays."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, *parts: int) -> int:
    state = splitmix64(master & _MASK64)
    for p in parts:
        state = splitmix64(state ^ (p & _MASK64))
    return state


def keyed_u64(seed: int, count: int) -> np.ndarray:
    """splitmix64 over (seed XOR position+1) for positions 0..count-1, as uint64."""
    return splitmix64(np.uint64(seed & _MASK64) ^ np.arange(1, count + 1, dtype=np.uint64))


def sample_without_replacement(seed: int, n: int, m: int) -> np.ndarray:
    """m distinct values from [0, n), uniform over all (n choose m) subsets.

    Returns, in ascending order, the positions of the m smallest keys
    ``keyed_u64(seed, n)``.  The keys are splitmix64 of distinct inputs and
    splitmix64 is a bijection, so they never tie: exactly m keys lie at or
    below the m-th smallest, and the selected set is unique.
    """
    if not 0 <= m <= n:
        raise ValueError(f"cannot sample {m} of {n}")
    if m == n:
        return np.arange(n, dtype=np.int64)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    keys = keyed_u64(seed, n)
    return np.flatnonzero(keys <= np.partition(keys, m - 1)[m - 1]).astype(np.int64, copy=False)


def prefetch(params: SystemParams, seed: int) -> CacheContents:
    """Fill every provisioned user's cache with m*f/n_files symbols of each coded file.

    The cache of (user, file) depends only on (seed, user, file).
    """
    require_valid(params)
    n = params.coded_len
    m_sym = params.cached_per_file
    indices = {
        (u, fl): sample_without_replacement(derive_seed(seed, TAG_PLACEMENT, u, fl), n, m_sym)
        for u in range(params.k_prime)
        for fl in range(params.n_files)
    }
    return CacheContents(params.k_prime, params.n_files, n, indices)


def partition_subfiles(cache: CacheContents, active, file: int,
                       params: SystemParams) -> SubfilePartition:
    """Split one coded file's indices by the exact active-user subset caching them.

    A stable sort of the indices by subset key leaves each block's indices
    ascending; keys of the narrowest unsigned type that holds every mask make
    it a radix sort for up to 16 active users.
    """
    active = list(active)
    if len(active) > 63:
        raise ValueError("subset bitmask keys support at most 63 active users")
    n = params.coded_len
    keys = np.zeros(n, dtype=np.min_scalar_type((1 << len(active)) - 1))
    for bit, user in enumerate(active):
        keys[cache.indices(user, file)] |= keys.dtype.type(1 << bit)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order].astype(np.int64)
    firsts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    order.flags.writeable = False
    return SubfilePartition(order=order, masks=sorted_keys[firsts], starts=np.append(firsts, n))


def expected_subfile_size(params: SystemParams, subset_size: int) -> Fraction:
    """Expected symbols cached by exactly a given size-t subset: r*f * q^t * (1-q)^(k-t)."""
    k = params.k
    if not 0 <= subset_size <= k:
        raise ValueError(f"subset size {subset_size} outside [0, {k}]")
    q = params.q
    return params.r * params.f * q**subset_size * (1 - q) ** (k - subset_size)
