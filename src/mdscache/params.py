"""System parameters, request vectors, cache contents and subfile partitions.

Conventions used throughout the package:
  * users are numbered 0..k_prime-1; the first k of them are active in delivery
  * files are numbered 1..n_files in request vectors and serialized forms,
    0..n_files-1 internally
  * a subset of active users is a bitmask int, bit u set iff user u belongs
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm

import numpy as np


class ParamError(ValueError):
    """System parameters that cannot be realized at symbol level."""


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, or a literal like '3/2' or '1.5'."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class SystemParams:
    """Library size, user population, cache budget, code expansion and file length.

    n_files : number of files in the library
    k_prime : number of users provisioned during placement
    k       : number of users active in delivery (k <= k_prime)
    m       : cache budget per user, in units of files (0 <= m <= n_files)
    r       : code expansion factor; each file is coded to r*f symbols (r >= 1)
    f       : symbols per file
    """

    n_files: int
    k_prime: int
    k: int
    m: Fraction
    r: Fraction
    f: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", as_fraction(self.m))
        object.__setattr__(self, "r", as_fraction(self.r))

    @property
    def q(self) -> Fraction:
        """Probability that a user caches any given coded symbol: m / (r * n_files)."""
        return self.m / (self.r * self.n_files)

    @property
    def coded_len(self) -> int:
        n = self.r * self.f
        if n.denominator != 1:
            raise ParamError(f"r*f = {fraction_str(n)} is not an integer")
        return int(n)

    @property
    def cached_per_file(self) -> int:
        c = self.m * self.f / self.n_files
        if c.denominator != 1:
            raise ParamError(f"m*f/n_files = {fraction_str(c)} is not an integer")
        return int(c)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_files": self.n_files,
                "k_prime": self.k_prime,
                "k": self.k,
                "m": fraction_str(self.m),
                "r": fraction_str(self.r),
                "f": self.f,
            },
            sort_keys=True,
        )


def suggest_feasible_f(n_files: int, m: Fraction, r: Fraction, f: int) -> int:
    """Smallest f' >= f making both m*f'/n_files and r*f' integers."""
    m = as_fraction(m)
    r = as_fraction(r)
    step = lcm((m / n_files).denominator if m else 1, r.denominator)
    return max(1, ceil(f / step)) * step


def validate(p: SystemParams) -> list[str]:
    """All constraint violations, empty when the parameters are realizable."""
    problems: list[str] = []
    if p.n_files < 1:
        problems.append(f"n_files must be >= 1, got {p.n_files}")
    if p.k_prime < 1:
        problems.append(f"k_prime must be >= 1, got {p.k_prime}")
    if not 1 <= p.k <= p.k_prime:
        problems.append(f"need 1 <= k <= k_prime, got k={p.k}, k_prime={p.k_prime}")
    if not 0 <= p.m <= p.n_files:
        problems.append(f"cache budget m must lie in [0, n_files], got {fraction_str(p.m)}")
    if p.r < 1:
        problems.append(f"expansion factor r must be >= 1, got {fraction_str(p.r)}")
    if p.n_files >= 1 and p.r < p.m / p.n_files:
        problems.append(
            f"r = {fraction_str(p.r)} < m/n_files = {fraction_str(p.m / p.n_files)}; "
            "caches would exceed the coded library"
        )
    if p.f < 1:
        problems.append(f"f must be >= 1, got {p.f}")
    else:
        divisibility: list[str] = []
        if (p.r * p.f).denominator != 1:
            divisibility.append(f"r*f = {fraction_str(p.r * p.f)}")
        if p.n_files >= 1 and (p.m * p.f / p.n_files).denominator != 1:
            divisibility.append(f"m*f/n_files = {fraction_str(p.m * p.f / p.n_files)}")
        if divisibility:
            hint = suggest_feasible_f(p.n_files, p.m, p.r, p.f) if p.n_files >= 1 else p.f
            problems.append(
                f"{' and '.join(divisibility)} must be an integer; "
                f"smallest feasible f >= {p.f} is {hint}"
            )
    return problems


def require_valid(p: SystemParams) -> None:
    problems = validate(p)
    if problems:
        raise ParamError("; ".join(problems))


# ---------------------------------------------------------------------------
# request vectors


@dataclass(frozen=True)
class RequestVector:
    """Files requested by the k active users; files are 1-based."""

    files: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "files", tuple(int(x) for x in self.files))

    def validate_for(self, p: SystemParams) -> None:
        if len(self.files) != p.k:
            raise ParamError(f"request vector has {len(self.files)} entries, expected k={p.k}")
        for d in self.files:
            if not 1 <= d <= p.n_files:
                raise ParamError(f"requested file {d} outside [1, {p.n_files}]")

    @property
    def zero_based(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.files)

    @property
    def n_distinct(self) -> int:
        return len(set(self.files))

    @staticmethod
    def worst_case(p: SystemParams) -> "RequestVector":
        """Round-robin over min(n_files, k) distinct files; maximizes distinct requests."""
        j = min(p.n_files, p.k)
        return RequestVector(tuple((i % j) + 1 for i in range(p.k)))


# ---------------------------------------------------------------------------
# subsets of active users as bitmasks


def subset_mask(users) -> int:
    mask = 0
    for u in users:
        mask |= 1 << int(u)
    return mask


def mask_users(mask: int) -> tuple[int, ...]:
    out = []
    u = 0
    while mask:
        if mask & 1:
            out.append(u)
        mask >>= 1
        u += 1
    return tuple(out)


@lru_cache(maxsize=None)
def subset_masks(k: int, size: int) -> np.ndarray:
    """Masks of all size-element subsets of users 0..k-1, ascending, as a read-only
    int64 array built on first use and shared afterwards (k <= 62).

    The subsets whose highest user is t are those of size-1 users below t plus
    t; taking t in ascending order lists every mask in ascending order.
    """
    if not 0 <= k <= 62:
        raise ValueError(f"subset masks support 0 <= k <= 62 users, got {k}")
    if size == 0:
        masks = np.zeros(1, dtype=np.int64)
    elif not 0 < size <= k:
        masks = np.zeros(0, dtype=np.int64)
    else:
        masks = np.concatenate([subset_masks(t, size - 1) | np.int64(1 << t)
                                for t in range(size - 1, k)])
    masks.flags.writeable = False
    return masks


def mask_members(masks: np.ndarray, k: int, size: int) -> np.ndarray:
    """Users of each size-element subset of users 0..k-1, ascending along each row."""
    bits = (masks[:, None] >> np.arange(k, dtype=np.int64)) & 1
    return np.nonzero(bits)[1].reshape(-1, size)


# ---------------------------------------------------------------------------
# cache contents


class CacheContents:
    """Per (user, file) sorted coded-symbol index arrays chosen during placement."""

    def __init__(self, n_users: int, n_files: int, coded_len: int,
                 indices: dict[tuple[int, int], np.ndarray]):
        self.n_users = n_users
        self.n_files = n_files
        self.coded_len = coded_len
        self._indices = indices

    def indices(self, user: int, file: int) -> np.ndarray:
        return self._indices[(user, file)]

    def view(self, user: int, coded_files) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """What ``user`` holds of each coded file: {file: (indices, symbol values)}."""
        return {nf: (self.indices(user, nf), coded_files[nf][self.indices(user, nf)])
                for nf in range(self.n_files)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CacheContents):
            return NotImplemented
        if (self.n_users, self.n_files, self.coded_len) != (other.n_users, other.n_files, other.coded_len):
            return False
        return all(
            np.array_equal(self._indices[(u, n)], other._indices[(u, n)])
            for u in range(self.n_users)
            for n in range(self.n_files)
        )


@dataclass
class SubfilePartition:
    """Partition of one coded file's indices by the exact subset of users caching them.

    The block cached by exactly the users of masks[q] is
    order[starts[q]:starts[q+1]]; masks holds the nonempty blocks' masks,
    ascending.
    """

    order: np.ndarray   # coded indices grouped by block, ascending within each block
    masks: np.ndarray   # int64
    starts: np.ndarray  # len(masks) + 1 offsets into order

    def spans(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start in order, length) of each mask's block; length 0 for an empty block."""
        q = np.searchsorted(self.masks, masks)
        found = q < self.masks.size
        found[found] = self.masks[q[found]] == masks[found]
        start = np.where(found, self.starts[q], 0)
        return start, np.where(found, self.starts[np.minimum(q + 1, self.masks.size)] - start, 0)

    def block(self, mask: int) -> np.ndarray:
        start, length = (int(x[0]) for x in self.spans(np.array([mask], dtype=np.int64)))
        return self.order[start: start + length]

    @property
    def blocks(self) -> dict[int, np.ndarray]:
        """Nonempty blocks by mask, as views into order."""
        bounds = self.starts.tolist()
        return {mask: self.order[a:b]
                for mask, a, b in zip(self.masks.tolist(), bounds, bounds[1:])}
