"""Arithmetic over GF(2^8) and GF(2^16) using one pair of log/antilog tables.

With q1 = 2^width - 1, ``exp`` (uint16) holds x^0 .. x^(q1-1) twice, then a
zero band, 4 q1 + 1 entries in all; ``log`` (int32) sends a nonzero element
to its discrete log and 0 to the sentinel 2 q1.  So exp[log[a] + log[b]] is
a * b for every a and b, zeros included: a sum with a sentinel in it lands in
the zero band, and the band is never written, so it takes no resident memory.
Both tables are read-only.
"""
from __future__ import annotations

import numpy as np

# primitive polynomials with x as a primitive element
_PRIM_POLY = {8: 0x11D, 16: 0x1100B}


class GF2:
    """Binary extension field GF(2^width); elements are ints in [0, 2^width)."""

    def __init__(self, width: int):
        if width not in _PRIM_POLY:
            raise ValueError(f"unsupported field width {width}, expected one of {sorted(_PRIM_POLY)}")
        self.width = width
        self.order = 1 << width
        self.poly = _PRIM_POLY[width]
        self._build_tables()

    def _build_tables(self) -> None:
        q1 = self.order - 1
        # x^0 .. x^(order-1) by doubling: the next block is this one times x^len
        powers = np.ones(1, dtype=np.int64)
        while powers.size < self.order:
            powers = np.concatenate([powers, self.mul_slow(powers, self.mul_slow(int(powers[-1]), 2))])
        if powers[q1] != 1:
            raise AssertionError(f"0x{self.poly:X} is not primitive for width {self.width}")
        exp = np.zeros(4 * q1 + 1, dtype=np.uint16)
        exp[:q1] = exp[q1: 2 * q1] = powers[:q1]
        log = np.empty(self.order, dtype=np.int32)
        log[powers[:q1]] = np.arange(q1, dtype=np.int32)
        log[0] = 2 * q1
        exp.flags.writeable = log.flags.writeable = False
        self.exp = exp
        self.log = log

    def mul(self, a: int, b: int) -> int:
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self.exp[self.order - 1 - self.log[a]])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two symbol arrays (broadcasting allowed), as uint16."""
        return self.exp[self.log[a] + self.log[b]]

    def mul_slow(self, a, b: int):
        """Bitwise carry-less multiply with polynomial reduction; table-free reference.

        ``a`` may be an int or an int64 array, multiplied elementwise by ``b``."""
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a = a << 1
            a ^= (a >> self.width) * self.poly
        return acc

    def verify(self, samples: int = 200) -> list[str]:
        """Check table integrity and field axioms; returns a list of problems."""
        problems: list[str] = []
        size = self.order
        q1 = size - 1
        exp, log = self.exp, self.log
        first = exp[:q1].astype(np.int64)
        if first.min() == 0 or first.max() >= size or np.unique(first).size != q1:
            problems.append(f"exp[:{q1}] is not a bijection onto the nonzero elements")
        elif (bad := np.flatnonzero(log[first] != np.arange(q1))).size:
            i = int(bad[0])
            problems.append(f"log[exp[{i}]] = {log[first[i]]} != {i}")
        bad = np.flatnonzero(exp[q1: 2 * q1] != exp[:q1])
        if bad.size:
            problems.append(f"exp[{q1 + bad[0]}] breaks the doubled half")
        bad = np.flatnonzero(exp[2 * q1:])
        if bad.size:
            problems.append(f"exp[{2 * q1 + bad[0]}] breaks the zero band")
        if log[0] != 2 * q1:
            problems.append(f"log[0] = {log[0]} is not the sentinel {2 * q1}")
        # deterministic sample walk over element pairs
        step = max(1, (size - 1) // samples)
        pairs = [(1 + (i * step) % (size - 1), 1 + (i * step * 7 + 3) % (size - 1)) for i in range(samples)]
        for a, b in pairs:
            if self.mul(a, b) != self.mul_slow(a, b):
                problems.append(f"mul({a}, {b}) disagrees with the carry-less reference")
                break
        for a, _ in pairs[:50]:
            if self.mul(a, self.inv(a)) != 1:
                problems.append(f"inv({a}) is not a multiplicative inverse")
                break
        for a, b in pairs[:50]:
            c = (a ^ b) or 1
            if self.mul(a, b ^ c) != self.mul(a, b) ^ self.mul(a, c):
                problems.append(f"distributivity fails at ({a}, {b}, {c})")
                break
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                problems.append(f"associativity fails at ({a}, {b}, {c})")
                break
        return problems


_FIELDS: dict[int, GF2] = {}


def field(width: int) -> GF2:
    """Shared GF2 instance per width. Construct GF2 directly for a private copy."""
    if width not in _FIELDS:
        _FIELDS[width] = GF2(width)
    return _FIELDS[width]
