"""Systematic maximum-distance-separable erasure codec.

A file of f symbols of GF(2^16) is treated as the values of a polynomial of
degree < f evaluated at the field elements 0..f-1.  The codeword extends the
file with evaluations at f..n-1, so coded symbols 0..f-1 are the file itself
and any f distinct coded symbols determine the polynomial, hence the file.

The points 0..n-1 lie in the GF(2)-subspace V = {0..N-1}, N = 2^ceil(log2 n),
spanned by v_i = 2^i.  Extended to all of V the codeword is an RS[N, f] code
over a subspace, so encoding (the known points are 0..f-1) and decoding (any
f known points) are both erasure decoding, which runs in O(N log N) in the
novel polynomial basis of Lin, Chung & Han, "Novel polynomial basis and its
application to Reed-Solomon erasure codes" (FOCS 2014, arXiv 1404.3458):

- W_i(x) = prod_{a < 2^i} (x ^ a) is GF(2)-linear; U_i = W_i / W_i(2^i)
  and the basis is X_m = prod_{bit i of m} U_i.
- The FFT takes the coefficients of a polynomial of degree < N in that basis
  to its values on V: level i = log N - 1 .. 0 splits V into blocks of 2^(i+1)
  at offsets o and runs the butterfly ``lo ^= t * hi; hi ^= lo`` with
  t = U_i(o), one numpy step per level.  The IFFT runs it backwards.
- The formal derivative of X_m is sum_{bit l of m} c_l X_(m - 2^l), where
  c_l is the linear coefficient of U_l, so it is one masked step per level.

The erasure decoder follows Lin, Al-Naffouri, Han & Chung (IEEE Trans. IT
2016).  With erased set E = V minus the known points and error locator
l(x) = prod_{e in E} (x ^ e), Q = P * l has degree < N and is known on all of
V (zero on E), so Q = IFFT of those values.  At an erased e,
Q'(e) = P(e) * l'(e), so P(e) = FFT(derivative of Q)(e) / l'(e).  The logs of
l on the known points and of l' on E are the one XOR convolution
sum_{e in E} log(x ^ e) (log 0 = 0 drops the self term), done with two exact
int64 Walsh-Hadamard transforms and one reduction mod 2^16 - 1;
``generator_matrix`` takes its barycentric log-sums from the same helper.  The
transforms have constant geometry: every step reads the even and odd entries
of one buffer and writes sums and differences to the two halves of another,
all contiguous or stride 2.  The reduction folds 16-bit digits (2^16 = 1 mod
2^16 - 1) instead of dividing, and the inverse transform's 1 / N is folded
into the cached transform of the log table.  The derivative reads log Q once
for all its levels.

Each call runs only the butterflies whose results it reads.  Q is zero above
the highest known point, so below the top level the IFFT skips the blocks that
start there; the FFT runs only the blocks between the lowest and the highest
wanted point.  An encode at r = 2 thus transforms the lower half of V going in
and the upper half coming out.  An encode always knows 0..f-1, so its locator
logs are built once per (log N, f) and cached read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gf import GF2, field


class InsufficientSymbolsError(ValueError):
    """Raised when fewer than f distinct coded symbols are supplied for decoding."""


@dataclass(frozen=True)
class CodecConfig:
    """Shape of one coded file: (n, f) evaluation code over GF(2^16)."""

    f: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.f <= self.n <= (1 << 16) - 1:
            raise ValueError(f"need 1 <= f <= n <= 65535 for GF(2^16), got f={self.f}, n={self.n}")

    @staticmethod
    def from_expansion(f: int, r: Fraction | int) -> "CodecConfig":
        n = Fraction(r) * f
        if n.denominator != 1:
            raise ValueError(f"expansion factor {r} does not give an integer codeword length at f={f}")
        return CodecConfig(f=f, n=int(n))

    @property
    def gf(self) -> GF2:
        return field(16)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Transform(NamedTuple):
    """Per-log N constants of the transforms, logs as in ``GF2.log``."""

    skews: tuple[np.ndarray, ...]  # level i: log U_i(o) per block offset o, a column
    slopes: tuple[int, ...]  # level l: log c_l, the derivative of U_l
    log_hat: np.ndarray  # WHT of gf.log[:N] with log 0 = 0, divided by N, mod 2^16 - 1


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of an int64 array of length 2^L, as a new array.

    Constant geometry: each of the L steps pairs the even and odd entries of
    one buffer and writes their sums to the lower half of the other, their
    differences to the upper half.  A step rotates the index bits right by
    one, so after L steps each bit has had its butterfly and is back in place.
    """
    half = len(x) // 2
    if not half:
        return x.astype(np.int64)
    buffers = np.empty(len(x), dtype=np.int64), np.empty(len(x), dtype=np.int64)
    for step in range(half.bit_length()):
        even, odd = x[0::2], x[1::2]
        x = buffers[step & 1]
        np.add(even, odd, out=x[:half])
        np.subtract(even, odd, out=x[half:])
    return x


def _mod_q1(x: np.ndarray) -> np.ndarray:
    """x mod q1 = 2^16 - 1, in [0, q1), of an int64 array by folding 16-bit digits (2^16 = 1).

    The shifts floor, so a negative x folds too: its top digit x >> 32 is
    negative, and two folds bring the sum of the three digits into [0, q1].
    """
    y, digit = x >> 32, x >> 16
    digit &= 0xFFFF
    y += digit
    np.bitwise_and(x, 0xFFFF, out=digit)
    y += digit
    for _ in range(2):  # in [-2^31, 2^31 + 2^17), then [-2^15, 3 * 2^15], then [0, q1]
        np.right_shift(y, 16, out=digit)
        y &= 0xFFFF
        y += digit
    y[y == 0xFFFF] = 0
    return y


@lru_cache(maxsize=None)
def _transform(levels: int) -> _Transform:
    """The transform constants over {0..2^levels - 1} in GF(2^16), built once."""
    gf = field(16)
    log = gf.log
    # w[j] = W_i(2^j) for the current level i, from W_{i+1}(x) = W_i(x) (W_i(x) ^ W_i(2^i))
    w = [1 << j for j in range(levels)]
    slope = 1  # linear coefficient of W_i: W_{i+1} = W_i^2 + W_i(2^i) W_i
    skews, slopes = [], []
    for i in range(levels):
        norm = gf.inv(w[i])
        # U_i is linear, so its value at the offset b * 2^(i+1) XORs its values at the bits of b
        at_offsets = np.zeros(1, dtype=np.int64)
        for j in range(i + 1, levels):
            at_offsets = np.concatenate([at_offsets, at_offsets ^ gf.mul(w[j], norm)])
        skews.append(_readonly(log[at_offsets][:, None]))
        slopes.append(int(log[gf.mul(slope, norm)]))
        slope = gf.mul(slope, w[i])
        w = [gf.mul(x, x ^ w[i]) for x in w]
    q1 = gf.order - 1
    # % q1 sends the sentinel log 0 = 2 q1 to 0; the transform runs in int64, and
    # 2^(16 - levels) is 1 / 2^levels mod q1, the inverse transform's scale
    log_hat = _walsh_hadamard((log[: 1 << levels] % q1).astype(np.int64))
    log_hat = log_hat * (1 << (16 - levels)) % q1
    return _Transform(tuple(skews), tuple(slopes), _readonly(log_hat))


def _log_sums(levels: int, members: np.ndarray) -> np.ndarray:
    """sum_{s in members} log(x ^ s) mod 2^16 - 1 for every x in {0..2^levels - 1}.

    ``members`` is a 0/1 int64 indicator over that set.  log 0 = 0, so a
    member's own term drops out of its sum.  The sum is the XOR convolution
    WHT(WHT(members) * WHT(log)) / 2^levels of the indicator with the log
    table, reduced once at the end; ``log_hat`` already holds the 1 / 2^levels.
    The product lies within N q1 of 0 and the second transform within
    N^2 q1 <= 2^48, so int64 holds both exactly.
    """
    spectrum = _walsh_hadamard(members)
    spectrum *= _transform(levels).log_hat
    spectrum = _walsh_hadamard(spectrum)
    return _mod_q1(spectrum)


def _locator(levels: int, known: np.ndarray) -> np.ndarray:
    """log l on the known points and log l' on the erased ones, l the erasure locator."""
    erased = np.ones(1 << levels, dtype=np.int64)
    erased[known] = 0
    return _log_sums(levels, erased)


@lru_cache(maxsize=8)
def _encoder_locator(levels: int, f: int) -> np.ndarray:
    """``_locator`` of an encode, whose known points are always 0..f-1."""
    return _readonly(_locator(levels, np.arange(f)))


def _erasure_decode(levels: int, known: np.ndarray, values: np.ndarray,
                    wanted: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Values at the erased points ``wanted`` of the polynomial of degree < len(known)
    through (known, values), all points in {0..2^levels - 1}; ``ell`` is
    ``_locator(levels, known)``.

    The transforms skip the blocks they can prove zero or unread.  Below the
    top level the IFFT runs only on the blocks that start below max(known) + 1,
    since every block above holds zeros until the top level mixes it in.  The
    FFT at level i runs only on the blocks min(wanted) >> (i + 1) through
    max(wanted) >> (i + 1), the ones that hold a wanted point.
    """
    gf = field(16)
    q1 = gf.order - 1
    log, exp = gf.log, gf.exp
    skews, slopes, _ = _transform(levels)
    q = np.zeros(1 << levels, dtype=np.int32)
    q[known] = exp[log[values] + ell[known]]
    top = int(known.max()) + 1
    for i in range(levels):  # IFFT: values of Q = P * l on V -> coefficients
        blocks = -(-top >> (i + 1))
        pairs = q[: blocks << (i + 1)].reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0], pairs[:, 1]
        hi ^= lo
        lo ^= exp[log[hi] + skews[i][:blocks]]
    log_q, dq = log[q], np.zeros_like(q)
    for i in range(levels):  # formal derivative
        dq.reshape(-1, 2, 1 << i)[:, 0] ^= exp[log_q.reshape(-1, 2, 1 << i)[:, 1] + slopes[i]]
    first, last = int(wanted.min()), int(wanted.max())
    for i in reversed(range(levels)):  # FFT: coefficients of Q' -> values on V
        start, stop = first >> (i + 1), (last >> (i + 1)) + 1
        pairs = dq[start << (i + 1): stop << (i + 1)].reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo ^= exp[log[hi] + skews[i][start:stop]]
        hi ^= lo
    return exp[log[dq[wanted]] + (q1 - ell[wanted])]


def _levels(config: CodecConfig) -> int:
    """log2 of N, the smallest power of two holding every codeword point."""
    return (config.n - 1).bit_length()


def mds_encode(message, config: CodecConfig) -> np.ndarray:
    """Encode f message symbols into n coded symbols; the first f are the message."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape != (config.f,):
        raise ValueError(f"message must hold exactly {config.f} symbols, got shape {msg.shape}")
    if msg.size and (msg.min() < 0 or msg.max() >= config.gf.order):
        raise ValueError(f"message symbols must lie in [0, {config.gf.order})")
    out = np.zeros(config.n, dtype=np.int64)
    out[: config.f] = msg
    if config.n > config.f:
        levels = _levels(config)
        out[config.f:] = _erasure_decode(levels, np.arange(config.f), msg,
                                         np.arange(config.f, config.n),
                                         _encoder_locator(levels, config.f))
    return out


def mds_decode(points, config: CodecConfig) -> np.ndarray:
    """Recover the f message symbols from any >= f distinct (index, value) pairs.

    ``points`` is an (m, 2) integer array or a sequence of pairs.
    """
    pairs = np.asarray(points if isinstance(points, np.ndarray) else list(points),
                       dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"points must be (index, value) pairs, got shape {pairs.shape}")
    idx, vals = pairs[:, 0], pairs[:, 1]
    distinct, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    # report whichever fault comes first in the input, as a scan of the pairs would
    outside = (idx < 0) | (idx >= config.n)
    unfit = (vals < 0) | (vals >= config.gf.order)
    conflict = vals != vals[first[inverse]]
    faulty = np.flatnonzero(outside | unfit | conflict)
    if faulty.size:
        at = faulty[0]
        if outside[at]:
            raise ValueError(f"coded index {idx[at]} outside [0, {config.n})")
        if unfit[at]:
            raise ValueError(
                f"value {vals[at]} of coded index {idx[at]} outside [0, {config.gf.order})")
        raise ValueError(f"conflicting values supplied for coded index {idx[at]}")
    if len(distinct) < config.f:
        raise InsufficientSymbolsError(
            f"need {config.f} distinct coded symbols to decode, got {len(distinct)}"
        )
    # ascending indices put the systematic symbols first, then the lowest parity indices
    known = distinct[: config.f]
    values = vals[first[: config.f]]
    message = np.zeros(config.f, dtype=np.int64)
    have = known[known < config.f]
    message[have] = values[: len(have)]
    if len(have) < config.f:
        missing = np.setdiff1d(np.arange(config.f), have, assume_unique=True)
        levels = _levels(config)
        message[missing] = _erasure_decode(levels, known, values, missing,
                                           _locator(levels, known))
    return message


def generator_matrix(config: CodecConfig, basis=None, rows=None) -> np.ndarray:
    """Dense matrix G with codeword = G @ codeword[basis]; intended for small f.

    ``basis`` is f distinct coded indices, 0..f-1 (the message) by default;
    ``rows`` lists the coded indices whose rows are built, all n by default.
    Row basis[i] is the unit row e_i; every other row holds
    G[t, i] = ell(t) * w_i / (t - b_i) with b_i = basis[i], the barycentric
    coefficient of node b_i at target t, where ell(t) = prod_j (t - b_j) and
    1 / w_i = prod_{j != i} (b_i - b_j).
    """
    gf = config.gf
    q1 = gf.order - 1
    basis = np.arange(config.f) if basis is None else np.asarray(basis, dtype=np.int64)
    rows = np.arange(config.n) if rows is None else np.asarray(rows, dtype=np.int64)
    levels = _levels(config)
    nodes = np.zeros(1 << levels, dtype=np.int64)
    if basis.shape == (config.f,) and basis.min() >= 0 and basis.max() < config.n:
        nodes[basis] = 1
    if nodes.sum() != config.f:  # also when an index repeats
        raise ValueError(f"basis must be {config.f} distinct coded indices in [0, {config.n})")
    mat = np.zeros((rows.size, config.f), dtype=np.int64)
    unit = nodes[rows] == 1
    mat[unit] = rows[unit, None] == basis[None, :]
    # log ell(t) at the targets and log 1 / w_i at the nodes
    sums = _log_sums(levels, nodes)
    targets = rows[~unit]
    logs = sums[targets, None] - sums[None, basis]
    logs -= gf.log[targets[:, None] ^ basis[None, :]]
    logs %= q1
    mat[~unit] = gf.exp[logs]
    return mat
