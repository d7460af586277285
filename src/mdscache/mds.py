"""Systematic maximum-distance-separable erasure codec.

A file of f symbols is treated as the values of a polynomial of degree < f
evaluated at the field elements 0..f-1.  The codeword extends the file with
evaluations at f..n-1, so coded symbols 0..f-1 are the file itself and any f
distinct coded symbols determine the polynomial, hence the file.

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
sum_{e in E} log(x ^ e) (log 0 = 0 drops the self term), done with integer
Walsh-Hadamard transforms; ``generator_matrix`` takes its barycentric log-sums
from the same helper.
"""
from __future__ import annotations

import json
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
    """Shape of one coded file: (n, f) evaluation code over GF(2^field_width)."""

    f: int
    n: int
    field_width: int = 16

    def __post_init__(self) -> None:
        if self.field_width not in (8, 16):
            raise ValueError(f"field_width must be 8 or 16, got {self.field_width}")
        limit = (1 << self.field_width) - 1
        if not 1 <= self.f <= self.n <= limit:
            raise ValueError(
                f"need 1 <= f <= n <= {limit} for GF(2^{self.field_width}), got f={self.f}, n={self.n}"
            )

    @staticmethod
    def from_expansion(f: int, r: Fraction | int, field_width: int = 16) -> "CodecConfig":
        n = Fraction(r) * f
        if n.denominator != 1:
            raise ValueError(f"expansion factor {r} does not give an integer codeword length at f={f}")
        return CodecConfig(f=f, n=int(n), field_width=field_width)

    @property
    def gf(self) -> GF2:
        return field(self.field_width)

    def to_json(self) -> str:
        return json.dumps(
            {
                "f": self.f,
                "n": self.n,
                "field_width": self.field_width,
                "generator": {"family": "systematic-evaluation", "points": "0..n-1"},
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "CodecConfig":
        obj = json.loads(text)
        gen = obj.get("generator", {})
        if gen.get("family") not in (None, "systematic-evaluation"):
            raise ValueError(f"unknown generator family {gen.get('family')!r}")
        return CodecConfig(f=obj["f"], n=obj["n"], field_width=obj["field_width"])


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Transform(NamedTuple):
    """Per-(field width, log N) constants of the transforms, logs as in ``GF2.log``."""

    skews: tuple[np.ndarray, ...]  # level i: log U_i(o) per block offset o, a column
    slopes: tuple[int, ...]  # level l: log c_l, the derivative of U_l
    log_hat: np.ndarray  # Walsh-Hadamard transform of gf.log[:N] with log 0 = 0, mod 2^width - 1


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of an int64 array of length 2^L, in place."""
    half = 1
    while half < len(x):
        pairs = x.reshape(-1, 2, half)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        half *= 2
    return x


@lru_cache(maxsize=None)
def _transform(width: int, levels: int) -> _Transform:
    """The transform constants over {0..2^levels - 1} in GF(2^width), built once."""
    gf = field(width)
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
    # % q1 sends the sentinel log 0 = 2 q1 to 0; the transform runs in int64
    log_hat = _walsh_hadamard((log[: 1 << levels] % q1).astype(np.int64)) % q1
    return _Transform(tuple(skews), tuple(slopes), _readonly(log_hat))


def _log_sums(width: int, levels: int, members: np.ndarray) -> np.ndarray:
    """sum_{s in members} log(x ^ s) mod 2^width - 1 for every x in {0..2^levels - 1}.

    ``members`` is a 0/1 int64 indicator over that set.  log 0 = 0, so a
    member's own term drops out of its sum.  The sum is the XOR convolution of
    the indicator with the log table; every product and transform stays below
    2^33 because both are reduced mod 2^width - 1, and dividing by 2^levels is
    multiplying by 2^(width - levels), its inverse mod the odd 2^width - 1.
    """
    q1 = (1 << width) - 1
    spectrum = _walsh_hadamard(members.copy()) * _transform(width, levels).log_hat % q1
    return _walsh_hadamard(spectrum) % q1 * (1 << (width - levels)) % q1


def _erasure_decode(width: int, levels: int, known: np.ndarray, values: np.ndarray,
                    wanted: np.ndarray) -> np.ndarray:
    """Values at the erased points ``wanted`` of the polynomial of degree < len(known)
    through (known, values), all points in {0..2^levels - 1}."""
    gf = field(width)
    q1 = gf.order - 1
    log, exp = gf.log, gf.exp
    skews, slopes, _ = _transform(width, levels)
    erased = np.ones(1 << levels, dtype=np.int64)
    erased[known] = 0
    ell = _log_sums(width, levels, erased)  # log l on the known points, log l' on the erased
    q = np.zeros(1 << levels, dtype=np.int32)
    q[known] = exp[log[values] + ell[known]]
    for i in range(levels):  # IFFT: values of Q = P * l on V -> coefficients
        pairs = q.reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0], pairs[:, 1]
        hi ^= lo
        lo ^= exp[log[hi] + skews[i]]
    dq = np.zeros_like(q)
    for i in range(levels):  # formal derivative
        dq.reshape(-1, 2, 1 << i)[:, 0] ^= exp[log[q.reshape(-1, 2, 1 << i)[:, 1]] + slopes[i]]
    for i in reversed(range(levels)):  # FFT: coefficients of Q' -> values on V
        pairs = dq.reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo ^= exp[log[hi] + skews[i]]
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
        out[config.f:] = _erasure_decode(config.field_width, _levels(config),
                                         np.arange(config.f), msg,
                                         np.arange(config.f, config.n))
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
    outside = np.flatnonzero((idx < 0) | (idx >= config.n))[:1]
    conflict = np.flatnonzero(vals != vals[first[inverse]])[:1]
    if outside.size and not (conflict.size and conflict[0] < outside[0]):
        raise ValueError(f"coded index {idx[outside[0]]} outside [0, {config.n})")
    if conflict.size:
        raise ValueError(f"conflicting values supplied for coded index {idx[conflict[0]]}")
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
        message[missing] = _erasure_decode(config.field_width, _levels(config),
                                           known, values, missing)
    return message


def generator_matrix(config: CodecConfig) -> np.ndarray:
    """Dense n x f matrix G with codeword = G @ message; intended for small f.

    Rows below the identity hold G[t, i] = ell(t) * w_i / (t - i), the
    barycentric coefficient of message symbol i at target t, with
    ell(t) = prod_j (t - j) and 1 / w_i = prod_{j != i} (i - j) over j < f.
    """
    gf = config.gf
    q1 = gf.order - 1
    mat = np.zeros((config.n, config.f), dtype=np.int64)
    mat[: config.f] = np.eye(config.f, dtype=np.int64)
    levels = _levels(config)
    nodes = np.zeros(1 << levels, dtype=np.int64)
    nodes[: config.f] = 1
    # log ell(t) at the targets and log 1 / w_i at the nodes
    sums = _log_sums(config.field_width, levels, nodes)
    targets = np.arange(config.f, config.n)
    d_log = gf.log[targets[:, None] ^ np.arange(config.f)[None, :]]
    mat[config.f:] = gf.exp[(sums[targets, None] - sums[None, : config.f] - d_log) % q1]
    return mat
