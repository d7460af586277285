"""Systematic maximum-distance-separable erasure codec.

A file of f symbols is treated as the values of a polynomial of degree < f
evaluated at the field elements 0..f-1.  The codeword extends the file with
evaluations at f..n-1, so coded symbols 0..f-1 are the file itself and any f
distinct coded symbols determine the polynomial, hence the file.

Encode and decode evaluate the barycentric form in the log domain, one block
of targets against every node per numpy call; ``generator_matrix`` is the
same form in closed form over all targets at once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


_BLOCK_ELEMENTS = 1 << 14  # keeps each (rows x nodes) int64 temporary near 128 KB


def _log_diffs(gf: GF2, points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """log(p ^ x) for every point p (rows) against every node x (columns)."""
    return gf.log_np[points[:, None] ^ nodes[None, :]]


def _blocks(rows: int, cols: int):
    """Row slices that hold about _BLOCK_ELEMENTS elements of a rows x cols array."""
    step = max(1, _BLOCK_ELEMENTS // cols)
    return (slice(start, start + step) for start in range(0, rows, step))


def _weights(gf: GF2, nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights w_j = 1 / prod_{i != j} (x_j - x_i) over the given nodes.

    The self term x_j ^ x_j = 0 has log 0, so it drops out of the row sums.
    """
    q1 = gf.order - 1
    w_logs = np.empty(len(nodes), dtype=np.int64)
    for rows in _blocks(len(nodes), len(nodes)):
        w_logs[rows] = _log_diffs(gf, nodes[rows], nodes).sum(axis=1) % q1
    return gf.exp_np[q1 - w_logs]


@lru_cache(maxsize=32)
def _node_weights(f: int, field_width: int) -> np.ndarray:
    """Barycentric weights for the systematic nodes 0..f-1."""
    return _weights(field(field_width), np.arange(f, dtype=np.int64))


def _interpolate(gf: GF2, nodes: np.ndarray, values: np.ndarray, targets: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Evaluate the degree < len(nodes) polynomial through (nodes, values) at targets.

    p(t) = ell(t) * sum_j w_j y_j / (t - x_j) with ell(t) = prod_j (t - x_j).
    """
    q1 = gf.order - 1
    wy = gf.mul_vec(weights, values)
    zero = wy == 0
    has_zero = bool(zero.any())
    # exp_np is doubled, so log(w_j y_j) + q1 - log(t - x_j) indexes it without a modulo;
    # a zero w_j y_j borrows log 0 (the term 1/(t - x_j)) and its column is XOR-ed back out
    wy_log = gf.log_np[wy] + q1
    ell_logs = np.empty(len(targets), dtype=np.int64)
    sums = np.empty(len(targets), dtype=np.int64)
    for rows in _blocks(len(targets), len(nodes)):
        d_log = _log_diffs(gf, targets[rows], nodes)  # t ^ x_j != 0: targets avoid the nodes
        ell_logs[rows] = d_log.sum(axis=1) % q1
        terms = gf.exp_np[np.subtract(wy_log, d_log, out=d_log)]
        del d_log  # drop both block arrays before the next block: keeps peak memory at ~2 blocks
        sums[rows] = np.bitwise_xor.reduce(terms, axis=1)
        if has_zero:
            sums[rows] ^= np.bitwise_xor.reduce(terms[:, zero], axis=1)
        del terms
    return gf.mul_vec(gf.exp_np[ell_logs], sums)


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
        weights = _node_weights(config.f, config.field_width)
        nodes = np.arange(config.f, dtype=np.int64)
        targets = np.arange(config.f, config.n, dtype=np.int64)
        out[config.f:] = _interpolate(config.gf, nodes, msg, targets, weights)
    return out


def mds_decode(points, config: CodecConfig) -> np.ndarray:
    """Recover the f message symbols from any >= f distinct (index, value) pairs."""
    chosen: dict[int, int] = {}
    for idx, val in points:
        idx = int(idx)
        val = int(val)
        if not 0 <= idx < config.n:
            raise ValueError(f"coded index {idx} outside [0, {config.n})")
        if idx in chosen:
            if chosen[idx] != val:
                raise ValueError(f"conflicting values supplied for coded index {idx}")
            continue
        chosen[idx] = val
    if len(chosen) < config.f:
        raise InsufficientSymbolsError(
            f"need {config.f} distinct coded symbols to decode, got {len(chosen)}"
        )
    # prefer systematic symbols, then the lowest parity indices
    systematic = sorted(i for i in chosen if i < config.f)
    parity = sorted(i for i in chosen if i >= config.f)
    picked = (systematic + parity)[: config.f]
    message = np.zeros(config.f, dtype=np.int64)
    have = np.zeros(config.f, dtype=bool)
    for i in systematic:
        message[i] = chosen[i]
        have[i] = True
    missing = np.flatnonzero(~have)
    if missing.size:
        nodes = np.asarray(picked, dtype=np.int64)
        values = np.asarray([chosen[int(i)] for i in picked], dtype=np.int64)
        message[missing] = _interpolate(config.gf, nodes, values, missing.astype(np.int64),
                                        _weights(config.gf, nodes))
    return message


def generator_matrix(config: CodecConfig) -> np.ndarray:
    """Dense n x f matrix G with codeword = G @ message; intended for small f.

    Rows below the identity hold G[t, i] = ell(t) * w_i / (t - i), the
    barycentric coefficient of message symbol i at target t.
    """
    gf = config.gf
    q1 = gf.order - 1
    mat = np.zeros((config.n, config.f), dtype=np.int64)
    mat[: config.f] = np.eye(config.f, dtype=np.int64)
    nodes = np.arange(config.f, dtype=np.int64)
    d_log = _log_diffs(gf, np.arange(config.f, config.n, dtype=np.int64), nodes)
    w_log = gf.log_np[_node_weights(config.f, config.field_width)]
    mat[config.f:] = gf.exp_np[(d_log.sum(axis=1, keepdims=True) + w_log - d_log) % q1]
    return mat
