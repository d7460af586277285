"""Systematic maximum-distance-separable erasure codec.

A file of f symbols is treated as the values of a polynomial of degree < f
evaluated at the field elements 0..f-1.  The codeword extends the file with
evaluations at f..n-1, so coded symbols 0..f-1 are the file itself and any f
distinct coded symbols determine the polynomial, hence the file.
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


def _weights(gf: GF2, nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights w_j = 1 / prod_{i != j} (x_j - x_i) over the given nodes."""
    order = gf.order
    w_logs = np.empty(len(nodes), dtype=np.int64)
    for j in range(len(nodes)):
        diffs = nodes ^ nodes[j]
        diffs[j] = 1  # neutral factor for the excluded index
        w_logs[j] = int(gf.log_np[diffs].sum() % (order - 1))
    return gf.exp_np[(order - 1 - w_logs) % (order - 1)]


@lru_cache(maxsize=32)
def _node_weights(f: int, field_width: int) -> np.ndarray:
    """Barycentric weights for the systematic nodes 0..f-1."""
    return _weights(field(field_width), np.arange(f, dtype=np.int64))


def _interpolate(gf: GF2, nodes: np.ndarray, values: np.ndarray, targets: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Evaluate the degree < len(nodes) polynomial through (nodes, values) at targets."""
    order = gf.order
    wy = gf.mul_vec(weights, values)
    zero = wy == 0
    wy_log = gf.log_np[np.where(zero, 1, wy)]
    out = np.empty(len(targets), dtype=np.int64)
    for t_pos, t in enumerate(targets):
        diffs = np.int64(t) ^ nodes  # never zero: targets avoid the nodes
        d_log = gf.log_np[diffs]
        terms = gf.exp_np[(wy_log - d_log) % (order - 1)]
        terms = np.where(zero, 0, terms)
        s = int(np.bitwise_xor.reduce(terms))
        ell_log = int(d_log.sum() % (order - 1))
        out[t_pos] = gf.mul(gf.exp[ell_log], s)
    return out


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
    """Dense n x f matrix G with codeword = G @ message; intended for small f."""
    mat = np.zeros((config.n, config.f), dtype=np.int64)
    for j in range(config.f):
        unit = np.zeros(config.f, dtype=np.int64)
        unit[j] = 1
        mat[:, j] = mds_encode(unit, config)
    return mat
