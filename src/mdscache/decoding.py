"""Receiver-side decoding of broadcast schedules.

Two fidelities are implemented:

* accounting: repeatedly strip XOR components whose symbols are already known
  until a fixpoint, over the transmitted messages, the skipped subset
  messages the schedule rebuilt as XOR combinations of transmitted ones and
  the earlier users' top-ups, then add the user's own top-up and reconstruct
  the file from >= f known coded symbols; ``deliver`` runs this same pass
* exact: decide recoverability of the requested file by rank analysis of the
  user's linear observations over the symbol field (small f only)
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mds import CodecConfig, generator_matrix, mds_decode
from .params import SystemParams, iter_subset_masks, mask_users


@dataclass(frozen=True)
class MessageComponent:
    """One XOR term: a prefix of user `user`'s needed block of file `file`."""

    user: int
    file: int
    block_mask: int
    indices: np.ndarray  # covered coded indices, ascending
    full_len: int        # block length before truncation


@dataclass
class BroadcastMessage:
    """One multicast transmission: XOR of component block prefixes, truncated."""

    j: int
    subset_mask: int
    length: int
    payload: np.ndarray | None
    components: tuple[MessageComponent, ...]
    kind: str = "main"  # main | fallback | topup | virtual


def direct_message(user: int, file: int, indices: np.ndarray, values: np.ndarray,
                   kind: str = "topup") -> BroadcastMessage:
    comp = MessageComponent(user=user, file=file, block_mask=0,
                            indices=indices, full_len=len(indices))
    return BroadcastMessage(j=0, subset_mask=1 << user, length=len(indices),
                            payload=values.copy(), components=(comp,), kind=kind)


class UserKnowledge:
    """Monotone per-file map of coded symbol index to value known by one user."""

    def __init__(self, coded_len: int):
        self.coded_len = coded_len
        self._mask: dict[int, np.ndarray] = {}
        self._vals: dict[int, np.ndarray] = {}

    def _ensure(self, file: int) -> None:
        if file not in self._mask:
            self._mask[file] = np.zeros(self.coded_len, dtype=bool)
            self._vals[file] = np.zeros(self.coded_len, dtype=np.int64)

    def add(self, file: int, indices: np.ndarray, values: np.ndarray) -> None:
        self._ensure(file)
        self._mask[file][indices] = True
        self._vals[file][indices] = values

    def knows_all(self, file: int, indices: np.ndarray) -> bool:
        if len(indices) == 0:
            return True
        if file not in self._mask:
            return False
        return bool(self._mask[file][indices].all())

    def values(self, file: int, indices: np.ndarray) -> np.ndarray:
        return self._vals[file][indices]

    def count(self, file: int) -> int:
        if file not in self._mask:
            return 0
        return int(self._mask[file].sum())

    def mask(self, file: int) -> np.ndarray:
        self._ensure(file)
        return self._mask[file]

    def known_points(self, file: int) -> tuple[np.ndarray, np.ndarray]:
        self._ensure(file)
        idx = np.flatnonzero(self._mask[file])
        return idx, self._vals[file][idx]


def seed_from_cache(cache_view: dict[int, tuple[np.ndarray, np.ndarray]],
                    coded_len: int) -> UserKnowledge:
    know = UserKnowledge(coded_len)
    for file, (indices, values) in cache_view.items():
        know.add(file, indices, values)
    return know


def strip_fixpoint(know: UserKnowledge, messages) -> None:
    """Strip known XOR components until no message yields anything new.

    A message yields its single unknown component's covered symbols once every
    other component is fully known.
    """
    pending = [m for m in messages if m.length > 0]
    progress = True
    while progress:
        progress = False
        remaining = []
        for msg in pending:
            unknown = [c for c in msg.components if not know.knows_all(c.file, c.indices)]
            if len(unknown) == 0:
                continue
            if len(unknown) > 1:
                remaining.append(msg)
                continue
            c = unknown[0]
            lc = len(c.indices)
            acc = msg.payload[:lc].copy()
            for other in msg.components:
                if other is c:
                    continue
                lo = min(len(other.indices), lc)
                if lo:
                    acc[:lo] ^= know.values(other.file, other.indices[:lo])
            know.add(c.file, c.indices, acc)
            progress = True
        pending = remaining


def synthesize_skipped(k: int, leaders_mask: int, demand0,
                       messages) -> tuple[list[BroadcastMessage], list[tuple[int, int]]]:
    """Rebuild each skipped subset's message as an XOR of transmitted ones.

    Works per subset size over GF(2): each transmitted message is a vector over
    the blocks it XORs; Gaussian elimination finds a combination matching the
    skipped subset's blocks.  Returns (virtual messages, unsolved (j, mask)).
    """
    virtuals: list[BroadcastMessage] = []
    unsolved: list[tuple[int, int]] = []
    by_j: dict[int, list[BroadcastMessage]] = {}
    for m in messages:
        if m.kind in ("main", "fallback") and m.length > 0:
            by_j.setdefault(m.j, []).append(m)
    for j, msgs in by_j.items():
        if j < 2:
            # a skipped singleton duplicates its file leader's plain message
            continue
        skipped = [s for s in iter_subset_masks(k, j) if not s & leaders_mask]
        if not skipped:
            continue
        block_ids: dict[tuple[int, int], int] = {}

        def vec_of(components) -> int:
            v = 0
            for file, bmask in components:
                bid = block_ids.setdefault((file, bmask), len(block_ids))
                v ^= 1 << bid
            return v

        basis: dict[int, tuple[int, int]] = {}  # msb -> (vector, combo over messages)
        for i, m in enumerate(msgs):
            v = vec_of((c.file, c.block_mask) for c in m.components)
            combo = 1 << i
            while v:
                h = v.bit_length() - 1
                if h in basis:
                    bv, bc = basis[h]
                    v ^= bv
                    combo ^= bc
                else:
                    basis[h] = (v, combo)
                    break
        for smask in skipped:
            target = [(demand0[u], smask & ~(1 << u)) for u in mask_users(smask)]
            v = vec_of(target)
            combo = 0
            while v:
                h = v.bit_length() - 1
                if h not in basis:
                    combo = None
                    break
                bv, bc = basis[h]
                v ^= bv
                combo ^= bc
            if combo is None or combo == 0:
                unsolved.append((j, smask))
                continue
            sel = [msgs[i] for i in range(len(msgs)) if combo >> i & 1]
            built = _combine(sel, smask, j, set(target))
            if built is None:
                unsolved.append((j, smask))
            else:
                virtuals.append(built)
    return virtuals, unsolved


def _combine(sel: list[BroadcastMessage], smask: int, j: int,
             expected: set[tuple[int, int]]) -> BroadcastMessage | None:
    length = min(m.length for m in sel)
    if length == 0:
        return None
    payload = np.zeros(length, dtype=np.int64)
    survivors: dict[tuple[int, int], MessageComponent] = {}
    parity: dict[tuple[int, int], int] = {}
    for m in sel:
        payload ^= m.payload[:length]
        for c in m.components:
            key = (c.file, c.block_mask)
            parity[key] = parity.get(key, 0) ^ 1
            prev = survivors.get(key)
            if prev is None or len(c.indices) > len(prev.indices):
                survivors[key] = c
    odd = {key for key, p in parity.items() if p}
    if odd != expected:
        return None
    comps = []
    for key in sorted(odd):
        src = survivors[key]
        user_mask = smask & ~key[1]
        if user_mask.bit_count() != 1:
            return None
        covered = src.indices[: min(length, src.full_len)]
        comps.append(MessageComponent(
            user=user_mask.bit_length() - 1, file=key[0], block_mask=key[1],
            indices=covered, full_len=src.full_len,
        ))
    return BroadcastMessage(j=j, subset_mask=smask, length=length, payload=payload,
                            components=tuple(comps), kind="virtual")


@dataclass
class DecodeResult:
    success: bool
    known: int
    deficit: int
    symbols: np.ndarray | None
    failure: str | None
    points: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def decode_user(params: SystemParams, user: int,
                cache_view: dict[int, tuple[np.ndarray, np.ndarray]],
                schedule, mode: str = "accounting",
                codec: CodecConfig | None = None) -> DecodeResult:
    """Decode one user's requested file from its cache and the broadcast schedule."""
    if mode == "accounting":
        return _decode_accounting(params, user, cache_view, schedule, codec)
    if mode == "exact":
        if codec is None:
            raise ValueError("exact mode needs the codec that generated the coded files")
        return _decode_exact(params, user, cache_view, schedule, codec)
    raise ValueError(f"unknown decode mode {mode!r}")


def decode_points(params: SystemParams, user: int, points: tuple[np.ndarray, np.ndarray],
                  codec: CodecConfig | None = None) -> DecodeResult:
    """Accounting outcome for a user who knows `points`, the (indices, values)
    of its requested file; with a codec, the file is reconstructed from them."""
    idx, vals = points
    deficit = max(0, params.f - len(idx))
    if deficit > 0:
        return DecodeResult(False, len(idx), deficit, None,
                            f"user {user} is short {deficit} symbols", points=points)
    symbols = None
    if codec is not None:
        symbols = mds_decode(zip(idx.tolist(), vals.tolist()), codec)
    return DecodeResult(True, len(idx), 0, symbols, None, points=points)


def _decode_accounting(params, user, cache_view, schedule, codec) -> DecodeResult:
    file0 = schedule.demand.zero_based[user]
    know = seed_from_cache(cache_view, params.coded_len)
    earlier = [m for m in schedule.topups if m.components[0].user < user]
    own = [m for m in schedule.topups if m.components[0].user == user]
    strip_fixpoint(know, [*schedule.messages, *schedule.virtuals, *earlier])
    strip_fixpoint(know, own)
    res = decode_points(params, user, know.known_points(file0), codec)
    if not res.success:
        res.failure = _failure_text(know, schedule, user, file0, res.deficit)
    return res


def _failure_text(know, schedule, user, file0, deficit) -> str:
    for msg in schedule.messages:
        for c in msg.components:
            if c.user == user and c.file == file0 and not know.knows_all(c.file, c.indices):
                subset = ",".join(str(u) for u in mask_users(c.block_mask))
                return (f"user {user} is short {deficit} symbols; first unrecovered block "
                        f"is the one cached by users {{{subset}}} ({c.full_len} symbols)")
    return (f"user {user} is short {deficit} symbols; every scheduled block was "
            f"recovered, the shortfall comes from per-message truncation")


def _decode_exact(params, user, cache_view, schedule, codec) -> DecodeResult:
    """Rank criterion: target symbols are determined iff appending the target
    columns to the observation matrix raises its pivot count by exactly f."""
    file0 = schedule.demand.zero_based[user]
    f = params.f
    n_files = params.n_files
    gen = generator_matrix(codec)
    # column blocks: all other files first, the requested file last
    order = [nf for nf in range(n_files) if nf != file0] + [file0]
    offset = {nf: i * f for i, nf in enumerate(order)}
    split = (n_files - 1) * f
    rows: list[np.ndarray] = []

    def add_rows(block_rows: np.ndarray, file: int) -> None:
        chunk = np.zeros((block_rows.shape[0], n_files * f), dtype=np.int64)
        chunk[:, offset[file]: offset[file] + f] = block_rows
        rows.append(chunk)

    for nf, (indices, _) in cache_view.items():
        if len(indices):
            add_rows(gen[indices], nf)
    for msg in list(schedule.messages) + list(schedule.topups):
        if msg.length == 0:
            continue
        chunk = np.zeros((msg.length, n_files * f), dtype=np.int64)
        for c in msg.components:
            lc = len(c.indices)
            if lc:
                chunk[:lc, offset[c.file]: offset[c.file] + f] ^= gen[c.indices]
        rows.append(chunk)
    mat = np.concatenate(rows, axis=0)
    p_other, p_target = _pivot_counts(codec.gf, mat, split)
    success = p_target == f
    deficit = f - p_target
    failure = None if success else (
        f"user {user}: observations pin down only {p_target} of {f} dimensions of file {file0 + 1}"
    )
    return DecodeResult(success, p_target, deficit, None, failure)


def _pivot_counts(gf, mat: np.ndarray, split: int) -> tuple[int, int]:
    """Row reduce left to right; pivots left of `split` also give the rank of
    the matrix with the right-hand columns deleted (they sit below the split
    pivots in echelon order)."""
    n_rows, n_cols = mat.shape
    used = np.zeros(n_rows, dtype=bool)
    p_left = p_right = 0
    for col in range(n_cols):
        colvals = mat[:, col]
        cand = np.flatnonzero((colvals != 0) & ~used)
        if cand.size == 0:
            continue
        pr = int(cand[0])
        used[pr] = True
        inv = gf.inv(int(mat[pr, col]))
        mat[pr] = gf.mul_vec(mat[pr], np.int64(inv))
        others = np.flatnonzero(mat[:, col] != 0)
        others = others[others != pr]
        if others.size:
            factors = mat[others, col]
            mat[others] ^= gf.mul_vec(factors[:, None], mat[pr][None, :])
        if col < split:
            p_left += 1
        else:
            p_right += 1
    return p_left, p_right
