"""Receiver-side decoding of broadcast schedules.

Two fidelities are implemented:

* accounting: add the earlier users' top-ups, strip XOR components whose
  symbols are already known until a fixpoint over the transmitted messages
  and the skipped subset messages the schedule rebuilt as XOR combinations of
  transmitted ones, then add the user's own top-up and reconstruct the file
  from >= f known coded symbols; ``deliver`` runs this same pass
* exact: decide recoverability of the requested file by rank analysis of the
  user's linear observations over the symbol field (small f only)

The stripping pass is event driven over a ``BroadcastIndex`` built once per
broadcast.  A message yields when all but one of its components are known.
Symbols added to one (file, block) can complete only components of that same
block, because the blocks partition each file's coded indices; so after a
message yields, only the components waiting on its block are checked again.
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
    """Monotone map of (file, coded symbol index) to value known by one user."""

    def __init__(self, n_files: int, coded_len: int):
        self._mask = np.zeros((n_files, coded_len), dtype=bool)
        self._vals = np.zeros((n_files, coded_len), dtype=np.int64)

    # rows are indexed first: one-dimensional fancy indexing is the fast kind
    def add(self, file: int, indices: np.ndarray, values: np.ndarray) -> None:
        self._mask[file][indices] = True
        self._vals[file][indices] = values

    def knows_all(self, file: int, indices: np.ndarray) -> bool:
        if len(indices) == 0:
            return True
        return bool(self._mask[file][indices].all())

    def values(self, file: int, indices: np.ndarray) -> np.ndarray:
        return self._vals[file][indices]

    def count(self, file: int) -> int:
        return int(self._mask[file].sum())

    def mask(self, file: int) -> np.ndarray:
        return self._mask[file]

    def known_points(self, file: int) -> tuple[np.ndarray, np.ndarray]:
        idx = np.flatnonzero(self._mask[file]).astype(np.int32)
        return idx, self._vals[file][idx]

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Writable views of mask and values, symbol (file, i) at file * coded_len + i."""
        return self._mask.reshape(-1), self._vals.reshape(-1)


def seed_from_cache(cache_view: dict[int, tuple[np.ndarray, np.ndarray]],
                    n_files: int, coded_len: int) -> UserKnowledge:
    know = UserKnowledge(n_files, coded_len)
    for file, (indices, values) in cache_view.items():
        know.add(file, indices, values)
    return know


def apply_direct(know: UserKnowledge, messages) -> None:
    """Add the symbols of one-component messages, such as top-ups: each one
    always yields its component."""
    for msg in messages:
        (c,) = msg.components
        if len(c.indices):
            know.add(c.file, c.indices, msg.payload[: len(c.indices)])


@dataclass(frozen=True)
class BroadcastIndex:
    """Read-only index of a broadcast's messages for the receiver pass.

    Built once per broadcast and shared by every receiver's pass; each pass
    keeps its own counts.  Only nonempty components are indexed, since an
    empty one is known to every receiver.  Messages with at least two
    components, one of them nonempty, are numbered 0..M-1 and their nonempty
    components 0..C-1, message by message.  Coded symbol i of a file sits at
    position file * coded_len + i.  Every array is int32 except `payload`
    (symbols) and `cat` (intp: a gather through int32 indices casts them
    first, which made the pass up to twice as slow on long components).
    """

    singles: tuple[BroadcastMessage, ...]  # one-component messages
    msg_start: np.ndarray  # message i owns components msg_start[i]:msg_start[i+1]
    pay_start: np.ndarray  # message i's payload starts at payload[pay_start[i]]
    payload: np.ndarray    # the messages' payloads, concatenated
    comp_msg: np.ndarray   # component -> message
    comp_len: np.ndarray   # component -> number of covered indices
    comp_off: np.ndarray   # component -> start of its segment in cat
    comp_key: np.ndarray   # component -> (file, block) key
    key_start: np.ndarray  # key q owns key_comps[key_start[q]:key_start[q+1]]
    key_comps: np.ndarray
    cat: np.ndarray        # the components' covered positions, concatenated in order

    @classmethod
    def build(cls, messages, coded_len: int) -> BroadcastIndex:
        """Index the nonempty `messages` of a library coded to `coded_len` symbols per file.

        Raises ValueError when two different (file, block) keys of
        multi-component messages share a coded index: the pass rechecks a
        component only when symbols of its own key are added.
        """
        live = [m for m in messages if m.length > 0]
        multi, parts = [], []
        for m in live:
            part = [c for c in m.components if len(c.indices)]
            if len(m.components) > 1 and part:
                multi.append(m)
                parts.append(part)
        comps = [c for part in parts for c in part]
        sizes = [len(part) for part in parts]
        msg_start = np.zeros(len(multi) + 1, dtype=np.int32)
        np.cumsum(sizes, out=msg_start[1:])
        lengths = np.array([m.length for m in multi], dtype=np.int64)
        pay_start = (np.cumsum(lengths) - lengths).astype(np.int32)
        payload = np.concatenate([m.payload for m in multi]) if multi else np.zeros(0, np.int64)
        comp_msg = np.repeat(np.arange(len(multi), dtype=np.int32), sizes)
        comp_file = np.fromiter((c.file for c in comps), np.int64, len(comps))
        comp_len = np.fromiter((len(c.indices) for c in comps), np.int32, len(comps))
        if np.any(comp_len > lengths[comp_msg]):
            raise ValueError("a message component covers more symbols than the message carries")
        # keys (file << 32 | block mask) are numbered in ascending order
        full_key = comp_file << 32 | np.fromiter((c.block_mask for c in comps), np.int64,
                                                 len(comps))
        key_comps = np.argsort(full_key, kind="stable").astype(np.int32)
        sorted_key = full_key[key_comps]
        new_key = np.ones(len(comps), dtype=bool)
        new_key[1:] = sorted_key[1:] != sorted_key[:-1]
        key_start = np.append(np.flatnonzero(new_key), len(comps)).astype(np.int32)
        comp_key = np.empty(len(comps), dtype=np.int32)
        comp_key[key_comps] = np.cumsum(new_key) - 1

        comp_off = (np.cumsum(comp_len) - comp_len).astype(np.int32)
        cat = np.concatenate([c.indices for c in comps] or [[]]).astype(np.intp, copy=False)
        cat += np.repeat(comp_file * coded_len, comp_len)
        _require_partition(cat, np.repeat(comp_key, comp_len), sorted_key[new_key], coded_len)

        arrays = (msg_start, pay_start, payload, comp_msg, comp_len, comp_off, comp_key,
                  key_start, key_comps, cat)
        for arr in arrays:
            arr.flags.writeable = False
        return cls(tuple(m for m in live if len(m.components) == 1), *arrays)


def _require_partition(cat: np.ndarray, elem_key: np.ndarray, keys: np.ndarray,
                       coded_len: int) -> None:
    """Raise ValueError when one position of `cat` carries two keys."""
    if cat.size == 0:
        return
    owner = np.empty(int(cat.max()) + 1, dtype=np.min_scalar_type(keys.size))
    owner[cat] = elem_key  # one of the keys at each position; any other one clashes
    clash = np.flatnonzero(elem_key != owner[cat])
    if clash.size:
        e = int(clash[0])
        file, index = divmod(int(cat[e]), coded_len)
        a, b = (int(keys[q]) & 0xFFFFFFFF for q in sorted((owner[cat[e]], elem_key[e])))
        raise ValueError(
            f"coded index {index} of file {file + 1} lies in two blocks, the one "
            f"cached by users {_subset_text(a)} and the one cached by users "
            f"{_subset_text(b)}; the receiver pass needs the blocks to partition each file")


def _subset_text(mask: int) -> str:
    return "{" + ",".join(str(u) for u in mask_users(mask)) + "}"


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lens[i] - 1, concatenated."""
    ends = np.cumsum(lens, dtype=np.int32)
    return (np.repeat(starts - (ends - lens), lens)
            + np.arange(ends[-1] if lens.size else 0, dtype=np.int32))


def _fully_known(mask: np.ndarray, ix: BroadcastIndex, comps: np.ndarray) -> np.ndarray:
    """Per component: is every covered position known?"""
    lens = ix.comp_len[comps]
    covered = ix.cat[_ranges(ix.comp_off[comps], lens)]
    return np.logical_and.reduceat(mask[covered], np.cumsum(lens) - lens)


def strip_fixpoint(know: UserKnowledge, index: BroadcastIndex) -> None:
    """Strip known XOR components until no message yields anything new.

    A message yields its single unknown component's covered symbols once every
    other component is fully known; a one-component message yields at once.
    The pass counts each message's unknown components once, then lets all
    ready messages yield together, wave after wave.  After a wave it rechecks
    only the waiting components that share a (file, block) key with a
    yielded one: the blocks partition each file's coded indices
    (``BroadcastIndex.build`` checks this), so no other component can have
    become known.  The fixpoint does not depend on the order of yields.
    """
    ix = index
    apply_direct(know, ix.singles)
    if ix.pay_start.size == 0:
        return
    mask, _ = know.flat()
    known = np.logical_and.reduceat(mask[ix.cat], ix.comp_off)
    unknown = np.add.reduceat(~known, ix.msg_start[:-1], dtype=np.int32)
    msg_size = np.diff(ix.msg_start)
    key_size = np.diff(ix.key_start)
    # every message with one unknown component yields in the next wave, and
    # then has none, so the ready set is always exactly the count-1 messages
    ready = np.flatnonzero(unknown == 1)
    while ready.size:
        members = _ranges(ix.msg_start[ready], msg_size[ready])
        target = members[~known[members]]  # one per ready message, in order
        sliced = ix.comp_len[target] >= _SLICE_LEN
        for i, t in zip(ready[sliced].tolist(), target[sliced].tolist()):
            _yield_sliced(know, ix, i, t)
        if not sliced.all():
            _yield_batch(know, ix, ready[~sliced], known, msg_size)
        known[target] = True
        unknown[ready] = 0

        hit = np.zeros(key_size.size, dtype=bool)
        hit[ix.comp_key[target]] = True
        keys = np.flatnonzero(hit)
        woken = ix.key_comps[_ranges(ix.key_start[keys], key_size[keys])]
        woken = woken[~known[woken]]
        newly = woken[_fully_known(mask, ix, woken)] if woken.size else woken
        known[newly] = True
        np.subtract.at(unknown, ix.comp_msg[newly], 1)
        ready = np.flatnonzero(unknown == 1)


# a target component at least this long yields through slices of the index's
# arrays; shorter ones yield together.  In waves of 100 three-component
# messages the batch costs less per message up to 64 symbols and more from
# 128-256 on, since it reaches every symbol through a gathered index
_SLICE_LEN = 64


def _yield_sliced(know: UserKnowledge, ix: BroadcastIndex, i: int, target: int) -> None:
    """Message i yields its unknown component `target`."""
    mask, vals = know.flat()
    first, end = ix.msg_start[i: i + 2].tolist()
    offs, lens = ix.comp_off[first:end].tolist(), ix.comp_len[first:end].tolist()
    t = target - first
    lc = lens[t]
    acc = ix.payload[ix.pay_start[i]: ix.pay_start[i] + lc].copy()
    for x, (off, length) in enumerate(zip(offs, lens)):
        if x != t:
            lo = min(length, lc)
            acc[:lo] ^= vals[ix.cat[off: off + lo]]
    dst = ix.cat[offs[t]: offs[t] + lc]
    mask[dst] = True
    vals[dst] = acc


def _yield_batch(know: UserKnowledge, ix: BroadcastIndex, ready: np.ndarray,
                 known: np.ndarray, msg_size: np.ndarray) -> None:
    """Every message in `ready` yields its one unknown component."""
    mask, vals = know.flat()
    members = _ranges(ix.msg_start[ready], msg_size[ready])
    owner = np.repeat(np.arange(ready.size), msg_size[ready])
    is_target = ~known[members]
    target = members[is_target]
    lc = ix.comp_len[target]
    acc_start = np.cumsum(lc) - lc
    acc = ix.payload[_ranges(ix.pay_start[ready], lc)]
    others, o_owner = members[~is_target], owner[~is_target]
    lo = np.minimum(ix.comp_len[others], lc[o_owner])
    src = ix.cat[_ranges(ix.comp_off[others], lo)]
    np.bitwise_xor.at(acc, _ranges(acc_start[o_owner], lo), vals[src])
    dst = ix.cat[_ranges(ix.comp_off[target], lc)]
    mask[dst] = True
    vals[dst] = acc


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
    know = seed_from_cache(cache_view, params.n_files, params.coded_len)
    apply_direct(know, [m for m in schedule.topups if m.components[0].user < user])
    strip_fixpoint(know, BroadcastIndex.build([*schedule.messages, *schedule.virtuals],
                                              params.coded_len))
    apply_direct(know, [m for m in schedule.topups if m.components[0].user == user])
    res = decode_points(params, user, know.known_points(file0), codec)
    if not res.success:
        res.failure = _failure_text(know, schedule, user, file0, res.deficit)
    return res


def _failure_text(know, schedule, user, file0, deficit) -> str:
    for msg in schedule.messages:
        for c in msg.components:
            if c.user == user and c.file == file0 and not know.knows_all(c.file, c.indices):
                return (f"user {user} is short {deficit} symbols; first unrecovered block "
                        f"is the one cached by users {_subset_text(c.block_mask)} "
                        f"({c.full_len} symbols)")
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
            # the factors are nonzero, and a zero of the pivot row changes
            # nothing, so only its nonzero columns are multiplied out
            nz = np.flatnonzero(mat[pr])
            logs = gf.log_np[mat[others, col]][:, None] + gf.log_np[mat[pr, nz]]
            mat[np.ix_(others, nz)] ^= gf.exp_np[logs]
        if col < split:
            p_left += 1
        else:
            p_right += 1
    return p_left, p_right
