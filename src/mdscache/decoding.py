"""Receiver-side decoding of broadcast schedules.

Two fidelities are implemented:

* accounting: add the earlier users' top-ups, strip XOR components whose
  symbols are already known until a fixpoint over the transmitted messages
  and the skipped subset messages the schedule rebuilt as XOR combinations of
  transmitted ones, then add the user's own top-up and reconstruct the file
  from >= f known coded symbols; ``deliver`` runs this same pass
* exact: decide recoverability of the requested file by rank analysis of the
  user's linear observations over the symbol field (small f only)

A broadcast is one columnar ``Broadcast`` record.  Per message it holds the
subset size j, the receiver subset mask, the length, the kind and the number
of components, and all payloads concatenated.  Per component, message by
message, it holds the user who needs it, the file, the mask of the users
caching the block, the number of covered indices and the block length before
truncation, and all covered indices concatenated.  Delivery, skipped-message
synthesis, the index and the receiver pass read these arrays; an accounting
trial builds no per-message or per-component Python object.  Iterating a
record yields ``BroadcastMessage`` views, for serialization, the exact
decode, failure reports and tests.

The stripping pass is event driven over a ``BroadcastIndex`` built once per
broadcast.  A message yields when all but one of its components are known.
Symbols added to one (file, block) can complete only components of that same
block, because the blocks partition each file's coded indices; so after a
message yields, only the components waiting on its block are checked again.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .mds import CodecConfig, generator_matrix, mds_decode
from .params import SystemParams, mask_members, mask_users, subset_masks

KINDS = ("main", "fallback", "virtual", "topup")
MAIN, FALLBACK, VIRTUAL, TOPUP = range(len(KINDS))


@dataclass(frozen=True)
class MessageComponent:
    """View of one XOR term: a prefix of user `user`'s needed block of file `file`."""

    user: int
    file: int
    block_mask: int
    indices: np.ndarray  # covered coded indices, ascending
    full_len: int        # block length before truncation


@dataclass
class BroadcastMessage:
    """View of one multicast transmission: XOR of component block prefixes, truncated."""

    j: int
    subset_mask: int
    length: int
    payload: np.ndarray | None
    components: tuple[MessageComponent, ...]
    kind: str = "main"  # main | fallback | topup | virtual


@dataclass(frozen=True, eq=False)
class Broadcast:
    """Columnar record of broadcast messages; see the module docstring.

    Message i owns components msg_start[i]:msg_start[i+1] and payload
    symbols pay_start[i]:pay_start[i]+length[i]; component c owns
    cat[comp_off[c]:comp_off[c]+covered[c]].  Every array is int64 except
    `kind` (int8, an index into KINDS).
    """

    j: np.ndarray
    subset: np.ndarray
    length: np.ndarray
    kind: np.ndarray
    size: np.ndarray     # components per message
    payload: np.ndarray
    user: np.ndarray     # per component from here on
    file: np.ndarray
    block: np.ndarray    # mask of the users caching the block
    covered: np.ndarray  # covered indices, a prefix of the block
    full: np.ndarray     # block length before truncation
    cat: np.ndarray      # covered coded indices, concatenated in order

    @classmethod
    def empty(cls) -> Broadcast:
        arrays = {f.name: np.zeros(0, dtype=np.int64) for f in fields(cls)}
        return cls(**{**arrays, "kind": np.zeros(0, dtype=np.int8)})

    @staticmethod
    def concat(parts) -> Broadcast:
        parts = list(parts)
        if not parts:
            return Broadcast.empty()
        return Broadcast(*(np.concatenate([getattr(p, f.name) for p in parts])
                           for f in fields(Broadcast)))

    def __add__(self, other: Broadcast) -> Broadcast:
        return Broadcast.concat([self, other])

    def __len__(self) -> int:
        return self.j.size

    @cached_property
    def msg_start(self) -> np.ndarray:
        return np.append(0, np.cumsum(self.size))

    @cached_property
    def pay_start(self) -> np.ndarray:
        return np.cumsum(self.length) - self.length

    @cached_property
    def comp_off(self) -> np.ndarray:
        return np.cumsum(self.covered) - self.covered

    def symbols(self, kind: int) -> int:
        return int(self.length[self.kind == kind].sum())

    def take(self, rows) -> Broadcast:
        """The record of messages `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        comps = _ranges(self.msg_start[rows], self.size[rows])
        per_msg = (self.j, self.subset, self.length, self.kind, self.size)
        per_comp = (self.user, self.file, self.block, self.covered, self.full)
        return Broadcast(*(a[rows] for a in per_msg),
                         self.payload[_ranges(self.pay_start[rows], self.length[rows])],
                         *(a[comps] for a in per_comp),
                         self.cat[_ranges(self.comp_off[comps], self.covered[comps])])

    def __getitem__(self, i: int) -> BroadcastMessage:
        first, end = self.msg_start[i: i + 2].tolist()
        offs = self.comp_off[first:end].tolist()
        comps = tuple(
            MessageComponent(user=u, file=nf, block_mask=bm,
                             indices=self.cat[off: off + cov], full_len=full)
            for u, nf, bm, cov, full, off in zip(
                self.user[first:end].tolist(), self.file[first:end].tolist(),
                self.block[first:end].tolist(), self.covered[first:end].tolist(),
                self.full[first:end].tolist(), offs))
        start, length = int(self.pay_start[i]), int(self.length[i])
        return BroadcastMessage(j=int(self.j[i]), subset_mask=int(self.subset[i]),
                                length=length, payload=self.payload[start: start + length],
                                components=comps, kind=KINDS[self.kind[i]])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def direct_messages(parts) -> Broadcast:
    """Top-ups: one-component messages that send (user, file, indices, values) outright."""
    parts = list(parts)
    if not parts:
        return Broadcast.empty()
    users, files, indices, values = zip(*parts)
    lens = np.array([len(ix) for ix in indices], dtype=np.int64)
    ones = np.ones(lens.size, dtype=np.int64)
    users = np.array(users, dtype=np.int64)
    return Broadcast(j=np.zeros_like(lens), subset=ones << users, length=lens,
                     kind=np.full(lens.size, TOPUP, dtype=np.int8), size=ones,
                     payload=np.concatenate(values).astype(np.int64),
                     user=users, file=np.array(files, dtype=np.int64),
                     block=np.zeros_like(lens), covered=lens, full=lens,
                     cat=np.concatenate(indices).astype(np.int64))


class UserKnowledge:
    """Monotone map of (file, coded symbol index) to value known by one user."""

    def __init__(self, n_files: int, coded_len: int):
        self.coded_len = coded_len
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


def _direct_points(b: Broadcast, rows: np.ndarray, coded_len: int):
    """Flat positions and values of the one-component messages `rows`."""
    comps = b.msg_start[rows]
    lens = b.covered[comps]
    pos = b.cat[_ranges(b.comp_off[comps], lens)] + np.repeat(b.file[comps] * coded_len, lens)
    return pos, b.payload[_ranges(b.pay_start[rows], lens)]


def apply_direct(know: UserKnowledge, messages: Broadcast) -> None:
    """Add the symbols of a record of one-component messages, such as top-ups:
    each one always yields its component."""
    mask, vals = know.flat()
    pos, values = _direct_points(messages, np.arange(len(messages)), know.coded_len)
    mask[pos] = True
    vals[pos] = values


@dataclass(frozen=True)
class BroadcastIndex:
    """Read-only index of a broadcast's messages for the receiver pass.

    Built once per broadcast and shared by every receiver's pass; each pass
    keeps its own counts.  Only nonempty components are indexed, since an
    empty one is known to every receiver.  Messages with at least two
    components, one of them nonempty, are numbered 0..M-1 and their nonempty
    components 0..C-1, message by message.  Coded symbol i of a file sits at
    position file * coded_len + i.  Every array is int32 except `payload`,
    `single_val` (symbols), and `cat` and `single_pos` (intp: a gather through
    int32 indices casts them first, which made the pass up to twice as slow on
    long components).
    """

    single_pos: np.ndarray  # one-component messages' covered positions, concatenated
    single_val: np.ndarray  # and their symbols
    msg_start: np.ndarray  # message i owns components msg_start[i]:msg_start[i+1]
    pay_start: np.ndarray  # message i's payload starts at payload[pay_start[i]]
    payload: np.ndarray    # the record's payloads, concatenated
    comp_msg: np.ndarray   # component -> message
    comp_len: np.ndarray   # component -> number of covered indices
    comp_off: np.ndarray   # component -> start of its segment in cat
    comp_key: np.ndarray   # component -> (file, block) key
    key_start: np.ndarray  # key q owns key_comps[key_start[q]:key_start[q+1]]
    key_comps: np.ndarray
    cat: np.ndarray        # the components' covered positions, concatenated in order

    @classmethod
    def build(cls, broadcast: Broadcast, coded_len: int) -> BroadcastIndex:
        """Index the nonempty messages of `broadcast`, a library coded to
        `coded_len` symbols per file.

        Raises ValueError when two different (file, block) keys of
        multi-component messages share a coded index: the pass rechecks a
        component only when symbols of its own key are added.
        """
        b = broadcast
        live = b.length > 0
        owner = np.repeat(np.arange(len(b)), b.size)
        nonempty = b.covered > 0
        multi = live & (b.size > 1)
        multi &= np.bincount(owner[nonempty], minlength=len(b)) > 0
        single_pos, single_val = _direct_points(b, np.flatnonzero(live & (b.size == 1)),
                                                coded_len)
        comps = np.flatnonzero(nonempty & multi[owner])
        comp_msg = (np.cumsum(multi) - 1)[owner[comps]].astype(np.int32)
        msg_start = np.zeros(np.count_nonzero(multi) + 1, dtype=np.int32)
        np.cumsum(np.bincount(comp_msg, minlength=msg_start.size - 1), out=msg_start[1:])
        comp_len = b.covered[comps].astype(np.int32)
        if np.any(comp_len > b.length[owner[comps]]):
            raise ValueError("a message component covers more symbols than the message carries")
        comp_file = b.file[comps]
        # keys (file << 32 | block mask) are numbered in ascending order
        full_key = comp_file << 32 | b.block[comps]
        key_comps = np.argsort(full_key, kind="stable").astype(np.int32)
        sorted_key = full_key[key_comps]
        new_key = np.ones(comps.size, dtype=bool)
        new_key[1:] = sorted_key[1:] != sorted_key[:-1]
        key_start = np.append(np.flatnonzero(new_key), comps.size).astype(np.int32)
        comp_key = np.empty(comps.size, dtype=np.int32)
        comp_key[key_comps] = np.cumsum(new_key) - 1

        comp_off = (np.cumsum(comp_len) - comp_len).astype(np.int32)
        indexed = np.zeros(len(b.covered), dtype=bool)
        indexed[comps] = True
        cat = b.cat[np.repeat(indexed, b.covered)].astype(np.intp, copy=False)
        cat += np.repeat(comp_file * coded_len, comp_len)
        _require_partition(cat, np.repeat(comp_key, comp_len), sorted_key[new_key], coded_len)

        arrays = (single_pos.astype(np.intp, copy=False), single_val, msg_start,
                  b.pay_start[multi].astype(np.int32), b.payload, comp_msg, comp_len,
                  comp_off, comp_key, key_start, key_comps, cat)
        for arr in arrays:
            arr.flags.writeable = False
        return cls(*arrays)


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
    mask, vals = know.flat()
    mask[ix.single_pos] = True
    vals[ix.single_pos] = ix.single_val
    if ix.pay_start.size == 0:
        return
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
                       messages: Broadcast) -> tuple[Broadcast, list[tuple[int, int]]]:
    """Rebuild each skipped subset's message as an XOR of transmitted ones.

    Lemma 1 of Yu, Maddah-Ali & Avestimehr, "The Exact Rate-Memory Tradeoff
    for Caching with Uncoded Prefetching" (arXiv 1609.07817): for a subset A
    without a leader, the leader set U and B = A | U, the message Y_A is the
    XOR of Y_{B-V} over every V != U that holds one user of B per requested
    file.  Each such constituent B-V swaps some members of A for their file's
    leader, at most one member per file, so it holds a leader and was sent
    unless it was dropped as empty.  The leader messages are linearly
    independent over the blocks, so no other combination of sent messages
    gives Y_A: a skip is unsolved exactly when a constituent was dropped.

    All messages of one size cover the same prefix of a block, so the
    identity holds symbol by symbol up to the shortest constituent, and the
    rebuilt message is that long.  Member u's component is the leader's
    component in the constituent that swaps u alone; components are ordered
    by (file, block).  Returns (a record of the virtual messages, unsolved
    (j, mask)).
    """
    b = messages
    d0 = np.asarray(demand0, dtype=np.int64)
    leader = np.zeros(int(d0.max()) + 1, dtype=np.int64)
    lead_users = np.array(mask_users(leaders_mask), dtype=np.int64)
    leader[d0[lead_users]] = lead_users
    sent = ((b.kind == MAIN) | (b.kind == FALLBACK)) & (b.length > 0)
    virtuals: list[Broadcast] = []
    unsolved: list[tuple[int, int]] = []
    for j in dict.fromkeys(b.j[sent].tolist()):
        if j < 2:
            # a skipped singleton duplicates its file leader's plain message
            continue
        subsets = subset_masks(k, j)
        skipped = subsets[(subsets & leaders_mask) == 0]
        if not skipped.size:
            continue
        built, solved = _skipped_of_size(b, np.flatnonzero(sent & (b.j == j)), skipped,
                                         mask_members(skipped, k, j), d0, leader)
        virtuals.append(built)
        unsolved += [(j, s) for s in skipped[~solved].tolist()]
    return Broadcast.concat(virtuals), unsolved


def _skipped_of_size(b: Broadcast, rows: np.ndarray, skipped: np.ndarray, users: np.ndarray,
                     d0: np.ndarray, leader: np.ndarray) -> tuple[Broadcast, np.ndarray]:
    """The messages of the size-j `skipped` subsets, whose members are `users`,
    from the sent size-j messages b[rows] (ascending subset masks).

    Constituent t = 1 .. P-1 of a subset swaps, for each file, the member whose
    rank within the file is that file's digit of t minus one, where the digits
    are t in the mixed radix of (1 + members per file) and a zero digit swaps
    none; P is the product of the radices.  Returns (record of the solved
    subsets' messages, solved flag per subset).
    """
    n_t, j = users.shape
    files = d0[users]
    lead = leader[files]
    swap = (np.int64(1) << lead) - (np.int64(1) << users)  # mask change when a member swaps
    onehot = files[:, :, None] == np.arange(leader.size)
    rank = np.cumsum(onehot, axis=1)[onehot].reshape(n_t, j)  # 1-based, within the file
    per_file = onehot.sum(axis=1) + 1
    stride = np.take_along_axis(np.cumprod(per_file, axis=1) // per_file, files, 1)
    radix = np.take_along_axis(per_file, files, 1)
    n_con = np.prod(radix, axis=1, where=rank == 1) - 1
    con_start = np.cumsum(n_con) - n_con
    owner = np.repeat(np.arange(n_t), n_con)
    t = _ranges(np.ones(n_t, dtype=np.int64), n_con)
    swapped = t[:, None] // stride[owner] % radix[owner] == rank[owner]
    con_mask = skipped[owner] + np.where(swapped, swap[owner], 0).sum(axis=1)

    sent_masks = b.subset[rows]
    at = np.minimum(np.searchsorted(sent_masks, con_mask), rows.size - 1)
    msg = rows[at]
    con_len = np.where(sent_masks[at] == con_mask, b.length[msg], 0)
    length = np.minimum.reduceat(con_len, con_start)  # 0 when a constituent is missing
    pay_start = np.cumsum(length) - length
    payload = np.zeros(int(length.sum()), dtype=np.int64)
    lens = length[owner]
    np.bitwise_xor.at(payload, _ranges(pay_start[owner], lens),
                      b.payload[_ranges(b.pay_start[msg], lens)])

    out = np.flatnonzero(length > 0)
    lens = length[out]
    users, files, lead = users[out], files[out], lead[out]
    alone = rows[np.searchsorted(sent_masks, skipped[out, None] + swap[out])]
    # the leader's column in that constituent counts the members of A below
    # it; u is not one of them, since a leader is its file's lowest user
    below = (users[:, None, :] < lead[:, :, None]).sum(axis=2)
    by_key = np.argsort(files << 32 | (skipped[out, None] & ~(np.int64(1) << users)), axis=1)
    src = np.take_along_axis(b.msg_start[alone] + below, by_key, 1).ravel()
    cov = np.minimum(b.covered[src], np.repeat(lens, j))
    record = Broadcast(
        j=np.full(out.size, j, dtype=np.int64), subset=skipped[out], length=lens,
        kind=np.full(out.size, VIRTUAL, dtype=np.int8), size=np.full(out.size, j, dtype=np.int64),
        payload=payload, user=np.take_along_axis(users, by_key, 1).ravel(),
        file=b.file[src], block=b.block[src], covered=cov, full=b.full[src],
        cat=b.cat[_ranges(b.comp_off[src], cov)])
    return record, length > 0


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
        symbols = mds_decode(np.column_stack((idx, vals)), codec)
    return DecodeResult(True, len(idx), 0, symbols, None, points=points)


def _decode_accounting(params, user, cache_view, schedule, codec) -> DecodeResult:
    file0 = schedule.demand.zero_based[user]
    know = seed_from_cache(cache_view, params.n_files, params.coded_len)
    topups = schedule.topups
    apply_direct(know, topups.take(np.flatnonzero(topups.user < user)))
    strip_fixpoint(know, BroadcastIndex.build(schedule.messages + schedule.virtuals,
                                              params.coded_len))
    apply_direct(know, topups.take(np.flatnonzero(topups.user == user)))
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
            logs = gf.log[mat[others, col]][:, None] + gf.log[mat[pr, nz]]
            mat[np.ix_(others, nz)] ^= gf.exp[logs]
        if col < split:
            p_left += 1
        else:
            p_right += 1
    return p_left, p_right
