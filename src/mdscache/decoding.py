"""Receiver-side decoding of broadcast schedules.

Two fidelities are implemented:

* accounting: strip XOR components whose symbols are already known until a
  fixpoint, first over the earlier users' top-ups, then over the transmitted
  messages and the skipped subset messages the schedule rebuilt as XOR
  combinations of transmitted ones, then over the user's own top-up, and
  reconstruct the file from >= f known coded symbols; ``deliver`` runs this
  same pass
* exact: decide recoverability of the requested file by rank analysis of the
  user's linear observations over the symbol field (small f only).  Each file
  is written in the coordinates of f of its coded symbols, the cached ones
  first and the received uncached ones next, so cached symbols drop out and
  most received symbols are unit rows.  Observations with one unknown are
  peeled off as pivots, round after round, and only what is left is row
  reduced.  The decode checks the sizes it is about to allocate against
  EXACT_BUDGET_BYTES and raises ParamError beyond it

A broadcast is one columnar ``Broadcast`` record.  Per message it holds the
subset size j, the receiver subset mask, the length, the kind and the number
of components, and all payloads concatenated.  Per component, message by
message, it holds the user who needs it, the file, the mask of the users
caching the block and the number of covered indices, and all covered indices
concatenated.  Delivery, skipped-message synthesis, the index and the
receiver pass read these arrays; an accounting trial builds no per-message
or per-component Python object.  Iterating a record yields
``BroadcastMessage`` views; no program path iterates one.

The stripping pass is event driven over a ``BroadcastIndex`` built once per
broadcast.  A message yields when all but one of its components are known;
a symbol sent outright, in a singleton message or a top-up, is a message
with one component and no other to strip.
Symbols added to one (file, block) can complete only components of that same
block, because the blocks partition each file's coded indices; so after a
message yields, only the components waiting on its block are checked again.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .mds import CodecConfig, generator_matrix, mds_decode
from .params import ParamError, SystemParams, mask_members, mask_users, subset_masks

KINDS = ("main", "fallback", "virtual", "topup")
MAIN, FALLBACK, VIRTUAL, TOPUP = range(len(KINDS))
EXACT_BUDGET_BYTES = 256 * 10**6


@dataclass(frozen=True)
class MessageComponent:
    """View of one XOR term: a prefix of user `user`'s needed block of file `file`."""

    user: int
    file: int
    block_mask: int
    indices: np.ndarray  # covered coded indices, ascending


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
        per_comp = (self.user, self.file, self.block, self.covered)
        return Broadcast(*(a[rows] for a in per_msg),
                         self.payload[_ranges(self.pay_start[rows], self.length[rows])],
                         *(a[comps] for a in per_comp),
                         self.cat[_ranges(self.comp_off[comps], self.covered[comps])])

    def __getitem__(self, i: int) -> BroadcastMessage:
        first, end = self.msg_start[i: i + 2].tolist()
        offs = self.comp_off[first:end].tolist()
        comps = tuple(
            MessageComponent(user=u, file=nf, block_mask=bm,
                             indices=self.cat[off: off + cov])
            for u, nf, bm, cov, off in zip(
                self.user[first:end].tolist(), self.file[first:end].tolist(),
                self.block[first:end].tolist(), self.covered[first:end].tolist(), offs))
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
                     block=np.zeros_like(lens), covered=lens,
                     cat=np.concatenate(indices).astype(np.int64))


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


@dataclass(frozen=True)
class BroadcastIndex:
    """Read-only index of a broadcast's messages for the receiver pass.

    Built once per broadcast and shared by every receiver's pass; each pass
    keeps its own counts.  Only nonempty components are indexed, since an
    empty one is known to every receiver.  Messages with a nonempty
    component, one-component messages such as top-ups included, are numbered
    0..M-1 and their nonempty components 0..C-1, message by message.  Coded
    symbol i of a file sits at position file * coded_len + i.  Every array is
    int32 except `payload` (symbols) and `cat` (intp: a gather through int32
    indices casts it first, which made the pass up to twice as slow on long
    components).
    """

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

        Raises ValueError when two different (file, block) keys share a coded
        index: the pass rechecks a component only when symbols of its own key
        are added.  A top-up's block mask is 0, the key of the singleton
        messages' blocks, so top-ups may share an index only with those.
        """
        b = broadcast
        owner = np.repeat(np.arange(len(b)), b.size)
        nonempty = b.covered > 0
        live = (b.length > 0) & (np.bincount(owner[nonempty], minlength=len(b)) > 0)
        comps = np.flatnonzero(nonempty & live[owner])
        comp_msg = (np.cumsum(live) - 1)[owner[comps]].astype(np.int32)
        msg_start = np.zeros(np.count_nonzero(live) + 1, dtype=np.int32)
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

        arrays = (msg_start, b.pay_start[live].astype(np.int32), b.payload, comp_msg,
                  comp_len, comp_off, comp_key, key_start, key_comps, cat)
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
    other component is fully known, so a one-component message, such as a
    top-up, yields in the first wave unless its symbols are already known.
    The pass counts each message's unknown components once, then lets all
    ready messages yield together in one vectorized step, wave after wave.
    After a wave it rechecks only the waiting components that share a
    (file, block) key with a yielded one: the blocks partition each file's
    coded indices (``BroadcastIndex.build`` checks this), so no other
    component can have become known.  The fixpoint does not depend on the
    order of yields.
    """
    ix = index
    mask, vals = know.flat()
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
        is_target = ~known[members]
        target = members[is_target]  # one per ready message, in order
        # each target's symbols: its message's payload prefix XOR the other
        # members' symbols, each up to the shorter of the two lengths
        lc = ix.comp_len[target]
        acc = ix.payload[_ranges(ix.pay_start[ready], lc)]
        rest = ~is_target
        others = members[rest]
        o_owner = np.repeat(np.arange(ready.size), msg_size[ready])[rest]
        lo = np.minimum(ix.comp_len[others], lc[o_owner])
        np.bitwise_xor.at(acc, _ranges((np.cumsum(lc) - lc)[o_owner], lo),
                          vals[ix.cat[_ranges(ix.comp_off[others], lo)]])
        dst = ix.cat[_ranges(ix.comp_off[target], lc)]
        mask[dst] = True
        vals[dst] = acc
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
        file=b.file[src], block=b.block[src], covered=cov,
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
    for part in (topups.take(np.flatnonzero(topups.user < user)),
                 schedule.messages + schedule.virtuals,
                 topups.take(np.flatnonzero(topups.user == user))):
        strip_fixpoint(know, BroadcastIndex.build(part, params.coded_len))
    return decode_points(params, user, know.known_points(file0), codec)


def _decode_exact(params, user, cache_view, schedule, codec) -> DecodeResult:
    """Rank criterion: the requested file is determined iff appending its
    columns to the observations of the other files raises the rank by f.
    That rise is p_target = |S_target| + (pivots right of the split) of the
    cache-coordinate system, S_target the user's cached indices of the
    file; see ``_exact_ranks``."""
    file0 = schedule.demand.zero_based[user]
    f = params.f
    _, p_target = _exact_ranks(params, user, cache_view, schedule, codec)
    success = p_target == f
    deficit = f - p_target
    failure = None if success else (
        f"user {user}: observations pin down only {p_target} of {f} dimensions of file {file0 + 1}"
    )
    return DecodeResult(success, p_target, deficit, None, failure)


def _exact_ranks(params, user, cache_view, schedule, codec) -> tuple[int, int]:
    """(p_other, p_target): the rank of the user's observations restricted to
    the other files, and how much the requested file's coordinates add to it.

    Each file is written in the coordinates of f of its coded symbols B:
    the user's cached indices S, then its received uncached ones, then the
    lowest other uncached ones.  Any f coded symbols determine a file (MDS),
    so this change of basis is invertible and block diagonal over the files,
    and ranks do not move.  In it a cached symbol is a unit row on its own
    coordinate; removing those rows and their columns (a Schur complement
    with the identity) leaves each message and top-up symbol over the free
    coordinates B - S, and the rank drops by exactly the |S| removed rows.
    Over B - S a received symbol is zero when cached, a unit row when it is a
    coordinate, and a generator row only when its file has more received
    uncached symbols than free coordinates.  So p = |S| + the pivots of the
    free system, file block by file block: the other files' columns first,
    the requested file's last.  ``_peel_then_eliminate`` counts them: it
    peels the observations with a single unknown, then eliminates the rest.
    """
    file0 = schedule.demand.zero_based[user]
    f = params.f
    b = schedule.messages + schedule.topups
    # per covered symbol: its observation (a payload position), file and coded index
    cov = np.minimum(b.covered, np.repeat(b.length, b.size))
    obs = _ranges(np.repeat(b.pay_start, b.size), cov)
    sym_file = np.repeat(b.file, cov)
    sym_index = b.cat[_ranges(b.comp_off, cov)]
    # observations no component reaches are zero rows: leave them out
    live, obs = np.unique(obs, return_inverse=True)
    order = [nf for nf in range(params.n_files) if nf != file0] + [file0]
    cached = [cache_view[nf][0] if nf in cache_view else np.zeros(0, dtype=np.int64)
              for nf in order]
    n_free = [f - len(s) for s in cached]
    layout = []  # sized per file first, so the price comes before any large allocation
    for nf, s, width in zip(order, cached, n_free):
        on = sym_file == nf
        index = sym_index[on]
        fresh = np.zeros(codec.n, dtype=bool)
        fresh[index] = True
        fresh[s] = False
        received = np.flatnonzero(fresh)  # received uncached indices, ascending
        other = ~fresh
        other[s] = False
        basis = np.concatenate([s, received, np.flatnonzero(other)])[:f]
        # a received symbol's free coordinate, or -1 when it is cached
        slot = np.full(codec.n, -1)
        slot[received] = np.arange(received.size)
        layout.append((slot[index], obs[on], basis, received[width:]))
    held = sum(a.nbytes for part in ([live, obs, sym_file, sym_index], *layout) for a in part)
    entries = sum(n_free) * live.size
    generator = f * max(len(beyond) for *_, beyond in layout)
    _require_budget(held + _SYSTEM_ENTRY_BYTES * entries + _GENERATOR_ENTRY_BYTES * generator,
                    f"user {user}'s {sum(n_free)} x {live.size} system and its generator "
                    f"rows at f={f}")
    # transposed: row c is column c of the system, so each column is contiguous
    mat = np.zeros((sum(n_free), live.size), dtype=np.uint16)
    col = 0
    for (c, j, basis, beyond), s, width in zip(layout, cached, n_free):
        unit, dense = (c >= 0) & (c < width), c >= width
        np.bitwise_xor.at(mat, (col + c[unit], j[unit]), 1)
        if dense.any():
            rows = generator_matrix(codec, basis, beyond)[:, len(s):]
            np.bitwise_xor.at(mat[col: col + width].T, j[dense],
                              rows.astype(np.uint16)[c[dense] - width])
        col += width
    # the residual's price counts mat alone: release the index arrays first
    del b, cov, obs, sym_file, sym_index, live, layout
    p_left, p_right = _peel_then_eliminate(codec.gf, mat, sum(n_free[:-1]))
    return sum(len(s) for s in cached[:-1]) + p_left, len(cached[-1]) + p_right


# bytes per entry, from the decode's traced peak: the uint16 system, the
# peel's copy of it and a bool temporary; generator_matrix's int64 arrays, an
# int32 gather and the uint16 copy; the residual and one elimination step
_SYSTEM_ENTRY_BYTES, _GENERATOR_ENTRY_BYTES, _RESIDUAL_ENTRY_BYTES = 6, 30, 8


def _require_budget(need: int, what: str) -> None:
    """ParamError when `need` bytes exceed EXACT_BUDGET_BYTES."""
    if need > EXACT_BUDGET_BYTES:
        raise ParamError(f"the exact decode needs {need / 1e6:.0f} MB for {what}, more than "
                         f"the limit of {EXACT_BUDGET_BYTES / 1e6:.0f} MB; "
                         "use --mode accounting or a smaller f")


def _peel_then_eliminate(gf, mat: np.ndarray, split: int) -> tuple[int, int]:
    """Pivots left and right of column `split`, as ``_pivot_counts`` counts them.

    `mat` is the system transposed, mat[c] column c and mat[:, j] observation
    j; it is overwritten.  An observation with one nonzero, on column c, is a
    pivot on c, and eliminating it only zeroes column c in the others.  So
    each round takes every such observation at once, counts each column they
    hit as one pivot on its side of the split, and zeroes those columns;
    rounds go on while zeroing leaves new ones.  A pivot on a right-hand
    column leaves the rank of the left columns alone, so both counts stay
    exact.  Forward elimination then runs on the columns and observations
    that are still nonzero.
    """
    nonzero = np.count_nonzero(mat, axis=0)
    p_left = p_right = 0
    units = np.flatnonzero(nonzero == 1)
    while units.size:
        hit = np.zeros(mat.shape[0], dtype=bool)
        hit[mat[:, units].argmax(axis=0)] = True
        peeled = np.flatnonzero(hit)
        left = int(np.count_nonzero(peeled < split))
        p_left += left
        p_right += peeled.size - left
        nonzero -= np.count_nonzero(mat[peeled], axis=0)
        mat[peeled] = 0
        units = np.flatnonzero(nonzero == 1)
    cols, obs = np.flatnonzero(mat.any(axis=1)), np.flatnonzero(nonzero)
    _require_budget(mat.nbytes + _RESIDUAL_ENTRY_BYTES * cols.size * obs.size,
                    f"its {cols.size} x {obs.size} residual")
    rest = mat[np.ix_(cols, obs)]
    rest_left, rest_right = _pivot_counts(gf, rest, int(np.count_nonzero(cols < split)))
    return p_left + rest_left, p_right + rest_right


def _pivot_counts(gf, mat: np.ndarray, split: int) -> tuple[int, int]:
    """Pivots left and right of column `split` by forward elimination.

    `mat` is the system transposed: mat[c] is column c, mat[:, j] observation
    j.  Columns are eliminated in order, so the pivots left of the split are
    also the rank of the left columns alone.  An observation that takes a
    pivot moves to the front of the active block mat[:, start:] and leaves
    it; nothing is scaled or substituted back, and column c is not read again
    once it is done.
    """
    n_cols, n_obs = mat.shape
    start = p_left = p_right = 0
    for col in range(n_cols):
        if start == n_obs:
            break
        cand = np.flatnonzero(mat[col, start:])
        if cand.size == 0:
            continue
        pr = start + int(cand[0])
        if pr != start:
            mat[col:, [start, pr]] = mat[col:, [pr, start]]
        factors = gf.mul_vec(mat[col, start + 1:], gf.inv(int(mat[col, start])))
        mat[col + 1:, start + 1:] ^= gf.mul_vec(mat[col + 1:, start, None], factors)
        start += 1
        if col < split:
            p_left += 1
        else:
            p_right += 1
    return p_left, p_right
