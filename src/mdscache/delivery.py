"""Broadcast scheduling: coded multicast with leader-based subset skipping.

The loop walks subset sizes j = k down to 1.  Each size-j subset S of active
users gets one message, the XOR of every member's needed block, truncated to
an increment that never overshoots full caches; subsets without a leader are
skipped because receivers can synthesize them.  The loop stops at the first
size whose full blocks would fill every cache.

``plan_schedule`` runs the loop on expected block sizes and keeps exact
rational lengths; it is the only copy of the loop.  ``deliver`` executes the
plan and emits real payloads: message lengths are capped by each planned
increment rounded up to whole symbols.  The messages of every iteration are
built in one pass over arrays, with the members of all subsets laid out
flat, and kept in the columnar ``Broadcast`` record (see ``decoding``):
messages, skipped-subset messages and top-ups are three such records, and a
trial builds no per-message object.  ``deliver`` rebuilds the skipped
messages and indexes the broadcast once, since every receiver derives the
same ones.  The server knows every cache, so it runs each receiver's pass
over that index, repairs any shortfall from truncation with dedicated top-up
symbols appended after the multicast phase, and keeps what each user then
knows of its requested file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import comb0, stop_index
from .decoding import (FALLBACK, MAIN, Broadcast, BroadcastIndex, _ranges, direct_messages,
                       seed_from_cache, strip_fixpoint, synthesize_skipped)
from .params import (CacheContents, ParamError, RequestVector, SubfilePartition,
                     SystemParams, require_valid, subset_mask, subset_masks)
from .placement import expected_subfile_size, partition_subfiles


SUBSET_BUDGET = 1 << 16  # admits every k <= 16


def require_enumerable(params: SystemParams) -> None:
    """Raise ParamError when delivery would visit more than SUBSET_BUDGET user subsets.

    The loop visits every subset of each size k down to the stop index s.
    """
    k = params.k
    s = stop_index(params.n_files, params.m, k, params.r)
    count = sum(comb0(k, j) for j in range(s, k + 1))
    if count > SUBSET_BUDGET:
        raise ParamError(f"k={k} needs {count} user subsets of sizes {s}..{k}, more than "
                         f"the limit of {SUBSET_BUDGET} that delivery enumerates; "
                         "every k <= 16 fits")


def leaders(d: RequestVector) -> tuple[int, ...]:
    """Lowest-indexed user per distinct requested file, ascending."""
    return tuple(sorted(d.files.index(file) for file in set(d.files)))


@dataclass
class IterationPlan:
    j: int
    incr: Fraction
    symbols: int = 0  # symbols sent, filled by deliver


@dataclass
class SchedulePlan:
    s: int
    iterations: list[IterationPlan]
    total: Fraction


def plan_schedule(params: SystemParams, d: RequestVector) -> SchedulePlan:
    """Run the scheduling loop on expected block sizes, keeping exact lengths."""
    require_enumerable(params)
    d.validate_for(params)
    k = params.k
    u_mask = subset_mask(leaders(d))
    f_total = Fraction(params.f)
    acc = Fraction(params.m * params.f, params.n_files)
    iterations: list[IterationPlan] = []
    total = Fraction(0)
    if acc >= f_total:
        return SchedulePlan(s=k + 1, iterations=[], total=total)
    for j in range(k, 0, -1):
        seg = expected_subfile_size(params, j - 1)
        c = comb0(k - 1, j - 1)
        acc_new = acc + seg * c
        incr = min(seg * c, f_total - acc) / c
        n_msg = int(np.count_nonzero(subset_masks(k, j) & u_mask)) if incr > 0 else 0
        total += n_msg * incr
        iterations.append(IterationPlan(j, incr))
        if acc_new >= f_total:
            return SchedulePlan(s=j, iterations=iterations, total=total)
        acc = acc_new
    raise AssertionError("r >= 1 guarantees caches fill by subset size 1")


@dataclass
class DeliverySchedule:
    """Executed broadcast: multicast messages, synthesizable skips, top-ups."""

    params: SystemParams
    demand: RequestVector
    leaders_mask: int
    s: int
    iterations: list[IterationPlan]
    messages: Broadcast
    virtuals: Broadcast  # skipped subsets, rebuilt from messages
    topups: Broadcast
    unsolved_skips: list[tuple[int, int]]
    # per user: (int32 indices, values) of its requested file after its own top-up
    known_points: list[tuple[np.ndarray, np.ndarray]]

    @property
    def main_symbols(self) -> int:
        return self.messages.symbols(MAIN)

    @property
    def fallback_symbols(self) -> int:
        return self.messages.symbols(FALLBACK)

    @property
    def topup_symbols(self) -> int:
        return int(self.topups.length.sum())

    @property
    def total_symbols(self) -> int:
        return self.main_symbols + self.fallback_symbols + self.topup_symbols

    @property
    def rounding_overshoot(self) -> Fraction:
        """Symbols sent beyond the exact rational increments, from rounding up."""
        msgs = self.messages
        main = msgs.kind == MAIN
        total = Fraction(0)
        for it in self.iterations:
            lens = msgs.length[main & (msgs.j == it.j)]
            over = lens[lens > int(it.incr)]  # an integer exceeds incr iff it exceeds its floor
            total += int(over.sum()) - over.size * it.incr
        return total


def deliver(params: SystemParams, cache: CacheContents, d: RequestVector,
            coded_files: dict[int, np.ndarray], reconstruct: bool = True) -> DeliverySchedule:
    """Emit the broadcast for demand d over a concrete placement.

    Executes ``plan_schedule``: each planned iteration caps its messages at
    the increment rounded up to whole symbols, and never beyond the longest
    XOR component.  With reconstruct=False, subsets without a leader are
    transmitted outright instead of being left for receiver-side synthesis.
    """
    require_valid(params)
    k = params.k
    d0 = d.zero_based
    u_mask = subset_mask(leaders(d))
    plan = plan_schedule(params, d)
    partitions = {nf: partition_subfiles(cache, range(k), nf, params) for nf in set(d0)}

    # every planned iteration's messages in one build: descending j, subsets ascending
    live = [it for it in plan.iterations if it.incr > 0]
    picked = [subset_masks(k, it.j) for it in live]
    picked = [s[(s & u_mask) != 0] if reconstruct or it.j < 2 else s for it, s in zip(live, picked)]
    caps = np.repeat(np.array([math.ceil(it.incr) for it in live], dtype=np.int64),
                     [s.size for s in picked])
    messages = _multicast(np.concatenate([np.zeros(0, dtype=np.int64), *picked]), caps, u_mask,
                          k, d0, partitions, coded_files)
    for it in plan.iterations:
        it.symbols = int(messages.length[messages.j == it.j].sum())

    # every receiver rebuilds the same skipped messages, so build them once;
    # without reconstruction those subsets were broadcast as fallbacks
    virtuals, unsolved = (synthesize_skipped(k, u_mask, d0, messages) if reconstruct
                          else (Broadcast.empty(), []))

    # each receiver's pass; dedicated repair symbols for any user left short by truncation
    index = BroadcastIndex.build(messages + virtuals, params.coded_len)
    topups: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    known_points: list[tuple[np.ndarray, np.ndarray]] = []
    for user in range(k):
        file0 = d0[user]
        know = seed_from_cache(cache.view(user, coded_files), params.n_files, params.coded_len)
        for _, nf, idx, vals in topups:
            know.add(nf, idx, vals)
        strip_fixpoint(know, index)
        deficit = params.f - know.count(file0)
        if deficit > 0:
            missing = np.flatnonzero(~know.mask(file0))[:deficit]
            topups.append((user, file0, missing, coded_files[file0][missing]))
            know.add(file0, missing, topups[-1][3])
        known_points.append(know.known_points(file0))

    return DeliverySchedule(params=params, demand=d, leaders_mask=u_mask, s=plan.s,
                            iterations=plan.iterations, messages=messages,
                            virtuals=virtuals, topups=direct_messages(topups),
                            unsolved_skips=unsolved,
                            known_points=known_points)


def _multicast(subsets: np.ndarray, cap: np.ndarray, u_mask: int, k: int, d0,
               partitions: dict[int, SubfilePartition],
               coded_files: dict[int, np.ndarray]) -> Broadcast:
    """The messages of `subsets`, message i capped at cap[i] symbols.

    Message i XORs, for each member u in ascending order, the prefix of the
    block of u's file cached by exactly the other members; a message is as
    long as its longest block, up to its cap, and empty ones are dropped.  A
    subset without a leader in `u_mask` gives a fallback message.  The
    members of all messages are laid out flat, message by message, so the
    span lookups and index gathers run once per file, and every component's
    symbols go into the payloads in one ``np.bitwise_xor.at``.
    """
    msg, users = np.nonzero((subsets[:, None] >> np.arange(k, dtype=np.int64)) & 1)
    j = np.bincount(msg, minlength=subsets.size)
    files = np.asarray(d0, dtype=np.int64)[users]
    blocks = subsets[msg] & ~(np.int64(1) << users)
    start, full = np.zeros((2, users.size), dtype=np.int64)
    for nf, part in partitions.items():
        at = files == nf
        start[at], full[at] = part.spans(blocks[at])
    length = np.minimum(np.maximum.reduceat(full, np.cumsum(j) - j), cap)
    sent = length > 0
    subsets, j, length = subsets[sent], j[sent], length[sent]
    users, files, blocks, start, full = (a[sent[msg]] for a in (users, files, blocks, start, full))
    covered = np.minimum(full, np.repeat(length, j))

    # covered indices and their symbols, component by component
    comp_off = np.cumsum(covered) - covered
    cat = np.empty(int(covered.sum()), dtype=np.int64)
    symbols = np.empty_like(cat)
    for nf, part in partitions.items():
        at = files == nf
        dst = _ranges(comp_off[at], covered[at])
        indices = part.order[_ranges(start[at], covered[at])]
        cat[dst] = indices
        symbols[dst] = coded_files[nf][indices]
    payload = np.zeros(int(length.sum()), dtype=np.int64)
    np.bitwise_xor.at(payload, _ranges(np.repeat(np.cumsum(length) - length, j), covered), symbols)
    kind = np.where((subsets & u_mask) != 0, MAIN, FALLBACK).astype(np.int8)
    return Broadcast(j=j, subset=subsets, length=length, kind=kind, size=j, payload=payload,
                     user=users, file=files, block=blocks, covered=covered, cat=cat)
