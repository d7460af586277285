"""Object-based references for the columnar broadcast.

``reference_messages`` builds deliver's multicast one ``BroadcastMessage`` at a
time; it is the message-at-a-time code the columnar build replaced.
``reference_synthesize`` rebuilds the skipped subsets' messages from such
objects by GF(2) elimination: it finds, for each skipped subset, the
combination of sent messages whose blocks match, without assuming the closed
form that ``synthesize_skipped`` builds.  Tests check that ``deliver`` and
``synthesize_skipped`` reproduce both exactly.  ``record_of`` turns hand-built
message objects into a record.  ``planned_messages`` lists the messages a
``SchedulePlan`` schedules, one per leader subset, at their exact lengths.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from mdscache.decoding import KINDS, Broadcast, BroadcastMessage, MessageComponent
from mdscache.delivery import leaders, plan_schedule
from mdscache.params import mask_users, subset_mask, subset_masks
from mdscache.placement import partition_subfiles


@dataclass(frozen=True)
class PlannedMessage:
    j: int
    subset_mask: int
    length: Fraction


def planned_messages(plan, k, d) -> list[PlannedMessage]:
    """One message per leader subset of every iteration with a positive increment."""
    u_mask = subset_mask(leaders(d))
    return [PlannedMessage(j=it.j, subset_mask=smask, length=it.incr)
            for it in plan.iterations if it.incr > 0
            for smask in subset_masks(k, it.j).tolist() if smask & u_mask]


def record_of(messages) -> Broadcast:
    """The columnar record of message objects, in order."""
    msgs = list(messages)
    comps = [c for m in msgs for c in m.components]

    def ints(values) -> np.ndarray:
        return np.array(list(values), dtype=np.int64)

    def cat(arrays) -> np.ndarray:
        return np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays] or [ints([])])

    return Broadcast(
        j=ints(m.j for m in msgs), subset=ints(m.subset_mask for m in msgs),
        length=ints(m.length for m in msgs),
        kind=np.array([KINDS.index(m.kind) for m in msgs], dtype=np.int8),
        size=ints(len(m.components) for m in msgs),
        payload=cat(m.payload[: m.length] for m in msgs),
        user=ints(c.user for c in comps), file=ints(c.file for c in comps),
        block=ints(c.block_mask for c in comps), covered=ints(len(c.indices) for c in comps),
        cat=cat(c.indices for c in comps))


def reference_messages(params, cache, d, coded_files, reconstruct=True) -> list[BroadcastMessage]:
    """deliver's multicast messages, built one subset at a time."""
    k = params.k
    d0 = d.zero_based
    u_mask = subset_mask(leaders(d))
    plan = plan_schedule(params, d)
    partitions = {nf: partition_subfiles(cache, range(k), nf, params) for nf in set(d0)}
    messages = []
    for it in plan.iterations:
        cap = -((-it.incr.numerator) // it.incr.denominator)
        if cap == 0:
            continue
        for smask in subset_masks(k, it.j).tolist():
            is_main = bool(smask & u_mask)
            if not is_main and (reconstruct or it.j < 2):
                continue
            msg = build_message(smask, it.j, cap, d0, partitions, coded_files,
                                kind="main" if is_main else "fallback")
            if msg is not None:
                messages.append(msg)
    return messages


def build_message(smask, j, cap, d0, partitions, coded_files, kind):
    users = mask_users(smask)
    blocks = [(u, d0[u], smask & ~(1 << u), partitions[d0[u]].block(smask & ~(1 << u)))
              for u in users]
    natural = max(b.size for _, _, _, b in blocks)
    length = min(natural, cap)
    if length == 0:
        return None
    payload = np.zeros(length, dtype=np.int64)
    comps = []
    for u, nf, amask, blk in blocks:
        covered = blk[: min(length, blk.size)]
        if covered.size:
            payload[: covered.size] ^= coded_files[nf][covered]
        comps.append(MessageComponent(user=u, file=nf, block_mask=amask, indices=covered))
    return BroadcastMessage(j=j, subset_mask=smask, length=length, payload=payload,
                            components=tuple(comps), kind=kind)


def reference_synthesize(k, leaders_mask, demand0, messages):
    """(virtual messages, unsolved (j, mask)) by GF(2) elimination over message objects."""
    virtuals = []
    unsolved = []
    by_j = {}
    for m in messages:
        if m.kind in ("main", "fallback") and m.length > 0:
            by_j.setdefault(m.j, []).append(m)
    for j, msgs in by_j.items():
        if j < 2:
            continue
        skipped = [s for s in subset_masks(k, j).tolist() if not s & leaders_mask]
        if not skipped:
            continue
        block_ids = {}

        def vec_of(components) -> int:
            v = 0
            for file, bmask in components:
                bid = block_ids.setdefault((file, bmask), len(block_ids))
                v ^= 1 << bid
            return v

        basis = {}  # msb -> (vector, combo over messages)
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


def _combine(sel, smask, j, expected):
    length = min(m.length for m in sel)
    if length == 0:
        return None
    payload = np.zeros(length, dtype=np.int64)
    survivors = {}
    parity = {}
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
        comps.append(MessageComponent(
            user=user_mask.bit_length() - 1, file=key[0], block_mask=key[1],
            indices=src.indices[:length],
        ))
    return BroadcastMessage(j=j, subset_mask=smask, length=length, payload=payload,
                            components=tuple(comps), kind="virtual")


def assert_same_messages(got, want) -> None:
    """Every message field and every component field equal, in order."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.j, g.subset_mask, g.kind, g.length) == (w.j, w.subset_mask, w.kind, w.length)
        assert np.array_equal(g.payload, w.payload)
        assert len(g.components) == len(w.components)
        for gc, wc in zip(g.components, w.components):
            assert (gc.user, gc.file, gc.block_mask) == (wc.user, wc.file, wc.block_mask)
            assert np.array_equal(gc.indices, wc.indices)
