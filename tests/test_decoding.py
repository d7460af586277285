"""Receiver-side accounting: stripping, skipped-message synthesis, decode modes."""
import copy
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_reference import record_of
from mdscache import decoding
from mdscache.decoding import (BroadcastIndex, BroadcastMessage, MessageComponent,
                               UserKnowledge, apply_direct, decode_user,
                               direct_messages, seed_from_cache, strip_fixpoint,
                               synthesize_skipped)
from mdscache.delivery import deliver
from mdscache.mds import CodecConfig, mds_encode
from mdscache.params import (RequestVector, SystemParams, subset_mask, subset_masks,
                             suggest_feasible_f)
from mdscache.placement import derive_seed, prefetch
from mdscache.simulate import pseudo_symbols


def make(n=2, kp=3, k=3, m=1, r=2, f=64) -> SystemParams:
    return SystemParams(n_files=n, k_prime=kp, k=k,
                        m=Fraction(m), r=Fraction(r), f=f)


def setup(p, demand, seed, reconstruct=True, real_codec=False):
    cache = prefetch(p, derive_seed(seed, 1))
    config = None
    if real_codec:
        config = CodecConfig.from_expansion(p.f, p.r)
        coded = {}
        for nf in range(p.n_files):
            data = pseudo_symbols(derive_seed(seed, 2, nf), p.f)
            coded[nf] = mds_encode(data, config)
    else:
        coded = {nf: pseudo_symbols(derive_seed(seed, 2, nf), p.coded_len)
                 for nf in range(p.n_files)}
    schedule = deliver(p, cache, demand, coded, reconstruct=reconstruct)
    return cache, coded, schedule, config


def view_of(cache, coded, user, n_files):
    return {nf: (cache.indices(user, nf), coded[nf][cache.indices(user, nf)])
            for nf in range(n_files)}


def naive_strip(know: UserKnowledge, messages) -> None:
    """Reference receiver pass: rescan every pending message until none yields."""
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


def test_user_knowledge_mechanics():
    know = UserKnowledge(2, 10)
    assert know.count(0) == 0
    assert not know.knows_all(0, np.array([1]))
    assert know.knows_all(0, np.array([], dtype=np.int64))
    know.add(0, np.array([1, 3]), np.array([11, 33]))
    assert know.count(0) == 2
    assert know.knows_all(0, np.array([1, 3]))
    assert not know.knows_all(0, np.array([1, 2]))
    idx, vals = know.known_points(0)
    assert idx.tolist() == [1, 3] and vals.tolist() == [11, 33]
    # re-adding the same points changes nothing
    know.add(0, np.array([3]), np.array([33]))
    assert know.count(0) == 2


def test_strip_learns_single_unknown_and_chains():
    p = make()
    d = RequestVector((1, 2, 1))
    cache, coded, schedule, _ = setup(p, d, 51)
    for user in range(p.k):
        know = seed_from_cache(view_of(cache, coded, user, p.n_files), p.n_files, p.coded_len)
        strip_fixpoint(know, BroadcastIndex.build(schedule.messages + schedule.topups,
                                                  p.coded_len))
        # every component involving this user's demand was recoverable
        file0 = d.zero_based[user]
        assert know.count(file0) >= p.f


def test_strip_leaves_double_unknown_messages_alone():
    a_idx, a_val = np.array([0, 1]), np.array([5, 6], dtype=np.int64)
    b_idx, b_val = np.array([2, 3]), np.array([7, 8], dtype=np.int64)
    msg = BroadcastMessage(
        j=2, subset_mask=0b11, length=2, payload=a_val ^ b_val,
        components=(MessageComponent(0, 0, 0b10, a_idx, 2),
                    MessageComponent(1, 1, 0b01, b_idx, 2)),
        kind="main")
    index = BroadcastIndex.build(record_of([msg]), 8)
    know = UserKnowledge(2, 8)
    strip_fixpoint(know, index)
    assert know.count(0) == 0 and know.count(1) == 0
    # once one side is known the other resolves on the next pass
    know.add(1, b_idx, b_val)
    strip_fixpoint(know, index)
    assert know.count(0) == 2
    assert know.values(0, a_idx).tolist() == [5, 6]


def test_direct_message_strips_immediately():
    know = UserKnowledge(2, 16)
    msg = direct_messages([(2, 1, np.array([4, 9]), np.array([44, 99]))])
    assert msg[0].kind == "topup"
    assert msg[0].length == 2
    strip_fixpoint(know, BroadcastIndex.build(msg, 16))
    assert know.count(1) == 2
    assert know.values(1, np.array([4, 9])).tolist() == [44, 99]


def test_index_rejects_blocks_that_share_a_coded_index():
    # index 3 of file 1 is claimed by the block cached by {0} and the one cached by {1}
    def comp(user, file, block_mask, idx):
        return MessageComponent(user, file, block_mask, np.array(idx), len(idx))
    pair = [
        BroadcastMessage(j=2, subset_mask=0b11, length=2, payload=np.zeros(2, dtype=np.int64),
                         components=(comp(0, 0, 0b10, [2, 3]), comp(1, 1, 0b01, [0, 1])),
                         kind="main"),
        BroadcastMessage(j=2, subset_mask=0b101, length=2, payload=np.zeros(2, dtype=np.int64),
                         components=(comp(0, 0, 0b100, [5, 6]), comp(2, 0, 0b01, [3, 4])),
                         kind="main"),
    ]
    with pytest.raises(ValueError, match=r"coded index 3 of file 1 .* users \{0\} .* users \{1\}"):
        BroadcastIndex.build(record_of(pair), 8)
    # one-component messages, such as top-ups, may cover any indices
    BroadcastIndex.build(record_of(pair[:1])
                         + direct_messages([(0, 0, np.array([3, 5]), np.array([1, 2]))]), 8)


def test_index_rejects_component_longer_than_its_message():
    comps = (MessageComponent(0, 0, 0b10, np.array([0, 1, 2]), 3),
             MessageComponent(1, 1, 0b01, np.array([0]), 1))
    msg = BroadcastMessage(j=2, subset_mask=0b11, length=2,
                           payload=np.zeros(2, dtype=np.int64), components=comps)
    with pytest.raises(ValueError, match="more symbols than the message carries"):
        BroadcastIndex.build(record_of([msg]), 4)


def test_synthesized_message_equals_hand_xor():
    # users 0..3 request (A, B, A, B); {2,3} is the one skipped pair and its
    # message is the XOR of the three scheduled pair messages {0,1}, {0,3}, {1,2}
    p = make(n=2, kp=4, k=4, m=1, r=2, f=256)
    d = RequestVector((1, 2, 1, 2))
    cache, coded, schedule, _ = setup(p, d, 53)
    virtuals, unsolved = synthesize_skipped(p.k, schedule.leaders_mask,
                                            d.zero_based, schedule.messages)
    assert unsolved == []
    by_mask = {m.subset_mask: m for m in virtuals}
    target = subset_mask([2, 3])
    assert target in by_mask
    virt = by_mask[target]
    assert virt.kind == "virtual"
    pair = {subset_mask(s): m for m in schedule.messages if m.j == 2
            for s in [tuple(u for u in range(4) if m.subset_mask >> u & 1)]}
    want_len = min(pair[subset_mask(s)].length for s in [(0, 1), (0, 3), (1, 2)])
    want = np.zeros(want_len, dtype=np.int64)
    for s in [(0, 1), (0, 3), (1, 2)]:
        want ^= pair[subset_mask(s)].payload[:want_len]
    assert virt.length == want_len
    assert np.array_equal(virt.payload, want)


def test_synthesis_matches_fallback_broadcast():
    # the reconstructed message carries the same symbols the fallback would send
    p = make(n=2, kp=4, k=4, m=1, r=2, f=256)
    d = RequestVector((1, 2, 1, 2))
    cache, coded, sched_on, _ = setup(p, d, 57, reconstruct=True)
    cache2, coded2, sched_off, _ = setup(p, d, 57, reconstruct=False)
    assert cache == cache2
    virtuals, _ = synthesize_skipped(p.k, sched_on.leaders_mask,
                                     d.zero_based, sched_on.messages)
    fallback = {m.subset_mask: m for m in sched_off.messages if m.kind == "fallback"}
    assert fallback
    for virt in virtuals:
        fb = fallback[virt.subset_mask]
        overlap = min(virt.length, fb.length)
        assert np.array_equal(virt.payload[:overlap], fb.payload[:overlap])


def test_synthesis_across_seeds_never_fails():
    p = make(n=3, kp=5, k=5, m=1, r=2, f=192)
    rng = random.Random(59)
    for t in range(10):
        files = tuple(rng.randint(1, 3) for _ in range(5))
        d = RequestVector(files)
        cache, coded, schedule, _ = setup(p, d, derive_seed(61, t))
        virtuals, unsolved = synthesize_skipped(p.k, schedule.leaders_mask,
                                                d.zero_based, schedule.messages)
        assert unsolved == []
        # the schedule carries the same rebuilt messages every receiver uses
        assert [m.subset_mask for m in schedule.virtuals] == [m.subset_mask for m in virtuals]
        for got, want in zip(schedule.virtuals, virtuals):
            assert np.array_equal(got.payload, want.payload)
        # one virtual message per scheduled-size leaderless subset
        skipped = {m.subset_mask for m in virtuals}
        for it in schedule.iterations:
            if it.j < 2 or it.incr <= 0:
                continue
            for smask in subset_masks(p.k, it.j).tolist():
                if not smask & schedule.leaders_mask:
                    assert smask in skipped


def test_decode_user_accounting_success_and_points():
    p = make(f=256)
    d = RequestVector((1, 2, 1))
    cache, coded, schedule, config = setup(p, d, 63, real_codec=True)
    for user in range(p.k):
        res = decode_user(p, user, view_of(cache, coded, user, p.n_files),
                          schedule, mode="accounting", codec=config)
        assert res.success, res.failure
        assert res.deficit == 0
        assert res.known >= p.f
        idx, vals = res.points
        file0 = d.zero_based[user]
        assert np.array_equal(vals, coded[file0][idx])
        assert res.symbols is not None  # codec given: file reconstructed


def test_decode_user_exact_agrees():
    p = make(f=64)
    d = RequestVector((1, 2, 1))
    for t in range(5):
        cache, coded, schedule, config = setup(p, d, derive_seed(67, t),
                                               real_codec=True)
        for user in range(p.k):
            view = view_of(cache, coded, user, p.n_files)
            acc = decode_user(p, user, view, schedule, mode="accounting", codec=config)
            exa = decode_user(p, user, view, schedule, mode="exact", codec=config)
            assert acc.success and exa.success


def test_decode_fails_without_topups_and_names_the_gap():
    p = make(f=256)
    d = RequestVector((1, 2, 1))
    cache, coded, schedule, _ = setup(p, d, 71)
    if schedule.topup_symbols == 0:
        pytest.skip("no rounding deficit at this seed")
    stripped = copy.copy(schedule)
    stripped.topups = schedule.topups.take([])
    failed = 0
    for user in range(p.k):
        res = decode_user(p, user, view_of(cache, coded, user, p.n_files), stripped)
        if not res.success:
            failed += 1
            assert res.deficit > 0
            assert "short" in res.failure
    assert failed > 0


def test_decode_exact_needs_codec():
    p = make(f=64)
    d = RequestVector((1, 2, 1))
    cache, coded, schedule, _ = setup(p, d, 73)
    with pytest.raises(ValueError):
        decode_user(p, 0, view_of(cache, coded, 0, p.n_files), schedule, mode="exact")


def test_decode_with_fallback_schedule():
    p = make(n=2, kp=4, k=4, m=1, r=2, f=256)
    d = RequestVector((1, 2, 1, 2))
    cache, coded, schedule, config = setup(p, d, 77, reconstruct=False,
                                           real_codec=True)
    for user in range(p.k):
        view = view_of(cache, coded, user, p.n_files)
        acc = decode_user(p, user, view, schedule, codec=config)
        exa = decode_user(p, user, view, schedule, mode="exact", codec=config)
        assert acc.success and exa.success


@st.composite
def delivery_points(draw, max_k=9):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, max_k))
    m = draw(st.fractions(0, n, max_denominator=2))
    r = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]))
    f = suggest_feasible_f(n, m, r, draw(st.integers(2, 200)))
    demand = RequestVector(tuple(draw(st.lists(st.integers(1, n), min_size=k, max_size=k))))
    return make(n=n, kp=k, k=k, m=m, r=r, f=f), demand


@settings(max_examples=100, derandomize=True, deadline=None)
@given(point=delivery_points(), seed=st.integers(0, 2**32 - 1))
def test_replay_of_delivered_schedule_equals_recorded_points(point, seed):
    # trials read the points deliver's receiver pass recorded; decode_user is the reference
    p, d = point
    for reconstruct in (True, False):
        cache, coded, schedule, _ = setup(p, d, seed, reconstruct=reconstruct)
        for user in range(p.k):
            res = decode_user(p, user, view_of(cache, coded, user, p.n_files), schedule)
            idx, vals = schedule.known_points[user]
            assert res.success, res.failure
            assert np.array_equal(res.points[0], idx)
            assert np.array_equal(res.points[1], vals)
            assert np.array_equal(vals, coded[d.zero_based[user]][idx])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(point=delivery_points(max_k=10), seed=st.integers(0, 2**32 - 1))
def test_event_driven_pass_equals_naive_strip(point, seed):
    # the indexed pass against the rescanning loop it replaced, on every file;
    # long targets yield through slices and short ones in a batch, so the pass
    # also runs with every target on one side of that split
    p, d = point
    for reconstruct in (True, False):
        cache, coded, schedule, _ = setup(p, d, seed, reconstruct=reconstruct)
        broadcast = schedule.messages + schedule.virtuals
        index = BroadcastIndex.build(broadcast, p.coded_len)
        messages = list(broadcast)
        for user in range(p.k):
            view = view_of(cache, coded, user, p.n_files)
            earlier = schedule.topups.take(np.flatnonzero(schedule.topups.user < user))
            slow = seed_from_cache(view, p.n_files, p.coded_len)
            naive_strip(slow, [*messages, *earlier])
            for slice_len in (decoding._SLICE_LEN, 1, p.coded_len + 1):
                fast = seed_from_cache(view, p.n_files, p.coded_len)
                apply_direct(fast, earlier)
                with mock.patch.object(decoding, "_SLICE_LEN", slice_len):
                    strip_fixpoint(fast, index)
                for nf in range(p.n_files):
                    assert np.array_equal(fast.mask(nf), slow.mask(nf))
                    known = np.flatnonzero(slow.mask(nf))
                    assert np.array_equal(fast.values(nf, known), slow.values(nf, known))
