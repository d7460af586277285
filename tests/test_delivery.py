"""Schedule planning and symbol-level delivery."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_reference import (assert_same_messages, planned_messages, reference_messages,
                                 reference_synthesize)
from mdscache.analysis import rate_mds_dec, rate_uncoded_dec, stop_index
from mdscache.delivery import deliver, leaders, plan_schedule
from mdscache.params import (RequestVector, SystemParams, mask_users, subset_masks,
                             suggest_feasible_f, validate)
from mdscache.placement import derive_seed, prefetch
from mdscache.simulate import pseudo_symbols


def make(n=2, kp=3, k=3, m=1, r=2, f=64) -> SystemParams:
    return SystemParams(n_files=n, k_prime=kp, k=k,
                        m=Fraction(m), r=Fraction(r), f=f)


def coded_library(p: SystemParams, seed: int) -> dict[int, np.ndarray]:
    return {nf: pseudo_symbols(derive_seed(seed, nf), p.coded_len)
            for nf in range(p.n_files)}


def test_leaders():
    assert leaders(RequestVector((1, 2, 1))) == (0, 1)
    assert leaders(RequestVector((3, 3, 3))) == (0,)
    assert leaders(RequestVector((2, 1))) == (0, 1)
    assert leaders(RequestVector((4, 2, 2, 4, 1))) == (0, 1, 4)


def test_plan_small_example_by_hand():
    # n=2 m=1 k=3 r=2 f=64: cached 32, expected sizes 2F*q^t(1-q)^(3-t)
    p = make()
    d = RequestVector((1, 2, 1))
    plan = plan_schedule(p, d)
    assert plan.s == stop_index(2, 1, 3, 2) == 2
    assert plan.total == Fraction(45)
    by_j = {}
    for msg in planned_messages(plan, p.k, d):
        by_j.setdefault(msg.j, []).append(msg)
    assert sorted(by_j) == [2, 3]
    assert len(by_j[3]) == 1 and by_j[3][0].length == Fraction(6)
    assert len(by_j[2]) == 3 and all(m.length == Fraction(13) for m in by_j[2])


def test_plan_respects_leader_skipping():
    p = make(n=2, kp=4, k=4, m=1, r=2, f=128)
    d = RequestVector((1, 2, 1, 2))  # leaders {0, 1}
    messages = planned_messages(plan_schedule(p, d), p.k, d)
    for msg in messages:
        assert msg.subset_mask & 0b0011, f"leaderless subset {msg.subset_mask:b} scheduled"
    scheduled = {m.subset_mask for m in messages if m.j == 2}
    assert 0b1100 not in scheduled


def test_plan_full_and_empty_caches():
    full = make(n=2, m=2)
    d = RequestVector((1, 2, 1))
    plan = plan_schedule(full, d)
    assert plan.s == 4 and plan.total == 0 and planned_messages(plan, full.k, d) == []
    empty = make(n=2, m=0)
    plan = plan_schedule(empty, RequestVector((1, 2, 1)))
    assert plan.total == 2 * empty.f  # min(n, k) files in full


def test_plan_on_expected_sizes_equals_closed_form():
    rng = random.Random(10)
    done = 0
    while done < 120:
        n = rng.randint(1, 10)
        k = rng.randint(1, 7)
        m = Fraction(rng.randint(0, 3 * n), 3)
        r = Fraction(rng.randint(2, 8), 2)
        if r < Fraction(m, n):
            continue
        f = suggest_feasible_f(n, m, r, rng.randint(1, 50))
        p = SystemParams(n_files=n, k_prime=k, k=k, m=m, r=r, f=f)
        if validate(p):
            continue
        d = RequestVector(tuple(rng.randint(1, n) for _ in range(k)))
        plan = plan_schedule(p, d)
        want = rate_mds_dec(n, m, k, r, n_distinct=d.n_distinct) * f
        assert plan.total == want, (n, m, k, r, f, d.files)
        done += 1


def test_plan_r_one_schedules_every_leader_subset():
    # plain placement: no early stop, message family {S : S hits a leader}
    p = make(n=3, kp=3, k=3, m=1, r=1, f=27)
    d = RequestVector((1, 2, 3))
    plan = plan_schedule(p, d)
    assert plan.s == 1
    got = {(m.j, m.subset_mask) for m in planned_messages(plan, p.k, d)}
    want = {(j, smask)
            for j in range(3, 0, -1)
            for smask in subset_masks(3, j).tolist()}
    assert got == want  # every subset hits a leader when all requests differ
    assert plan.total == rate_uncoded_dec(3, 1, 3) * p.f


def deliver_setup(p, d, seed, reconstruct=True):
    cache = prefetch(p, derive_seed(seed, 1))
    coded = coded_library(p, derive_seed(seed, 2))
    schedule = deliver(p, cache, d, coded, reconstruct=reconstruct)
    return cache, coded, schedule


def test_deliver_message_lengths_and_caps():
    p = make(f=10000)
    d = RequestVector((1, 2, 1))
    cache, coded, schedule = deliver_setup(p, d, 23)
    plan = plan_schedule(p, d)
    caps = {}
    for it_plan in plan.iterations:
        caps[it_plan.j] = it_plan.incr
    for msg in schedule.messages:
        assert msg.length == len(msg.payload)
        assert msg.length <= -(-caps[msg.j].numerator // caps[msg.j].denominator)
        assert msg.subset_mask & schedule.leaders_mask
    # main symbols stay within one rounding unit per message of the plan
    assert schedule.main_symbols <= plan.total + len(schedule.messages)
    # total with top-ups lands near the closed form at this block length
    want = float(rate_mds_dec(2, 1, 3, 2, n_distinct=2) * p.f)
    assert abs(schedule.total_symbols - want) / want < 0.05


def test_deliver_payloads_are_block_xors():
    p = make(f=256)
    d = RequestVector((1, 2, 1))
    cache, coded, schedule = deliver_setup(p, d, 29)
    for msg in schedule.messages:
        if msg.kind != "main":
            continue
        want = np.zeros(msg.length, dtype=np.int64)
        for c in msg.components:
            want[: len(c.indices)] ^= coded[c.file][c.indices]
        assert np.array_equal(want, msg.payload)
        # component indices come from the block cached by exactly the others
        for c in msg.components:
            others = mask_users(c.block_mask)
            assert c.user not in others
            for u in others:
                assert cache.mask(u, c.file)[c.indices].all()
            assert not cache.mask(c.user, c.file)[c.indices].any()


def test_deliver_topups_repair_rounding_deficits():
    p = make(f=10000)
    d = RequestVector((1, 2, 1))
    cache, coded, schedule = deliver_setup(p, d, 31)
    assert schedule.topup_symbols < 0.01 * p.f
    for msg in schedule.topups:
        assert msg.kind == "topup"
        assert len(msg.components) == 1
    assert schedule.total_symbols == (schedule.main_symbols
                                      + schedule.fallback_symbols
                                      + schedule.topup_symbols)


def test_deliver_skips_leaderless_subsets_by_default():
    p = make(n=2, kp=4, k=4, m=1, r=2, f=256)
    d = RequestVector((1, 2, 1, 2))
    cache, coded, schedule = deliver_setup(p, d, 37)
    assert all(m.subset_mask & 0b0011 for m in schedule.messages)
    assert schedule.fallback_symbols == 0


def test_deliver_fallback_broadcasts_leaderless_subsets():
    p = make(n=2, kp=4, k=4, m=1, r=2, f=256)
    d = RequestVector((1, 2, 1, 2))
    cache, coded, schedule = deliver_setup(p, d, 37, reconstruct=False)
    kinds = {m.kind for m in schedule.messages}
    assert "fallback" in kinds
    fallback_masks = {m.subset_mask for m in schedule.messages if m.kind == "fallback"}
    assert all(not mask & 0b0011 for mask in fallback_masks)
    assert schedule.fallback_symbols > 0
    assert schedule.unsolved_skips == []
    assert len(schedule.virtuals) == 0  # the fallbacks already carry the skipped subsets


def test_deliver_sentinel_schedules_nothing():
    p = make(n=2, m=2)
    cache = prefetch(p, 3)
    coded = coded_library(p, 4)
    schedule = deliver(p, cache, RequestVector((1, 2, 1)), coded)
    assert schedule.total_symbols == 0
    assert schedule.s == p.k + 1


def test_deliver_json_is_deterministic_and_shaped():
    p = make(f=128)
    d = RequestVector((1, 2, 1))
    _, _, s1 = deliver_setup(p, d, 41)
    _, _, s2 = deliver_setup(p, d, 41)
    assert s1.to_json() == s2.to_json()
    import json
    obj = json.loads(s1.to_json())
    assert obj["demand"] == [1, 2, 1]
    assert obj["totals"]["total"] == s1.total_symbols
    assert len(obj["messages"]) == len(s1.messages)
    assert len(obj["topup"]) == len(s1.topups)


def test_rounding_overshoot_is_small_and_nonnegative():
    p = make(f=10000)
    d = RequestVector((1, 2, 1))
    _, _, schedule = deliver_setup(p, d, 43)
    over = schedule.rounding_overshoot
    assert over >= 0
    assert over <= len(schedule.messages)  # at most one symbol per message


@st.composite
def planner_points(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 12))
    m = draw(st.fractions(0, n, max_denominator=4))
    r = draw(st.fractions(1, 5, max_denominator=2))
    f = suggest_feasible_f(n, m, r, draw(st.integers(1, 64)))
    demand = RequestVector(tuple(draw(st.lists(st.integers(1, n), min_size=k, max_size=k))))
    return make(n=n, kp=k, k=k, m=m, r=r, f=f), demand


@settings(max_examples=200, derandomize=True, deadline=None)
@given(point=planner_points())
def test_plan_total_equals_closed_form_at_random_demands(point):
    # acceptance criterion 8 covers the worst-case demand only
    p, d = point
    plan = plan_schedule(p, d)
    assert plan.total == rate_mds_dec(p.n_files, p.m, p.k, p.r, n_distinct=d.n_distinct) * p.f


@st.composite
def broadcast_points(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 10))
    m = draw(st.fractions(0, n, max_denominator=2))
    r = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]))
    f = suggest_feasible_f(n, m, r, draw(st.integers(2, 300)))
    demand = RequestVector(tuple(draw(st.lists(st.integers(1, n), min_size=k, max_size=k))))
    return make(n=n, kp=k, k=k, m=m, r=r, f=f), demand


@settings(max_examples=100, derandomize=True, deadline=None)
@given(point=broadcast_points(), seed=st.integers(0, 2**32 - 1))
def test_columnar_broadcast_equals_object_reference(point, seed):
    # the record deliver builds iteration by iteration, and the skipped messages
    # rebuilt from it, against the message-at-a-time code they replaced
    p, d = point
    for reconstruct in (True, False):
        cache, coded, schedule = deliver_setup(p, d, seed, reconstruct=reconstruct)
        want = reference_messages(p, cache, d, coded, reconstruct=reconstruct)
        assert_same_messages(schedule.messages, want)
        main = [m for m in want if m.kind == "main"]
        incr = {it.j: it.incr for it in schedule.iterations}
        assert schedule.main_symbols == sum(m.length for m in main)
        assert schedule.fallback_symbols == sum(m.length for m in want if m.kind == "fallback")
        assert schedule.rounding_overshoot == sum(
            (max(Fraction(0), m.length - incr[m.j]) for m in main), Fraction(0))
        virtuals, unsolved = (reference_synthesize(p.k, schedule.leaders_mask, d.zero_based, want)
                              if reconstruct else ([], []))
        assert_same_messages(schedule.virtuals, virtuals)
        assert schedule.unsolved_skips == unsolved


def test_skipped_messages_equal_elimination_at_large_k():
    # the property test above stops at k = 10; the skipped subsets and the
    # constituents per subset grow fastest beyond it
    for n, k, m, r, f in [(4, 12, 2, 2, 600), (4, 16, 2, 2, 4000)]:
        p = make(n=n, kp=k, k=k, m=m, r=r, f=f)
        d = RequestVector.worst_case(p)
        _, _, schedule = deliver_setup(p, d, 1)
        virtuals, unsolved = reference_synthesize(p.k, schedule.leaders_mask, d.zero_based,
                                                  schedule.messages)
        assert_same_messages(schedule.virtuals, virtuals)
        assert schedule.unsolved_skips == unsolved
        assert virtuals and unsolved
