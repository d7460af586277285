"""Monte Carlo harness: determinism, codec selection, statistics, theory checks."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdscache.analysis import rate_mds_dec
from mdscache.params import RequestVector, SystemParams, suggest_feasible_f
from mdscache.simulate import (choose_codec, compare_to_theory, pseudo_symbols,
                               run_one_trial, run_trials)


def make(n=2, kp=3, k=3, m=1, r=2, f=1000) -> SystemParams:
    return SystemParams(n_files=n, k_prime=kp, k=k,
                        m=Fraction(m), r=Fraction(r), f=f)


def test_pseudo_symbols_deterministic_and_bounded():
    a = pseudo_symbols(12345, 1000)
    b = pseudo_symbols(12345, 1000)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 65536
    assert not np.array_equal(a, pseudo_symbols(12346, 1000))
    # prefix stability: longer streams extend shorter ones
    assert np.array_equal(a[:100], pseudo_symbols(12345, 100))
    # values pinned so coded file contents stay bit-identical across changes
    assert a[:6].tolist() == [31856, 47693, 28647, 9647, 665, 49529]
    assert pseudo_symbols(0, 4, 0xFF).tolist() == [193, 206, 237, 202]


def test_choose_codec_auto_thresholds():
    assert choose_codec(make(f=1000), "auto") == "real"
    assert choose_codec(make(f=100000), "auto") == "virtual"  # 2e5 > field size
    # auto is real exactly when the codeword fits in GF(2^16): r*f <= 65535
    assert choose_codec(make(f=32767), "auto") == "real"
    assert choose_codec(make(f=32768), "auto") == "virtual"
    assert choose_codec(make(f=1000), "virtual") == "virtual"
    with pytest.raises(ValueError):
        choose_codec(make(f=100000), "real")
    with pytest.raises(ValueError):
        choose_codec(make(), "bogus")


def test_single_trial_real_codec_decodes_every_user():
    p = make(f=500)
    t = run_one_trial(p, RequestVector((1, 2, 1)), 5, 0, "accounting", "real")
    assert all(t.successes)
    assert t.codec_kind == "real"
    assert t.total_symbols == t.main_symbols + t.fallback_symbols + t.topup_symbols
    assert t.rate == t.total_symbols / p.f


def test_single_trial_virtual_matches_real_traffic():
    # identical placement and schedule lengths; only the symbol values differ
    p = make(f=500)
    d = RequestVector((1, 2, 1))
    real = run_one_trial(p, d, 5, 0, "accounting", "real")
    virt = run_one_trial(p, d, 5, 0, "accounting", "virtual")
    assert real.main_symbols == virt.main_symbols
    assert real.per_iteration == virt.per_iteration
    assert all(virt.successes)


def test_run_trials_deterministic_and_jobs_invariant():
    p = make(f=1000)
    a = run_trials(p, trials=4, seed=42)
    b = run_trials(p, trials=4, seed=42)
    c = run_trials(p, trials=4, seed=42, jobs=2)
    for x, y in ((a, b), (a, c)):
        assert [t.total_symbols for t in x.trials] == [t.total_symbols for t in y.trials]
        assert [t.seed for t in x.trials] == [t.seed for t in y.trials]
    d = run_trials(p, trials=4, seed=43)
    assert [t.total_symbols for t in a.trials] != [t.total_symbols for t in d.trials]
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_trials(p, trials=1, jobs=jobs)


def test_trial_prefix_stability():
    # trial t's outcome does not depend on how many trials run
    p = make(f=1000)
    short = run_trials(p, trials=2, seed=7)
    long = run_trials(p, trials=5, seed=7)
    for s, l in zip(short.trials, long.trials):
        assert s.total_symbols == l.total_symbols and s.seed == l.seed


def test_default_demand_is_worst_case():
    p = make(n=3, kp=4, k=4, m=1, r=2, f=300)
    stats = run_trials(p, trials=1, seed=0)
    assert stats.demand.files == (1, 2, 3, 1)


def test_mean_and_std_aggregates():
    p = make(f=1000)
    stats = run_trials(p, trials=5, seed=3)
    totals = [t.total_symbols for t in stats.trials]
    assert stats.mean_rate_exact == Fraction(sum(totals), 5 * p.f)
    assert stats.success_fraction == 1.0
    assert stats.topup_fraction == sum(t.topup_symbols for t in stats.trials) / (5 * p.f)
    assert stats.std_rate >= 0


def test_exact_mode_runs_rank_decoding():
    p = make(f=64)
    stats = run_trials(p, trials=2, seed=9, mode="exact", codec="real")
    for t in stats.trials:
        assert t.exact_successes is not None
        assert all(t.exact_successes)
    with pytest.raises(ValueError):
        run_trials(make(f=100000), trials=1, mode="exact")  # needs real codec


@st.composite
def small_feasible_points(draw, max_n=3, min_k=1, max_k=5, max_f=40):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(min_k, max_k))
    m = draw(st.fractions(0, n, max_denominator=2))
    r = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
             .filter(lambda r: r >= m / n))
    f = suggest_feasible_f(n, m, r, draw(st.integers(2, max_f)))
    params = SystemParams(n_files=n, k_prime=k + draw(st.integers(0, 1)), k=k, m=m, r=r, f=f)
    demand = RequestVector(tuple(draw(st.lists(st.integers(1, n), min_size=k, max_size=k))))
    return params, demand


@settings(max_examples=150, derandomize=True, deadline=None)
@given(point=small_feasible_points(), seed=st.integers(0, 2**32 - 1))
def test_exact_mode_every_user_decodes_on_random_points(point, seed):
    # run_one_trial raises when accounting claims a success the rank oracle denies
    params, demand = point
    stats = run_trials(params, demand, trials=1, seed=seed, mode="exact", codec="real")
    (trial,) = stats.trials
    assert all(trial.successes)
    assert all(trial.exact_successes)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(point=small_feasible_points(max_n=4, min_k=6, max_k=12, max_f=64),
       seed=st.integers(0, 2**32 - 1))
def test_exact_mode_every_user_decodes_at_larger_k(point, seed):
    # the same check where the receiver pass has the most messages to peel
    params, demand = point
    stats = run_trials(params, demand, trials=1, seed=seed, mode="exact", codec="real")
    (trial,) = stats.trials
    assert all(trial.successes)
    assert all(trial.exact_successes)


def test_rate_concentrates_at_large_f():
    p = make(f=100000)
    stats = run_trials(p, RequestVector((1, 2, 1)), trials=5, seed=1)
    assert stats.codec_kind == "virtual"
    comp = compare_to_theory(stats, 0.02)
    assert comp["passed"], comp
    assert comp["relative_error"] < 0.02
    assert stats.success_fraction == 1.0


def test_topup_share_shrinks_with_block_length():
    fractions = []
    for f in (1000, 10000, 100000):
        stats = run_trials(make(f=f), RequestVector((1, 2, 1)), trials=4, seed=2)
        fractions.append(stats.topup_fraction)
    assert fractions[0] > fractions[2]
    assert fractions[2] < 0.005


def test_compare_to_theory_uses_distinct_count():
    p = make(n=2, kp=3, k=3, m=1, r=2, f=10000)
    stats = run_trials(p, RequestVector((1, 1, 1)), trials=3, seed=4)
    comp = compare_to_theory(stats, 0.05)
    assert comp["theory_rate_float"] == pytest.approx(
        float(rate_mds_dec(2, 1, 3, 2, n_distinct=1)))
    assert comp["passed"], comp
    worst = compare_to_theory(stats, 0.05, worst_case=True)
    assert worst["theory_rate_float"] == pytest.approx(
        float(rate_mds_dec(2, 1, 3, 2)))
    assert not worst["passed"]  # single-file demand is cheaper than worst case


def test_compare_to_theory_zero_tolerance_explains():
    p = make(f=1000)
    stats = run_trials(p, RequestVector((1, 2, 1)), trials=2, seed=5)
    comp = compare_to_theory(stats, 0.0)
    assert not comp["passed"]
    assert "tolerance 0" in comp["message"]
    for tolerance in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            compare_to_theory(stats, tolerance)


def test_full_cache_trial_sends_nothing():
    p = make(n=2, m=2, f=100)
    stats = run_trials(p, trials=2, seed=6)
    assert stats.mean_rate_exact == 0
    assert stats.success_fraction == 1.0
    comp = compare_to_theory(stats, 0.0)
    assert comp["passed"]  # exactly zero traffic matches the zero rate


def test_spare_provisioned_users_do_not_change_traffic():
    # extra provisioned-but-inactive users leave the schedule untouched
    active = run_trials(make(kp=3, f=1000), RequestVector((1, 2, 1)), trials=2, seed=8)
    spare = run_trials(make(kp=6, f=1000), RequestVector((1, 2, 1)), trials=2, seed=8)
    assert [t.total_symbols for t in active.trials] == \
        [t.total_symbols for t in spare.trials]
