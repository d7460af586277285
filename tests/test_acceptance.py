"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints its own PASS line with the measured quantities; pytest -v
shows the per-criterion verdict either way.
"""
import itertools
import random
import time
from fractions import Fraction

import numpy as np

from mdscache.analysis import (best_r, rate_mds_dec, rate_uncoded_cen,
                               rate_uncoded_dec)
from mdscache.cli import main
from mdscache.delivery import plan_schedule
from mdscache.mds import CodecConfig, mds_decode, mds_encode
from mdscache.params import (RequestVector, SystemParams, suggest_feasible_f,
                             validate)
from mdscache.simulate import compare_to_theory, run_trials


def test_criterion_01_golden_exact_rates():
    start = time.monotonic()
    assert rate_uncoded_dec(2, 1, 2) == Fraction(3, 4)
    assert rate_mds_dec(2, 1, 2, 2) == Fraction(5, 8)
    assert rate_mds_dec(2, 1, 2, 3) == Fraction(7, 12)
    assert rate_mds_dec(2, 1, 2, 4) == Fraction(9, 16)
    for r in range(1, 101):
        assert rate_mds_dec(2, 1, 2, r) == Fraction(1, 2) + Fraction(1, 4 * r)
    assert rate_mds_dec(2, 1, 3, 2) == Fraction(45, 64)
    assert rate_mds_dec(2, 1, 3, Fraction(3, 2)) == Fraction(25, 36)
    assert rate_uncoded_cen(2, 1, 2) == Fraction(1, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden rates exact, {elapsed:.3f}s")


def test_criterion_02_r_one_reduction_grid():
    start = time.monotonic()
    checked = 0
    for n in (2, 5, 20, 100):
        for k in (2, 3, 4, 8):
            for m in (Fraction(n, 10), Fraction(n, 4), Fraction(n, 2)):
                assert rate_mds_dec(n, m, k, 1) == rate_uncoded_dec(n, m, k)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: r=1 reduction on {checked} grid points, {elapsed:.3f}s")


def test_criterion_03_large_expansion_limit():
    gap = rate_mds_dec(2, 1, 2, 1000) - Fraction(1, 2)
    assert gap == Fraction(1, 4000)
    print("PASS criterion 3: rate(2,1,2,1000) - 1/2 = 1/4000 exactly")


def test_criterion_04_rate_orderings_over_k():
    start = time.monotonic()
    gaps = []
    for k in range(10, 51, 10):
        r1 = rate_mds_dec(100, 2, k, 1)
        r2 = rate_mds_dec(100, 2, k, 2)
        r10 = rate_mds_dec(100, 2, k, 10)
        assert r10 < r2 < r1, f"ordering broken at k={k}"
        gaps.append(r1 - r10)
    assert all(b >= a for a, b in zip(gaps, gaps[1:])), "gap not non-decreasing"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 4: r=10 < r=2 < r=1 at k=10..50, gap grows, {elapsed:.3f}s")


def test_criterion_05_interior_optimum():
    grid = [Fraction(x, 4) for x in range(4, 41)]
    r_star, best = best_r(20, 12, 4, grid)
    assert best < rate_mds_dec(20, 12, 4, 1)
    assert best < rate_mds_dec(20, 12, 4, 10)
    assert Fraction(5, 4) <= r_star <= Fraction(2)
    print(f"PASS criterion 5: optimum r*={r_star} with rate {best} inside [5/4, 2]")


def test_criterion_06_end_to_end_simulation():
    start = time.monotonic()
    params = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(1),
                          r=Fraction(2), f=100000)
    stats = run_trials(params, RequestVector((1, 2, 1)), trials=20, seed=2026)
    comp = compare_to_theory(stats, 0.02)
    elapsed = time.monotonic() - start
    assert stats.success_fraction == 1.0, "some user failed to decode"
    assert comp["relative_error"] <= 0.02, comp
    assert stats.topup_fraction < 0.01, stats.topup_fraction
    assert elapsed < 60.0
    print(f"PASS criterion 6: 20 trials at f=1e5, success 100%, mean rate "
          f"{comp['mean_rate_float']:.6f} vs 45/64 = 0.703125 "
          f"({comp['relative_error']:.2e} rel), top-up {stats.topup_fraction:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_07_accounting_agrees_with_rank_oracle():
    start = time.monotonic()
    tuples = [
        (2, 1, 3, Fraction(2), 64),
        (3, 1, 4, Fraction(3, 2), 48),
        (4, 2, 4, Fraction(2), 32),
        (2, 1, 2, Fraction(3), 64),
        (5, 3, 3, Fraction(2), 20),
    ]
    pairs = 0
    for n, m, k, r, f in tuples:
        p = SystemParams(n_files=n, k_prime=k, k=k, m=Fraction(m), r=r, f=f)
        stats = run_trials(p, trials=10, seed=907, mode="exact", codec="real")
        for t in stats.trials:
            assert t.successes == t.exact_successes, \
                f"modes disagree on {n, m, k, r, f} trial {t.trial}"
            assert all(t.successes)
            pairs += len(t.successes)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"PASS criterion 7: accounting = rank oracle on {pairs} (user, trial) "
          f"pairs over 5 tuples x 10 trials, {elapsed:.1f}s")


def test_criterion_08_plan_reproduces_closed_form():
    start = time.monotonic()
    rng = random.Random(808)
    done = 0
    while done < 200:
        n = rng.randint(1, 12)
        k = rng.randint(1, 8)
        m = Fraction(rng.randint(0, 4 * n), 4)
        r = Fraction(rng.randint(2, 10), 2)
        if r < Fraction(m, n):
            continue
        f = suggest_feasible_f(n, m, r, rng.randint(1, 64))
        p = SystemParams(n_files=n, k_prime=k, k=k, m=m, r=r, f=f)
        if validate(p):
            continue
        d = RequestVector.worst_case(p)
        plan = plan_schedule(p, d)
        assert plan.total == rate_mds_dec(n, m, k, r) * f, (n, m, k, r, f)
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 8: plan total = closed form exactly on {done} random "
          f"tuples, {elapsed:.1f}s")


def test_criterion_09_mds_roundtrip_suite():
    start = time.monotonic()
    combos = list(itertools.product((16, 64, 256),
                                    (Fraction(3, 2), Fraction(2), Fraction(4))))
    base, extra = divmod(1000, len(combos))
    failures = 0
    total = 0
    for i, (f, r) in enumerate(combos):
        config = CodecConfig.from_expansion(f, r)
        rng = np.random.default_rng(900 + i)
        runs = base + (1 if i < extra else 0)
        for _ in range(runs):
            data = rng.integers(0, 65536, size=f).astype(np.int64)
            coded = mds_encode(data, config)
            keep = rng.permutation(config.n)[:f]
            got = mds_decode([(int(j), int(coded[j])) for j in keep], config)
            total += 1
            if not np.array_equal(got, data):
                failures += 1
    assert failures == 0 and total == 1000
    # exhaustive any-4-of-8
    config = CodecConfig(4, 8)
    rng = np.random.default_rng(909)
    data = rng.integers(0, 65536, size=4).astype(np.int64)
    coded = mds_encode(data, config)
    for subset in itertools.combinations(range(8), 4):
        got = mds_decode([(j, int(coded[j])) for j in subset], config)
        assert np.array_equal(got, data), subset
    elapsed = time.monotonic() - start
    print(f"PASS criterion 9: 1000 random roundtrips + exhaustive 4-of-8, "
          f"0 failures, {elapsed:.1f}s")


def test_criterion_10_simulate_logs_byte_identical(tmp_path):
    blobs = []
    for name in ("first", "second"):
        log = tmp_path / f"{name}.jsonl"
        report = tmp_path / f"{name}.json"
        code = main(["simulate", "--n", "2", "--m", "1", "--k", "3", "--r", "2",
                     "--f", "2000", "--trials", "5", "--seed", "1010",
                     "--out", str(report), "--log", str(log)])
        assert code == 0
        blobs.append((log.read_bytes(), report.read_bytes()))
    assert blobs[0] == blobs[1]
    print("PASS criterion 10: same-seed simulate runs are byte-identical")
