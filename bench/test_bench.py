"""Tests of the benchmark's own helpers.  Run with: python3 -m pytest bench"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import mdscache  # noqa: E402
from mdscache import CodecConfig, RequestVector, SystemParams, decoding, delivery, gf, simulate  # noqa: E402

import run  # noqa: E402
from metrics import (covered_length, encode_terms, exact_matrix_bytes,  # noqa: E402
                     self_times, symbols_sampled, tail_percentile)
from spans import Span, Tracer, instrumented, layer_metrics  # noqa: E402

TINY = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(1), r=Fraction(2), f=8)


def test_tail_percentile_leaves_at_least_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    assert tail_percentile(samples) == (90, 90, 100)  # 91..100 lie beyond
    assert tail_percentile(reversed(range(1, 21))) == (10, 50, 20)
    assert tail_percentile(range(1, 1001)) == (990, 99, 1000)
    # 11 samples: p9 is the smallest (rank 1), the only rank with 10 beyond it
    assert tail_percentile(range(11)) == (0, 9, 11)
    for n in (11, 17, 33, 250):
        value, p, count = tail_percentile(range(n))
        beyond = sum(x > value for x in range(n))
        assert beyond >= 10
        if p < 99:  # one percentile higher would leave fewer than ten beyond
            assert n - math.ceil((p + 1) * n / 100) < 10
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def _span(i, start, end, parent=None):
    return Span(id=i, name=f"s{i}", start=start, end=end, parent=parent, trial=0)


def test_self_time_nested_and_adjacent_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),   # adjacent to span 2
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 4.0, 5.0, parent=2),   # grandchild: inside span 2, not subtracted from span 0
        _span(4, 8.0, 9.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    # overlapping intervals count once, and only inside the parent
    assert covered_length(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    assert covered_length(0.0, 1.0, []) == 0.0


def test_computed_counts_by_hand():
    # 3 users x 2 files x (m/n_files * f = 4) cached coded symbols
    assert symbols_sampled(TINY) == 3 * 2 * 4
    # f = 8 message symbols, 8 parity symbols, each a sum of 8 products
    assert encode_terms(CodecConfig.from_expansion(8, 2)) == 64
    view = {0: (range(4), None), 1: (range(4), None)}
    sched = SimpleNamespace(messages=[SimpleNamespace(length=2), SimpleNamespace(length=0)],
                            topups=[SimpleNamespace(length=1)])
    # (4 + 4 cached + 2 + 1 received) rows x (2 files * 8) columns x 8 bytes
    assert exact_matrix_bytes(TINY, view, sched) == 11 * 16 * 8


def _tiny_trial(mode="accounting", codec="real"):
    demand = RequestVector.worst_case(TINY)
    return simulate.run_one_trial(TINY, demand, 3, 0, mode, codec)


def test_traced_counts_match_hand_values_and_results_are_unchanged():
    plain = _tiny_trial(mode="exact")
    originals = (simulate.prefetch, delivery.strip_fixpoint, decoding.strip_fixpoint,
                 gf.GF2.mul_vec, decoding.UserKnowledge.knows_all)
    tracer = Tracer()
    tracer.trial = 0
    with instrumented(tracer):
        traced = _tiny_trial(mode="exact")
    assert traced == plain
    assert (simulate.prefetch, delivery.strip_fixpoint, decoding.strip_fixpoint,
            gf.GF2.mul_vec, decoding.UserKnowledge.knows_all) == originals

    counts = tracer.counts[0]
    assert counts["placement.symbols_sampled"] == 24
    # two file encodes plus one generator matrix (f = 8 unit encodes) per exact decode
    assert counts["mds.encode_terms"] == (2 + 3 * 8) * 64
    assert counts["decoding.strip_calls"] == 2 * TINY.k
    assert counts["decoding.synthesize_calls"] == TINY.k + 1
    assert counts["decoding.exact_decodes"] == TINY.k

    metrics = layer_metrics(tracer, [0])
    assert set(metrics) | {"trace_overhead", "decode_fail_share"} == set(run.PER_LAYER_UNITS)
    assert metrics["mds.encode_terms"] == (2 + 3 * 8) * 64
    assert metrics["decoding.exact_s"] > 0
    names = {s.name for s in tracer.spans}
    assert {"simulate.run_one_trial", "placement.prefetch", "delivery.deliver",
            "decoding.decode_user.exact", "mds.generator_matrix", "gf.mul_vec"} <= names


def test_check_result_flags_failed_users_and_oracle_disagreement():
    wl = SimpleNamespace(mode="exact")
    point = run.Point(wl, TINY, RequestVector.worst_case(TINY), "real", Fraction(1))
    good = _tiny_trial(mode="exact")
    assert run.check_result(point, 0, good) == (0, [])
    bad = simulate.TrialResult(**{**good.__dict__, "successes": (True, False, True),
                                  "exact_successes": (True, True, False)})
    failed, problems = run.check_result(point, 0, bad)
    assert failed == 2
    assert any("failed to decode" in p for p in problems)
    assert sum("rank oracle" in p for p in problems) == 2


def test_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_missing_sources_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify-exact", "--seconds", "1"]) == 2


def test_mdscache_comes_from_this_checkout():
    assert Path(mdscache.__file__).resolve().parent == (BENCH.parent / "src" / "mdscache").resolve()
